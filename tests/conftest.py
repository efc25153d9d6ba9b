import sys
from pathlib import Path

import pytest

import gaplab.sieve as sieve

sys.path.insert(0, str(Path(__file__).parent))

from oracles import dense_sieve


@pytest.fixture(scope="session")
def oracle_primes_1m() -> list[int]:
    """Dense-sieve prime list to 10^6, shared by oracle-backed tests."""
    return dense_sieve(10**6)


@pytest.fixture
def set_segment_size(monkeypatch):
    """Setter for the candidates (numbers coprime to 6) per sieve segment, restored after the test.

    Every stream function reads sieve.DEFAULT_SEGMENT_SIZE when its sieve
    starts, so a test calls this before the run whose segment edges it
    wants to move.
    """

    def set_size(size: int) -> None:
        monkeypatch.setattr(sieve, "DEFAULT_SEGMENT_SIZE", size)

    return set_size
