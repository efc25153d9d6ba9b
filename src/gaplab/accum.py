"""Compensated accumulation for long positive sums.

The series trackers report partial sums of slowly divergent series over
millions of terms, where plain float64 accumulation is not trusted at the
digits we print. The accumulator below keeps the running sum as an
unevaluated pair of doubles (roughly 32 significant decimal digits), and
blocks of terms are reduced with exact float summation before entering it,
so the result does not depend on how the input was segmented.
"""

from __future__ import annotations

import math
from typing import Iterable

__all__ = ["two_sum", "DoubleDouble", "exact_block_sum"]


def two_sum(a: float, b: float) -> tuple[float, float]:
    """Error-free transformation: returns (s, err) with a + b = s + err exactly."""
    s = a + b
    bb = s - a
    err = (a - (s - bb)) + (b - bb)
    return s, err


def exact_block_sum(values: Iterable[float]) -> tuple[float, float]:
    """Sum a block of floats, returned as a head/tail pair.

    Two passes of ``math.fsum``: the first yields the correctly rounded
    head s, the second the correctly rounded tail of (sum - s). The pair
    represents the exact sum of the inputs to about 2**-106 relative.
    """
    vals = values.tolist() if hasattr(values, "tolist") else list(values)
    s = math.fsum(vals)
    vals.append(-s)
    e = math.fsum(vals)
    return s, e


class DoubleDouble:
    """Running sum held as an unevaluated pair hi + lo of floats."""

    __slots__ = ("hi", "lo")

    def __init__(self, hi: float = 0.0, lo: float = 0.0):
        self.hi = hi
        self.lo = lo

    def add(self, hi: float, lo: float = 0.0) -> None:
        s, e = two_sum(self.hi, hi)
        t = self.lo + lo + e
        self.hi, self.lo = two_sum(s, t)

    def value(self) -> float:
        return self.hi + self.lo

    def __repr__(self) -> str:
        return f"DoubleDouble({self.hi!r}, {self.lo!r})"
