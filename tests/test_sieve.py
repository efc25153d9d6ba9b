import inspect
import os
import subprocess
import sys
import threading
import time
from bisect import bisect_left
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import gaplab.sieve as sieve
from gaplab.errors import CapacityError
from gaplab.gaps import gpy_statistics, iter_gap_blocks, polignac_count
from gaplab.ratios import gap_bound_report, prime_ratio_scan
from gaplab.report import export_report
from gaplab.series import pnt_ratio_track, reciprocal_prime_sum
from gaplab.sieve import (
    MAX_LIMIT,
    PrimeBlock,
    nth_prime,
    prime_count,
    primes_upto,
    sieve_primes,
    write_dump_block,
)

from oracles import bitmap_prime_count, dense_sieve, is_prime_trial_division, trial_division_primes


def test_first_primes_with_indices():
    blocks = list(sieve_primes(10))
    assert blocks[0].start_index == 1
    assert np.concatenate([b.primes for b in blocks]).tolist() == [2, 3, 5, 7]
    assert blocks[-1].start_index + len(blocks[-1]) - 1 == 4


def test_against_trial_division_to_1e5():
    assert primes_upto(100_000).tolist() == trial_division_primes(100_000)


def test_against_dense_sieve_at_many_limits():
    oracle = dense_sieve(100_000)
    for limit in (2, 3, 4, 5, 10, 97, 100, 1000, 4096, 65_537, 99_991):
        expected = [p for p in oracle if p <= limit]
        assert primes_upto(limit).tolist() == expected


def test_prime_counts():
    assert prime_count(1) == 0
    assert prime_count(0) == 0
    assert prime_count(2) == 1
    assert prime_count(100) == 25
    assert prime_count(10**6) == 78498  # trial-division/dense oracle, frozen


def test_prime_count_rejects_negative():
    with pytest.raises(ValueError):
        prime_count(-1)


def test_nth_prime_values():
    assert nth_prime(1) == 2
    assert nth_prime(10) == 29
    assert nth_prime(1000) == 7919
    p = nth_prime(78498)
    assert p == 999983
    assert is_prime_trial_division(p)


def test_nth_prime_prime_count_adjoint():
    for x in (2, 3, 10, 97, 1000, 12345):
        assert nth_prime(prime_count(x)) <= x


def test_index_consistency(set_segment_size):
    # for each emitted prime p at index i, prime_count(p) == i
    set_segment_size(512)
    blocks = list(sieve_primes(10_000))
    for block in blocks[:2]:
        for offset in (0, len(block) // 2, len(block) - 1):
            i = block.start_index + offset
            p = int(block.primes[offset])
            assert prime_count(p) == i


@pytest.mark.parametrize("segment_size", [1, 2, 64])
def test_head_table_meets_the_first_segment(segment_size, set_segment_size):
    # the primes below 19 come from a table and the rest from the kernel's
    # bitmaps: every window across that seam, with segment edges on it and
    # beside it; each stream is drained before the next one starts
    set_segment_size(segment_size)
    oracle = dense_sieve(40)
    for start in range(1, 25):
        for limit in range(2, 41):
            blocks = list(sieve_primes(limit, start=start))
            got = [p for b in blocks for p in b.primes.tolist()]
            assert got == [p for p in oracle if start <= p <= limit], (start, limit)
            for b in blocks:
                assert b.start_index == bisect_left(oracle, int(b.primes[0])) + 1, (start, limit)
                assert not b.primes.flags.writeable, (start, limit)


def test_block_invariants(set_segment_size):
    prev_end = 0
    prev_last = 0
    set_segment_size(1024)
    for block in sieve_primes(50_000):
        assert isinstance(block, PrimeBlock)
        assert block.start_index == prev_end + 1
        arr = block.primes
        assert (np.diff(arr) > 0).all()
        assert arr[0] > prev_last
        assert not arr.flags.writeable
        prev_end = block.start_index + len(block) - 1
        prev_last = int(arr[-1])


def test_deterministic_across_segment_sizes_and_threads(set_segment_size):
    reference = primes_upto(200_000)
    for segment_size in (64, 101, 4096, 1 << 18, 999):
        set_segment_size(segment_size)
        assert np.array_equal(primes_upto(200_000), reference)


def test_block_index_structure_independent_of_threads(set_segment_size):
    set_segment_size(2048)
    seq = [(b.start_index, len(b)) for b in sieve_primes(100_000)]
    par = [(b.start_index, len(b)) for b in sieve_primes(100_000, threads=4)]
    assert seq == par


def test_domain_and_capacity_errors():
    with pytest.raises(ValueError):
        list(sieve_primes(1))
    with pytest.raises(CapacityError) as exc:
        list(sieve_primes(MAX_LIMIT + 1))
    assert str(MAX_LIMIT) in str(exc.value)
    with pytest.raises(ValueError):
        nth_prime(0)
    # the upper bound of p_(2*10^17) passes 2^62, so nothing is sieved
    with pytest.raises(CapacityError, match="exceeds the supported maximum value"):
        nth_prime(2 * 10**17)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=2, max_value=3000))
def test_small_limits_match_oracle(limit):
    assert primes_upto(limit).tolist() == trial_division_primes(limit)


def test_prime_dump_roundtrip(tmp_path, set_segment_size):
    path = tmp_path / "primes.bin"
    count = 0
    set_segment_size(64)
    with open(path, "wb") as fh:
        for block in sieve_primes(1000):
            write_dump_block(fh, block)
            count += len(block)
    assert count == 168
    back = np.fromfile(path, dtype="<i8")
    assert back.tolist() == primes_upto(1000).tolist()
    # little-endian contract: first value is 2
    assert path.read_bytes()[:8] == (2).to_bytes(8, "little")


@pytest.fixture(scope="module")
def oracle_2m() -> np.ndarray:
    return np.array(dense_sieve(2_000_003), dtype=np.int64)


@pytest.mark.parametrize("segment_size", [64, 101, 4099, 170_170, 255_255, 1 << 20])
def test_wheel_and_carried_offsets_match_dense_sieve(segment_size, oracle_2m, set_segment_size):
    # 64 candidates per segment carries every base prime's offsets across
    # 10,417 segments; 170,170 is one wheel period, 255,255 one and a half,
    # and 4099 and 101 never align with it
    set_segment_size(segment_size)
    assert np.array_equal(primes_upto(2_000_003), oracle_2m)


def test_limits_at_wheel_primes_and_period_edges(oracle_2m, set_segment_size):
    period_edge = 2 * 255_255 + 1
    limits = [3, 5, 7, 9, 11, 13, 15, 17, 19, 23] + [period_edge + d for d in (-2, 0, 2)]
    for limit in limits:
        expected = oracle_2m[oracle_2m <= limit]
        for segment_size in (64, 255_255, 1 << 20):
            set_segment_size(segment_size)
            assert np.array_equal(primes_upto(limit), expected), (limit, segment_size)
            assert prime_count(limit) == len(expected)


def test_prime_count_counts_bitmaps_without_materializing(monkeypatch, set_segment_size):
    def no_blocks(*args, **kwargs):
        raise AssertionError("prime_count went through sieve_primes")

    monkeypatch.setattr(sieve, "sieve_primes", no_blocks)
    assert prime_count(10**8) == 5_761_455
    set_segment_size(64)
    assert prime_count(2_000_003) == 148_934  # dense-sieve oracle


@pytest.fixture(scope="module")
def oracle_4m() -> np.ndarray:
    return np.array(dense_sieve(1 << 22), dtype=np.int64)


def _pi_oracle(oracle: np.ndarray, x: int) -> int:
    return int(np.searchsorted(oracle, x, side="right"))


def test_prime_pi_matches_dense_sieve(oracle_4m):
    rng = np.random.default_rng(13)
    squares = [int(q) * int(q) for q in oracle_4m[oracle_4m <= 1 << 11]]
    xs = (
        list(range(21))
        + [1 << k for k in range(23)]
        + [s + d for s in squares for d in (-1, 0, 1)]
        + rng.integers(0, 3 * 10**6, 200).tolist()
    )
    for x in xs:
        assert sieve._prime_pi(x) == _pi_oracle(oracle_4m, x), x


# ---------------------------------------------------------------------------
# the kernel's own base primes: _kernel_primes drains _segments from 19, and
# _segments takes its base primes from _kernel_primes at isqrt(limit)

# every bound up to 400, past the first base prime's square (19^2 = 361), and
# each side of 19^2, 23^2 and 1009^2, where a base prime joins the recursion
_DRAIN_BOUNDS = list(range(401)) + [q * q + d for q in (19, 23, 1009) for d in (-1, 0, 1)]


@pytest.fixture(scope="module")
def oracle_drain() -> np.ndarray:
    return np.array(dense_sieve(max(_DRAIN_BOUNDS)), dtype=np.int64)


@pytest.mark.parametrize("segment_size", [1, 64, 101, 4099])
def test_kernel_primes_match_dense_sieve(segment_size, oracle_drain, set_segment_size):
    # at one candidate per segment a drain to 1009^2 walks about 339,000
    # segments, so that size stops at 23^2 + 1
    set_segment_size(segment_size)
    for n in _DRAIN_BOUNDS:
        if segment_size == 1 and n > 1000:
            continue
        got = sieve._kernel_primes(n)
        assert got.dtype == np.int64, n
        assert np.array_equal(got, oracle_drain[(oracle_drain >= 19) & (oracle_drain <= n)]), n


@pytest.mark.parametrize("segment_size", [1, 64, 101, 4099])
def test_prime_pi_matches_dense_sieve_at_the_drain_bounds(segment_size, oracle_drain, set_segment_size):
    set_segment_size(segment_size)
    for x in _DRAIN_BOUNDS:
        assert sieve._prime_pi(x) == _pi_oracle(oracle_drain, x), x


def test_prime_pi_at_published_values():
    # OEIS A006880
    assert sieve._prime_pi(10**9) == 50_847_534
    assert sieve._prime_pi(10**10) == 455_052_511


def test_prime_pi_agrees_with_bitmap_count():
    rng = np.random.default_rng(7)
    for x in [10**8] + rng.integers(10**6, 3 * 10**7, 4).tolist():
        assert prime_count(x) == bitmap_prime_count(x), x


# window starts: the wheel primes and the first base prime; even starts and
# primes; 19^2, 23^2 and 709^2 = 502,681, the last prime square below the
# wheel's period of 510,510 integers, with their neighbours; starts across
# that period's edge
_WINDOW_STARTS = (
    [2, 3, 4, 5, 16, 17, 18, 19, 20, 21, 1021, 1024, 7919]
    + [s + d for s in (361, 529, 502_681) for d in (-2, -1, 0, 1, 2)]
    + [510_511 + d for d in (-4000, -2, -1, 0, 1, 2)]
)


@pytest.mark.parametrize("segment_size", [64, 101, 4099])
def test_window_blocks_match_full_stream(segment_size, oracle_4m, set_segment_size):
    set_segment_size(segment_size)
    # segment edges of a stream from 19, at 3 integers per candidate, and
    # of the odd-only layout that came before it, at 2 per odd number
    edges = [
        base + k * span + d
        for base, span in ((19, 3 * segment_size), (3, 2 * segment_size))
        for k in (1, 2, 40)
        for d in (-2, -1, 0, 1, 2)
    ]
    for lo in _WINDOW_STARTS + edges:
        limit = lo + 6000
        blocks = list(sieve_primes(limit, start=lo))
        expected = oracle_4m[(oracle_4m >= lo) & (oracle_4m <= limit)]
        assert np.array_equal(np.concatenate([b.primes for b in blocks]), expected), lo
        index = int(np.searchsorted(oracle_4m, lo)) + 1
        for block in blocks:
            assert block.start_index == index, lo
            assert not block.primes.flags.writeable
            index += len(block)


# one and two wheel periods of 510,510 integers, with limits and window
# starts at every residue mod 6 on each side
_PERIOD_EDGES = [m * 510_510 + d for m in (1, 2) for d in range(-6, 7)]


@pytest.mark.parametrize("segment_size", [1, 3, 101, 4099])
def test_windows_at_every_residue_mod_6_across_period_edges(segment_size, oracle_2m, set_segment_size):
    # odd segment sizes alternate the parity of each segment's first
    # candidate k0, and one candidate per segment puts an edge everywhere
    set_segment_size(segment_size)
    for edge in _PERIOD_EDGES:
        for lo, limit in ((edge, edge + 600), (edge - 600, edge), (edge, edge)):
            blocks = list(sieve_primes(limit, start=lo))
            got = np.concatenate([b.primes for b in blocks]) if blocks else np.zeros(0, np.int64)
            expected = oracle_2m[(oracle_2m >= lo) & (oracle_2m <= limit)]
            assert np.array_equal(got, expected), (lo, limit)
            if blocks:
                assert blocks[0].start_index == int(np.searchsorted(oracle_2m, lo)) + 1, (lo, limit)


@pytest.mark.parametrize("segment_size", [4099, 170_170, 170_171, 1 << 20])
def test_streams_from_2_end_at_every_residue_mod_6(segment_size, oracle_2m, set_segment_size):
    set_segment_size(segment_size)
    for limit in _PERIOD_EDGES:
        assert np.array_equal(primes_upto(limit), oracle_2m[oracle_2m <= limit]), limit


@pytest.mark.parametrize("segment_size", [1, 64, 101, 4099])
def test_base_primes_walked_in_slices_match_dense_sieve(
    segment_size, oracle_drain, oracle_2m, monkeypatch, set_segment_size
):
    # 7 base primes per slice: the 1009^2 drain walks up to 24 slices a
    # segment, and a segment's last slice ends at its last active prime
    monkeypatch.setattr(sieve, "_BASE_SLICE", 7)
    set_segment_size(segment_size)
    for n in _DRAIN_BOUNDS[::7] + _DRAIN_BOUNDS[-9:]:
        if segment_size == 1 and n > 1000:
            continue
        assert np.array_equal(sieve._kernel_primes(n), oracle_drain[(oracle_drain >= 19) & (oracle_drain <= n)]), n
    for lo in (2, 19, 1021, 502_681, 510_511, 1_970_003):
        limit = lo + (3000 if segment_size == 1 else 30_000)
        got = np.concatenate([b.primes for b in sieve_primes(limit, start=lo)])
        assert np.array_equal(got, oracle_2m[(oracle_2m >= lo) & (oracle_2m <= limit)]), lo


def test_window_edge_cases():
    assert list(sieve_primes(100, start=101)) == []
    assert list(sieve_primes(100, start=98)) == []
    [block] = sieve_primes(2, start=2)
    assert (block.start_index, block.primes.tolist()) == (1, [2])
    [block] = sieve_primes(3, start=3)
    assert (block.start_index, block.primes.tolist()) == (2, [3])
    with pytest.raises(ValueError, match="start must be an integer"):
        list(sieve_primes(100, start=2.5))


def test_nth_prime_floor_is_below_every_prime(oracle_primes_1m):
    floors = [sieve._nth_prime_floor(n) for n in range(1, len(oracle_primes_1m) + 1)]
    assert (np.array(floors) <= np.array(oracle_primes_1m)).all()
    for k in range(17, 27):
        n = 1 << k
        p = nth_prime(n)
        assert prime_count(p) == n and prime_count(p - 1) == n - 1
        assert sieve._nth_prime_floor(n) <= p


# p_(10^k) for k = 6..17 (OEIS A006988)
_PUBLISHED_P = {
    6: 15_485_863,
    7: 179_424_673,
    8: 2_038_074_743,
    9: 22_801_763_489,
    10: 252_097_800_623,
    11: 2_760_727_302_517,
    12: 29_996_224_275_833,
    13: 323_780_508_946_331,
    14: 3_475_385_758_524_527,
    15: 37_124_508_045_065_437,
    16: 394_906_913_903_735_329,
    17: 4_185_296_581_467_695_669,
}


@pytest.mark.parametrize("k", sorted(_PUBLISHED_P))
def test_window_bounds_hold_at_published_primes(k):
    # the floor sits 4.2e-5 (k = 17) to 4.2e-4 (k = 6) of p below p, about
    # 10^10 times its float error
    n, p = 10**k, _PUBLISHED_P[k]
    floor, bound = sieve._nth_prime_floor(n), sieve._nth_prime_bound(n)
    assert floor < p < bound
    assert p - floor >= 2e-5 * p


def test_threads_is_validated_and_ignored():
    with pytest.raises(ValueError):
        list(sieve_primes(100, threads=0))
    assert sum(len(b) for b in sieve_primes(10**6, threads=8)) == 78498


@pytest.mark.parametrize("fn", [
    primes_upto, prime_count, nth_prime,
    iter_gap_blocks, polignac_count, gpy_statistics,
    reciprocal_prime_sum, pnt_ratio_track,
    prime_ratio_scan, gap_bound_report,
])
def test_library_takes_no_thread_count(fn):
    assert "threads" not in inspect.signature(fn).parameters


def test_sieve_primes_threads_is_keyword_only():
    param = inspect.signature(sieve_primes).parameters["threads"]
    assert param.kind is inspect.Parameter.KEYWORD_ONLY


_STREAM_FUNCTIONS = [
    sieve_primes, primes_upto, prime_count, nth_prime,
    iter_gap_blocks, polignac_count, gpy_statistics,
    reciprocal_prime_sum, pnt_ratio_track,
    prime_ratio_scan, gap_bound_report,
]


@pytest.mark.parametrize("fn", _STREAM_FUNCTIONS, ids=lambda fn: fn.__name__)
def test_library_takes_no_segment_size(fn):
    assert "segment_size" not in inspect.signature(fn).parameters


def _columns(blocks) -> tuple[list, ...]:
    """A block stream as its concatenated columns; block edges drop out."""
    return tuple(np.concatenate(col).tolist() for col in zip(*blocks))


# pi(2 * 10^5) = 17,984; each base prime from 19 to 443 is carried across segments
_EDGE_LIMIT = 2 * 10**5


# each stream function at _EDGE_LIMIT, its result made comparable with ==
_EDGE_RUNS = {
    "sieve_primes": lambda: _columns(
        (b.start_index + np.arange(len(b)), b.primes) for b in sieve_primes(_EDGE_LIMIT)
    ),
    "primes_upto": lambda: export_report(primes_upto(_EDGE_LIMIT), "csv"),
    "prime_count": lambda: prime_count(_EDGE_LIMIT),
    "nth_prime": lambda: [nth_prime(n) for n in (1, 5, 6, 1000, 17_984)],
    "iter_gap_blocks": lambda: _columns(
        (n0 + np.arange(len(g)), p, g) for n0, p, g in iter_gap_blocks(_EDGE_LIMIT)
    ),
    "polignac_count": lambda: [polignac_count(k, _EDGE_LIMIT) for k in (2, 6, 72)],
    "gpy_statistics": lambda: gpy_statistics(_EDGE_LIMIT),
    "reciprocal_prime_sum": lambda: reciprocal_prime_sum(_EDGE_LIMIT),
    "pnt_ratio_track": lambda: pnt_ratio_track(checkpoints=[2, 3, 1000, 17_000]),
    "prime_ratio_scan": lambda: [
        export_report(prime_ratio_scan(2.0, 0.0, _EDGE_LIMIT), fmt) for fmt in ("json", "csv")
    ],
    "gap_bound_report": lambda: export_report(gap_bound_report(3.0, 0.5, _EDGE_LIMIT, 10), "json"),
}


@pytest.mark.parametrize("segment_size", [64, 101, 4099])
@pytest.mark.parametrize("name", [fn.__name__ for fn in _STREAM_FUNCTIONS])
def test_stream_functions_are_segment_invariant(name, segment_size, set_segment_size):
    default = _EDGE_RUNS[name]()
    set_segment_size(segment_size)
    assert _EDGE_RUNS[name]() == default


# ---------------------------------------------------------------------------
# the worker thread that sieves one segment ahead


def _inline_blocks(limit: int, start: int = 2) -> list[tuple[int, list[int]]]:
    """sieve_primes's blocks from an inline drain of _segments, decoded by _decode, on this thread.

    Each mask is checked unchanged after the next one is sieved: the
    segments alternate between two buffers.
    """
    count = sieve._prime_pi(start - 1)
    head = [p for p in sieve._HEAD.tolist() if start <= p <= limit]
    blocks = [(count + 1, head)] if head else []
    count += len(head)
    held = None
    for k0, mask in sieve._segments(start, limit):
        if held is not None:
            assert np.array_equal(held[0], held[1]), "mask k changed under segment k + 1"
        held = (mask, mask.copy())
        primes = sieve._decode(k0, mask)
        if len(primes):
            blocks.append((count + 1, primes.tolist()))
            count += len(primes)
    return blocks


@pytest.mark.parametrize("segment_size", [64, 101, 4099])
def test_worker_blocks_equal_an_inline_drain(segment_size, set_segment_size):
    set_segment_size(segment_size)
    cases = [(200_000, 2), (200_000, 3), (200_000, 100_003), (3, 2), (10, 5)]
    cases += [(17, 2), (18, 3), (19, 17), (19, 19), (20, 18)]  # the head's seam
    for limit, start in cases:
        blocks = [(b.start_index, b.primes.tolist()) for b in sieve_primes(limit, start=start)]
        assert blocks == _inline_blocks(limit, start), (limit, start)


@pytest.fixture
def sieve_threads_started(monkeypatch) -> list[str]:
    """The names of the sieve worker threads started from now on, in start order."""
    started = []
    start_thread = threading.Thread.start

    def recorded(thread):
        if thread.name.startswith("gaplab-sieve"):
            started.append(thread.name)
        start_thread(thread)

    monkeypatch.setattr(threading.Thread, "start", recorded)
    return started


def test_a_window_below_19_starts_no_worker(sieve_threads_started):
    # every prime below the kernel's first candidate, 19, is in _HEAD
    for limit in range(2, 19):
        for start in range(1, 21):
            blocks = [(b.start_index, b.primes.tolist()) for b in sieve_primes(limit, start=start)]
            assert blocks == _inline_blocks(limit, start), (limit, start)
    assert not sieve_threads_started
    assert primes_upto(19)[-1] == 19  # 19 itself comes from the worker
    assert sieve_threads_started


@pytest.mark.parametrize("segment_size", [1, 64, 101, 4099])
def test_prime_count_starts_no_worker(segment_size, sieve_threads_started, set_segment_size):
    # pi's primes up to 1000 are drained on this thread, as are their base primes
    set_segment_size(segment_size)
    assert prime_count(10**6) == 78498
    assert not sieve_threads_started
    assert len(primes_upto(1000)) == 168
    assert sieve_threads_started


def test_slow_consumer_reads_each_mask_before_it_is_reused(monkeypatch, set_segment_size):
    # the consumer sleeps between receiving a mask and extracting it, so
    # the worker sieves ahead meanwhile; with one buffer it would overwrite
    # the mask being read
    set_segment_size(64)
    flatnonzero = np.flatnonzero

    def slow_flatnonzero(mask):
        time.sleep(0.002)
        return flatnonzero(mask)

    monkeypatch.setattr(sieve.np, "flatnonzero", slow_flatnonzero)
    assert primes_upto(20_000).tolist() == dense_sieve(20_000)


def _close_mid_stream():
    stream = sieve_primes(10**6)
    next(stream)
    next(stream)
    assert threading.active_count() >= 2  # the worker is running
    stream.close()


def _raise_in_consumer():
    with pytest.raises(RuntimeError, match="consumer fault"):
        for block in sieve_primes(10**6):
            if block.start_index > 1000:
                raise RuntimeError("consumer fault")


@pytest.mark.parametrize(
    "end",
    [
        _close_mid_stream,
        lambda: nth_prime(50_000),
        _raise_in_consumer,
        lambda: sum(len(b) for b in sieve_primes(10**6)),
    ],
    ids=["close", "nth_prime", "consumer_raises", "exhausted"],
)
def test_no_worker_outlives_its_stream(end, set_segment_size):
    set_segment_size(4099)
    before = threading.active_count()
    end()
    assert threading.active_count() == before
    assert not [t for t in threading.enumerate() if t.name.startswith("gaplab-sieve")]


def test_worker_fault_reaches_the_consumer_after_the_first_blocks(monkeypatch, set_segment_size):
    class InjectedFault(Exception):
        pass

    segments = sieve._segments

    def faulty(lo, limit):
        for k, item in enumerate(segments(lo, limit)):
            if k == 2:
                raise InjectedFault("fault at the third segment")
            yield item

    set_segment_size(64)
    expected = _inline_blocks(10_000)[:3]  # the head and two segments
    monkeypatch.setattr(sieve, "_segments", faulty)
    before = threading.active_count()
    got = []
    with pytest.raises(InjectedFault) as exc:
        for block in sieve_primes(10_000):
            got.append((block.start_index, block.primes.tolist()))
    assert type(exc.value) is InjectedFault
    assert str(exc.value) == "fault at the third segment"
    assert got == expected
    assert threading.active_count() == before


@pytest.mark.parametrize("segment", [3, 16])
def test_a_drained_stream_from_2_checks_its_count_against_pi(segment, monkeypatch, set_segment_size):
    # 4099 candidates span 12,297 integers, so the stream to 2 * 10^5 has 17
    # segments, while pi's bitmaps and the stream's base primes end at
    # sqrt(2 * 10^5) = 447, inside segment 0, which the fault never reaches
    segments = sieve._segments

    def lossy(lo, limit):
        for k, (k0, mask) in enumerate(segments(lo, limit)):
            if k == segment:
                mask[np.flatnonzero(mask)[0]] = False  # the segment loses its first prime
            yield k0, mask

    set_segment_size(4099)
    monkeypatch.setattr(sieve, "_segments", lossy)
    with pytest.raises(AssertionError, match=r"held 17983 primes, but pi\(200000\) = 17984"):
        sum(len(b) for b in sieve_primes(2 * 10**5))
    # a window pays no second pi, and a stream closed early checks nothing
    assert sum(len(b) for b in sieve_primes(2 * 10**5, start=3)) == 17_982
    stream = sieve_primes(2 * 10**5)
    for _ in range(segment + 2):
        next(stream)
    stream.close()


def test_a_suspended_stream_does_not_block_interpreter_exit():
    package_root = str(Path(sieve.__file__).resolve().parent.parent)
    code = "import gaplab.sieve as s\nstream = s.sieve_primes(10**8)\nnext(stream)\n"
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": package_root},
        capture_output=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
