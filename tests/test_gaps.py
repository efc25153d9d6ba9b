import math

import numpy as np
import pytest

import gaplab.gaps as gaps
import gaplab.sieve as sieve
from gaplab.gaps import (
    _normalized_minima,
    _split_at,
    _suffix_window,
    gpy_statistics,
    iter_gap_blocks,
    literature_bounds,
    polignac_count,
)

from oracles import count_gaps, gap_records


def _block_records(limit, n_lo=1):
    """(n, p_n, p_next, g_n) for every pair, flattened from the blocks."""
    return [
        (n0 + i, p, p + g, g)
        for n0, ps, gs in iter_gap_blocks(limit, n_lo)
        for i, (p, g) in enumerate(zip(ps.tolist(), gs.tolist()))
    ]


def test_iter_gap_blocks_first_records():
    assert _block_records(12) == [(1, 2, 3, 1), (2, 3, 5, 2), (3, 5, 7, 2), (4, 7, 11, 4)]


def test_iter_gap_blocks_limit_30_matches_oracle(oracle_primes_1m):
    records = _block_records(30)
    assert records == gap_records(oracle_primes_1m, 30)
    assert records[-1] == (9, 23, 29, 6)


def test_iter_gap_blocks_count_at_1e6(set_segment_size):
    set_segment_size(4096)
    blocks = list(iter_gap_blocks(10**6))
    assert len(blocks) > 1  # pairs straddling a segment edge are carried over
    assert sum(len(g) for _n0, _p, g in blocks) == 78497  # pi(10^6) - 1
    starts = [n0 for n0, _p, _g in blocks]
    assert starts == [1] + [n0 + len(g) for n0, _p, g in blocks[:-1]]


@pytest.mark.parametrize("segment_size", [1, 2, 3])
def test_iter_gap_blocks_with_one_prime_per_block(oracle_primes_1m, set_segment_size, segment_size):
    # blocks of one or two primes: each closing gap comes from the next block
    set_segment_size(segment_size)
    for limit in (3, 4, 5, 7, 8, 3000, 3001):
        assert _block_records(limit) == gap_records(oracle_primes_1m, limit), limit
    for _n0, p, _g in iter_gap_blocks(3000):
        assert not p.flags.writeable


def test_gap_window_starts_at_or_below_n_lo(oracle_primes_1m, set_segment_size):
    set_segment_size(64)
    limit = 2 * 10**4  # 19,999 = 7 * 2857 and 20,000 are not prime
    records = gap_records(oracle_primes_1m, limit)
    for n_lo in [1, 2, 3, 10, 100, 1000, 2000, len(records)]:
        window = _block_records(limit, n_lo)
        assert window[0][0] <= n_lo
        assert window == records[window[0][0] - 1 :], n_lo
    # p_(n_lo) lies above limit, but its floor does not: the window's
    # pairs, all below n_lo, are the oracle's last ones
    n_lo = len(records) + 2
    window = _block_records(limit, n_lo)
    assert window and window[-1][0] < n_lo
    assert window == records[window[0][0] - 1 :]


def test_n_lo_beyond_the_limit_counts_no_prime_above_it(monkeypatch):
    # the floor of p_(10^5) is far above 10^4, so the window is empty
    # before any pi is taken
    prime_pi = sieve._prime_pi
    args = []

    def recording_pi(x):
        args.append(x)
        return prime_pi(x)

    monkeypatch.setattr(sieve, "_prime_pi", recording_pi)
    assert list(iter_gap_blocks(10**4, 10**5)) == []
    assert args == []


def test_a_window_without_a_prime_yields_no_blocks():
    # Dusart's floor of p_10 = 29 is 15, and [15, 16] holds no prime: the
    # window is sieved and yields no block
    assert gaps._nth_prime_floor(10) == 15
    assert list(iter_gap_blocks(16, 10)) == []


def test_iter_gap_blocks_requires_a_pair():
    with pytest.raises(ValueError):
        next(iter_gap_blocks(2))


def _hand_blocks():
    """Indices 1..4, 5..7 and 8..10 as (n0, a, b) blocks with a[i] = n, b[i] = -n."""
    a = np.arange(1, 11, dtype=np.int64)
    b = -a
    return [(1, a[0:4], b[0:4]), (5, a[4:7], b[4:7]), (8, a[7:10], b[7:10])]


def _pieces(cuts):
    out = []
    for n0, (a, b), cut in _split_at(_hand_blocks(), cuts):
        assert a.tolist() == list(range(n0, n0 + len(a)))
        assert b.tolist() == [-n for n in a.tolist()]
        out.append((n0, len(a), cut))
    return out


@pytest.mark.parametrize("cuts,expected", [
    # a cut at a block's first index, and one at its last index
    ([5], [(1, 4, None), (5, 1, 5), (6, 2, None), (8, 3, None)]),
    ([7], [(1, 4, None), (5, 3, 7), (8, 3, None)]),
    # two cuts in one block
    ([2, 3], [(1, 2, 2), (3, 1, 3), (4, 1, None), (5, 3, None), (8, 3, None)]),
    # a cut at the stream's last index
    ([10], [(1, 4, None), (5, 3, None), (8, 3, 10)]),
    # cuts past the end are never yielded
    ([9, 11, 20], [(1, 4, None), (5, 3, None), (8, 2, 9), (10, 1, None)]),
    ([], [(1, 4, None), (5, 3, None), (8, 3, None)]),
])
def test_split_at_cuts_after_each_index(cuts, expected):
    assert _pieces(cuts) == expected


def test_split_at_yields_views():
    blocks = _hand_blocks()
    owners = {n0: arrays for n0, *arrays in blocks}
    block_of = {n: n0 for n0, a, _b in blocks for n in a.tolist()}
    for n0, views, _cut in _split_at(blocks, [2, 3, 5, 7, 9]):
        for view, owner in zip(views, owners[block_of[n0]]):
            assert np.shares_memory(view, owner)


def test_twin_counts(oracle_primes_1m):
    assert polignac_count(2, 100) == 8
    assert polignac_count(2, 100) == count_gaps(oracle_primes_1m, 2, 100)
    assert polignac_count(2, 10**6) == 8169  # dense-sieve oracle, frozen


def test_small_even_gap_counts_match_brute_force(oracle_primes_1m):
    # k=4 below 30: (7,11), (13,17), (19,23)
    assert polignac_count(4, 30) == count_gaps(oracle_primes_1m, 4, 30) == 3
    for k in (2, 4, 6, 8, 30):
        assert polignac_count(k, 10**4) == count_gaps(oracle_primes_1m, k, 10**4)
    # frozen oracle values for the classical trio below 10^4
    assert [polignac_count(k, 10**4) for k in (2, 4, 6)] == [205, 202, 299]


def test_polignac_rejects_bad_k():
    for k in (0, -2, 3, 7):
        with pytest.raises(ValueError):
            polignac_count(k, 100)


def test_polignac_monotone_in_limit():
    counts = [polignac_count(2, limit) for limit in (10, 100, 1000, 5000, 10**4)]
    assert counts == sorted(counts)


def test_gpy_minimum_small_case():
    stats = gpy_statistics(10)
    # pairs with p_next <= 10 and n >= 2: (3,5) and (5,7); min is 2/ln 5
    assert math.isclose(stats.gpy_min, 2 / math.log(5), rel_tol=1e-12)


def test_gpy_minimum_tracks_largest_twin(oracle_primes_1m):
    stats = gpy_statistics(10**6)
    twins = [p for (n, p, q, g) in gap_records(oracle_primes_1m, 10**6) if g == 2 and n >= 2]
    assert twins[-1] == 999959
    assert stats.gpy_min == 2 / np.log(np.float64(999959))
    assert stats.gpy_min > 0  # the zero liminf is asymptotic, never attained


def _piece(start, gaps):
    """A synthetic piece: p from start on with the given gaps, as int64 arrays."""
    g = np.array(gaps, dtype=np.int64)
    p = start + np.concatenate([[0], np.cumsum(g[:-1])]).astype(np.int64)
    return p, g


def _windowed(p, g):
    m, j = _suffix_window(p, g)
    assert m == g.min()
    return _normalized_minima(p[j:], g[j:])


_RNG_PIECES = [
    # near 2^62, where neighbouring primes share a float64 value and a log
    (2**62 - 10**7 + 1, "random"),
    (2**62 - 10**7 + 1, "twins"),
    (10**12 + 1, "random"),
    (3, "random"),
    (3, "twins"),
]


@pytest.mark.parametrize("start,kind", _RNG_PIECES)
def test_suffix_window_minima_equal_the_unfiltered_ones(start, kind):
    rng = np.random.default_rng(start % 1000)
    for size in (1, 2, 3, 10, 1000, 20000):
        if kind == "twins":
            # long runs of equal smallest gaps, the last one at the last pair
            gaps = np.where(rng.random(size) < 0.5, 2, 2 * rng.integers(2, 40, size))
            gaps[-1] = 2
        else:
            gaps = 2 * rng.integers(1, 60, size)
        p, g = _piece(start, gaps)
        assert _windowed(p, g) == _normalized_minima(p, g), size


def test_window_at_2_62_sees_float_ties():
    # every p here rounds to one of a few float64 values: the logs tie, and
    # the minimum is decided by the gap alone
    p, g = _piece(2**62 - 4095, [6, 4, 2, 4, 2, 6, 2, 8] * 64)
    assert len(np.unique(p.astype(np.float64))) <= 8 < len(p)
    assert _windowed(p, g) == _normalized_minima(p, g)
    assert _suffix_window(p, g) == (2, 0)


@pytest.mark.parametrize("gaps", [
    [2],  # a length-1 piece
    [4],
    [2, 4, 6],  # from p = 3, where ln ln p is smallest
    [6, 4, 2],  # the smallest gap at the piece's last pair
    [2, 2, 2, 2],
    [4, 2, 2, 4, 2, 2, 6],
])
def test_window_on_small_pieces_from_3(gaps):
    p, g = _piece(3, gaps)
    assert _windowed(p, g) == _normalized_minima(p, g)


def test_window_starts_a_millionth_below_the_last_smallest_gap():
    # smallest gap 2 at the first pair and at pair 50,001, 5e6 apart: the
    # window holds the pairs up to p_last // 10^6 = 1,000,005 below the last
    # one; below p = 10^6 there is no widening, and it starts at that pair
    gaps = [2] + [100] * 50_000 + [2] + [100] * 5
    p, g = _piece(10**12 + 1, gaps)
    last = 50_001
    p_last = int(p[last])
    assert _suffix_window(p, g) == (2, last - 10_000)
    assert p[last - 10_000] >= p_last - p_last // 10**6 > p[last - 10_001]
    assert _windowed(p, g) == _normalized_minima(p, g)
    p, g = _piece(3, [2, 4, 6, 2, 6, 4])
    assert _suffix_window(p, g) == (2, 3)


def _unfiltered(p, g):
    return int(g.min()), 0


@pytest.mark.parametrize("segment_size", [64, 101, 4099])
def test_gpy_statistics_equal_the_unfiltered_minima(monkeypatch, set_segment_size, segment_size):
    set_segment_size(segment_size)
    limits = list(range(5, 201)) + [10**6]
    windowed = [gpy_statistics(limit) for limit in limits]
    monkeypatch.setattr(gaps, "_suffix_window", _unfiltered)
    for limit, stats in zip(limits, windowed):
        assert stats == gpy_statistics(limit), limit


def test_gpy_sqrt_normalization(oracle_primes_1m):
    stats = gpy_statistics(10**4)
    expected = min(
        g / (math.sqrt(math.log(p)) * math.log(math.log(p)) ** 2)
        for (n, p, q, g) in gap_records(oracle_primes_1m, 10**4)
        if n >= 2
    )
    assert math.isclose(stats.gpy_sqrt_min, expected, rel_tol=1e-12)


def test_telescoping_sum(oracle_primes_1m):
    for limit in (10**3, 10**4, 10**5, 10**6):
        stats = gpy_statistics(limit)
        total = sum(k * c for k, c in stats.histogram.items())
        p_last = max(p for p in oracle_primes_1m if p <= limit)
        assert total == p_last - 2


def test_histogram_parity_and_totals():
    stats = gpy_statistics(10**5)
    odd_keys = [k for k in stats.histogram if k % 2 == 1]
    assert odd_keys == [1]
    assert stats.histogram[1] == 1
    assert sum(stats.histogram.values()) == stats.total_gaps


def test_nested_limits_are_consistent():
    small, mid, large = (gpy_statistics(L) for L in (10**3, 10**4, 10**5))
    for k, count in small.histogram.items():
        assert mid.histogram.get(k, 0) >= count
    for k, count in mid.histogram.items():
        assert large.histogram.get(k, 0) >= count
    assert small.gpy_min >= mid.gpy_min >= large.gpy_min
    assert small.gpy_sqrt_min >= mid.gpy_sqrt_min >= large.gpy_sqrt_min


def test_min_gap_tail_matches_brute_force(oracle_primes_1m):
    stats = gpy_statistics(10**4)
    records = [(n, g) for (n, _p, _q, g) in gap_records(oracle_primes_1m, 10**4) if n >= 2]
    for checkpoint, tail_min in stats.min_gap_tail:
        assert tail_min == min(g for n, g in records if n >= checkpoint)
    assert [c for c, _ in stats.min_gap_tail] == [2, 4, 8, 16, 32, 64, 128, 256, 512, 1024]


@pytest.mark.parametrize("segment_size", [64, None])
def test_min_gap_tail_when_a_checkpoint_is_the_last_pair(
    oracle_primes_1m, segment_size, set_segment_size
):
    if segment_size is not None:
        set_segment_size(segment_size)
    # limit = p_(2^k + 1) makes n = 2^k the last pair; one less drops it
    for k in (2, 3, 7, 10, 12):
        for limit in (oracle_primes_1m[2**k] - 1, oracle_primes_1m[2**k]):
            stats = gpy_statistics(limit)
            records = [(n, g) for (n, _p, _q, g) in gap_records(oracle_primes_1m, limit) if n >= 2]
            checkpoints = [2**j for j in range(1, 13) if 2**j <= records[-1][0]]
            expected = [(c, min(g for n, g in records if n >= c)) for c in checkpoints]
            assert stats.min_gap_tail == expected, limit


def test_gpy_statistics_needs_a_usable_range():
    with pytest.raises(ValueError):
        gpy_statistics(4)


def test_statistics_deterministic_across_segmentation(set_segment_size):
    a = gpy_statistics(10**5)
    set_segment_size(777)
    b = gpy_statistics(10**5)
    assert a == b


def test_literature_bounds_table():
    table = literature_bounds()
    assert table["gpy_conditional"].bound == 16
    assert table["zhang"].bound == 70_000_000
    assert table["polymath8"].bound == 4680
    assert table["maynard"].bound == 600
    assert all(e.citation for e in table.values())
