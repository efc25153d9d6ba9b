"""Prime-gap analytics over the sieve stream.

Computes, in one streaming pass: the gap histogram, per-k counts of
gaps (the twin-prime count is k = 2), normalized-gap minima in the two
classical normalizations g_n/ln(p_n) and g_n/(sqrt(ln p_n) (ln ln p_n)^2),
and running tail minima of the gap from dyadic checkpoints onward.

The stream adapter lives here too: iter_gap_blocks turns prime blocks
into (n0, p, g) pair blocks, _split_at cuts any index-ordered block
stream after given indices (a cut after index c ends a piece with n = c,
and the next piece starts at c + 1), and _dyadic_range is the one
powers-of-two checkpoint schedule. The gap statistics, the ratio scan
and the series trackers all cut their streams with these.

The normalized minima are evaluated only where they can fall. Both
normalizers, ln p and sqrt(ln p) (ln ln p)^2, strictly increase with p
for p >= 3. Let m be a piece's smallest gap and p_last the prime of its
last pair with gap m: every earlier pair has g >= m and a smaller
normalizer, so its normalized gap exceeds m's at p_last. The float
expressions run only on the suffix of the piece from
p_last - p_last // 10^6 on. Every pair before it has ln p smaller by at
least about 10^-6/ln p relative, still over 2e-8 at MAX_LIMIT = 2^62,
and the second normalizer moves by at least as much there (its relative
change is 1/2 + 2/ln ln p >= 1 times that of ln p). That is far above
float64 error, so the minima are bit-identical to evaluating every pair.

Tail minima are finite-range proxies: a liminf statement concerns the
infinite tail, so a scan to any limit yields evidence, never proof. All
exports label them accordingly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Iterator

import numpy as np

from .sieve import _nth_prime_floor, sieve_primes

__all__ = [
    "GapStats",
    "GapBoundEntry",
    "iter_gap_blocks",
    "polignac_count",
    "gpy_statistics",
    "literature_bounds",
]


@dataclass
class GapStats:
    """Single-pass gap statistics for primes up to ``limit``.

    histogram maps gap value k to the count of indices n with g_n = k
    (n = 1 included, so key 1 appears exactly once). All minima are taken
    over n >= 2: the lone odd gap g_1 = 1 sits outside the even-gap
    questions these statistics serve, and ln ln p_1 is negative territory.

    min_gap_tail[i] = (c_i, min of g_n for n >= c_i within the scanned
    range) at dyadic checkpoints c_i; a proxy for liminf g_n.
    """

    limit: int
    total_gaps: int
    histogram: dict[int, int]
    gpy_min: float
    gpy_sqrt_min: float
    min_gap_tail: list[tuple[int, int]] = field(default_factory=list)


def iter_gap_blocks(limit: int, n_lo: int = 1) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
    """Yield (n0, p, g) arrays: p[i] = p_(n0+i), g[i] = p_(n0+i+1) - p[i].

    Covers, in index order, the pairs with p_next <= limit from an index
    n0 <= n_lo on. The primes are sieved only from the proven lower bound
    _nth_prime_floor(n_lo) <= p_(n_lo), so pairs below n_lo may be
    missing, and none from n_lo on is.

    p is the sieve block's own read-only array (without its last prime in
    the final block), so nothing is copied; only g is built, and a block's
    closing gap comes from the next block's first prime.
    """
    if limit < 3:
        raise ValueError(f"limit must be >= 3 to contain a prime pair, got {limit}")
    lo = _nth_prime_floor(n_lo)
    if lo > limit:
        return  # p_(n_lo) >= lo > limit: nothing to sieve
    blocks = sieve_primes(limit, start=lo)
    block = next(blocks, None)
    if block is None:
        return  # no prime in [lo, limit], so p_(n_lo) > limit
    n0 = block.start_index
    for after in blocks:
        p = block.primes
        g = np.empty(len(p), dtype=np.int64)
        np.subtract(p[1:], p[:-1], out=g[:-1])
        g[-1] = after.primes[0] - p[-1]
        yield n0, p, g
        n0 += len(p)
        block = after
    if len(block) >= 2:
        yield n0, block.primes[:-1], np.diff(block.primes)


def _split_at(
    blocks: Iterable[tuple], cuts: Iterable[int]
) -> Iterator[tuple[int, tuple[np.ndarray, ...], int | None]]:
    """Cut an index-ordered stream of (n0, *arrays) blocks after each index in cuts.

    arrays[j][i] belongs to index n0 + i. Yields (n0, views, cut): views
    are slices of one block's arrays starting at index n0, and cut is the
    index the piece ends at, or None where it ends at a block edge. cuts
    must increase strictly; cuts past the stream's last index are never
    yielded.
    """
    pending = iter(cuts)
    cut = next(pending, None)
    for n0, *arrays in blocks:
        size = len(arrays[0])
        lo = 0
        while cut is not None and cut < n0 + size:
            hi = cut + 1 - n0
            yield n0 + lo, tuple(a[lo:hi] for a in arrays), cut
            lo = hi
            cut = next(pending, None)
        if lo < size:
            yield n0 + lo, tuple(a[lo:] for a in arrays), None


def _dyadic_range(lo: int, hi: int) -> list[int]:
    """The powers of two c with lo <= c <= hi, ascending."""
    out = []
    c = 1
    while c < lo:
        c *= 2
    while c <= hi:
        out.append(c)
        c *= 2
    return out


def polignac_count(k: int, limit: int) -> int:
    """Count of n >= 2 with g_n = k and p_next <= limit.

    k must be a positive even integer: every gap after g_1 is even, and
    the per-k infinitude questions are posed for even k only.
    """
    if k < 2 or k % 2 != 0:
        raise ValueError(f"gap value must be a positive even integer, got {k}")
    # k is even and g_1 = 1 is not, so n = 1 never counts
    blocks = iter_gap_blocks(limit)
    return sum(int(np.count_nonzero(g == k)) for _n0, _p, g in blocks)


def _suffix_window(p: np.ndarray, g: np.ndarray) -> tuple[int, int]:
    """(m, j): the piece's smallest gap m and the start j of the window
    p[j:], g[j:] that holds both normalized minima of the piece.

    p_last is the prime at the last index of m, and j the first index
    with p >= p_last - p_last // 10^6 (module docstring).
    """
    m = g.min()
    # the last index of m, searched from the end in widening windows: the
    # smallest gap is common (twin gaps are dense), so the first 64 pairs
    # nearly always hold it, and no scan runs through a reversed stride
    end, width = len(g), 64
    while True:
        start = max(0, end - width)
        hits = np.flatnonzero(g[start:end] == m)
        if hits.size:
            break
        end, width = start, width * 8
    last = start + int(hits[-1])
    p_last = int(p[last])
    return int(m), int(np.searchsorted(p, p_last - p_last // 10**6))


def _normalized_minima(p: np.ndarray, g: np.ndarray) -> tuple[float, float]:
    """min g/ln p and min g/(sqrt(ln p) (ln ln p)^2) over the pairs, in float64."""
    logs = np.log(p.astype(np.float64))
    gm = g.astype(np.float64)
    return (
        float(np.min(gm / logs)),
        float(np.min(gm / (np.sqrt(logs) * np.log(logs) ** 2))),
    )


def gpy_statistics(limit: int) -> GapStats:
    """One-pass gap statistics over all pairs with p_next <= limit.

    Constant memory per distinct gap value; minima are accumulated in
    index order so repeated runs are bit-identical regardless of the
    upstream segmentation. The normalized minima are evaluated on each
    piece's _suffix_window only (module docstring).
    """
    if limit < 5:
        raise ValueError(f"limit must be >= 5 so that an n >= 2 pair exists, got {limit}")
    hist = np.zeros(0, dtype=np.int64)
    gpy_min = math.inf
    gpy_sqrt_min = math.inf
    total = 0
    # gap minima per interval [c, 2c) of dyadic checkpoints c, keyed by c;
    # cutting after n = 1, 3, 7, ... keeps every piece inside one interval
    interval_min: dict[int, int] = {}

    cuts = [c - 1 for c in _dyadic_range(2, limit)]
    for n0, (p, g), _cut in _split_at(iter_gap_blocks(limit), cuts):
        counts = np.bincount(g, minlength=len(hist))
        counts[: len(hist)] += hist
        hist = counts
        total += len(g)

        if n0 == 1:
            # the minima start at n = 2; this piece is the lone pair (2, 3)
            continue
        m, j = _suffix_window(p, g)
        piece_min, piece_sqrt_min = _normalized_minima(p[j:], g[j:])
        gpy_min = min(gpy_min, piece_min)
        gpy_sqrt_min = min(gpy_sqrt_min, piece_sqrt_min)
        cp = 1 << (n0.bit_length() - 1)
        interval_min[cp] = min(interval_min.get(cp, m), m)

    # suffix minima turn per-interval minima into from-checkpoint-onward minima
    suffix = np.minimum.accumulate(list(interval_min.values())[::-1])[::-1]
    tail = list(zip(interval_min, suffix.tolist()))

    return GapStats(
        limit=limit,
        total_gaps=total,
        histogram={k: c for k, c in enumerate(hist.tolist()) if c},
        gpy_min=gpy_min,
        gpy_sqrt_min=gpy_sqrt_min,
        min_gap_tail=tail,
    )


@dataclass(frozen=True)
class GapBoundEntry:
    """A published bound on liminf of the prime gap, with its citation."""

    name: str
    bound: int
    citation: str


_LITERATURE = (
    GapBoundEntry(
        "gpy_conditional",
        16,
        "Goldston, Pintz, Yildirim, 'Primes in tuples I', Ann. of Math. 170 (2009); "
        "conditional on the Elliott-Halberstam conjecture",
    ),
    GapBoundEntry(
        "zhang",
        70_000_000,
        "Zhang, 'Bounded gaps between primes', Ann. of Math. 179 (2014)",
    ),
    GapBoundEntry(
        "polymath8",
        4_680,
        "Polymath8, 'New equidistribution estimates of Zhang type', Algebra & Number Theory 8 (2014)",
    ),
    GapBoundEntry(
        "maynard",
        600,
        "Maynard, 'Small gaps between primes', Ann. of Math. 181 (2015)",
    ),
)


def literature_bounds() -> dict[str, GapBoundEntry]:
    """The published liminf gap bounds as a static named table."""
    return {e.name: e for e in _LITERATURE}
