"""Prime-gap analytics over the sieve stream.

Computes, in one streaming pass: the gap histogram, per-k counts of
gaps (the twin-prime count is k = 2), normalized-gap minima in the two
classical normalizations g_n/ln(p_n) and g_n/(sqrt(ln p_n) (ln ln p_n)^2),
and running tail minima of the gap from dyadic checkpoints onward.

Tail minima are finite-range proxies: a liminf statement concerns the
infinite tail, so a scan to any limit yields evidence, never proof. All
exports label them accordingly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from .sieve import sieve_primes

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


def iter_gap_blocks(limit: int) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
    """Yield (n0, p, g) arrays: p[i] = p_(n0+i), g[i] = p_(n0+i+1) - p[i].

    Covers exactly the pairs with p_next <= limit, in index order.
    """
    if limit < 3:
        raise ValueError(f"limit must be >= 3 to contain a prime pair, got {limit}")
    carry: int | None = None
    n0 = 1
    for block in sieve_primes(limit):
        if carry is None:
            primes = block.primes
        else:
            primes = np.concatenate([np.array([carry], dtype=np.int64), block.primes])
        if len(primes) >= 2:
            yield n0, primes[:-1], np.diff(primes)
            n0 += len(primes) - 1
        carry = int(primes[-1])


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


def gpy_statistics(limit: int) -> GapStats:
    """One-pass gap statistics over all pairs with p_next <= limit.

    Constant memory per distinct gap value; minima are accumulated in
    index order so repeated runs are bit-identical regardless of the
    upstream segmentation.
    """
    if limit < 5:
        raise ValueError(f"limit must be >= 5 so that an n >= 2 pair exists, got {limit}")
    hist = np.zeros(0, dtype=np.int64)
    gpy_min = math.inf
    gpy_sqrt_min = math.inf
    total = 0

    # per-checkpoint-interval gap minima, suffix-minimized at the end;
    # the first interval is [2, 4), so the first boundary to cross is 4
    interval_mins: list[tuple[int, int]] = []
    cur_min = np.iinfo(np.int64).max
    next_cp = 4
    cp_start = 2

    for n0, p, g in iter_gap_blocks(limit):
        counts = np.bincount(g, minlength=len(hist))
        counts[: len(hist)] += hist
        hist = counts
        total += len(g)

        if n0 == 1:
            # the minima start at n = 2; the first block holds 2, 3 and 5
            n0, p, g = 2, p[1:], g[1:]
        logs = np.log(p.astype(np.float64))
        gm = g.astype(np.float64)
        gpy_min = min(gpy_min, float(np.min(gm / logs)))
        gpy_sqrt_min = min(
            gpy_sqrt_min, float(np.min(gm / (np.sqrt(logs) * np.log(logs) ** 2)))
        )
        # walk the checkpoint boundaries that fall inside this block;
        # g[i] is g_(n0+i)
        lo = 0
        while next_cp < n0 + len(g):
            hi = next_cp - n0
            if hi > lo:
                cur_min = min(cur_min, int(g[lo:hi].min()))
            interval_mins.append((cp_start, cur_min))
            cur_min = np.iinfo(np.int64).max
            cp_start = next_cp
            next_cp *= 2
            lo = hi
        cur_min = min(cur_min, int(g[lo:].min()))
    interval_mins.append((cp_start, cur_min))

    # suffix minima turn per-interval minima into from-checkpoint-onward minima
    tail: list[tuple[int, int]] = []
    running = np.iinfo(np.int64).max
    for cp, m in reversed(interval_mins):
        running = min(running, m)
        tail.append((cp, int(running)))
    tail.reverse()

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
