"""Divergence trackers: the reciprocal-prime sum and the n ln n ratio.

Both trackers walk the prime stream once and report at a schedule of
checkpoint indices. Checkpoints default to powers of two plus the final
index: log-spaced evidence is the only kind that says anything about
series this slow (the reciprocal-prime sum grows like ln ln x).

partial_sum is the exact sum of the float64 terms 1/p, kept as one exact
running total and correctly rounded at each checkpoint. loglog_gap =
partial_sum - ln ln p_n is Mertens' offset. Theorem (Mertens 1874): it
tends to B = 0.2614972128... (OEIS A077761), and it lies within
1/(2 ln^2 p_n) of B at every p_n >= 286 (Rosser & Schoenfeld, Illinois
J. Math. 6, 1962, Theorem 5). The reported values are finite-range
evidence of that approach, not a proof of it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .accum import exact_block_sum, rounded_partial_sum
from .gaps import _dyadic_range, _split_at
from .sieve import _nth_prime_bound, sieve_primes

__all__ = ["SeriesCheckpoint", "reciprocal_prime_sum", "pnt_ratio_track"]


@dataclass(frozen=True)
class SeriesCheckpoint:
    """State of both trackers after the first n primes.

    pnt_ratio is None at n = 1 (n ln n vanishes there); loglog_gap is
    None while p_n < 3 (ln ln 2 < 0 says nothing useful about the sum).
    """

    n: int
    p_n: int
    partial_sum: float
    pnt_ratio: float | None
    loglog_gap: float | None


def _checkpoint_record(n: int, p_n: int, partial: float) -> SeriesCheckpoint:
    ratio = p_n / (n * math.log(n)) if n >= 2 else None
    gap = partial - math.log(math.log(p_n)) if p_n >= 3 else None
    return SeriesCheckpoint(n=n, p_n=p_n, partial_sum=partial, pnt_ratio=ratio, loglog_gap=gap)


def reciprocal_prime_sum(
    limit: int, checkpoints: list[int] | None = None
) -> list[SeriesCheckpoint]:
    """Partial sums of 1/p_1 + 1/p_2 + ... at the checkpoint indices.

    Each value is the exact sum of the float64 terms 1/p, correctly
    rounded, so the reported values do not depend on segmentation.
    Checkpoints default to powers of two plus the final index; an explicit
    empty list is rejected.
    """
    if limit < 2:
        raise ValueError(f"limit must be >= 2, got {limit}")
    explicit = checkpoints is not None
    if explicit:
        checkpoints = [int(c) for c in checkpoints]
        if not checkpoints:
            raise ValueError("checkpoint list must not be empty")
        if any(c < 1 for c in checkpoints):
            raise ValueError(f"checkpoints must be >= 1, got {checkpoints}")
        if any(b <= a for a, b in zip(checkpoints, checkpoints[1:])):
            raise ValueError(f"checkpoints must be strictly increasing, got {checkpoints}")

    acc = Fraction(0)
    out: list[SeriesCheckpoint] = []
    blocks = ((b.start_index, b.primes) for b in sieve_primes(limit))
    cuts = checkpoints if explicit else _dyadic_range(2, limit)
    for n0, (piece,), cut in _split_at(blocks, cuts):
        acc += exact_block_sum(1.0 / piece.astype(np.float64))
        n, p_n = n0 + len(piece) - 1, int(piece[-1])
        if cut is not None:
            out.append(_checkpoint_record(cut, p_n, rounded_partial_sum(acc, cut)))
            if explicit and len(out) == len(checkpoints):
                return out

    if explicit:
        if len(out) < len(checkpoints):
            raise ValueError(
                f"checkpoint {checkpoints[len(out)]} exceeds the prime count {n} for limit {limit}"
            )
    elif not out or out[-1].n != n:
        out.append(_checkpoint_record(n, p_n, rounded_partial_sum(acc, n)))
    return out


def pnt_ratio_track(
    limit: int | None = None, checkpoints: list[int] | None = None
) -> list[SeriesCheckpoint]:
    """p_n / (n ln n) at each checkpoint index (defined for n >= 2).

    A limit below 3 holds no n >= 2 and is rejected. When limit is
    omitted, it is derived from the largest checkpoint via the Rosser
    bound p_n < n (ln n + ln ln n).
    """
    if checkpoints is not None and any(c == 1 for c in checkpoints):
        raise ValueError("pnt ratio is undefined at n = 1: n ln n = 0 there")
    if limit is None:
        if not checkpoints:
            raise ValueError("either a limit or explicit checkpoints are required")
        limit = _nth_prime_bound(max(checkpoints))
    elif limit < 3:
        raise ValueError(f"pnt ratio needs n >= 2, so limit must be >= 3, got {limit}")
    return reciprocal_prime_sum(limit, checkpoints)
