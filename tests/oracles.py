"""Independent reference implementations used to derive expected values.

Everything here deliberately uses a different algorithm or precision
substrate than the library code it checks: trial division and dense
bytearray sieves instead of segmented numpy over the numbers coprime to
6, exact rationals instead of floats, and mpmath at elevated precision
instead of the library's evaluation lanes. Oracle results are computed first and frozen
into tests; the oracles stay runnable so every frozen number can be
re-derived.
"""

from __future__ import annotations

import math
from fractions import Fraction

import mpmath
import numpy as np


def trial_division_primes(limit: int) -> list[int]:
    out = []
    for m in range(2, limit + 1):
        for d in range(2, math.isqrt(m) + 1):
            if m % d == 0:
                break
        else:
            out.append(m)
    return out


def is_prime_trial_division(m: int) -> bool:
    if m < 2:
        return False
    for d in range(2, math.isqrt(m) + 1):
        if m % d == 0:
            return False
    return True


def is_prime(m: int) -> bool:
    """Miller–Rabin with the first twelve prime bases: exact for m < 3.18e23.

    No sieve and no table, so it checks single numbers far past the
    dense oracles' reach (Sorenson & Webster, Math. Comp. 86, 2017, for
    the bound).
    """
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    if m < 2:
        return False
    for p in bases:
        if m % p == 0:
            return m == p
    d, s = m - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in bases:
        x = pow(a, d, m)
        if x in (1, m - 1):
            continue
        for _ in range(s - 1):
            x = x * x % m
            if x == m - 1:
                break
        else:
            return False
    return True


def dense_sieve(limit: int) -> list[int]:
    """Plain full-array bytearray sieve; nothing segmented, nothing odd-only."""
    if limit < 2:
        return []
    flags = bytearray([1]) * (limit + 1)
    flags[0] = flags[1] = 0
    for p in range(2, math.isqrt(limit) + 1):
        if flags[p]:
            flags[p * p :: p] = bytearray(len(flags[p * p :: p]))
    return [i for i, f in enumerate(flags) if f]


def bitmap_prime_count(limit: int) -> int:
    """pi(limit) by counting gaplab's own segment bitmaps and its head table.

    Not independent of the library: it shares the sieve kernel, and it
    cross-checks the library's pi(x), which comes from the Lucy recursion
    and sieves nothing above sqrt(x), at sizes where the dense oracles
    here are too slow.
    """
    from gaplab.sieve import _HEAD, _segments

    head = int(np.count_nonzero(_HEAD <= limit))
    return head + sum(int(np.count_nonzero(mask)) for _low, mask in _segments(2, limit))


def gap_records(primes: list[int], limit: int) -> list[tuple[int, int, int, int]]:
    """(n, p_n, p_next, g_n) for every pair with p_next <= limit."""
    xs = [p for p in primes if p <= limit]
    return [(i + 1, xs[i], xs[i + 1], xs[i + 1] - xs[i]) for i in range(len(xs) - 1)]


def count_gaps(primes: list[int], k: int, limit: int) -> int:
    """Brute-force count of n >= 2 with g_n = k and p_next <= limit."""
    return sum(1 for (n, _p, _q, g) in gap_records(primes, limit) if g == k and n >= 2)


def reciprocal_sum_exact(primes: list[int], limit: int) -> Fraction:
    total = Fraction(0)
    for p in primes:
        if p > limit:
            break
        total += Fraction(1, p)
    return total


def reciprocal_sum_mp(primes: list[int], limit: int, dps: int = 40) -> mpmath.mpf:
    with mpmath.workdps(dps):
        total = mpmath.mpf(0)
        for p in primes:
            if p > limit:
                break
            total += mpmath.mpf(1) / p
        return total


# Mertens' constant B, the limit of sum_{p <= x} 1/p - ln ln x (Mertens
# 1874), to 20 digits from OEIS A077761: 0.26149721284764278375...
MERTENS_B = 0.26149721284764278375


def mertens_bracket(x: int) -> float:
    """Rosser & Schoenfeld's bound on |sum_{p <= x} 1/p - ln ln x - B|.

    The sum lies strictly within 1/(2 ln^2 x) of ln ln x + B for every
    x >= 286 (Illinois J. Math. 6, 1962, Theorem 5).
    """
    if x < 286:
        raise ValueError(f"the bracket holds for x >= 286, got {x}")
    return 1 / (2 * math.log(x) ** 2)


def mp_eval(text_free_fn, n: int, dps: int = 50) -> mpmath.mpf:
    """Evaluate a closed-form family at n with mpmath at high precision."""
    with mpmath.workdps(dps):
        return text_free_fn(mpmath.mpf(n))


def mp_ratio_excess(fn, n: int, dps: int = 50) -> float:
    """e_n = n ln(n) (f(n)/f(n+1) - 1) at high precision, for closed forms."""
    with mpmath.workdps(dps):
        nn = mpmath.mpf(n)
        return float(nn * mpmath.ln(nn) * (fn(nn) / fn(nn + 1) - 1))


def brute_force_scan(
    primes: list[int], r: float, epsilon: float, limit: int, n_lo: int = 2
) -> list[tuple[int, int, int, int]]:
    """Direct (n, p, q, g) hit list for p_next/p_n < 1 + (r+eps)/(n ln n).

    Evaluated with mpmath so the oracle does not share the library's
    float64-prefilter path.
    """
    hits = []
    with mpmath.workdps(40):
        strength = mpmath.mpf(r) + mpmath.mpf(epsilon)
        for n, p, q, g in gap_records(primes, limit):
            if n < n_lo:
                continue
            rhs = 1 + strength / (n * mpmath.ln(n))
            if mpmath.mpf(q) / p < rhs:
                hits.append((n, p, q, g))
    return hits
