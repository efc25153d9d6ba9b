"""Exact accumulation for long positive sums.

The series trackers report partial sums of slowly divergent series over
millions of terms, where plain float64 accumulation is not trusted at the
digits we print. Each block of terms is summed exactly: a finite double is
an integer mantissa times a power of two, so per-exponent integer bins add
a block with no rounding at all (Neal, "Fast exact summation using small
and large superaccumulators", arXiv:1505.05571). The block sum is returned
as an exact Fraction, so a tracker keeps one exact running total and rounds
it once per checkpoint: every reported partial sum is the correctly rounded
sum of the float terms, whatever their order or the cut of the blocks.

A block of a monotone sequence puts nearly all of its terms in one or two
exponent bins, and a weighted bincount into one bin is a serial chain of
dependent adds. So each run of consecutive terms with equal exponents is
first summed on its own (np.add.reduceat, which vectorizes), and only the
run totals are binned. Each term's two parts are integers below 2**27, so
every run total, every bin and every partial sum in between is an integer
below 2**47 in magnitude: float64 adds them all exactly, in any order.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable

import numpy as np

__all__ = ["exact_block_sum", "rounded_partial_sum"]


# frexp writes a finite x as f * 2**e with 0.5 <= |f| < 1 and e >= -1073
# (the least subnormal is 0.5 * 2**-1073), so x * 2**_BIAS is the integer
# f * 2**53 shifted left by e + 1073 >= 0 bits.
_BIAS = 1126
# f * 2**53 splits into a high part below 2**27 and a low part below 2**26.
# A run or a bin of at most _SLICE terms then sums integers below 2**47,
# which float64 adds exactly. The bound would allow 2**26 terms; 2**20
# keeps the temporaries near 21 MB when the terms form few runs, and near
# 57 MB when every term is a run of its own, whatever the input length.
_SLICE = 1 << 20


def _scaled_sum(x: np.ndarray) -> int:
    """The exact sum of 1 to _SLICE floats, times 2**_BIAS."""
    f, e = np.frexp(x)
    f *= 2.0**27
    hi = np.trunc(f)
    run = np.empty(e.size, dtype=bool)
    run[0] = True
    np.not_equal(e[1:], e[:-1], out=run[1:])
    starts = np.flatnonzero(run)
    # inf - trunc(inf) and nan leave a nan in the low part's run total; a
    # run holding inf and -inf would also warn in the high part's
    with np.errstate(invalid="ignore"):
        f -= hi
        hi_runs = np.add.reduceat(hi, starts)
        lo_runs = np.add.reduceat(f, starts)
    # the low part's 26 bits below the point, scaled once per run
    lo_runs *= 2.0**26
    k = e[starts]
    base = int(k.min())
    k -= base
    hi_bins = np.bincount(k, weights=hi_runs)
    lo_bins = np.bincount(k, weights=lo_runs)
    if not np.isfinite(lo_bins).all():
        raise ValueError("exact_block_sum needs finite terms")
    shift = base + 1073
    return sum(
        ((int(h) << 26) + int(lo)) << i
        for i, (h, lo) in enumerate(zip(hi_bins.tolist(), lo_bins.tolist()), shift)
    )


def exact_block_sum(values: Iterable[float]) -> Fraction:
    """The exact sum of a block of finite floats, as a Fraction.

    Its float() is the correctly rounded sum, which is what ``math.fsum``
    returns, and raises OverflowError beyond the float range. The value
    does not depend on the order of the terms. Non-finite terms raise
    ValueError.
    """
    if isinstance(values, np.ndarray):
        x = np.asarray(values, dtype=np.float64)
    else:
        x = np.fromiter(values, np.float64)
    total = sum(_scaled_sum(x[i : i + _SLICE]) for i in range(0, x.size, _SLICE))
    return Fraction(total, 1 << _BIAS)


def rounded_partial_sum(total: Fraction, n: int) -> float:
    """The running total at checkpoint n, correctly rounded to a float.

    A total beyond the float range raises OverflowError naming n.
    """
    try:
        return float(total)
    except OverflowError:
        raise OverflowError(f"partial sum at n={n} exceeds the float range") from None
