"""Exact accumulation for long positive sums.

The series trackers report partial sums of slowly divergent series over
millions of terms, where plain float64 accumulation is not trusted at the
digits we print. Each block of terms is summed exactly: a finite double is
an integer mantissa times a power of two, so per-exponent integer bins add
a block with no rounding at all (Neal, "Fast exact summation using small
and large superaccumulators", arXiv:1505.05571). The exact block sum leaves
the bins once, as a correctly rounded head/tail pair of doubles, and enters
a running sum kept as an unevaluated pair of doubles (roughly 32
significant decimal digits). A block's pair does not depend on the order
of its terms.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

__all__ = ["two_sum", "DoubleDouble", "exact_block_sum"]


def two_sum(a: float, b: float) -> tuple[float, float]:
    """Error-free transformation: returns (s, err) with a + b = s + err exactly."""
    s = a + b
    bb = s - a
    err = (a - (s - bb)) + (b - bb)
    return s, err


# frexp writes a finite x as f * 2**e with 0.5 <= |f| < 1 and e >= -1073
# (the least subnormal is 0.5 * 2**-1073), so x * 2**_BIAS is the integer
# f * 2**53 shifted left by e + 1073 >= 0 bits.
_BIAS = 1126
# f * 2**53 splits into a high part below 2**27 and a low part below 2**26.
# A bin of _SLICE terms then sums integers below 2**47, which float64 adds
# exactly. The bound would allow 2**26 terms; 2**20 keeps the temporaries
# near 30 MB whatever the input length.
_SLICE = 1 << 20


def _scaled_sum(x: np.ndarray) -> int:
    """The exact sum of at most _SLICE floats, times 2**_BIAS."""
    f, e = np.frexp(x)
    f *= 2.0**27
    hi = np.trunc(f)
    with np.errstate(invalid="ignore"):
        f -= hi
    f *= 2.0**26
    e += 1073
    hi_bins = np.bincount(e, weights=hi)
    lo_bins = np.bincount(e, weights=f)
    # inf - trunc(inf) and nan leave a nan in the low part's bin
    if not np.isfinite(lo_bins).all():
        raise ValueError("exact_block_sum needs finite terms")
    used = np.flatnonzero((hi_bins != 0) | (lo_bins != 0))
    return sum(
        ((int(h) << 26) + int(lo)) << k
        for k, h, lo in zip(used.tolist(), hi_bins[used].tolist(), lo_bins[used].tolist())
    )


def exact_block_sum(values: Iterable[float]) -> tuple[float, float]:
    """Sum a block of finite floats, returned as a head/tail pair.

    The head is the exact sum correctly rounded, which is what
    ``math.fsum`` returns; the tail is the exact remainder (sum - head)
    correctly rounded, which is what a second ``fsum`` over the terms and
    -head returns. The pair represents the exact sum to about 2**-106
    relative. Non-finite terms raise ValueError, and a sum beyond the
    float range raises OverflowError.
    """
    if isinstance(values, np.ndarray):
        x = np.asarray(values, dtype=np.float64)
    else:
        x = np.fromiter(values, np.float64)
    total = sum(_scaled_sum(x[i : i + _SLICE]) for i in range(0, x.size, _SLICE))
    # int true division rounds correctly, into the subnormals too
    scale = 1 << _BIAS
    head = total / scale
    num, den = head.as_integer_ratio()
    return head, (total - num * (scale // den)) / scale


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
