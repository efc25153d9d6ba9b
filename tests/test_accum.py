import math
from fractions import Fraction

import mpmath
import numpy as np
from hypothesis import given, strategies as st

from gaplab.accum import DoubleDouble, exact_block_sum, two_sum

finite_floats = st.floats(
    allow_nan=False, allow_infinity=False, min_value=-1e12, max_value=1e12
)


@given(finite_floats, finite_floats)
def test_two_sum_is_error_free(a, b):
    s, err = two_sum(a, b)
    assert Fraction(s) + Fraction(err) == Fraction(a) + Fraction(b)


@given(st.lists(finite_floats, min_size=1, max_size=60))
def test_exact_block_sum_matches_rational_sum(values):
    s, e = exact_block_sum(values)
    exact = sum(Fraction(v) for v in values)
    assert s == math.fsum(values)
    # head + tail reproduces the exact sum to the tail's rounding only
    assert abs(Fraction(s) + Fraction(e) - exact) <= Fraction(2) ** -80 * max(
        1, abs(exact)
    )


def test_double_double_reciprocal_sum_to_30_digits():
    n = 100_000
    acc = DoubleDouble()
    inv = 1.0 / np.arange(1.0, n + 1.0)
    for chunk in np.split(inv, 10):
        acc.add(*exact_block_sum(chunk))
    with mpmath.workdps(60):
        # reference sums the same float64 terms, so only accumulation error shows
        ref = mpmath.fsum([mpmath.mpf(x) for x in inv.tolist()])
        got = mpmath.mpf(acc.hi) + mpmath.mpf(acc.lo)
        assert abs(got - ref) / ref < mpmath.mpf(10) ** -30


def test_double_double_value_is_float_rounding_of_pair():
    acc = DoubleDouble()
    acc.add(1.0)
    acc.add(1e-17)
    assert acc.value() == acc.hi + acc.lo
    assert acc.hi == 1.0 and acc.lo == 1e-17
