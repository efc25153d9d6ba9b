import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import gaplab.accum as accum
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


def two_fsum_passes(values):
    """The kernel the integer bins replaced, kept as their oracle."""
    vals = values.tolist() if hasattr(values, "tolist") else list(values)
    s = math.fsum(vals)
    vals.append(-s)
    e = math.fsum(vals)
    return s, e


def bits(pair):
    # float.hex tells -0.0 from 0.0
    return tuple(x.hex() for x in pair)


def assert_matches_oracle(values):
    try:
        want = two_fsum_passes(values)
    except OverflowError:
        # fsum also gives up when a running partial overflows; the bins do
        # not, and return the exact sum correctly rounded when it fits
        exact = sum(map(Fraction, values))
        try:
            head = float(exact)
        except OverflowError:
            with pytest.raises(OverflowError):
                exact_block_sum(values)
            return
        want = (head, float(exact - Fraction(head)))
    assert bits(exact_block_sum(values)) == bits(want)
    assert bits(exact_block_sum(np.array(values, dtype=np.float64))) == bits(want)


@settings(max_examples=400)
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=40))
def test_exact_block_sum_equals_two_fsum_passes(values):
    assert_matches_oracle(values)


def test_bin_sums_stay_exact_at_the_largest_mantissa():
    # 2**20 terms with all 53 mantissa bits set, in one exponent bin
    top = np.nextafter(2.0, 0.0)
    x = np.full(1 << 20, top)
    assert exact_block_sum(x) == (float(Fraction(top) * (1 << 20)), 0.0)
    assert bits(exact_block_sum(-x)) == bits(two_fsum_passes(-x))


def test_exact_cancellation_gives_positive_zeros():
    # 1 + 2**-52 cancels only through the low bit of its mantissa
    x = [1e300, 1.0 + 2.0**-52, 2.0**-1074, -1e300, -1.0, -(2.0**-1074), -(2.0**-52), -0.0]
    assert bits(exact_block_sum(x)) == bits((0.0, 0.0)) == bits(two_fsum_passes(x))
    assert bits(exact_block_sum([-0.0, -0.0])) == bits(two_fsum_passes([-0.0, -0.0]))
    assert bits(exact_block_sum([])) == bits((0.0, 0.0))


def test_subnormal_head_and_subnormal_tail():
    x = [3e-310, -2.5e-310, 2.0**-1074, 7 * 2.0**-1074]
    head, tail = exact_block_sum(x)
    assert 0 < head < 2.0**-1022 and Fraction(head) + Fraction(tail) == sum(map(Fraction, x))
    assert bits((head, tail)) == bits(two_fsum_passes(x))
    assert exact_block_sum([1.0, 2.0**-1074]) == (1.0, 2.0**-1074)
    # the least subnormal breaks the tie at 1 + 2**-53 upward
    assert exact_block_sum([1.0, 2.0**-53, 2.0**-1074]) == (1.0 + 2.0**-52, -(2.0**-53))


@pytest.mark.parametrize("slice_len", [7, 1 << 20])
def test_shuffled_block_spanning_600_decades(monkeypatch, slice_len):
    monkeypatch.setattr(accum, "_SLICE", slice_len)
    rng = np.random.default_rng(600)
    x = 10.0 ** rng.uniform(-300.0, 300.0, 20_000) * rng.choice([-1.0, 1.0], 20_000)
    x[::97] = -x[1::97][: len(x[::97])]  # some exact cancellation
    rng.shuffle(x)
    want = two_fsum_passes(x)
    assert bits(exact_block_sum(x)) == bits(want)
    assert bits(exact_block_sum(x[::-1])) == bits(want)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_terms_are_rejected(bad):
    with pytest.raises(ValueError, match="finite"):
        exact_block_sum(np.array([1.0, bad, 2.0]))
    with pytest.raises(ValueError, match="finite"):
        exact_block_sum([math.inf, -math.inf])


def test_overflowing_sum_raises_like_fsum():
    big = [1.7976931348623157e308, 1e300]
    with pytest.raises(OverflowError):
        math.fsum(big)
    with pytest.raises(OverflowError):
        exact_block_sum(big)
    # just inside the range: the largest double plus less than half its ulp
    assert exact_block_sum([1.7976931348623157e308, 2.0**969]) == (
        1.7976931348623157e308,
        2.0**969,
    )
