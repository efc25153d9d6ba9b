import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import gaplab.accum as accum
from gaplab.accum import exact_block_sum, rounded_partial_sum

any_finite_floats = st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=60)


@given(any_finite_floats)
def test_exact_block_sum_matches_rational_sum(values):
    exact = sum(map(Fraction, values))
    assert exact_block_sum(values) == exact
    assert exact_block_sum(np.array(values, dtype=np.float64)) == exact


def test_running_total_of_reciprocals_is_correctly_rounded():
    n = 100_000
    inv = 1.0 / np.arange(1.0, n + 1.0)
    acc = Fraction(0)
    for chunk in np.split(inv, 10):
        acc += exact_block_sum(chunk)
    # the cut into blocks and the order of the terms do not matter
    assert acc == exact_block_sum(inv[::-1])
    assert float(acc) == math.fsum(inv.tolist())
    with mpmath.workdps(60):
        # reference sums the same float64 terms, so only accumulation error shows
        ref = mpmath.fsum([mpmath.mpf(x) for x in inv.tolist()])
        got = mpmath.mpf(acc.numerator) / acc.denominator
        assert abs(got - ref) / ref < mpmath.mpf(10) ** -55


def two_fsum_passes(values):
    """The kernel the integer bins replaced, kept as their oracle."""
    vals = values.tolist() if hasattr(values, "tolist") else list(values)
    s = math.fsum(vals)
    vals.append(-s)
    e = math.fsum(vals)
    return s, e


def head_and_tail(total):
    """The exact total as the correctly rounded sum and remainder."""
    head = float(total)
    return head, float(total - Fraction(head))


def assert_matches_oracle(values):
    total = exact_block_sum(values)
    assert exact_block_sum(np.array(values, dtype=np.float64)) == total
    try:
        want = two_fsum_passes(values)
    except OverflowError:
        # fsum also gives up when a running partial overflows; the exact
        # total does not, and rounds to the sum wherever the sum fits
        exact = sum(map(Fraction, values))
        try:
            want = head_and_tail(exact)
        except OverflowError:
            with pytest.raises(OverflowError):
                float(total)
            return
    # == because a Fraction has no -0.0, where fsum of negative zeros does
    assert head_and_tail(total) == want


@settings(max_examples=400)
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=40))
def test_exact_block_sum_equals_two_fsum_passes(values):
    assert_matches_oracle(values)


def test_bin_sums_stay_exact_at_the_largest_mantissa():
    # 2**20 terms with all 53 mantissa bits set, in one exponent bin
    top = np.nextafter(2.0, 0.0)
    x = np.full(1 << 20, top)
    assert exact_block_sum(x) == Fraction(top) * (1 << 20)
    assert exact_block_sum(-x) == -Fraction(top) * (1 << 20)
    assert head_and_tail(exact_block_sum(-x)) == two_fsum_passes(-x)


def test_exact_cancellation_gives_positive_zeros():
    # 1 + 2**-52 cancels only through the low bit of its mantissa
    x = [1e300, 1.0 + 2.0**-52, 2.0**-1074, -1e300, -1.0, -(2.0**-1074), -(2.0**-52), -0.0]
    for values in (x, [-0.0, -0.0], []):
        total = exact_block_sum(values)
        assert total == 0
        assert float(total).hex() == "0x0.0p+0"


def test_subnormal_head_and_subnormal_tail():
    x = [3e-310, -2.5e-310, 2.0**-1074, 7 * 2.0**-1074]
    total = exact_block_sum(x)
    head, tail = head_and_tail(total)
    assert 0 < head < 2.0**-1022 and total == sum(map(Fraction, x))
    assert (head, tail) == two_fsum_passes(x)
    assert head_and_tail(exact_block_sum([1.0, 2.0**-1074])) == (1.0, 2.0**-1074)
    # the least subnormal breaks the tie at 1 + 2**-53 upward
    total = exact_block_sum([1.0, 2.0**-53, 2.0**-1074])
    assert head_and_tail(total) == (1.0 + 2.0**-52, -(2.0**-53))


@pytest.mark.parametrize("slice_len", [7, 1 << 20])
def test_shuffled_block_spanning_600_decades(monkeypatch, slice_len):
    monkeypatch.setattr(accum, "_SLICE", slice_len)
    rng = np.random.default_rng(600)
    x = 10.0 ** rng.uniform(-300.0, 300.0, 20_000) * rng.choice([-1.0, 1.0], 20_000)
    x[::97] = -x[1::97][: len(x[::97])]  # some exact cancellation
    rng.shuffle(x)
    total = exact_block_sum(x)
    assert total == sum(map(Fraction, x.tolist()))
    assert head_and_tail(total) == two_fsum_passes(x)
    assert exact_block_sum(x[::-1]) == total


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
    total = exact_block_sum(big)
    assert total == Fraction(big[0]) + Fraction(big[1])
    with pytest.raises(OverflowError):
        float(total)
    with pytest.raises(OverflowError, match=r"^partial sum at n=7 exceeds the float range$"):
        rounded_partial_sum(total, 7)
    # just inside the range: the largest double plus less than half its ulp
    total = exact_block_sum([1.7976931348623157e308, 2.0**969])
    assert head_and_tail(total) == (1.7976931348623157e308, 2.0**969)
    assert rounded_partial_sum(total, 7) == 1.7976931348623157e308
