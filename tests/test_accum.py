import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import gaplab.accum as accum
from gaplab.accum import exact_block_sum, rounded_partial_sum
from gaplab.sieve import primes_upto

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


def exact(values):
    return sum(map(Fraction, np.asarray(values, dtype=np.float64).tolist()), Fraction(0))


def test_alternating_exponents_make_every_term_its_own_run():
    rng = np.random.default_rng(2)
    x = (rng.random(5001) + 0.5) * np.where(np.arange(5001) % 2, 2.0**40, 2.0**-40)
    x *= rng.choice([-1.0, 1.0], x.size)
    e = np.frexp(x)[1]
    assert (e[1:] != e[:-1]).all()
    assert exact_block_sum(x) == exact(x)


def test_run_across_a_slice_edge(monkeypatch):
    # the 29 terms 1 + u share one exponent, so their run is cut at every
    # edge of an 8-term slice; the 0.25 and 0.375 at the ends are other runs
    monkeypatch.setattr(accum, "_SLICE", 8)
    rng = np.random.default_rng(8)
    x = np.concatenate([[0.25], 1.0 + rng.random(29), [0.25, 0.375]])
    assert exact_block_sum(x) == exact(x)
    assert exact_block_sum(x[1:-2]) == exact(x[1:-2])


def test_one_run_of_a_whole_slice_at_the_largest_mantissa():
    # the first slice is one run of 2**20 largest mantissas, whose high
    # parts total 2**20 * (2**27 - 1), just below 2**47; the second slice
    # holds one more and a second run
    top = np.nextafter(2.0, 0.0)
    x = np.full((1 << 20) + 2, top)
    x[-1] = 0.75
    want = Fraction(top) * ((1 << 20) + 1) + Fraction(3, 4)
    assert exact_block_sum(x) == want
    assert exact_block_sum(-x) == -want
    # reversed, the first slice is 0.75 and then a run of 2**20 - 1 tops
    assert exact_block_sum(x[::-1]) == want
    x[: 1 << 20 : 2] *= -1.0  # mixed signs cancel within the run
    assert exact_block_sum(x) == Fraction(top) + Fraction(3, 4)


def test_mixed_signs_and_subnormals_in_one_run():
    # k * 2**-1074 with 512 <= k < 1024 all share frexp's exponent -1064
    rng = np.random.default_rng(1074)
    x = rng.integers(512, 1024, 3000) * 2.0**-1074 * rng.choice([-1.0, 1.0], 3000)
    assert len(np.unique(np.frexp(x)[1])) == 1
    assert exact_block_sum(x) == exact(x)
    tiny = Fraction(1, 2**1074)
    assert exact_block_sum(np.concatenate([[2.0**-1074], x, [2.0**-1074]])) == exact(x) + 2 * tiny


def test_prime_reciprocals_across_2_to_the_23():
    # 1/p halves its binade at p = 2**23: the block holds exactly two runs
    p = primes_upto((1 << 23) + 3000)
    p = p[p > (1 << 23) - 3000]
    x = 1.0 / p.astype(np.float64)
    assert len(np.unique(np.frexp(x)[1])) == 2
    assert exact_block_sum(x) == exact(x)
    assert float(exact_block_sum(x)) == math.fsum(x.tolist())


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_term_inside_a_run_is_rejected(bad):
    # frexp gives nan and inf the exponent of [0.5, 1), so they share the
    # run of their neighbours; the error is the only signal, never a warning
    x = np.array([0.5, 0.75, bad, -bad, 0.625])
    assert len(np.unique(np.frexp(x)[1])) == 1
    with pytest.raises(ValueError, match=r"^exact_block_sum needs finite terms$"):
        exact_block_sum(x)
    with pytest.raises(ValueError, match=r"^exact_block_sum needs finite terms$"):
        exact_block_sum(x[:3])


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
