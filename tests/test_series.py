import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest

import gaplab.series as series
from gaplab.series import pnt_ratio_track, reciprocal_prime_sum

from oracles import MERTENS_B, mertens_bracket, reciprocal_sum_exact, reciprocal_sum_mp


def test_four_term_sum_is_exact_fraction():
    rows = reciprocal_prime_sum(10)
    assert rows[-1].n == 4
    assert math.isclose(rows[-1].partial_sum, float(Fraction(247, 210)), rel_tol=1e-15)


def test_sum_to_100_matches_exact_rational(oracle_primes_1m):
    rows = reciprocal_prime_sum(100)
    exact = reciprocal_sum_exact(oracle_primes_1m, 100)
    assert math.isclose(rows[-1].partial_sum, float(exact), rel_tol=1e-14)
    assert abs(rows[-1].partial_sum - 1.80282) < 1e-5


def test_sum_to_1e6_against_high_precision_oracle(oracle_primes_1m):
    rows = reciprocal_prime_sum(10**6)
    ref = reciprocal_sum_mp(oracle_primes_1m, 10**6, dps=40)
    # doubling the accumulator precision moves the answer by < 1e-12 relative
    with mpmath.workdps(40):
        rel = abs(mpmath.mpf(rows[-1].partial_sum) - ref) / ref
        assert rel < mpmath.mpf(1e-12)


def test_loglog_gap_at_1e6():
    rows = reciprocal_prime_sum(10**6)
    last = rows[-1]
    assert last.p_n == 999983
    # Mertens' offset, 4e-5 above B at 10^6; frozen from the dps-50 oracle
    assert abs(last.loglog_gap - 0.2615374156) < 1e-6


@pytest.mark.parametrize("limit, checkpoints, bracketed", [
    # the dyadic checkpoints from 2^6 (p_64 = 311) to 2^22, and n = pi(10^8)
    (10**8, None, 18),
    # p_1000 = 7,919 and p_78498 = 999,983, as `gaplab series --checkpoints 1000,78498`
    (10**6, [1000, 78498], 2),
])
def test_loglog_gap_lies_in_the_rosser_schoenfeld_bracket(limit, checkpoints, bracketed):
    # a theorem, so it holds at every checkpoint with p_n >= 286; the largest
    # share of the bound used to 10^7 is 0.686, at p_64 = 311
    rows = [r for r in reciprocal_prime_sum(limit, checkpoints) if r.p_n >= 286]
    assert len(rows) == bracketed
    for r in rows:
        assert abs(r.loglog_gap - MERTENS_B) < mertens_bracket(r.p_n), (r.n, r.p_n)


def test_partial_sums_strictly_increase():
    rows = reciprocal_prime_sum(10**6)
    sums = [r.partial_sum for r in rows]
    assert all(b > a for a, b in zip(sums, sums[1:]))


def test_default_checkpoints_are_dyadic_plus_final():
    rows = reciprocal_prime_sum(100)
    assert [r.n for r in rows] == [2, 4, 8, 16, 25]


@pytest.mark.parametrize("segment_size", [64, None])
def test_default_rows_end_once_at_a_dyadic_last_index(
    oracle_primes_1m, segment_size, set_segment_size
):
    if segment_size is not None:
        set_segment_size(segment_size)
    # limit = p_(2^k) makes the dyadic checkpoint 2^k the final index too
    for k in (1, 2, 6, 7, 10, 13):
        rows = reciprocal_prime_sum(oracle_primes_1m[2**k - 1])
        assert [r.n for r in rows] == [2**j for j in range(1, k + 1)]


def test_every_index_as_a_checkpoint(oracle_primes_1m, set_segment_size):
    every = list(range(1, 9593))  # pi(10^5) = 9592
    default = reciprocal_prime_sum(10**5, checkpoints=every)
    set_segment_size(64)
    rows = reciprocal_prime_sum(10**5, checkpoints=every)
    assert rows == default
    assert [r.n for r in rows] == every
    assert [r.p_n for r in rows] == oracle_primes_1m[:9592]
    for n in (1, 2, 97, 1000, 4096, 9592):
        ref = reciprocal_sum_mp(oracle_primes_1m, rows[n - 1].p_n, dps=40)
        with mpmath.workdps(40):
            assert abs(mpmath.mpf(rows[n - 1].partial_sum) - ref) / ref < mpmath.mpf(1e-15)


@pytest.mark.parametrize("segment_size", [64, 101, 4099])
def test_checkpoints_are_correctly_rounded_exact_sums(
    oracle_primes_1m, segment_size, set_segment_size
):
    set_segment_size(segment_size)
    primes = np.array(oracle_primes_1m[:9592], dtype=np.float64)  # pi(10^5) = 9592
    terms = [Fraction(t) for t in (1.0 / primes).tolist()]
    for rows in (reciprocal_prime_sum(10**5), reciprocal_prime_sum(10**4, list(range(1, 1230)))):
        exact, done = Fraction(0), 0
        for row in rows:
            exact += sum(terms[done : row.n])
            done = row.n
            assert row.partial_sum == float(exact)


def test_loglog_gap_none_while_p_below_3():
    rows = reciprocal_prime_sum(10, checkpoints=[1, 2])
    assert rows[0].p_n == 2
    assert rows[0].loglog_gap is None
    assert rows[0].pnt_ratio is None
    assert rows[1].loglog_gap is not None


def test_pnt_ratio_values():
    rows = pnt_ratio_track(checkpoints=[2, 1000])
    assert math.isclose(rows[0].pnt_ratio, 3 / (2 * math.log(2)), rel_tol=1e-12)
    assert rows[1].p_n == 7919
    assert math.isclose(rows[1].pnt_ratio, 7919 / (1000 * math.log(1000)), rel_tol=1e-12)
    assert abs(rows[1].pnt_ratio - 1.1464) < 5e-4


def test_pnt_ratio_trend_over_oracle_confirmed_range():
    # the dyadic ratio sequence is NOT monotone from 2^6: it rises at 2^9
    # and 2^10, then decreases. Acceptance criterion 4 checks these values
    # against the dense-sieve oracle; this test only pins the shape.
    rows = pnt_ratio_track(checkpoints=[2**k for k in range(6, 21)])
    ratios = {r.n: r.pnt_ratio for r in rows}
    assert ratios[2**9] > ratios[2**8]
    assert ratios[2**10] > ratios[2**9]
    tail = [ratios[2**k] for k in range(10, 21)]
    assert all(b < a for a, b in zip(tail, tail[1:]))


def test_pnt_ratio_rejects_n1():
    with pytest.raises(ValueError, match="n ln n"):
        pnt_ratio_track(checkpoints=[1, 2])


def test_pnt_ratio_rejects_limits_below_3(monkeypatch):
    def no_sieve(limit):
        raise AssertionError("sieved before rejecting the limit")

    monkeypatch.setattr(series, "sieve_primes", no_sieve)
    for limit in (1, 2):
        with pytest.raises(ValueError, match="limit must be >= 3"):
            pnt_ratio_track(limit)
    monkeypatch.undo()
    # the sum itself is defined at n = 1
    [row] = reciprocal_prime_sum(2)
    assert (row.n, row.p_n, row.pnt_ratio) == (1, 2, None)


def test_pnt_ratio_needs_limit_or_checkpoints():
    with pytest.raises(ValueError):
        pnt_ratio_track()


def test_checkpoint_validation():
    with pytest.raises(ValueError):
        reciprocal_prime_sum(100, checkpoints=[])
    with pytest.raises(ValueError):
        reciprocal_prime_sum(100, checkpoints=[4, 2])
    with pytest.raises(ValueError):
        reciprocal_prime_sum(100, checkpoints=[0, 5])
    with pytest.raises(ValueError, match="exceeds the prime count"):
        reciprocal_prime_sum(100, checkpoints=[26])


def test_explicit_checkpoints_stop_the_sieve(monkeypatch, set_segment_size):
    set_segment_size(64)
    blocks = list(series.sieve_primes(10**5))
    real_sieve, pulled = series.sieve_primes, 0

    def counted(limit):
        nonlocal pulled
        for block in real_sieve(limit):
            pulled += 1
            yield block

    monkeypatch.setattr(series, "sieve_primes", counted)
    rows = reciprocal_prime_sum(10**5, [100])
    assert pulled == sum(b.start_index <= 100 for b in blocks) < len(blocks)
    # p_100 = 541, so the default rows of limit 541 end with the same row
    assert rows == [reciprocal_prime_sum(541)[-1]]
    # a checkpoint left over still drains the stream for the full count
    with pytest.raises(ValueError, match="exceeds the prime count 9592"):
        reciprocal_prime_sum(10**5, [10, 10**6])


def test_deterministic_across_segmentation_and_threads(set_segment_size):
    base = reciprocal_prime_sum(10**5)
    for segment_size in (1234, 333):
        set_segment_size(segment_size)
        assert reciprocal_prime_sum(10**5) == base
