import csv
import io
import json
import math
import re
import tracemalloc
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import gaplab.gaps as gaps
import gaplab.ratios as ratios
import gaplab.report as report_module
from gaplab.errors import EvalError, PositivityError
from gaplab.expr import eval_array, parse_sequence
from gaplab.gaps import iter_gap_blocks
from gaplab.ratios import (
    check_candidate,
    estimate_r,
    gap_bound_report,
    prime_ratio_scan,
    ratio_comparison,
    ratio_excess,
    summability_probe,
)

from gaplab.report import export_report
from gaplab.sieve import primes_upto

from oracles import brute_force_scan, gap_records, mp_ratio_excess


def expr(text: str):
    return parse_sequence(text)


# ---------------------------------------------------------------------------
# ratio excess


def test_excess_for_inverse_square_has_closed_form():
    # b = 1/n^2: e_n = ln(n) (2 + 1/n)
    got = ratio_excess(expr("1/(n^2)"), 100)
    assert math.isclose(got, math.log(100) * (2 + 1 / 100), rel_tol=1e-12)


def test_excess_constant_sequence_is_exactly_zero():
    for n in (2, 10, 1024):
        assert ratio_excess(expr("1"), n) == 0.0


def test_excess_log_square_family_near_two():
    got = ratio_excess(expr("1/ln(n)^2"), 10**4)
    assert abs(got - 2.0) < 1e-3
    assert math.isclose(got, mp_ratio_excess(lambda x: 1 / mpmath.ln(x) ** 2, 10**4), rel_tol=1e-10)


def test_excess_remainder_bound_for_log_square():
    # |e_n - 2| <= 5/n for n >= 10 in this family (oracle-checked margin)
    for n in (10, 37, 100, 1024, 2**14, 2**20):
        assert abs(ratio_excess(expr("1/ln(n)^2"), n) - 2.0) <= 5.0 / n


@pytest.mark.parametrize("k", [40, 60, 100, 200])
def test_excess_keeps_its_digits_at_large_n(k):
    # b(n)/b(n+1) - 1 cancels the digits of n ln n, about 20 at 2^60 and
    # 63 at 2^200, so a fixed working precision loses the sample
    n = 2**k
    got = ratio_excess(expr("1/(n*ln(n)^2)"), n)
    want = mp_ratio_excess(lambda x: 1 / (x * mpmath.ln(x) ** 2), n, dps=120)
    assert math.isclose(got, want, rel_tol=1e-15)


def test_excess_needs_n_at_least_two():
    with pytest.raises(ValueError):
        ratio_excess(expr("1/n"), 1)


def test_excess_propagates_positivity():
    with pytest.raises(PositivityError):
        ratio_excess(expr("n-10"), 8)


def test_excess_beyond_the_float_range_names_n():
    # b(2)/b(3) = 10^600 and b(3)/b(4) = 10^-600: only the first leaves the range
    with pytest.raises(OverflowError, match=r"^ratio excess at n=2 exceeds the float range$"):
        ratio_excess(expr("10^(300*(-1)^n)"), 2)
    assert ratio_excess(expr("10^(300*(-1)^n)"), 3) == -3 * math.log(3)


# ---------------------------------------------------------------------------
# extrapolation


def test_estimate_log_square_family():
    diag = estimate_r(expr("1/ln(n)^2"), 2**20)
    assert isinstance(diag.r_estimate, float)
    assert abs(diag.r_estimate - 2.0) <= 0.01
    assert diag.remainder_trend == "shrinking"
    assert diag.samples[-1][0] == 2**20


def test_estimate_log_3_5_family():
    diag = estimate_r(expr("1/ln(n)^3.5"), 2**20)
    assert abs(diag.r_estimate - 3.5) <= 0.02


def test_estimate_inverse_square_is_divergent():
    diag = estimate_r(expr("1/(n^2)"), 2**20)
    assert diag.r_estimate == "divergent"
    assert diag.remainder_trend == "growing"


def test_estimate_constant_is_exactly_zero():
    diag = estimate_r(expr("1"), 2**12)
    assert diag.r_estimate == 0.0
    assert all(e == 0.0 for _, e in diag.samples)


def test_estimate_requires_minimum_range():
    with pytest.raises(ValueError):
        estimate_r(expr("1/n"), 63)


def test_extrapolation_table_carries_differences():
    diag = estimate_r(expr("1/ln(n)^2"), 2**10)
    assert diag.extrapolation_table[0][2] is None
    for (n1, e1, _), (n2, e2, d2) in zip(diag.extrapolation_table, diag.extrapolation_table[1:]):
        assert n2 == 2 * n1
        assert d2 == e2 - e1


# ---------------------------------------------------------------------------
# second-kind ratio comparison


def values(text: str, n_lo: int, n_hi: int) -> np.ndarray:
    """The sequence's float64 values on [n_lo, n_hi + 1]: its term ratios' input on [n_lo, n_hi]."""
    return eval_array(expr(text), np.arange(n_lo, n_hi + 2, dtype=np.int64))


def term_ratios(text: str, n_lo: int, n_hi: int) -> np.ndarray:
    """The sequence's term ratios b(n)/b(n+1) on [n_lo, n_hi]: a comparison's input."""
    v = values(text, n_lo, n_hi)
    return v[:-1] / v[1:]


def test_comparison_equal_sequences_hold_trivially():
    r = term_ratios("1/n", 2, 500)
    res = ratio_comparison(r, r, 2)
    assert (res.n_lo, res.n_hi) == (2, 500)
    assert res.violation_count == 0


def test_comparison_inverse_square_dominates_harmonic():
    res = ratio_comparison(term_ratios("1/(n^2)", 2, 10**4), term_ratios("1/n", 2, 10**4), 2)
    assert res.violation_count == 0


def test_comparison_first_violation_is_reported():
    res = ratio_comparison(term_ratios("1/n", 2, 100), term_ratios("1/(n^2)", 2, 100), 2)
    assert res.violation_count == 99
    assert (res.first_violation, res.last_violation) == (2, 100)


def test_comparison_range_validation():
    r = term_ratios("1/n", 1, 10)
    with pytest.raises(ValueError, match="n >= 2"):
        ratio_comparison(r, r, 1)
    with pytest.raises(ValueError, match="empty"):
        ratio_comparison(r[:0], r[:0], 10)
    # a ratio array of length 1 would broadcast against the other's
    with pytest.raises(ValueError, match="differ in length"):
        ratio_comparison(r[:1], r, 2)


@pytest.mark.parametrize(
    "a_text,b_text",
    [
        ("1/(n^2)", "1/(n*ln(n)^2)"),  # violations exactly while ln n < 2
        ("1/n", "1/(n^2)"),            # violated everywhere
        ("1/(n^2)", "1/n"),            # never violated
        ("1/(n*ln(n)^3)", "1/(n^2)"),  # violations start past the first chunk
    ],
)
@pytest.mark.parametrize("n_lo,n_hi", [(2, 40), (3, 16), (6, 13), (7, 8), (9, 9)])
def test_comparison_violations_are_chunk_invariant(monkeypatch, a_text, b_text, n_lo, n_hi):
    # the probe's cut: one comparison per 7-term chunk, each on its own
    # term ratios at [lo, hi], joined into one result
    ra, rb = term_ratios(a_text, n_lo, n_hi), term_ratios(b_text, n_lo, n_hi)
    direct = np.flatnonzero(~(ra >= rb)) + n_lo
    monkeypatch.setattr(ratios, "_CHUNK", 7)
    joined = None
    for lo, hi in ratios._chunks(n_lo, n_hi):
        part = ratio_comparison(ra[lo - n_lo : hi - n_lo + 1], rb[lo - n_lo : hi - n_lo + 1], lo)
        joined = ratios._joined(joined, part)
    for res in (ratio_comparison(ra, rb, n_lo), joined):
        assert (res.n_lo, res.n_hi) == (n_lo, n_hi)
        assert res.violation_count == len(direct)
        assert res.first_violation == (int(direct[0]) if len(direct) else None)
        assert res.last_violation == (int(direct[-1]) if len(direct) else None)


def test_comparison_on_term_ratios_matches_flatnonzero():
    # ratios drawn from a few values tie often, and a tie holds; nan never
    # holds, on either side
    rng = np.random.default_rng(32)
    pool = np.array([1.0, 2.0, 3.0, np.nan])
    cases = [
        (np.ones(9), np.ones(9)),  # ties everywhere
        (np.ones(9), np.full(9, 2.0)),  # violated everywhere
        (np.full(9, np.nan), np.ones(9)),
        (np.ones(1), np.full(1, np.nan)),
    ]
    cases += [(rng.choice(pool, k), rng.choice(pool, k)) for k in rng.integers(1, 12, 300)]
    for ra, rb in cases:
        direct = np.flatnonzero(~(ra >= rb)) + 5
        res = ratio_comparison(ra, rb, 5)
        assert (res.n_lo, res.n_hi) == (5, 4 + len(ra))
        assert res.violation_count == len(direct), (ra, rb)
        assert res.first_violation == (int(direct[0]) if len(direct) else None), (ra, rb)
        assert res.last_violation == (int(direct[-1]) if len(direct) else None), (ra, rb)


def _terms_violated_at(violations, n_max):
    """t(n) for 0 <= n <= n_max + 1, with t(n)/t(n+1) = 1/2 at the given n
    and 2 elsewhere, so a comparison against a constant fails exactly there.
    The largest term is 1, so up to n_max = 1073 every term is a positive double."""
    steps = np.where(np.isin(np.arange(n_max + 1), list(violations)), 1.0, -1.0)
    exponents = np.concatenate([[0.0], np.cumsum(steps)])
    return 2.0 ** (exponents - exponents.max())


@pytest.mark.parametrize("n_hi", [29, 30, 31])
@pytest.mark.parametrize(
    "violations",
    [
        set(),
        {9},
        {15},
        {2, 8, 9, 22, 23},
        {16, 22},
        {8, 15},
        {15, 19},
        {29, 30, 31},  # n_hi, the last term ratio, needs t(n_hi + 1)
        set(range(2, 32)),  # every n
    ],
)
def test_comparison_tally_matches_flatnonzero(violations, n_hi):
    terms = _terms_violated_at(violations, n_hi)
    ns = np.arange(2, n_hi + 2)
    direct = np.flatnonzero(~(terms[ns][:-1] / terms[ns][1:] >= 1.0)) + 2
    assert set(direct.tolist()) == {n for n in violations if n <= n_hi}
    res = ratio_comparison(terms[ns][:-1] / terms[ns][1:], np.ones(len(ns) - 1), 2)
    assert res.first_violation == (int(direct[0]) if len(direct) else None)
    assert res.last_violation == (int(direct[-1]) if len(direct) else None)
    assert res.violation_count == len(direct)


# with _CHUNK = 7 from n = 2 the chunks start at 2 + 7k: 9, 16, ..., 506,
# 513, ..., 1024, 1031. So 2^9 = 512 ends a chunk and 2^9 + 1 starts the
# next, 2^10 = 1024 starts a chunk, n_max = 1024 or 1031 leaves a one-term
# last chunk, and n_max = 1030 a full one
@pytest.mark.parametrize("n_max", [1024, 1030, 1031])
@pytest.mark.parametrize(
    "violations",
    [
        set(),
        {9},  # a chunk's first index
        {15},  # a chunk's last index
        {16, 22},  # the first and last index of one chunk
        {8, 15, 19},  # the last index of two chunks, then a later chunk's middle
        {256, 257},  # 2^8 and 2^8 + 1, inside one chunk
        {512},  # 2^9, a chunk's last index
        {513},  # 2^9 + 1, the next chunk's first index
        {1024, 1025, 1030, 1031},  # 2^10, 2^10 + 1, and each n_max
        set(range(2, 1032)),  # every n
    ],
)
def test_probe_comparisons_match_flatnonzero_at_chunk_edges(monkeypatch, violations, n_max):
    # the candidate's term ratio is 1/2 at the given n and 2 elsewhere; both
    # references are constant, so the convergent comparison fails exactly at
    # the given n and the divergent one everywhere else
    terms = _terms_violated_at(violations, n_max)
    candidate = expr("n")  # unlike both references, whose values are faked as ones
    monkeypatch.setattr(
        ratios,
        "eval_array",
        lambda e, ns, *, shared: terms[ns.astype(np.int64)] if e == candidate else np.ones(len(ns)),
    )
    monkeypatch.setattr(ratios, "_CHUNK", 7)
    ns = np.arange(2, n_max + 2)
    ratio_below_one = terms[ns][:-1] / terms[ns][1:] < 1.0
    comparisons = summability_probe(candidate, n_max).reference_comparisons
    for key, bad in (
        ("convergent_reference", ratio_below_one),
        ("divergent_reference", ~ratio_below_one),
    ):
        direct = np.flatnonzero(bad) + 2
        got = comparisons[key]
        assert got["first_violation"] == (int(direct[0]) if len(direct) else None), key
        assert got["last_violation"] == (int(direct[-1]) if len(direct) else None), key
        assert got["violation_count"] == len(direct), key
    assert comparisons["convergent_reference"]["violation_count"] == len(
        {n for n in violations if n <= n_max}
    )


@pytest.mark.parametrize(
    "text,chunk,n",
    [
        ("1/(n-1025)^2", None, 1025),  # n_max + 1: only a term ratio reads it
        ("1/(n-9)^2", 7, 9),  # a chunk's first index
        ("1/(n-15)^2", 7, 15),  # a chunk's last index, also read by the next chunk
    ],
)
def test_probe_names_the_first_fault(monkeypatch, text, chunk, n):
    if chunk is not None:
        monkeypatch.setattr(ratios, "_CHUNK", chunk)
    with pytest.raises(EvalError, match=f"^division by zero in .* at n={n}$") as err:
        summability_probe(expr(text), 1024)
    assert type(err.value) is EvalError  # not PositivityError: every term is positive
    assert err.value.n == n


def test_probe_fault_names_the_subterm_as_written():
    # ln(n-2.0) and ln(n-2) are equal trees that print apart; the probe
    # shares neither with the other, so the fault names the one that fails
    # first in the walk, the divisor
    with pytest.raises(EvalError) as err:
        summability_probe(expr("ln(n-2.0)/ln(n-2)"), 1024)
    assert str(err.value) == "ln of nonpositive argument in 'ln(n - 2)' at n=2"
    assert (err.value.n, err.value.node) == (2, "ln(n - 2)")


def test_comparison_consequence_transfers_geometric_decay():
    # if a's ratio dominates b's on the range and b's dyadic increments
    # shrink geometrically, a's must as well
    a, b = "1/(n^3)", "1/(n^2)"
    assert ratio_comparison(term_ratios(a, 2, 2**13), term_ratios(b, 2, 2**13), 2).violation_count == 0
    pa = summability_probe(expr(a), 2**13)
    pb = summability_probe(expr(b), 2**13)
    assert pb.geometric_decay
    assert pa.geometric_decay


# ---------------------------------------------------------------------------
# summability probe


@pytest.mark.parametrize(
    "text,verdict",
    [
        ("1/(n^2)", "converging-evidence"),
        ("1/(n*ln(n)^2)", "converging-evidence"),
        ("1/(n^3)", "converging-evidence"),
        ("1/(n^1.5)", "converging-evidence"),
        ("1/(n*ln(n))", "diverging-evidence"),
        ("1/ln(n)^2", "diverging-evidence"),
        ("1/n", "diverging-evidence"),
        ("n", "diverging-evidence"),
    ],
)
def test_probe_verdicts(text, verdict):
    assert summability_probe(expr(text), 2**14).verdict == verdict


def test_probe_partial_sums_and_increments_are_consistent():
    probe = summability_probe(expr("1/(n^2)"), 2**12)
    sums = dict(probe.partial_sums)
    for n, inc in probe.increments:
        assert math.isclose(inc, sums[n] - sums[n // 2], rel_tol=1e-12)
    # converging toward pi^2/6 - 1
    assert abs(sums[2**12] - (math.pi**2 / 6 - 1)) < 1e-3


def test_probe_partial_sums_are_correctly_rounded():
    # the terms at n = 2, 3, 4 are 1, 2^-53 and 2^-106 (the 2^-1074 keeps
    # later terms positive): their sum lies just above the tie between 1
    # and 1 + 2^-52, so it rounds up, where adding 2^-53 first rounds down
    tree = expr("2^(-53*(n-2)) + 2^(-1074)")
    probe = summability_probe(tree, 1024)
    assert dict(probe.partial_sums)[4] == 1 + 2**-52
    terms = list(map(Fraction, eval_array(tree, np.arange(2, 1025)).tolist()))
    for n, partial in probe.partial_sums:
        assert partial == float(sum(terms[: n - 1]))


@pytest.mark.parametrize("text", ["1/(n*ln(n)^2)", "2^(-53*(n-2)) + 2^(-1074)"])
def test_probe_partial_sums_do_not_depend_on_the_chunk(monkeypatch, text):
    whole = summability_probe(expr(text), 1500)
    monkeypatch.setattr(ratios, "_CHUNK", 7)
    assert summability_probe(expr(text), 1500).partial_sums == whole.partial_sums


def test_probe_and_comparison_memory_is_bounded_by_the_chunk():
    # every float64 temporary of the sum and of both reference comparisons
    # is one chunk long, whatever n_max is; a 2^20-term array alone would be
    # 8 MB
    tree = expr(ratios.CONVERGENT_REFERENCE)
    tracemalloc.start()
    try:
        summability_probe(tree, 2**20)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


def test_probe_partial_sum_beyond_the_float_range_raises():
    # 2^20 terms of 10^302 stay below the largest double, 2^21 do not
    with pytest.raises(OverflowError, match=r"partial sum at n=2097152 exceeds"):
        summability_probe(expr("10^302"), 2**21)


def test_probe_term_ratios_beyond_the_float_range_compare_without_a_warning():
    # terms 10^300 and 10^-300 in turn: every other term ratio is 10^600,
    # an inf, and the rest are 10^-600, a zero; warnings are errors here
    probe = summability_probe(expr("10^(300*(-1)^n)"), 1024)
    comparisons = probe.reference_comparisons
    # the convergent reference's ratio beats 0.0 and loses to inf, at n = 3, 5, ...
    conv = comparisons["convergent_reference"]
    assert (conv["violation_count"], conv["first_violation"], conv["last_violation"]) == (511, 3, 1023)
    div = comparisons["divergent_reference"]
    assert (div["violation_count"], div["first_violation"], div["last_violation"]) == (512, 2, 1024)


def test_probe_never_claims_proof():
    probe = summability_probe(expr("1/(n^2)"), 2**10)
    assert "not a proof" in probe.method
    assert probe.reference_comparisons["convergent_reference"]["holds_on_tail"]


def test_probe_range_validation():
    with pytest.raises(ValueError):
        summability_probe(expr("1/n"), 1023)
    # float64 indices are exact only below 2^53; the refusal comes before
    # the first chunk, or this would run for years
    with pytest.raises(ValueError, match="below 2\\^53"):
        summability_probe(expr("1/n"), 2**53)


# ---------------------------------------------------------------------------
# the theorems behind the two axes, on b_n = 1/ln(n)^s
#
# b_n/b_(n+1) = (ln(n+1)/ln n)^s is about 1 + s/(n ln n), and the divergent
# reference's ratio (n+1) ln(n+1)/(n ln n) is about 1 + (ln n + 1)/(n ln n),
# so the reference dominates once ln n + 1 > s, from about e^(s-1) on: the
# inequality by which Raabe's test makes the sum of b_n diverge.


@pytest.mark.parametrize("s", ["1", "2", "3", "3.5"])
def test_divergent_reference_dominates_log_powers_from_e_to_the_s_minus_1(s):
    probe = summability_probe(expr(f"1/ln(n)^{s}"), 2**20)
    last = probe.reference_comparisons["divergent_reference"]["last_violation"]
    assert last is None or last < math.exp(float(s) - 1)
    assert probe.verdict == "diverging-evidence"


@pytest.mark.parametrize("s", ["1", "2", "3", "3.5"])
def test_log_power_excess_stays_below_ln_n(s):
    # e_n tends to s, so e_n < ln n from about e^s on;
    # e^(s+1) leaves room for the 1/ln n terms. Checked through 2^60
    b = expr(f"1/ln(n)^{s}")
    ns = [2**k for k in range(1, 61) if 2**k > math.exp(float(s) + 1)]
    assert ns[0] <= 128
    for n in ns:
        assert ratio_excess(b, n) < math.log(n), n


# ---------------------------------------------------------------------------
# combined candidate check


def test_log_square_fails_only_summability():
    rep = check_candidate(expr("1/ln(n)^2"), r=2.0, n_max=2**16)
    assert not rep.candidate
    assert rep.ratio_axis_pass
    assert not rep.summability_axis_pass
    assert rep.failed_axes == ("summability",)


def test_inverse_square_fails_only_ratio():
    rep = check_candidate(expr("1/(n^2)"), r=2.0, n_max=2**16)
    assert not rep.candidate
    assert rep.failed_axes == ("ratio",)
    assert rep.summability.verdict == "converging-evidence"


def test_n_log_square_fails_only_ratio():
    rep = check_candidate(expr("1/(n*ln(n)^2)"), r=2.0, n_max=2**16)
    assert not rep.candidate
    assert rep.failed_axes == ("ratio",)
    # e_n grows like ln n + 2 here, so the deviation from 2 is the ln
    assert rep.max_excess_deviation > 5


@pytest.mark.parametrize("text", ["1/(n*ln(n)^2)", "1/ln(n)^2"])
def test_candidate_report_does_not_depend_on_the_chunk(monkeypatch, text):
    # 20,000 terms leave a short last chunk at each size, and one reference
    # comparison of each candidate is violated at every n, so in every chunk
    def artifact():
        return export_report(check_candidate(expr(text), 1.0, n_max=20_001), "json")

    whole = artifact()
    comparisons = json.loads(whole)["summability"]["reference_comparisons"]
    assert max(c["violation_count"] for c in comparisons.values()) == 20_000
    for chunk in (7, 4099):
        monkeypatch.setattr(ratios, "_CHUNK", chunk)
        assert artifact() == whole


@pytest.mark.parametrize("chunk", [7, 2**14, 2**20])
@pytest.mark.parametrize(
    "text", ["1/(n-20000)^2 + 1/(n-100)^2", "1/(n-100)^2 + 1/(n-20000)^2"]
)
def test_candidate_fault_does_not_depend_on_the_chunk(monkeypatch, chunk, text):
    # the walk meets the two divisions in either order; the report names
    # the first offending n, wherever the chunk edges fall
    monkeypatch.setattr(ratios, "_CHUNK", chunk)
    with pytest.raises(EvalError, match=re.escape("in '1/(n - 100)^2' at n=100")) as err:
        check_candidate(expr(text), 1.0, n_max=65536)
    assert err.value.n == 100


def test_candidate_check_validation():
    with pytest.raises(ValueError):
        check_candidate(expr("1/n"), r=0.0)
    with pytest.raises(ValueError):
        check_candidate(expr("1/n"), r=2.0, n0=100, n_max=50)
    # [1000, 1024] holds one dyadic point, 1024
    with pytest.raises(ValueError, match="contains too few dyadic sample points"):
        check_candidate(expr("1/n^2"), 1.0, n0=1000, n_max=1024)


# ---------------------------------------------------------------------------
# prime-ratio scan


def _hit_rows(report):
    """The hit rows built from the whole columns at once."""
    return list(
        zip(
            report.hits_n.tolist(),
            report.hits_p.tolist(),
            (report.hits_p + report.hits_gap).tolist(),
            report.hits_gap.tolist(),
            report.hits_threshold.tolist(),
            report.hits_borderline.tolist(),
        )
    )


def test_scan_tiny_range_matches_hand_computation():
    report = prime_ratio_scan(2.0, 0.0, 12)
    hits = _hit_rows(report)
    assert [h[0] for h in hits] == [2, 3]
    # n=2: 5/3 < 1 + 2/(2 ln 2); n=3: 7/5 < 1 + 2/(3 ln 3); n=4 misses
    assert math.isclose(hits[0][4], 3 * 2 / (2 * math.log(2)), rel_tol=1e-12)
    assert report.min_gap_among_hits == 2


def test_scan_limit_30(oracle_primes_1m):
    report = prime_ratio_scan(2.0, 0.0, 30)
    hits = _hit_rows(report)
    oracle = brute_force_scan(oracle_primes_1m, 2.0, 0.0, 30)
    assert [(n, p, q, g) for n, p, q, g, _t, _b in hits] == oracle
    assert all(g == 2 for _n, _p, _q, g, _t, _b in hits)
    # thresholds sit in (2, 3.1] from n=3 on; the n=2 threshold is 4.328
    assert all(2 < t <= 3.1 for n, _p, _q, _g, t, _b in hits if n >= 3)
    assert math.isclose(hits[0][4], 4.328085122666891, rel_tol=1e-12)


def test_hit_rows_are_chunk_invariant(monkeypatch):
    default = report_module._HIT_ROWS
    report = prime_ratio_scan(2.0, 0.0, 10**4)
    json_text, csv_text = export_report(report, "json"), export_report(report, "csv")
    primes = primes_upto(10**4)
    primes_text = export_report(primes, "csv")
    # 7 leaves a partial last chunk
    assert report.hit_count > 7 and report.hit_count % 7
    assert len(primes) > 7 and len(primes) % 7
    for hit_rows in (1, 7):
        monkeypatch.setattr("gaplab.report._HIT_ROWS", hit_rows)
        assert export_report(report, "json") == json_text
        assert export_report(report, "csv") == csv_text
        assert export_report(primes, "csv") == primes_text
    # the default chunk and the earlier 2^14 one, each over several chunks
    # and a partial last one: 67,110 hits and 78,498 primes below 10^6
    big = prime_ratio_scan(20.0, 0.0, 10**6)
    big_primes = primes_upto(10**6)
    texts = {}
    for hit_rows in (1 << 14, default):
        monkeypatch.setattr("gaplab.report._HIT_ROWS", hit_rows)
        assert big.hit_count > 2 * hit_rows and big.hit_count % hit_rows
        assert len(big_primes) > 2 * hit_rows and len(big_primes) % hit_rows
        texts[hit_rows] = (
            export_report(big, "json"),
            export_report(big, "csv"),
            export_report(big_primes, "csv"),
        )
    assert texts[1 << 14] == texts[default]
    # the rows csv.writer wrote before the row template replaced it
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(("index", "prime"))
    writer.writerows(enumerate(primes.tolist(), start=1))
    assert primes_text == buf.getvalue().encode()


def test_scan_holds_each_hit_once(set_segment_size):
    """No hit is held twice while the columns are built, so the scan's
    traced peak stays well under twice the bytes of its five hit columns.
    Small segments keep the sieve's work space below the hits: r = 20
    makes 124,331 of the 148,933 pairs below 2 * 10^6 hits."""
    set_segment_size(1 << 16)
    tracemalloc.start()
    try:
        report = prime_ratio_scan(20.0, 0.0, 2 * 10**6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    columns = sum(
        getattr(report, name).nbytes
        for name in ("hits_n", "hits_p", "hits_gap", "hits_threshold", "hits_borderline")
    )
    assert report.hit_count == 124_331
    assert peak < 1.75 * columns, (peak, columns)


def test_scan_matches_brute_force_oracle(oracle_primes_1m):
    report = prime_ratio_scan(3.0, 0.25, 10**4)
    oracle = brute_force_scan(oracle_primes_1m, 3.0, 0.25, 10**4)
    assert [(n, p, q, g) for n, p, q, g, _t, _b in _hit_rows(report)] == oracle


def test_scan_start_at_segment_edges(oracle_primes_1m, set_segment_size):
    set_segment_size(64)
    limit = 2 * 10**4
    full = prime_ratio_scan(2.0, 0.0, limit, 2)
    oracle = brute_force_scan(oracle_primes_1m, 2.0, 0.0, limit)
    starts = [n0 for n0, _p, _g in iter_gap_blocks(limit)]
    # the first blocks, then starts far enough out that the scan's sieve
    # starts well above 3, up to the last pair
    picked = starts[1:11] + starts[11::20] + [full.n_hi]
    for n_lo in sorted({s + d for s in picked for d in (-1, 0, 1)} - {full.n_hi + 1}):
        scan = prime_ratio_scan(2.0, 0.0, limit, n_lo)
        keep = full.hits_n >= n_lo
        for name in ("hits_n", "hits_gap", "hits_threshold", "hits_borderline"):
            assert np.array_equal(getattr(scan, name), getattr(full, name)[keep]), (n_lo, name)
        assert (scan.n_lo, scan.n_hi) == (n_lo, full.n_hi)
        assert [(n, g) for n, _p, _q, g in oracle if n >= n_lo] == list(
            zip(scan.hits_n.tolist(), scan.hits_gap.tolist())
        ), n_lo


def _scan_rows(report):
    """Everything a scan reports, with the hit columns as lists."""
    columns = [
        getattr(report, name).tolist()
        for name in ("hits_n", "hits_p", "hits_gap", "hits_threshold", "hits_borderline")
    ]
    return (
        report.n_lo, report.n_hi, report.hit_count, columns,
        report.min_gap_among_hits, report.max_threshold_among_hits, report.tail_min_gap,
    )


def _filtered_and_unfiltered(monkeypatch, scans):
    """Each (r, epsilon, limit, n_lo) scanned with the Rosser prefilter, then without it."""
    filtered = [_scan_rows(prime_ratio_scan(*args)) for args in scans]
    with monkeypatch.context() as m:
        m.setattr(ratios, "_gap_cap", lambda n0, strength: math.inf)
        unfiltered = [_scan_rows(prime_ratio_scan(*args)) for args in scans]
    return filtered, unfiltered


@pytest.mark.parametrize("segment_size", [None, 101])
def test_prefilter_keeps_every_hit_threshold_and_flag(monkeypatch, set_segment_size, segment_size):
    if segment_size is not None:
        set_segment_size(segment_size)
    # at r = 50 the cap sits above most gaps and the filter keeps most pairs;
    # from n_lo = 15 the first piece keeps every pair (its cap is inf), from
    # 16 and 17 it is filtered from its first pair on
    scans = [
        (r, eps, limit, n_lo)
        for r in (0.5, 2.0, 7.0, 50.0)
        for eps in (0.0, 0.25)
        for limit in (10**3, 2 * 10**4)
        for n_lo in (2, 15, 16, 17, 150)
    ]
    filtered, unfiltered = _filtered_and_unfiltered(monkeypatch, scans)
    for args, a, b in zip(scans, filtered, unfiltered):
        assert a == b, args
    assert any(a[2] > 0.9 * (a[1] - a[0] + 1) for a in filtered)  # r = 50


def test_prefilter_cap_is_taken_at_the_first_index(monkeypatch):
    # from n_lo = 16 the first sieve block runs to n = 78,497 at 10^6; there
    # the factor 1 + ln ln n / ln n is 1.2149, below thr/(r + eps) = 1.2250
    # at the twin pair n = 17, so at r = 1.64 a cap taken at the piece's last
    # index would drop the hit n = 17
    scans = [(r, 0.0, 10**6, n_lo) for r in (1.6, 1.62, 1.64, 1.66) for n_lo in (16, 17)]
    filtered, unfiltered = _filtered_and_unfiltered(monkeypatch, scans)
    assert filtered == unfiltered
    hits_n = {args[0]: row[3][0] for args, row in zip(scans, filtered) if args[3] == 16}
    assert 17 not in hits_n[1.62] and 17 in hits_n[1.64]


def test_prefilter_with_a_gap_at_the_cap(monkeypatch, oracle_primes_1m):
    # epsilon puts a gap g of the piece from n0 = 1000 within 1e-12 relative
    # of the cap, on either side and at the closest floats
    n0, r, g = 1000, 4.0, 6
    strength = g / ratios._gap_cap(n0, 1.0)
    strengths = [strength * (1 + k * 1e-13) for k in range(-9, 10, 3)]
    up = down = strength
    for _ in range(3):
        up, down = np.nextafter(up, np.inf), np.nextafter(down, 0.0)
        strengths += [float(up), float(down)]
    caps = [ratios._gap_cap(n0, s) for s in strengths]
    assert any(c < g for c in caps) and any(c >= g for c in caps)
    assert all(abs(c - g) < 1e-12 * g for c in caps)
    gaps_in_piece = {q - p for p, q in zip(oracle_primes_1m[n0 - 1 : 2000], oracle_primes_1m[n0:])}
    assert g in gaps_in_piece
    scans = [(r, s - r, 2 * 10**4, n0) for s in strengths]
    filtered, unfiltered = _filtered_and_unfiltered(monkeypatch, scans)
    assert filtered == unfiltered
    assert all(row[2] > 0 for row in filtered)


def test_prefilter_with_n_lo_at_segment_edges(monkeypatch, set_segment_size):
    set_segment_size(64)
    limit = 2 * 10**4
    starts = [n0 for n0, _p, _g in iter_gap_blocks(limit)]
    n_los = sorted({s + d for s in starts[1:8] + starts[8::25] for d in (-1, 0, 1)})
    scans = [(r, 0.0, limit, n_lo) for r in (2.0, 7.0) for n_lo in n_los]
    filtered, unfiltered = _filtered_and_unfiltered(monkeypatch, scans)
    for args, a, b in zip(scans, filtered, unfiltered):
        assert a == b, args


def test_gap_cap_bounds_every_later_threshold(oracle_primes_1m):
    # thr/(r + eps) = p_n/(n ln n): its maximum over n >= n0 stays below
    # the cap's factor at n0, for every n0 from 16 on
    p = np.array(oracle_primes_1m, dtype=np.float64)
    n = np.arange(1, len(p) + 1, dtype=np.float64)
    ratio = p[15:] / (n[15:] * np.log(n[15:]))
    later_max = np.maximum.accumulate(ratio[::-1])[::-1]
    caps = np.array([ratios._gap_cap(n0, 1.0) for n0 in range(16, len(p) + 1)])
    assert (later_max * (1 + 1e-6) < caps).all()
    # below n0 = 16 the factor at n0 bounds nothing, and no pair is dropped
    assert all(ratios._gap_cap(n0, 1.0) == math.inf for n0 in range(1, 16))


def test_unreachable_n_lo_fails_before_sieving(monkeypatch):
    def no_sieve(*args, **kwargs):
        raise AssertionError("the scan sieved")

    monkeypatch.setattr(gaps, "sieve_primes", no_sieve)
    for scan in (prime_ratio_scan, gap_bound_report):
        with pytest.raises(ValueError, match="too small to contain the prime pair at index"):
            scan(2.0, 0.0, 10**9, 10**9)


def test_a_window_without_a_prime_holds_no_pair():
    # the floor of p_10 = 29 is 15, and [15, 16] holds no prime
    with pytest.raises(ValueError, match="too small to contain the prime pair at index 10"):
        prime_ratio_scan(2, limit=16, n_lo=10)


def test_scan_thresholds_bound_the_gaps():
    report = prime_ratio_scan(2.0, 0.0, 10**5)
    assert (report.hits_gap < report.hits_threshold).all()


def test_weak_strength_yields_no_hits():
    report = prime_ratio_scan(0.001, 0.0, 10**6)
    assert report.hit_count == 0
    assert report.min_gap_among_hits is None
    assert report.tail_min_gap == []
    columns = [
        report.hits_n, report.hits_p, report.hits_gap, report.hits_threshold, report.hits_borderline
    ]
    assert [c.dtype for c in columns] == [np.int64, np.int64, np.int64, np.float64, np.bool_]


def test_scan_validation():
    with pytest.raises(ValueError):
        prime_ratio_scan(0.0, 0.0, 100)
    with pytest.raises(ValueError):
        prime_ratio_scan(2.0, -0.1, 100)
    with pytest.raises(ValueError, match="n ln n vanishes"):
        prime_ratio_scan(2.0, 0.0, 100, n_lo=1)
    with pytest.raises(ValueError, match="too small"):
        prime_ratio_scan(2.0, 0.0, 5, n_lo=100)


@pytest.mark.parametrize("r,epsilon", [
    (math.nan, 0.0),
    (math.inf, 0.0),
    (2.0, math.nan),
    (2.0, math.inf),
    (1e308, 1e308),  # each finite, the sum is not
])
def test_non_finite_strength_is_rejected_before_any_work(monkeypatch, r, epsilon):
    def no_work(*args, **kwargs):
        raise AssertionError("validation ran after the work started")

    monkeypatch.setattr(ratios, "iter_gap_blocks", no_work)
    monkeypatch.setattr(ratios, "ratio_excess", no_work)
    with pytest.raises(ValueError, match="must be"):
        prime_ratio_scan(r, epsilon, 30)
    with pytest.raises(ValueError, match="must be"):
        gap_bound_report(r, epsilon, 30)
    if epsilon == 0.0:
        with pytest.raises(ValueError, match="r must be positive and finite"):
            check_candidate(expr("1/n"), r, n_max=1024)


def test_borderline_hits_are_flagged():
    # tune r so the n=2 inequality is satisfied by a hair: the hit must be
    # flagged borderline; nudge the other way and the hit disappears
    r_star = (5 / 3 - 1) * 2 * math.log(2)
    just_over = prime_ratio_scan(r_star * (1 + 1e-13), 0.0, 12)
    twos = [h for h in _hit_rows(just_over) if h[0] == 2]
    assert len(twos) == 1 and twos[0][5] is True
    assert just_over.borderline_count >= 1
    just_under = prime_ratio_scan(r_star * (1 - 1e-13), 0.0, 12)
    assert all(h[0] != 2 for h in _hit_rows(just_under))


def test_borderline_flags_land_on_their_rows_across_segments(monkeypatch, set_segment_size):
    # a wide borderline band flags some hits of every segment and not
    # others; each flag must sit on its own row
    set_segment_size(64)
    monkeypatch.setattr(ratios, "BORDERLINE_REL", 2e-4)
    report = prime_ratio_scan(3.0, 0.0, 2 * 10**4)
    rows = _hit_rows(report)
    flags = [b for *_, b in rows]
    assert 0 < sum(flags) < len(rows)
    for (n, p, q, _g, _t, borderline) in rows:
        assert borderline == (_exact_margin(n, p, q, 3.0, 0.0) < 2e-4), n


def test_borderline_flags_where_the_threshold_exceeds_the_prime(monkeypatch):
    # a large r puts thr above p_n at small n, where the recheck bound
    # 2 * BORDERLINE_REL * (p_n + thr) is more than twice the one without
    # thr; a wide band then flags hits (n = 6, 7 at r = 20 and n = 11 to 14
    # at r = 50) that only the thr term sends to mpmath
    monkeypatch.setattr(ratios, "BORDERLINE_REL", 0.6)
    for r in (20.0, 50.0):
        rows = _hit_rows(prime_ratio_scan(r, 0.0, 200))
        flags = [b for *_, b in rows]
        assert 0 < sum(flags) < len(rows), r
        for (n, p, q, _g, _t, borderline) in rows:
            assert borderline == (_exact_margin(n, p, q, r, 0.0) < 0.6), (r, n)


def _exact_margin(n: int, p: int, q: int, r: float, eps: float):
    with mpmath.workdps(60):
        rhs = 1 + (mpmath.mpf(r) + mpmath.mpf(eps)) / (n * mpmath.ln(n))
        return (rhs - mpmath.mpf(q) / p) / rhs


@pytest.mark.parametrize("n", [2, 3, 4, 9])
def test_near_tie_decisions_match_exact_arithmetic(oracle_primes_1m, n):
    # r_star puts the threshold exactly on g_n at index n; relative offsets
    # from one ulp to 5e-9 land on both sides of the tie and on both sides
    # of BORDERLINE_REL
    _, p, q, g = gap_records(oracle_primes_1m, 100)[n - 1]
    r_star = g * n * math.log(n) / p
    rs = [
        r_star * (1 + sign * m * 10.0**-k)
        for k in range(9, 16)
        for m in (1, 2, 5)
        for sign in (1, -1)
    ]
    up = down = r_star
    for _ in range(6):  # the closest ties float64 can express
        up, down = np.nextafter(up, np.inf), np.nextafter(down, 0.0)
        rs += [float(up), float(down)]
    primes = oracle_primes_1m[:30]
    flagged = missed = 0
    for r in rs:
        hits = _hit_rows(prime_ratio_scan(r, 0.0, 100))
        assert [h[:4] for h in hits] == brute_force_scan(primes, r, 0.0, 100)
        for hn, hp, hq, _g, _t, borderline in hits:
            m = _exact_margin(hn, hp, hq, r, 0.0)
            assert borderline == (0 < m < ratios.BORDERLINE_REL)
        flagged += any(h[5] for h in hits if h[0] == n)
        missed += all(h[0] != n for h in hits)
    assert flagged and missed


def test_scan_fast_path_makes_no_rechecks(monkeypatch):
    calls = []
    exact = ratios._recheck_mp
    monkeypatch.setattr(
        ratios, "_recheck_mp", lambda *args: calls.append(args) or exact(*args)
    )
    report = prime_ratio_scan(2.0, 0.0, 10**7, n_lo=10**5)
    assert report.hit_count > 0
    assert calls == []


def test_tail_min_gap_is_suffix_minimum():
    # r = 1.4 hits only n = 2 and 3, so every checkpoint from 4 on is dropped
    for r, limit, n_lo in [(6.0, 10**4, 2), (6.0, 10**4, 100), (2.0, 10**5, 3000), (1.4, 10**4, 2)]:
        report = prime_ratio_scan(r, 0.0, limit, n_lo)
        hits = list(zip(report.hits_n.tolist(), report.hits_gap.tolist()))
        expected = [
            (c, min(g for n, g in hits if n >= c))
            for c in gaps._dyadic_range(n_lo, report.n_hi)
            if hits[-1][0] >= c
        ]
        assert expected
        assert report.tail_min_gap == expected, (r, limit, n_lo)


@settings(max_examples=12, deadline=None)
@given(
    r1=st.floats(min_value=0.1, max_value=6.0),
    r2=st.floats(min_value=0.1, max_value=6.0),
    eps=st.floats(min_value=0.0, max_value=1.0),
)
def test_hit_sets_are_monotone_in_strength(r1, r2, eps):
    lo, hi = sorted((r1, r2))
    weak = prime_ratio_scan(lo, eps, 10**5)
    strong = prime_ratio_scan(hi, eps, 10**5)
    assert set(weak.hits_n.tolist()) <= set(strong.hits_n.tolist())
    wider = prime_ratio_scan(lo, eps + 0.5, 10**5)
    assert set(weak.hits_n.tolist()) <= set(wider.hits_n.tolist())


def test_scan_deterministic_across_threads(set_segment_size):
    a = prime_ratio_scan(2.0, 0.0, 10**5)
    set_segment_size(1000)
    b = prime_ratio_scan(2.0, 0.0, 10**5)
    assert np.array_equal(a.hits_n, b.hits_n)
    assert np.array_equal(a.hits_threshold, b.hits_threshold)


# ---------------------------------------------------------------------------
# gap-bound reporter


def test_gap_bound_statement_and_ceiling():
    summary = gap_bound_report(2.0, 0.0, 10**6)
    assert summary.scan.min_gap_among_hits == 2
    assert summary.implied_bound == 5  # ceil(4.3281), the n=2 threshold
    assert "not a proof" in summary.statement


def test_gap_bound_without_hits():
    summary = gap_bound_report(0.001, 0.0, 10**5)
    assert summary.implied_bound is None
    assert "No index" in summary.statement
