"""Ratio-excess analysis of candidate sequences and the prime-ratio scan.

The central quantity is the ratio excess

    e_n = n ln(n) (b_n / b_{n+1} - 1),

whose limit r (when it exists) measures how fast the term ratio of a
positive sequence approaches 1. Sequences with summable terms AND a
positive finite excess limit are the interesting candidates: given such a
pair (b, r), any positive sequence whose term ratio eventually dominates
b's must itself be summable (ratio comparison, second kind), and because
the sum of prime reciprocals diverges, the contrapositive hands back
infinitely many n with

    p_{n+1} / p_n < 1 + r / (n ln n),

i.e. prime gaps below p_n * r / (n ln n). The scan here makes that
inequality a concrete predicate over sieved primes: the asymptotically
vanishing correction term is replaced by an explicit user epsilon, added
as (r + epsilon)/(n ln n).

Everything reported is finite-range evidence. Convergence of a series and
liminf values are not decidable by any finite computation, and the
verdict fields say so explicitly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterator

import numpy as np

from .accum import exact_block_sum, rounded_partial_sum
from .expr import (
    SequenceExpr,
    _shared_subterms,
    eval_array,
    eval_sequence_mp,
    format_sequence,
    parse_sequence,
)
from .gaps import _dyadic_range, _split_at, iter_gap_blocks

__all__ = [
    "RatioDiagnostics",
    "ComparisonResult",
    "SummabilityVerdict",
    "CandidateReport",
    "ScanReport",
    "GapBoundSummary",
    "ratio_excess",
    "estimate_r",
    "ratio_comparison",
    "summability_probe",
    "check_candidate",
    "prime_ratio_scan",
    "gap_bound_report",
]

# Reference series for the second-kind comparison: the slowest standard
# convergent/divergent pair in the n ln n family.
CONVERGENT_REFERENCE = "1/(n*ln(n)^2)"
DIVERGENT_REFERENCE = "1/(n*ln(n))"

EXCESS_DPS = 35          # scalar excess samples work at this plus n ln n's digits
SCAN_DPS = 40            # working precision for borderline scan re-checks
DECAY_WINDOW = 6         # dyadic difference ratios inspected for decay
DECAY_FACTOR = 1.5       # required shrink factor per doubling
DIVERGE_FACTOR = 1.25    # difference ratios below this are non-decaying
TREND_WINDOW = 6         # samples inspected for the remainder trend
INCREMENT_WINDOW = 5     # dyadic sum increments inspected by the probe
# The scan's relative margin is (thr - g_n)/(p_n + thr), thr = p_n (r+eps)/(n ln n).
# thr carries a few ulps of relative error (~1e-15) and g_n is exact, so the
# float64 sign of thr - g_n can be wrong only where |thr - g_n| <~ 1e-15 thr.
# Pairs with -RECHECK_BAND * thr <= thr - g_n <= 2 * BORDERLINE_REL * (p_n + thr)
# cover that region and every borderline hit; they go to mpmath.
RECHECK_BAND = 1e-9
BORDERLINE_REL = 1e-12   # hits with relative margin below this are flagged


# ---------------------------------------------------------------------------
# ratio excess and its extrapolation


def ratio_excess(expr: SequenceExpr, n: int) -> float:
    """e_n = n ln(n) (b(n)/b(n+1) - 1), computed in extended precision.

    Requires n >= 2 (n ln n vanishes at 1) and positive values at n and
    n + 1. An e_n beyond the float range raises OverflowError naming n.
    """
    # imported here, not at the top, as in expr.eval_sequence_mp: only the
    # exact lane pays for mpmath
    import mpmath

    if n < 2:
        raise ValueError(f"ratio excess needs n >= 2, got {n}")
    # b(n)/b(n+1) - 1 is about 1/(n ln n), so the subtraction cancels the
    # decimal digits of n ln n: work with that many more than EXCESS_DPS
    digits = math.ceil(math.log10(n) + math.log10(math.log(n)))
    with mpmath.workdps(EXCESS_DPS + digits):
        v1 = eval_sequence_mp(expr, n)
        v2 = eval_sequence_mp(expr, n + 1)
        nn = mpmath.mpf(n)
        excess = float(nn * mpmath.ln(nn) * (v1 / v2 - 1))
    if not math.isfinite(excess):
        raise OverflowError(f"ratio excess at n={n} exceeds the float range")
    return excess


@dataclass
class RatioDiagnostics:
    """Dyadic samples of the ratio excess and what they extrapolate to.

    r_estimate is the last sample when successive dyadic differences
    shrink by at least DECAY_FACTOR per doubling, the string "divergent"
    when the samples grow without bound, and None when neither pattern is
    established. remainder_trend classifies |e_n - r_reference| over the
    trailing dyadic window as shrinking, flat or growing; when
    r_reference is None it reflects the samples themselves.
    """

    samples: list[tuple[int, float]]
    r_estimate: float | str | None
    extrapolation_table: list[tuple[int, float, float | None]]
    remainder_trend: str
    r_reference: float | None = None


def _classify_trend(rems: list[float], scale: float) -> str:
    window = rems[-TREND_WINDOW:]
    if len(window) < 2:
        return "flat"
    if all(x <= 1e-12 * scale for x in window):
        return "shrinking"
    decreasing = all(b < a for a, b in zip(window, window[1:]))
    increasing = all(b > a for a, b in zip(window, window[1:]))
    if decreasing and window[-1] <= 0.8 * window[0]:
        return "shrinking"
    if increasing and window[-1] >= 1.2 * window[0]:
        return "growing"
    return "flat"


def _diff_ratios(diffs: list[float]) -> list[float]:
    ratios = []
    for a, b in zip(diffs, diffs[1:]):
        if b == 0.0:
            ratios.append(math.inf)  # exact stall counts as decayed
        else:
            ratios.append(abs(a) / abs(b))
    return ratios


def _estimate_from_samples(values: list[float], diffs: list[float]) -> float | str | None:
    if len(diffs) < 3:
        return None
    ratios = _diff_ratios(diffs)
    tail = ratios[-DECAY_WINDOW:]
    if all(q >= DECAY_FACTOR for q in tail):
        return values[-1]
    mags = [abs(v) for v in values[-(DECAY_WINDOW + 1):]]
    growing = all(b > a for a, b in zip(mags, mags[1:]))
    if growing and all(q <= DIVERGE_FACTOR for q in tail):
        return "divergent"
    return None


def _diagnose(
    samples: list[tuple[int, float]], r_reference: float | None
) -> RatioDiagnostics:
    values = [e for _, e in samples]
    diffs = [b - a for a, b in zip(values, values[1:])]
    table = [(n, e, d) for (n, e), d in zip(samples, [None, *diffs])]
    estimate = _estimate_from_samples(values, diffs)

    if r_reference is not None:
        ref: float | None = r_reference
    elif isinstance(estimate, float):
        ref = estimate
    else:
        ref = None

    if ref is not None:
        rems = [abs(e - ref) for e in values]
        trend = _classify_trend(rems, max(1.0, abs(ref)))
    elif estimate == "divergent":
        trend = "growing"
    else:
        trend = "flat"

    return RatioDiagnostics(
        samples=samples,
        r_estimate=estimate,
        extrapolation_table=table,
        remainder_trend=trend,
        r_reference=r_reference,
    )


def estimate_r(expr: SequenceExpr, n_max: int) -> RatioDiagnostics:
    """Extrapolate the ratio-excess limit from dyadic samples up to n_max.

    Dyadic sampling with a geometric-decay acceptance test: honest and
    reproducible, no curve fitting. Requires n_max >= 64.
    """
    if n_max < 64:
        raise ValueError(f"n_max must be >= 64, got {n_max}")
    samples = [(n, ratio_excess(expr, n)) for n in _dyadic_range(2, n_max)]
    return _diagnose(samples, r_reference=None)


# ---------------------------------------------------------------------------
# second-kind (ratio) comparison


@dataclass
class ComparisonResult:
    """Pointwise outcome of a(n)/a(n+1) >= b(n)/b(n+1) on [n_lo, n_hi]."""

    n_lo: int
    n_hi: int
    first_violation: int | None
    last_violation: int | None
    violation_count: int


# The float lane's chunk, in terms; each float64 temporary is 256 KB. A chunk
# reads one float64 index array as n in every tree, divides each tree's
# values into term ratios once, and tests ln and division arguments in one
# pass, so few enough temporaries are live that they stay in a 2 MB L2 cache
# and the allocator reuses them; larger chunks are paged in fresh. Summing
# 1/(n*ln(n)^2) to n = 2^25 and comparing it with both references
# (summability_probe in-process, 2-core Xeon VM; per size the median over
# seven processes of each one's best of 3, the sizes in rotated order) took
# 0.597 / 0.519 / 0.517 s at 2^14 / 2^15 / 2^16 terms, at 31.3 / 32.8 /
# 34.8 MB peak RSS and about 290 / 1,300 / 3,170 minor page faults per probe.
# 2^15 beat 2^14 in all seven rounds and 2^16 in three: it ties 2^16 on time
# at 2 MB less.
_CHUNK = 1 << 15


def _chunks(n_lo: int, n_hi: int) -> Iterator[tuple[int, int]]:
    lo = n_lo
    while lo <= n_hi:
        yield lo, min(lo + _CHUNK - 1, n_hi)
        lo += _CHUNK


def ratio_comparison(ra: np.ndarray, rb: np.ndarray, n_lo: int) -> ComparisonResult:
    """Compare the term ratios of two positive sequences pointwise.

    ra and rb hold the term ratios a(n)/a(n+1) and b(n)/b(n+1) at n_lo,
    n_lo + 1, ..., n_lo + len(ra) - 1, and the comparison ra >= rb runs on
    that range; a nan ratio counts as a violation. The comparison test of
    the second kind: if a's term ratio dominates b's from some point on
    and b has a convergent sum, then a does too. This is the finite-range
    report that feeds that argument; summability_probe calls it once per
    chunk and reference, on ratios it divides once per tree.
    """
    if n_lo < 2:
        raise ValueError(f"comparison range must start at n >= 2, got {n_lo}")
    if len(ra) != len(rb):
        raise ValueError(f"term-ratio arrays differ in length: {len(ra)} and {len(rb)}")
    if len(ra) < 1:
        raise ValueError(f"empty comparison range: no term ratios from n = {n_lo}")
    n_hi = n_lo + len(ra) - 1
    holds = ra >= rb
    # the violations are the complement of the count that holds, so no
    # inverted mask is built and a range violated at every n (as a divergent
    # reference's comparison often is) builds no index array; the reversed
    # argmin, which copies the view, runs only when the last n holds
    count = len(holds) - int(np.count_nonzero(holds))
    if not count:
        return ComparisonResult(n_lo, n_hi, None, None, 0)
    first = int(np.argmin(holds)) + n_lo
    last = n_hi - int(np.argmin(holds[::-1])) if holds[-1] else n_hi
    return ComparisonResult(n_lo, n_hi, first, last, count)


def _joined(before: ComparisonResult | None, after: ComparisonResult) -> ComparisonResult:
    """One result for two consecutive ranges; before is None when after is the first."""
    if before is None:
        return after
    return ComparisonResult(
        n_lo=before.n_lo,
        n_hi=after.n_hi,
        first_violation=(
            before.first_violation if before.violation_count else after.first_violation
        ),
        last_violation=after.last_violation if after.violation_count else before.last_violation,
        violation_count=before.violation_count + after.violation_count,
    )


# ---------------------------------------------------------------------------
# summability probe


_PROBE_METHOD = (
    "Finite-range heuristic, not a proof. Partial sums start at n=2. "
    "converging-evidence: term-ratio comparison against the convergent "
    f"reference {CONVERGENT_REFERENCE} holds outside the first eighth of the "
    "range AND dyadic partial-sum increments are strictly decreasing over the "
    f"last {INCREMENT_WINDOW} doublings. diverging-evidence: the divergent "
    f"reference {DIVERGENT_REFERENCE} dominates the sequence's term ratio on "
    "the same tail, or the increments fail to shrink at all. Anything mixed "
    "is inconclusive."
)


@dataclass
class SummabilityVerdict:
    """Labeled evidence about convergence of the term sum; never a proof."""

    verdict: str  # converging-evidence | diverging-evidence | inconclusive
    partial_sums: list[tuple[int, float]]
    increments: list[tuple[int, float]]
    geometric_decay: bool
    reference_comparisons: dict[str, dict]
    method: str = _PROBE_METHOD


def _comparison_summary(res: ComparisonResult, expr_text: str, tail_start: int) -> dict:
    holds_on_tail = res.last_violation is None or res.last_violation < tail_start
    return {
        "expression": expr_text,
        "holds_on_range": res.violation_count == 0,
        "holds_on_tail": holds_on_tail,
        "tail_start": tail_start,
        "first_violation": res.first_violation,
        "last_violation": res.last_violation,
        "violation_count": res.violation_count,
    }


def summability_probe(
    expr: SequenceExpr, n_max: int
) -> SummabilityVerdict:
    """Gather convergence evidence for the sum of expr over n >= 2.

    Requires n_max >= 1024 so the dyadic windows have something to say.
    Each partial sum is the exact sum of the float64 terms, correctly
    rounded; one beyond the float range raises OverflowError.

    One pass over [2, n_max] in chunks: each chunk [lo, hi] evaluates the
    candidate and both references once, on one float64 array of the
    indices [lo, hi + 1]. The candidate's values on [lo, hi] go to the
    exact sum, cut at the dyadic checkpoints, and each tree's term ratios
    on [lo, hi], divided once, give both reference comparisons, whose
    per-chunk results are joined. The candidate is evaluated on n_max + 1
    as well, so a fault there is raised too. Float64 indices are exact
    below 2^53, so n_max >= 2^53 is refused.
    """
    if n_max < 1024:
        raise ValueError(f"n_max must be >= 1024, got {n_max}")
    if n_max >= 2**53:
        raise ValueError(f"n_max must be below 2^53, where float64 indices are exact, got {n_max}")

    checkpoints = _dyadic_range(2, n_max)
    if checkpoints[-1] != n_max:
        checkpoints.append(n_max)
    (expr, conv_ref, div_ref), shared = _shared_subterms(
        expr, parse_sequence(CONVERGENT_REFERENCE), parse_sequence(DIVERGENT_REFERENCE)
    )
    conv_cmp: ComparisonResult | None = None
    div_cmp: ComparisonResult | None = None

    def blocks() -> Iterator[tuple[int, np.ndarray]]:
        nonlocal conv_cmp, div_cmp
        # the candidate comes first, so a fault names the first offending n
        # of [2, n_max + 1] whichever tree it is in: the references have none
        for lo, hi in _chunks(2, n_max):
            ns = np.arange(lo, hi + 2, dtype=np.float64)
            # terms a factor beyond the float range apart give an inf (or
            # 0.0) ratio, which compares like any other, with no warning
            with np.errstate(over="ignore"):
                values = eval_array(expr, ns, shared=shared)
                ratio = values[:-1] / values[1:]
                conv = eval_array(conv_ref, ns, shared=shared)
                conv_cmp = _joined(conv_cmp, ratio_comparison(ratio, conv[:-1] / conv[1:], lo))
                div = eval_array(div_ref, ns, shared=shared)
                div_cmp = _joined(div_cmp, ratio_comparison(div[:-1] / div[1:], ratio, lo))
            yield lo, values[:-1]

    acc = Fraction(0)
    sums: list[tuple[int, float]] = []
    for _n0, (piece,), cut in _split_at(blocks(), checkpoints):
        acc += exact_block_sum(piece)
        if cut is not None:
            sums.append((cut, rounded_partial_sum(acc, cut)))

    dyadic_sums = [(n, s) for n, s in sums if n & (n - 1) == 0]
    increments = [
        (dyadic_sums[i + 1][0], dyadic_sums[i + 1][1] - dyadic_sums[i][1])
        for i in range(len(dyadic_sums) - 1)
    ]
    inc_tail = [v for _, v in increments[-INCREMENT_WINDOW:]]
    decreasing = all(b < a for a, b in zip(inc_tail, inc_tail[1:]))
    nondecreasing = all(b >= a for a, b in zip(inc_tail, inc_tail[1:]))
    geometric = all(
        b != 0 and a / b >= DECAY_FACTOR for a, b in zip(inc_tail, inc_tail[1:])
    )

    tail_start = max(16, n_max // 8)
    comparisons = {
        "convergent_reference": _comparison_summary(conv_cmp, CONVERGENT_REFERENCE, tail_start),
        "divergent_reference": _comparison_summary(div_cmp, DIVERGENT_REFERENCE, tail_start),
    }

    conv_ok = comparisons["convergent_reference"]["holds_on_tail"] and decreasing
    div_ok = comparisons["divergent_reference"]["holds_on_tail"] or nondecreasing
    if conv_ok and not div_ok:
        verdict = "converging-evidence"
    elif div_ok and not conv_ok:
        verdict = "diverging-evidence"
    else:
        verdict = "inconclusive"

    return SummabilityVerdict(
        verdict=verdict,
        partial_sums=sums,
        increments=increments,
        geometric_decay=geometric,
        reference_comparisons=comparisons,
    )


# ---------------------------------------------------------------------------
# combined candidate check


@dataclass
class CandidateReport:
    """Both axes of the candidate question, reported independently.

    A sequence qualifies as a candidate pair with its r only when the
    ratio axis passes (remainder trend shrinking, so e_n -> r is
    plausible) AND the summability axis passes (converging evidence).
    No positive sequence passes both in the limit, by a theorem: bounded
    e_n gives n (b_n/b_(n+1) - 1) = e_n / ln n -> 0 < 1, so Raabe's test
    (Knopp, Infinite Series, §38) makes the sum of b_n diverge, and a
    True ``candidate`` could only be a finite-range artefact.

    What the divergence of the sum of 1/p_n proves alone is also a
    theorem: Kummer's test with zeta_n = n ln n gives, for every
    delta > 0, infinitely many n with
    g_n < p_n (zeta_(n+1) - zeta_n + delta) / zeta_n, which is about the
    mean gap ln p_n. A candidate pair would drop the
    zeta_(n+1) - zeta_n ~ ln n + 1 term and leave the scan's threshold
    p_n r / (n ln n); by the theorem above no pair can.
    """

    expression: str
    r: float
    n0: int
    n_max: int
    diagnostics: RatioDiagnostics
    max_excess_deviation: float
    summability: SummabilityVerdict
    ratio_axis_pass: bool
    summability_axis_pass: bool
    candidate: bool
    failed_axes: tuple[str, ...]


def _check_strength(r: float, epsilon: float) -> None:
    """Reject r and epsilon that no finite threshold can come from.

    nan slips past plain comparisons, so each test is written to fail on it.
    """
    if not (math.isfinite(r) and r > 0):
        raise ValueError(f"r must be positive and finite, got {r}")
    if not (math.isfinite(epsilon) and epsilon >= 0):
        raise ValueError(f"epsilon must be finite and >= 0, got {epsilon}")
    if not math.isfinite(r + epsilon):
        raise ValueError(f"r + epsilon must be finite, got {r} + {epsilon}")


def check_candidate(
    expr: SequenceExpr, r: float, n0: int = 2, n_max: int = 1 << 16
) -> CandidateReport:
    """Judge (expr, r) on both axes; a True candidate is a finite-range artefact only.

    The two axes cannot both pass in the limit (Raabe's test; see
    CandidateReport), so the divergence of the sum of 1/p_n yields only
    Kummer's threshold p_n (zeta_(n+1) - zeta_n + delta) / zeta_n with
    zeta_n = n ln n, about the mean gap, never the scan's p_n r / (n ln n).
    The axes are measured here as finite-range evidence.
    """
    _check_strength(r, 0.0)
    if not 2 <= n0 < n_max:
        raise ValueError(f"need 2 <= n0 < n_max, got n0={n0}, n_max={n_max}")
    samples = [(n, ratio_excess(expr, n)) for n in _dyadic_range(max(n0, 2), n_max)]
    if len(samples) < 4:
        raise ValueError(f"range [{n0}, {n_max}] contains too few dyadic sample points")
    diagnostics = _diagnose(samples, r_reference=r)
    max_dev = max(abs(e - r) for _, e in samples)
    summability = summability_probe(expr, n_max)

    ratio_axis = diagnostics.remainder_trend == "shrinking"
    summ_axis = summability.verdict == "converging-evidence"
    failed = tuple(
        name
        for name, ok in (("ratio", ratio_axis), ("summability", summ_axis))
        if not ok
    )
    return CandidateReport(
        expression=format_sequence(expr),
        r=r,
        n0=n0,
        n_max=n_max,
        diagnostics=diagnostics,
        max_excess_deviation=max_dev,
        summability=summability,
        ratio_axis_pass=ratio_axis,
        summability_axis_pass=summ_axis,
        candidate=ratio_axis and summ_axis,
        failed_axes=failed,
    )


# ---------------------------------------------------------------------------
# prime-ratio scan


@dataclass
class ScanReport:
    """Indices where p_{n+1}/p_n < 1 + (r + epsilon)/(n ln n).

    threshold[i] = p_n (r + epsilon)/(n ln n) is the gap bound implied at
    hit i: the hit condition is exactly g_n < threshold. Hits whose
    relative margin is below BORDERLINE_REL are flagged borderline and
    surfaced separately; their classification is knife-edge by any
    arithmetic. tail_min_gap is the running minimum of the hit gaps from
    each dyadic checkpoint onward, the finite-range proxy for a liminf.
    """

    r: float
    epsilon: float
    limit: int
    n_lo: int
    n_hi: int
    hit_count: int
    hits_n: np.ndarray
    hits_p: np.ndarray
    hits_gap: np.ndarray
    hits_threshold: np.ndarray
    hits_borderline: np.ndarray
    min_gap_among_hits: int | None
    max_threshold_among_hits: float | None
    tail_min_gap: list[tuple[int, int]] = field(default_factory=list)

    @property
    def borderline_count(self) -> int:
        return int(np.count_nonzero(self.hits_borderline))


def _recheck_mp(n: int, p: int, g: int, r: float, epsilon: float) -> tuple[bool, bool]:
    """Extended-precision hit decision for knife-edge margins.

    Returns (is_hit, is_borderline). The left side p_{n+1}/p_n is an
    exact rational; only ln needs rounding, at SCAN_DPS digits.
    """
    # imported here, not at the top: a scan that rechecks no pair never
    # loads mpmath
    import mpmath

    with mpmath.workdps(SCAN_DPS):
        lhs = mpmath.mpf(p + g) / p
        rhs = 1 + (mpmath.mpf(r) + mpmath.mpf(epsilon)) / (n * mpmath.ln(n))
        margin = (rhs - lhs) / rhs
        return bool(margin > 0), bool(0 < margin < BORDERLINE_REL)


def _gap_cap(n0: int, strength: float) -> float:
    """A gap above this is neither a hit nor rechecked at any index n >= n0.

    Rosser's p_n < n (ln n + ln ln n) for n >= 6 gives
    thr < strength (1 + ln ln n / ln n), a factor that falls for n > e^e,
    so its value at n0 holds for every n >= n0 >= 16. Below n0 = 16 the
    value at n0 does not bound the rest of the piece, and the cap is inf.
    The 10^-6 widening exceeds the float error of the cap and of thr by far
    and puts every gap above the cap below thr by more than RECHECK_BAND * thr.
    """
    if n0 < 16:
        return math.inf
    x = math.log(n0)
    return strength * (1 + math.log(x) / x) * (1 + 1e-6)


def prime_ratio_scan(
    r: float,
    epsilon: float = 0.0,
    limit: int = 1_000_000,
    n_lo: int = 2,
) -> ScanReport:
    """Scan all prime pairs with p_next <= limit for the ratio inequality.

    With thr = p_n (r + epsilon)/(n ln n), the relative margin
    (rhs - lhs)/rhs of the ratio inequality equals (thr - g_n)/(p_n + thr),
    and n is a hit exactly when thr - g_n > 0. The scan evaluates that
    form in float64: g_n is an exact integer and thr has a few ulps of
    relative error, so thr - g_n has no cancellation and its error stays
    far below RECHECK_BAND * thr, and the margin's absolute error stays
    near 1e-15. A pair is re-decided in extended precision only when
    thr - g_n >= -RECHECK_BAND * thr and its margin is at most
    2 * BORDERLINE_REL, which the scan tests undivided, as
    thr - g_n <= 2 * BORDERLINE_REL * (p_n + thr). That region holds every pair whose hit decision
    (the sign of thr - g_n) or borderline decision
    (0 < margin < BORDERLINE_REL) the float error could flip; every other
    pair is classified as exact arithmetic would classify it. The hit set
    is monotone in r and epsilon by construction.

    Each piece keeps only the pairs with g_n <= _gap_cap(n0, r + epsilon),
    n0 its first index, and computes thr, thr - g_n and the recheck test
    on those alone (the Rosser argument for the cap is in _gap_cap). Its
    hits go straight into the n, p_n, g_n and threshold columns, which grow
    in place by an eighth (ndarray.resize, a realloc), so each hit is held
    once and no per-piece copy of the hits is left in the heap. Borderline
    hits are rare; the scan keeps their n and builds that column last.
    """
    _check_strength(r, epsilon)
    if n_lo < 2:
        raise ValueError(f"n ln n vanishes at n = 1: scan must start at n_lo >= 2, got {n_lo}")

    strength = r + epsilon
    # no view of a column outlives its np.take call, so resizing needs no
    # refcheck
    columns = [np.empty(0, dtype) for dtype in (np.int64, np.int64, np.int64, np.float64)]
    count = 0
    flagged: list[int] = []  # n of each borderline hit
    n_hi = 0

    for n0, (p, g), _cut in _split_at(iter_gap_blocks(limit, n_lo), [n_lo - 1]):
        n_hi = n0 + len(p) - 1
        if n0 < n_lo:
            continue
        keep = np.flatnonzero(g <= _gap_cap(n0, strength))
        ns = n0 + keep
        p, g = p[keep], g[keep]
        nf = ns.astype(np.float64)
        pf = p.astype(np.float64)
        thr = pf * (strength / (nf * np.log(nf)))
        d = thr - g

        is_hit = d > 0
        uncertain = (d >= -RECHECK_BAND * thr) & (d <= 2 * BORDERLINE_REL * (pf + thr))
        for idx in np.flatnonzero(uncertain).tolist():
            hit, near = _recheck_mp(int(ns[idx]), int(p[idx]), int(g[idx]), r, epsilon)
            is_hit[idx] = hit
            if near:  # a positive margin, so a hit
                flagged.append(int(ns[idx]))

        hits = np.flatnonzero(is_hit)
        k = len(hits)
        if count + k > len(columns[0]):
            for column in columns:
                column.resize(count + k + (count >> 3), refcheck=False)
        for column, values in zip(columns, (ns, p, g, thr)):
            # "clip" writes straight into out, where the default "raise"
            # fills a copy first; every index is in range
            np.take(values, hits, out=column[count : count + k], mode="clip")
        count += k

    if n_hi < n_lo:
        raise ValueError(
            f"limit {limit} is too small to contain the prime pair at index {n_lo}"
        )

    for column in columns:
        column.resize(count, refcheck=False)
    hits_n, hits_p, hits_g, hits_t = columns
    hits_b = np.zeros(count, dtype=bool)
    hits_b[np.searchsorted(hits_n, flagged)] = True

    # the checkpoints with a hit at or after them, and from each one the
    # minimum gap of the hits from there on, without a column-sized array
    checkpoints = np.array(_dyadic_range(n_lo, n_hi), dtype=np.int64)
    starts = np.searchsorted(hits_n, checkpoints)
    on = starts < len(hits_n)
    checkpoints, starts = checkpoints[on], starts[on]
    tail_min = np.minimum.accumulate(np.minimum.reduceat(hits_g, starts)[::-1])[::-1]
    tail = list(zip(checkpoints.tolist(), tail_min.tolist()))

    return ScanReport(
        r=r,
        epsilon=epsilon,
        limit=limit,
        n_lo=n_lo,
        n_hi=n_hi,
        hit_count=int(len(hits_n)),
        hits_n=hits_n,
        hits_p=hits_p,
        hits_gap=hits_g,
        hits_threshold=hits_t,
        hits_borderline=hits_b,
        min_gap_among_hits=int(hits_g.min()) if len(hits_g) else None,
        max_threshold_among_hits=float(hits_t.max()) if len(hits_t) else None,
        tail_min_gap=tail,
    )


@dataclass
class GapBoundSummary:
    """Reporter over a ScanReport: what the hits say about small gaps."""

    scan: ScanReport
    implied_bound: int | None
    statement: str


def gap_bound_report(
    r: float,
    epsilon: float = 0.0,
    limit: int = 1_000_000,
    n_lo: int = 2,
) -> GapBoundSummary:
    """Run the scan and phrase its finite-range reading.

    Each hit satisfies g_n < p_n (r + epsilon)/(n ln n), and since
    p_n/(n ln n) -> 1 (prime number theorem), the thresholds approach
    r + epsilon. If hits continued indefinitely, the liminf of the gap
    would be bounded by any eventual threshold ceiling. A finite scan
    cannot establish that; this is evidence, stated as such.
    """
    scan = prime_ratio_scan(r, epsilon, limit, n_lo)
    if scan.hit_count:
        implied = math.ceil(scan.max_threshold_among_hits)
        statement = (
            f"{scan.hit_count} indices n in [{scan.n_lo}, {scan.n_hi}] satisfy "
            f"p_(n+1)/p_n < 1 + {scan.r + scan.epsilon:.15g}/(n ln n); the smallest gap "
            f"among them is {scan.min_gap_among_hits}. If such hits continued "
            f"indefinitely, liminf of the prime gap would be at most "
            f"ceil(max threshold) = {implied}. Finite-range evidence, not a proof."
        )
    else:
        implied = None
        statement = (
            f"No index n in [{scan.n_lo}, {scan.n_hi}] satisfies "
            f"p_(n+1)/p_n < 1 + {scan.r + scan.epsilon:.15g}/(n ln n); "
            f"this range offers no gap bound at this strength."
        )
    return GapBoundSummary(scan=scan, implied_bound=implied, statement=statement)
