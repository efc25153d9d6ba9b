"""gaplab: an empirical laboratory for prime gaps.

Segmented sieving up to 10^9+, streaming gap statistics, divergence
trackers for the reciprocal-prime sum and the n ln n law, a small DSL for
positive-sequence formulas, ratio-excess analysis of candidate sequences,
and scans that turn ratio inequalities over real primes into concrete
gap thresholds. Everything numerical is deterministic across segment
sizes; everything asymptotic is reported as finite-range evidence, never
proof.
"""

from .errors import (
    CapacityError,
    EvalError,
    ExprSyntaxError,
    PositivityError,
    UnknownIdentifierError,
)
from .expr import (
    Add,
    Div,
    Ln,
    Mul,
    Neg,
    Number,
    Pow,
    SequenceExpr,
    Sub,
    Var,
    eval_array,
    eval_sequence_mp,
    format_sequence,
    parse_sequence,
)
from .gaps import (
    GapBoundEntry,
    GapStats,
    gpy_statistics,
    iter_gap_blocks,
    literature_bounds,
    polignac_count,
)
from .ratios import (
    CandidateReport,
    ComparisonResult,
    GapBoundSummary,
    RatioDiagnostics,
    ScanReport,
    SummabilityVerdict,
    check_candidate,
    estimate_r,
    gap_bound_report,
    prime_ratio_scan,
    ratio_comparison,
    ratio_excess,
    summability_probe,
)
from .report import (
    SCHEMA_VERSION,
    ParsedExpression,
    SieveSummary,
    export_report,
    parse_report,
)
from .series import SeriesCheckpoint, pnt_ratio_track, reciprocal_prime_sum
from .sieve import (
    MAX_LIMIT,
    PrimeBlock,
    nth_prime,
    prime_count,
    primes_upto,
    sieve_primes,
)

__version__ = "0.1.0"
