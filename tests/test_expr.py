import math
import random
import re
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gaplab.errors import (
    EvalError,
    ExprSyntaxError,
    PositivityError,
    UnknownIdentifierError,
)
from gaplab.expr import (
    EVAL_DPS,
    Add,
    Div,
    Ln,
    Mul,
    Neg,
    Number,
    Pow,
    Sub,
    Var,
    _NO_SHARED,
    _NP,
    _eval,
    _shared_subterms,
    eval_array,
    eval_sequence_mp,
    format_sequence,
    parse_sequence,
)
from gaplab.ratios import CONVERGENT_REFERENCE, DIVERGENT_REFERENCE


def num(x) -> Number:
    return Number(Fraction(str(x)))


# ---------------------------------------------------------------------------
# parsing and precedence


def test_simple_reciprocal_square():
    assert parse_sequence("1/(n^2)") == Div(num(1), Pow(Var(), num(2)))


def test_power_binds_tighter_than_division():
    assert parse_sequence("1/ln(n)^2") == Div(num(1), Pow(Ln(Var()), num(2)))
    assert parse_sequence("2/n^3") == Div(num(2), Pow(Var(), num(3)))


def test_subtraction_is_left_associative():
    assert parse_sequence("n-2-3") == Sub(Sub(Var(), num(2)), num(3))


def test_power_is_right_associative():
    assert parse_sequence("n^2^3") == Pow(Var(), Pow(num(2), num(3)))


def test_unary_minus_lives_at_atom_level():
    assert parse_sequence("-n^2") == Pow(Neg(Var()), num(2))
    assert parse_sequence("n^-2") == Pow(Var(), Neg(num(2)))
    assert parse_sequence("--n") == Neg(Neg(Var()))


def test_decimals_parse_exactly():
    assert parse_sequence("1.5").value == Fraction(3, 2)
    assert parse_sequence("0.1").value == Fraction(1, 10)
    assert parse_sequence("3.5bogus" if False else "3.5").value == Fraction(7, 2)


def test_parens_do_not_create_nodes():
    assert parse_sequence("((n))") == Var()
    assert parse_sequence("1/(n^2)") == parse_sequence("1/n^2")


# ---------------------------------------------------------------------------
# errors


def test_truncated_input_reports_offset_and_expectations():
    with pytest.raises(ExprSyntaxError) as exc:
        parse_sequence("1/(n^")
    assert exc.value.position == 5
    assert "(" in exc.value.expected


def test_unknown_identifier():
    with pytest.raises(UnknownIdentifierError) as exc:
        parse_sequence("x+1")
    assert exc.value.position == 0
    assert exc.value.expected == ("n", "ln")


def test_missing_close_paren():
    with pytest.raises(ExprSyntaxError) as exc:
        parse_sequence("ln(n")
    assert exc.value.expected == (")",)


def test_trailing_garbage():
    with pytest.raises(ExprSyntaxError):
        parse_sequence("n n")


def test_empty_and_malformed_numbers():
    with pytest.raises(ExprSyntaxError):
        parse_sequence("")
    with pytest.raises(ExprSyntaxError):
        parse_sequence("  ")
    with pytest.raises(ExprSyntaxError):
        parse_sequence("1.")
    with pytest.raises(ExprSyntaxError):
        parse_sequence("$n")


@pytest.mark.parametrize("text, position", [("n^²", 2), ("١", 0), ("1.²", 2), ("2١", 1)],
                         ids=["superscript-exponent", "arabic-indic", "superscript-decimal",
                              "arabic-indic-after-digit"])
def test_a_number_is_ascii_digits_only(text, position):
    # str.isdigit() takes the superscript and the Arabic-Indic digit
    with pytest.raises(ExprSyntaxError) as exc:
        parse_sequence(text)
    assert exc.value.position == position


# ---------------------------------------------------------------------------
# evaluation


def test_basic_values():
    assert float(eval_sequence_mp(parse_sequence("n"), 7)) == 7.0
    assert float(eval_sequence_mp(parse_sequence("1/(n^2)"), 4)) == 0.0625


def test_evaluation_matches_independent_calculator():
    expr = parse_sequence("1/(n*ln(n)^1.5)")
    got = float(eval_sequence_mp(expr, 10))
    with mpmath.workdps(50):
        want = 1 / (10 * mpmath.ln(10) ** mpmath.mpf("1.5"))
        assert abs(got - float(want)) < 1e-12 * float(want)
    assert abs(got - 0.02862) < 5e-6


def test_ln_of_one_divides_to_error():
    with pytest.raises(EvalError, match="division by zero"):
        eval_sequence_mp(parse_sequence("1/ln(n)"), 1)


def test_ln_of_nonpositive_argument():
    with pytest.raises(EvalError, match="nonpositive"):
        eval_sequence_mp(parse_sequence("ln(n-5)"), 3)


def test_positivity_is_enforced():
    with pytest.raises(PositivityError, match="not a positive sequence at n=3"):
        eval_sequence_mp(parse_sequence("n-5"), 3)


def test_fractional_power_of_negative_base():
    with pytest.raises(EvalError, match="negative base"):
        eval_sequence_mp(parse_sequence("(n-5)^0.5"), 3)


def test_index_must_be_positive():
    with pytest.raises(ValueError):
        eval_sequence_mp(parse_sequence("n"), 0)


# ---------------------------------------------------------------------------
# round-trip corpus

CORPUS = [
    "1",
    "2",
    "0.5",
    "1.25",
    "n",
    "-n",
    "--n",
    "-5",
    "n+1",
    "n-1",
    "n*2",
    "n/2",
    "n^2",
    "n^2^3",
    "n-2-3",
    "n+2+3",
    "n+2-3",
    "2/n^3",
    "1/(n^2)",
    "1/n^2",
    "1/ln(n)",
    "1/ln(n)^2",
    "1/ln(n)^3.5",
    "1/(n*ln(n))",
    "1/(n*ln(n)^2)",
    "1/(n*ln(n)^1.5)",
    "ln(n)",
    "ln(ln(n))",
    "ln(n+1)",
    "ln(n)^2",
    "ln(n^2)",
    "ln(n)/n",
    "n/ln(n)",
    "n*ln(n)",
    "(n+1)/(n-1)",
    "(n+1)*(n+2)",
    "n^(1/2)",
    "n^0.5",
    "n^-2",
    "n^-0.5",
    "-n^2",
    "-(n^2)",
    "2^n",
    "0.5^n",
    "1/2^n",
    "(1+1/n)^n",
    "1/(ln(n)^2*n)",
    "n^1.5/ln(n)",
    "3.5*n^2+2*n+1",
    "1/(n^2+n+1)",
    "ln(n*ln(n))",
    "n^(n/(n+1))",
    "1-1/n",
    "1/(1+1/n)",
    "((n))",
    "ln((n))",
]


def test_corpus_is_large_enough():
    assert len(CORPUS) >= 50


@pytest.mark.parametrize("text", CORPUS)
def test_round_trip_is_structurally_stable(text):
    tree = parse_sequence(text)
    printed = format_sequence(tree)
    assert parse_sequence(printed) == tree
    # printing is idempotent
    assert format_sequence(parse_sequence(printed)) == printed


@pytest.mark.parametrize(
    "text, printed",
    [
        ("-(n-2)", "-(n - 2)"),
        ("-(n*2)", "-(n*2)"),
        ("-(n^2)", "-(n^2)"),
        ("-(1/2)", "-(1/2)"),
        ("2^-(n-1)", "2^-(n - 1)"),
        ("--n", "--n"),
        ("1/-(n-2)", "1/-(n - 2)"),
    ],
)
def test_unary_minus_over_a_compound_argument_prints_one_pair(text, printed):
    tree = parse_sequence(text)
    assert format_sequence(tree) == printed
    assert parse_sequence(printed) == tree


def _independent_eval(node, x: mpmath.mpf):
    """Reference evaluator for the corpus, separate from the library's."""
    if isinstance(node, Number):
        return mpmath.mpf(node.value.numerator) / node.value.denominator
    if isinstance(node, Var):
        return x
    if isinstance(node, Ln):
        return mpmath.ln(_independent_eval(node.arg, x))
    if isinstance(node, Neg):
        return -_independent_eval(node.arg, x)
    if isinstance(node, Add):
        return _independent_eval(node.left, x) + _independent_eval(node.right, x)
    if isinstance(node, Sub):
        return _independent_eval(node.left, x) - _independent_eval(node.right, x)
    if isinstance(node, Mul):
        return _independent_eval(node.left, x) * _independent_eval(node.right, x)
    if isinstance(node, Div):
        return _independent_eval(node.left, x) / _independent_eval(node.right, x)
    if isinstance(node, Pow):
        return mpmath.power(
            _independent_eval(node.base, x), _independent_eval(node.exponent, x)
        )
    raise TypeError(node)


EVAL_SAFE = [
    "n",
    "n+1",
    "n*2",
    "n/2",
    "n^2",
    "2/n^3",
    "1/(n^2)",
    "1/ln(n+1)",
    "1/(n*ln(n+1))",
    "1/(n*ln(n+1)^1.5)",
    "ln(n+1)",
    "ln(n+1)^2",
    "(n+1)/n",
    "n^0.5",
    "n^-0.5",
    "1/(n^2+n+1)",
    "3.5*n^2+2*n+1",
    "(1+1/n)^n",
    "1/(1+1/n)",
]


@pytest.mark.parametrize("text", EVAL_SAFE)
@pytest.mark.parametrize("n", [2, 10, 1000, 10**6])
def test_eval_agrees_with_high_precision_reference(text, n):
    tree = parse_sequence(text)
    got = float(eval_sequence_mp(tree, n))
    with mpmath.workdps(60):
        want = _independent_eval(tree, mpmath.mpf(n))
        assert abs(mpmath.mpf(got) - want) <= abs(want) * 1e-12


# 1 to an infinite power: the inner power tower saturates to inf in both
# lanes, and IEEE pow makes (+-1)^inf 1
@pytest.mark.parametrize(
    "text", EVAL_SAFE + ["1^(1.5^(ln(3)^15^5))", "(0-1)^(1.5^(ln(3)^15^5))"]
)
def test_array_lane_matches_scalar_lane(text):
    tree = parse_sequence(text)
    ns = np.array([2, 3, 10, 97, 1000, 65536], dtype=np.int64)
    bulk = eval_array(tree, ns)
    for i, n in enumerate(ns.tolist()):
        assert math.isclose(bulk[i], float(eval_sequence_mp(tree, n)), rel_tol=1e-12)


def test_array_lane_error_reporting():
    with pytest.raises(EvalError, match="n=1"):
        eval_array(parse_sequence("1/ln(n)"), np.arange(1, 10))
    with pytest.raises(PositivityError, match="n=5"):
        eval_array(parse_sequence("n-5"), np.arange(5, 10))
    with pytest.raises(ValueError):
        eval_array(parse_sequence("n"), np.array([0, 1]))


def test_negative_base_rule_is_per_index():
    # (n-5)^(n/2) at n = 4 is (-1)^2: an integer power, fine in both lanes
    tree = parse_sequence("(n-5)^(n/2)")
    got = eval_array(tree, np.array([4, 7]))
    assert got.tolist() == [float(eval_sequence_mp(tree, 4)), float(eval_sequence_mp(tree, 7))]
    assert got[0] == 1.0 and math.isclose(got[1], 2**3.5, rel_tol=1e-15)
    # (n-4)^(n/2) at n = 2 is (-2)^1 = -2: not positive, as in the scalar lane
    tree = parse_sequence("(n-4)^(n/2)")
    with pytest.raises(PositivityError, match="n=2"):
        eval_sequence_mp(tree, 2)
    with pytest.raises(PositivityError, match="n=2") as bulk:
        eval_array(tree, np.array([2, 5]))
    assert bulk.value.n == 2
    # at n = 3 it is (-1)^1.5, wherever 3 sits in the index array
    with pytest.raises(EvalError, match="negative base in '\\(n - 4\\)\\^\\(n/2\\)' at n=3"):
        eval_array(tree, np.array([6, 3]))


@pytest.mark.parametrize(
    "text, n, also_bad, error, message, node",
    [
        ("1/ln(n)", 1, [], EvalError, "division by zero in", "1/ln(n)"),
        ("ln(n-5)", 3, [4], EvalError, "ln of nonpositive argument in", "ln(n - 5)"),
        ("(n-5)^0.5", 3, [4], EvalError, "fractional power of a negative base in", "(n - 5)^0.5"),
        ("(n-3)^-1", 3, [], EvalError, "zero raised to a negative power in", "(n - 3)^-1"),
        ("n-5", 3, [4], PositivityError, "not a positive sequence at n=3:", "n - 5"),
    ],
)
def test_both_lanes_fail_alike(text, n, also_bad, error, message, node):
    # 9 and 7 are valid indices; the array lane must name n, its first bad one
    tree = parse_sequence(text)
    pattern = re.escape(f"{message} '{node}'")
    with pytest.raises(error, match=pattern) as scalar:
        eval_sequence_mp(tree, n)
    with pytest.raises(error, match=pattern) as bulk:
        eval_array(tree, np.array([9, 7, n, *also_bad]))
    assert type(bulk.value) is type(scalar.value)
    assert (bulk.value.n, bulk.value.node) == (scalar.value.n, scalar.value.node) == (n, node)


@pytest.mark.parametrize(
    "text, ns, error, message",
    [
        ("n^(-2)", [3, 1, 2], None, None),
        ("(n-5)^0.5", [9, 7, 3, 4], EvalError, "fractional power of a negative base in '(n - 5)^0.5' at n=3"),
        ("(n-40000)^0.5", [40001, 39999, 2], EvalError, "fractional power of a negative base in '(n - 40000)^0.5' at n=39999"),
        ("(n-3)^(-2)", [5, 1, 3], EvalError, "zero raised to a negative power in '(n - 3)^-2' at n=3"),
    ],
)
def test_constant_exponent_faults_follow_the_base(text, ns, error, message):
    # a constant exponent that allows the fault leaves the base's own mask
    # to say where it falls; n^(-2) never meets a zero base
    tree = parse_sequence(text)
    if error is None:
        got = eval_array(tree, np.array(ns))
        assert got.tolist() == [float(eval_sequence_mp(tree, n)) for n in ns]
        return
    with pytest.raises(error, match=re.escape(message)) as bulk:
        eval_array(tree, np.array(ns))
    with pytest.raises(error, match=re.escape(message)):
        eval_sequence_mp(tree, bulk.value.n)


def _first_fault(tree, ns):
    """What the first index of ns whose evaluation alone fails raises."""
    for n in ns:
        try:
            eval_array(tree, np.array([n]))
        except EvalError as err:
            return type(err), str(err)
    return None


@pytest.mark.parametrize(
    "text",
    [
        "1/(n-20) + ln(n-5)",          # a later walk check fails first
        "ln(n-5) + 1/(n-20)",
        "n^(1000*n) - 5",              # not positive at n = 1, not finite from 2
        "(12-n)^(n/2) + 1/(n-7)",      # negative base from 13, zero divisor at 7
        "1/(n-30)^2 + 1/(n-8)^2 + n",
    ],
)
def test_array_lane_reports_the_first_offending_position(text):
    # whichever check the walk reaches first, the fault named is the one
    # at the first position of ns where any check fails
    tree = parse_sequence(text)
    rng = np.random.default_rng(5)
    for ns in (np.arange(1, 40), np.arange(40, 0, -1), rng.permutation(np.arange(1, 40))):
        want = _first_fault(tree, ns.tolist())
        with pytest.raises(EvalError) as bulk:
            eval_array(tree, ns)
        assert (type(bulk.value), str(bulk.value)) == want


def test_only_the_array_lane_overflows():
    tree = parse_sequence("(n^n)^n")
    with pytest.raises(EvalError, match=re.escape("'(n^n)^n' is not finite at n=17")) as bulk:
        eval_array(tree, np.array([2, 17, 18]))
    assert (bulk.value.n, bulk.value.node) == (17, "(n^n)^n")
    # mpmath has no float64 exponent limit: 17^289 is about 4e355
    assert mpmath.isfinite(eval_sequence_mp(tree, 17))


@pytest.mark.parametrize("dtype", [np.int64, np.float64])
@pytest.mark.parametrize(
    "text, error, n",
    [
        ("1/(n^100*10^250)", PositivityError, 4),  # the product overflows: 1/inf is 0
        ("1/(n^400-n^400+n^2)", EvalError, 6),  # inf - inf is nan
    ],
)
def test_overflow_and_nan_are_faults_not_warnings(text, error, n, dtype):
    # pytest turns every warning into an error, so a numpy RuntimeWarning
    # from the walk would be raised here in place of the lane's own fault
    with pytest.raises(error) as bulk:
        eval_array(parse_sequence(text), np.arange(2, 10, dtype=dtype))
    assert type(bulk.value) is error
    assert bulk.value.n == n


def test_power_tower_fails_alike_in_both_lanes():
    # ln(3)^15^5 is about 10^31000; mpmath.power would never return
    tree = parse_sequence("1.5^(ln(3)^15^5)")
    with pytest.raises(EvalError, match="is not finite at n=1") as scalar:
        eval_sequence_mp(tree, 1)
    with pytest.raises(EvalError) as bulk:
        eval_array(tree, np.array([1]))
    assert str(bulk.value) == str(scalar.value)
    assert (bulk.value.n, bulk.value.node) == (scalar.value.n, scalar.value.node)


def test_powers_below_the_magnitude_cap_are_unchanged():
    # n^(-n) at n = 2^25 has a log-magnitude of about -5.8e8
    n = 2**25
    got = eval_sequence_mp(parse_sequence("n^(-n)"), n)
    with mpmath.workdps(EVAL_DPS):
        assert got == mpmath.power(n, -n) > 0


def test_array_lane_empty_input():
    assert eval_array(parse_sequence("n"), np.zeros(0, dtype=np.int64)).size == 0


# ---------------------------------------------------------------------------
# ln and division test an array argument in one pass, and build the mask
# that names the n only when that test fails


@pytest.mark.parametrize("dtype", [np.int64, np.float64])
@pytest.mark.parametrize("bad", [0.0, -0.0, -3.0, math.nan, math.inf])
@pytest.mark.parametrize("where", [0, 4, 8], ids=["first", "middle", "last"])
@pytest.mark.parametrize(
    "node, fault, is_bad, op",
    [
        (Ln(Var()), "ln of nonpositive argument", lambda v: v <= 0, np.log),
        (Div(num(1), Var()), "division by zero", lambda v: v == 0, lambda v: 1.0 / v),
    ],
    ids=["ln", "div"],
)
def test_one_pass_fault_tests_match_the_mask(node, fault, is_bad, op, where, bad, dtype):
    # the argument is fed to the walk as n's value, so any float can sit in it
    ns = np.arange(10, 19, dtype=dtype)
    x = np.arange(1.0, 10.0)
    x[where] = bad
    mask = is_bad(x)
    if mask.any():
        n = int(ns[int(np.argmax(mask))])
        text = format_sequence(node)
        with pytest.raises(EvalError) as err:
            _eval(node, x, ns, _NP)
        assert type(err.value) is EvalError
        assert str(err.value) == f"{fault} in '{text}' at n={n}"
        assert (err.value.n, err.value.node) == (n, text)
    else:  # nan and inf pass the walk's own test, and a negative divisor too
        assert np.array_equal(_eval(node, x, ns, _NP).view(np.int64), op(x).view(np.int64))


# ---------------------------------------------------------------------------
# shared subterms: the same bits and the same faults as separate walks

# one index, a few from n = 1, and one more than a probe chunk; one table
# serves all three in turn, as one serves every chunk of a probe
_SHARED_NS = (np.array([2]), np.arange(1, 8), np.arange(2, 2**14 + 3))
_REFERENCES = (parse_sequence(CONVERGENT_REFERENCE), parse_sequence(DIVERGENT_REFERENCE))


def _outcome(tree, ns, shared=_NO_SHARED):
    try:
        values = eval_array(tree, ns, shared=shared)
    except EvalError as err:
        return type(err), str(err), err.n, err.node
    return values.view(np.int64)


def _assert_sharing_changes_nothing(candidate):
    trees = (candidate, *_REFERENCES)
    interned, shared = _shared_subterms(*trees)
    assert [format_sequence(t) for t in interned] == [format_sequence(t) for t in trees]
    for ns in _SHARED_NS:
        for tree, same_tree in zip(trees, interned):
            want, got = _outcome(tree, ns), _outcome(same_tree, ns, shared)
            if isinstance(want, tuple):
                assert got == want, format_sequence(tree)
            else:
                assert np.array_equal(got, want), format_sequence(tree)


@pytest.mark.parametrize(
    "text",
    [
        "1/(n*ln(n)^2)",  # the convergent reference itself
        "1/n^1.5",  # shares only n and ln(n) with the references
        "1/(n*ln(n)^3)",
        "ln(n)*ln(n)/n^3",  # a subterm repeated inside one tree
        "ln(n-2.0)/ln(n-2)",  # equal trees that print apart: neither names the other
        "1/(n-4)^2 + ln(n)",  # a fault at n = 4 in the longest array only
    ],
)
def test_shared_subterms_match_separate_walks(text):
    _assert_sharing_changes_nothing(parse_sequence(text))


_LEXEMES = ("1", "2", "2.0", "3", "0.5", "1.5")


def _random_tree(rng, pool, depth):
    """A tree of depth <= depth, never a leaf at depth 4; about one leaf in
    four is a node of pool, so subtrees repeat within and across trees."""
    if depth == 0 or (depth < 4 and rng.random() < 0.3):
        pick = rng.random()
        if pick < 0.25:
            return rng.choice(pool)
        if pick < 0.6:
            return Var()
        lexeme = rng.choice(_LEXEMES)
        return Number(Fraction(lexeme), lexeme=lexeme)
    kind = rng.choice((Ln, Neg, Add, Sub, Mul, Div, Pow))
    if kind in (Ln, Neg):
        node = kind(_random_tree(rng, pool, depth - 1))
    else:
        node = kind(_random_tree(rng, pool, depth - 1), _random_tree(rng, pool, depth - 1))
    pool.append(node)
    return node


def test_shared_subterms_match_separate_walks_on_random_trees():
    rng = random.Random(31)
    pool = [parse_sequence(t) for t in ("ln(n)", "n*ln(n)", "ln(n)^2", "n - 2", "n - 2.0")]
    faults = 0
    # float64 overflow and nan are the lane's own faults, never warnings
    for _ in range(200):
        candidate = _random_tree(rng, pool, 4)
        _assert_sharing_changes_nothing(candidate)
        faults += isinstance(_outcome(candidate, _SHARED_NS[2]), tuple)
    # both outcomes are common enough to be compared
    assert 20 < faults < 180, faults


def test_shared_values_are_read_only():
    candidate = parse_sequence("1/(n*ln(n)^2)")
    (candidate, conv, div), shared = _shared_subterms(candidate, *_REFERENCES)
    ns = np.arange(2, 100)
    values = eval_array(candidate, ns, shared=shared)
    assert eval_array(conv, ns, shared=shared) is values  # the whole tree repeats
    assert not values.flags.writeable
    assert eval_array(div, ns, shared=shared).flags.writeable  # its root is its own


# ---------------------------------------------------------------------------
# float64 indices: the same bits and the same faults as int64 ones


@pytest.mark.parametrize(
    "text",
    EVAL_SAFE
    + [
        "1/(n-20) + ln(n-5)",
        "ln(n-5) + 1/(n-20)",
        "n^(1000*n) - 5",
        "(12-n)^(n/2) + 1/(n-7)",
        "1/(n-30)^2 + 1/(n-8)^2 + n",
        "(n-3)^-1",
        "n-5",
        "1/ln(n)",
    ],
)
def test_float64_indices_match_int64_indices(text):
    # the permuted arrays send a fault through the retry on a prefix of ns,
    # and the last one holds the largest indices float64 holds exactly
    tree = parse_sequence(text)
    (same_tree, *_), shared = _shared_subterms(tree, *_REFERENCES)
    rng = np.random.default_rng(32)
    top = np.arange(2**53 - 40, 2**53)
    for ns in (np.arange(1, 40), np.arange(40, 0, -1), rng.permutation(np.arange(1, 40)), _SHARED_NS[2], top):
        want = _outcome(tree, ns)
        for got in (
            _outcome(tree, ns.astype(np.float64)),
            _outcome(same_tree, ns.astype(np.float64), shared),
        ):
            if isinstance(want, tuple):
                assert got == want
            else:
                assert np.array_equal(got, want)


def test_float64_indices_stay_the_callers_own():
    ns = np.arange(2.0, 100.0)
    tree = parse_sequence("n")
    got = eval_array(tree, ns)
    assert got is not ns and np.array_equal(got, ns)
    (same_tree, *_), shared = _shared_subterms(tree, *_REFERENCES)
    assert not eval_array(same_tree, ns, shared=shared).flags.writeable
    assert ns.flags.writeable


# ---------------------------------------------------------------------------
# generated trees round-trip too

# only decimal literals exist in the grammar, so generated Numbers are
# integers scaled by powers of ten
_numbers = st.tuples(
    st.integers(min_value=0, max_value=10_000), st.integers(min_value=0, max_value=4)
).map(lambda t: Number(Fraction(t[0], 10 ** t[1])))


def _exprs():
    return st.recursive(
        st.one_of(_numbers, st.just(Var())),
        lambda children: st.one_of(
            children.map(Ln),
            children.map(Neg),
            st.tuples(children, children).map(lambda t: Add(*t)),
            st.tuples(children, children).map(lambda t: Sub(*t)),
            st.tuples(children, children).map(lambda t: Mul(*t)),
            st.tuples(children, children).map(lambda t: Div(*t)),
            st.tuples(children, children).map(lambda t: Pow(*t)),
        ),
        max_leaves=20,
    )


def _doubled_parens(text: str) -> bool:
    """Whether a pair of parentheses directly encloses another, as in -((n - 2)).

    -((n + 1)*2) holds no such pair: its outer pair encloses a product.
    """
    opens, close_of = [], {}
    for i, c in enumerate(text):
        if c == "(":
            opens.append(i)
        elif c == ")":
            close_of[opens.pop()] = i
    return any(close_of.get(i + 1) == j - 1 for i, j in close_of.items())


@settings(max_examples=200, deadline=None)
@given(_exprs())
def test_generated_trees_round_trip(tree):
    printed = format_sequence(tree)
    assert parse_sequence(printed) == tree
    assert not _doubled_parens(printed), printed
