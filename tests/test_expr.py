import math
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
    eval_array,
    eval_sequence_mp,
    format_sequence,
    parse_sequence,
)


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


@pytest.mark.parametrize("text", EVAL_SAFE)
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


def test_only_the_array_lane_overflows():
    tree = parse_sequence("(n^n)^n")
    with pytest.raises(EvalError, match=re.escape("'(n^n)^n' is not finite at n=17")) as bulk:
        eval_array(tree, np.array([2, 17, 18]))
    assert (bulk.value.n, bulk.value.node) == (17, "(n^n)^n")
    # mpmath has no float64 exponent limit: 17^289 is about 4e355
    assert mpmath.isfinite(eval_sequence_mp(tree, 17))


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


@settings(max_examples=200, deadline=None)
@given(_exprs())
def test_generated_trees_round_trip(tree):
    printed = format_sequence(tree)
    assert parse_sequence(printed) == tree
