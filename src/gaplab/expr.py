"""Parser and evaluator for positive-sequence formulas in n.

Grammar (the public contract):

    expr   := term (("+" | "-") term)*
    term   := factor (("*" | "/") factor)*
    factor := atom ("^" factor)?
    atom   := NUMBER | "n" | "ln" "(" expr ")" | "(" expr ")" | "-" atom

"^" is right-associative and binds tighter than "*"; unary minus lives at
atom level, so "-n^2" is (-n)^2. NUMBER is an integer or decimal literal
of ASCII digits 0-9 and is held exactly as a rational, so an exponent
like 1.5 loses nothing at parse time. Only n and ln are built in:
ln-based closed forms cover the sequence families this library analyzes,
and anything else would be an untestable extension.

Evaluation is one tree walk run in two lanes. eval_sequence_mp computes
one value through mpmath at extended precision; eval_array is the float64
bulk lane used for partial sums and range comparisons over millions of
indices. mpmath is imported on the first exact evaluation, so a run that
stays in float64 never loads it. A lane supplies four primitives
(constant, ln, power, floor); the walk owns the arithmetic and the four
faults (ln of a nonpositive argument, division by zero, a fractional
power of a negative base, zero raised to a negative power), each tested
per index and reported at the first offending one. So (n-5)^(n/2) is
fine at n = 4, where (-1)^2 is an integer power, and fails at n = 3 in
either lane. The mpmath power saturates to inf or 0 past a
log-magnitude of 2^64, so a power tower fails "not finite" in both lanes
instead of running for ever. numpy's overflow and invalid warnings are off
in the float64 walk: its overflow and nan fail the output's own tests.

Trees evaluated together on the same indices can share their repeated
subterms: eval_array's keyword shared takes a table that holds each
subtree occurring more than once among them, and the walk evaluates such
a subtree once per index array. Subtrees are shared only where
format_sequence prints them alike, since a fault names its subtree as
printed. A value the table holds is returned read-only, because every
tree that contains it receives that one array.
"""

from __future__ import annotations

import functools
import types
from dataclasses import dataclass, field, fields, replace
from fractions import Fraction
from typing import Any, Callable, Mapping, Union

import numpy as np

from .errors import EvalError, ExprSyntaxError, PositivityError, UnknownIdentifierError

__all__ = [
    "Number",
    "Var",
    "Ln",
    "Neg",
    "Add",
    "Sub",
    "Mul",
    "Div",
    "Pow",
    "SequenceExpr",
    "parse_sequence",
    "format_sequence",
    "eval_sequence_mp",
    "eval_array",
]

EVAL_DPS = 30


@dataclass(frozen=True)
class Number:
    value: Fraction
    lexeme: str = field(default="", compare=False)


@dataclass(frozen=True)
class Var:
    pass


@dataclass(frozen=True)
class Ln:
    arg: "SequenceExpr"


@dataclass(frozen=True)
class Neg:
    arg: "SequenceExpr"


@dataclass(frozen=True)
class Add:
    left: "SequenceExpr"
    right: "SequenceExpr"


@dataclass(frozen=True)
class Sub:
    left: "SequenceExpr"
    right: "SequenceExpr"


@dataclass(frozen=True)
class Mul:
    left: "SequenceExpr"
    right: "SequenceExpr"


@dataclass(frozen=True)
class Div:
    left: "SequenceExpr"
    right: "SequenceExpr"


@dataclass(frozen=True)
class Pow:
    base: "SequenceExpr"
    exponent: "SequenceExpr"


SequenceExpr = Union[Number, Var, Ln, Neg, Add, Sub, Mul, Div, Pow]


# ---------------------------------------------------------------------------
# tokenizer

_OPERATORS = "+-*/^()"
_DIGITS = "0123456789"  # ASCII only: str.isdigit() also takes "²" and "١"


@dataclass(frozen=True)
class _Token:
    kind: str  # NUMBER | IDENT | one of + - * / ^ ( ) | EOF
    text: str
    pos: int


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    i = 0
    while i < len(text):
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c in _OPERATORS:
            tokens.append(_Token(c, c, i))
            i += 1
            continue
        if c in _DIGITS:
            j = i + 1
            while j < len(text) and text[j] in _DIGITS:
                j += 1
            if j < len(text) and text[j] == ".":
                j += 1
                if j >= len(text) or text[j] not in _DIGITS:
                    raise ExprSyntaxError(
                        f"malformed number at offset {i}: digits must follow '.'",
                        position=j,
                        expected=("digit",),
                    )
                while j < len(text) and text[j] in _DIGITS:
                    j += 1
            tokens.append(_Token("NUMBER", text[i:j], i))
            i = j
            continue
        if c.isalpha():
            j = i + 1
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            name = text[i:j]
            if name not in ("n", "ln"):
                raise UnknownIdentifierError(
                    f"unknown identifier {name!r} at offset {i}: only 'n' and 'ln' are available",
                    position=i,
                    expected=("n", "ln"),
                )
            tokens.append(_Token("IDENT", name, i))
            i = j
            continue
        raise ExprSyntaxError(
            f"unexpected character {c!r} at offset {i}",
            position=i,
            expected=("NUMBER", "n", "ln", "(", "-"),
        )
    tokens.append(_Token("EOF", "", len(text)))
    return tokens


# ---------------------------------------------------------------------------
# recursive-descent parser

_ATOM_STARTERS = ("NUMBER", "n", "ln", "(", "-")


class _Parser:
    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str) -> _Token:
        tok = self.peek()
        if tok.kind != kind:
            raise ExprSyntaxError(
                f"expected {kind!r} at offset {tok.pos}, found {tok.text or 'end of input'!r}",
                position=tok.pos,
                expected=(kind,),
            )
        return self.advance()

    def parse(self) -> SequenceExpr:
        node = self.expr()
        tok = self.peek()
        if tok.kind != "EOF":
            raise ExprSyntaxError(
                f"unexpected {tok.text!r} at offset {tok.pos}",
                position=tok.pos,
                expected=("+", "-", "*", "/", "^", "end of input"),
            )
        return node

    def expr(self) -> SequenceExpr:
        node = self.term()
        while self.peek().kind in ("+", "-"):
            op = self.advance().kind
            rhs = self.term()
            node = Add(node, rhs) if op == "+" else Sub(node, rhs)
        return node

    def term(self) -> SequenceExpr:
        node = self.factor()
        while self.peek().kind in ("*", "/"):
            op = self.advance().kind
            rhs = self.factor()
            node = Mul(node, rhs) if op == "*" else Div(node, rhs)
        return node

    def factor(self) -> SequenceExpr:
        node = self.atom()
        if self.peek().kind == "^":
            self.advance()
            # right-associative: the exponent is itself a factor
            return Pow(node, self.factor())
        return node

    def atom(self) -> SequenceExpr:
        tok = self.peek()
        if tok.kind == "NUMBER":
            self.advance()
            return Number(Fraction(tok.text), lexeme=tok.text)
        if tok.kind == "IDENT" and tok.text == "n":
            self.advance()
            return Var()
        if tok.kind == "IDENT" and tok.text == "ln":
            self.advance()
            self.expect("(")
            inner = self.expr()
            self.expect(")")
            return Ln(inner)
        if tok.kind == "(":
            self.advance()
            inner = self.expr()
            self.expect(")")
            return inner
        if tok.kind == "-":
            self.advance()
            return Neg(self.atom())
        raise ExprSyntaxError(
            f"expected a value at offset {tok.pos}, found {tok.text or 'end of input'!r}",
            position=tok.pos,
            expected=_ATOM_STARTERS,
        )


def parse_sequence(text: str) -> SequenceExpr:
    """Parse a formula in n into its syntax tree.

    Raises ExprSyntaxError with the byte offset and expected-token set on
    malformed input, and UnknownIdentifierError for identifiers other
    than n and ln.
    """
    if not text or text.isspace():
        raise ExprSyntaxError("empty expression", position=0, expected=_ATOM_STARTERS)
    return _Parser(_tokenize(text)).parse()


# ---------------------------------------------------------------------------
# pretty-printer

_PREC_ADD, _PREC_MUL, _PREC_POW, _PREC_ATOM = 1, 2, 3, 4


def _decimal_str(value: Fraction) -> str | None:
    """Exact decimal literal for value, or None if it has no finite one."""
    if value < 0:
        return None
    den = value.denominator
    twos = fives = 0
    while den % 2 == 0:
        den //= 2
        twos += 1
    while den % 5 == 0:
        den //= 5
        fives += 1
    if den != 1:
        return None
    k = max(twos, fives)
    scaled = value.numerator * 10**k // value.denominator
    if k == 0:
        return str(scaled)
    digits = str(scaled).rjust(k + 1, "0")
    return f"{digits[:-k]}.{digits[-k:]}"


def _fmt(node: SequenceExpr, min_prec: int) -> str:
    if isinstance(node, Number):
        if node.lexeme:
            return node.lexeme
        dec = _decimal_str(node.value)
        if dec is not None:
            return dec
        if node.value < 0:
            return "-" + _fmt(Number(-node.value), _PREC_ATOM)
        return f"({node.value.numerator}/{node.value.denominator})"
    if isinstance(node, Var):
        return "n"
    if isinstance(node, Ln):
        return f"ln({_fmt(node.arg, _PREC_ADD)})"
    if isinstance(node, Neg):
        # grammar: "-" atom; printing the argument at atom precedence already
        # parenthesizes anything that is not atom-shaped
        return "-" + _fmt(node.arg, _PREC_ATOM)
    if isinstance(node, (Add, Sub)):
        op = "+" if isinstance(node, Add) else "-"
        text = f"{_fmt(node.left, _PREC_ADD)} {op} {_fmt(node.right, _PREC_ADD + 1)}"
        return text if _PREC_ADD >= min_prec else f"({text})"
    if isinstance(node, (Mul, Div)):
        op = "*" if isinstance(node, Mul) else "/"
        text = f"{_fmt(node.left, _PREC_MUL)}{op}{_fmt(node.right, _PREC_MUL + 1)}"
        return text if _PREC_MUL >= min_prec else f"({text})"
    if isinstance(node, Pow):
        text = f"{_fmt(node.base, _PREC_ATOM)}^{_fmt(node.exponent, _PREC_POW)}"
        return text if _PREC_POW >= min_prec else f"({text})"
    raise TypeError(f"not a sequence expression node: {node!r}")


def format_sequence(expr: SequenceExpr) -> str:
    """Render the tree back to text; parsing the result rebuilds the same tree."""
    return _fmt(expr, _PREC_ADD)


# ---------------------------------------------------------------------------
# evaluation: one walk, two lanes


@dataclass(frozen=True)
class _Lane:
    """The arithmetic primitives a lane supplies to the shared walk."""

    const: Callable[[Fraction], Any]
    ln: Callable[[Any], Any]
    power: Callable[[Any, Any], Any]
    floor: Callable[[Any], Any]


# A power whose log-magnitude |expo * ln|base|| exceeds this saturates to inf
# or 0, as float64 does far sooner. The cap lies far past every value the
# float lane can hold (|ln| < 745) and far below where mpmath.power stops
# returning: 1.5^(10^1000) takes a second and 1.5^(10^31000) never ends.
_MP_LOG_CAP = 2**64


def _mp_power(base, expo):
    import mpmath

    # IEEE pow, as numpy's, makes (+-1)^(+-inf) 1; mpmath makes it nan
    if abs(base) == 1 and mpmath.isinf(expo):
        return mpmath.mpf(1)
    if base != 0:
        magnitude = expo * mpmath.ln(abs(base))
        if magnitude > _MP_LOG_CAP:
            return mpmath.inf
        if magnitude < -_MP_LOG_CAP:
            return mpmath.mpf(0)
    return mpmath.power(base, expo)


@functools.cache
def _mp_lane() -> _Lane:
    """The mpmath lane, built on the first exact evaluation."""
    import mpmath

    return _Lane(
        const=lambda q: mpmath.mpf(q.numerator) / q.denominator,
        ln=mpmath.ln,
        power=_mp_power,
        floor=mpmath.floor,
    )


_NP = _Lane(const=float, ln=np.log, power=np.power, floor=np.floor)
_NO_SHARED: Mapping = types.MappingProxyType({})  # the table of a walk that shares nothing


def _first_bad(ns, mask) -> int:
    # a 0-d mask comes from a constant subtree: it fails at every index
    return int(ns[int(np.argmax(mask))]) if np.ndim(mask) else int(ns[0])


def _check(bad, fault: str, node: SequenceExpr, ns) -> None:
    # an array's own .any() skips np.any's dispatch; scalars are plain bools
    if bad.any() if isinstance(bad, np.ndarray) else bad:
        n = _first_bad(ns, bad)
        raise EvalError(
            f"{fault} in '{format_sequence(node)}' at n={n}", node=format_sequence(node), n=n
        )


def _eval(node: SequenceExpr, x, ns, lane: _Lane, shared: Mapping = _NO_SHARED):
    # a subtree the table holds is evaluated once per index array: its entry
    # is [node, ns, value], and a value computed on another ns is replaced
    entry = shared.get(id(node))
    if entry is not None and entry[1] is ns:
        return entry[2]
    if isinstance(node, Number):
        value = lane.const(node.value)
    elif isinstance(node, Var):
        value = x
    elif isinstance(node, Ln):
        v = _eval(node.arg, x, ns, lane, shared)
        # an array is tested in one pass; its mask is built only to name the n
        if not isinstance(v, np.ndarray) or not v.min() > 0:
            _check(v <= 0, "ln of nonpositive argument", node, ns)
        value = lane.ln(v)
    elif isinstance(node, Neg):
        value = -_eval(node.arg, x, ns, lane, shared)
    elif isinstance(node, Add):
        value = _eval(node.left, x, ns, lane, shared) + _eval(node.right, x, ns, lane, shared)
    elif isinstance(node, Sub):
        value = _eval(node.left, x, ns, lane, shared) - _eval(node.right, x, ns, lane, shared)
    elif isinstance(node, Mul):
        value = _eval(node.left, x, ns, lane, shared) * _eval(node.right, x, ns, lane, shared)
    elif isinstance(node, Div):
        den = _eval(node.right, x, ns, lane, shared)
        if not isinstance(den, np.ndarray) or not den.all():
            _check(den == 0, "division by zero", node, ns)
        value = _eval(node.left, x, ns, lane, shared) / den
    elif isinstance(node, Pow):
        base = _eval(node.base, x, ns, lane, shared)
        expo = _eval(node.exponent, x, ns, lane, shared)
        fractional = expo != lane.floor(expo)
        negative = expo < 0
        if np.ndim(expo) == 0:
            # a constant exponent is decided once, and where it allows a
            # fault the base's own mask names it: a bool array & a numpy bool
            # scalar is numpy's slow path (about 11 ms per 8 M elements)
            if fractional:
                _check(base < 0, "fractional power of a negative base", node, ns)
            if negative:
                _check(base == 0, "zero raised to a negative power", node, ns)
        else:
            if fractional.any():
                _check((base < 0) & fractional, "fractional power of a negative base", node, ns)
            if negative.any():
                _check((base == 0) & negative, "zero raised to a negative power", node, ns)
        value = lane.power(base, expo)
    else:
        raise TypeError(f"not a sequence expression node: {node!r}")
    if entry is not None:
        if isinstance(value, np.ndarray):
            # a view: float64 indices, which the walk reads as n, stay writeable
            value = value.view()
            value.flags.writeable = False
        entry[1:] = ns, value
    return value


def _shared_subterms(*trees: SequenceExpr) -> tuple[list[SequenceExpr], dict]:
    """Intern trees by printed text and table the subtrees that repeat.

    Returns the interned trees and the table that eval_array's shared
    keyword takes. Two subtrees are one node only when format_sequence
    prints them alike, so a fault names the same text either way: Number
    equality ignores the lexeme, and ln(n-2.0) is not ln(n-2). The table
    holds only the nodes that occur more than once among the trees, keyed
    by identity (a frozen dataclass's hash walks its whole subtree). A
    repeated subtree's own subtrees are counted once, where it first occurs.
    """
    canon: dict[str, SequenceExpr] = {}
    uses: dict[str, int] = {}

    def intern(node: SequenceExpr) -> SequenceExpr:
        text = format_sequence(node)
        uses[text] = uses.get(text, 0) + 1
        if text not in canon:
            children = {
                f.name: intern(child)
                for f in fields(node)
                if isinstance(child := getattr(node, f.name), SequenceExpr)
            }
            canon[text] = replace(node, **children) if children else node
        return canon[text]

    interned = [intern(tree) for tree in trees]
    table = {id(canon[t]): [canon[t], None, None] for t, k in uses.items() if k > 1}
    return interned, table


def eval_sequence_mp(expr: SequenceExpr, n: int):
    """Evaluate at integer n >= 1 in extended precision; returns an mpf.

    The precision is EVAL_DPS digits, or the caller's mpmath precision
    where that is higher. Nonpositive results raise PositivityError: the
    sequences this library analyzes must have positive terms.
    """
    # imported here, not at the top: mpmath costs a child about 15 ms and
    # 4 MB after numpy, and only the exact lane uses it (gaplab bounds,
    # gaps and a scan with no recheck never do)
    import mpmath

    if n < 1:
        raise ValueError(f"sequence index must be >= 1, got {n}")
    with mpmath.workdps(max(EVAL_DPS, mpmath.mp.dps)):
        val = _eval(expr, mpmath.mpf(n), [n], _mp_lane())
        if not mpmath.isfinite(val):
            raise EvalError(
                f"evaluation of '{format_sequence(expr)}' is not finite at n={n}",
                node=format_sequence(expr),
                n=n,
            )
        if val <= 0:
            raise PositivityError(
                f"not a positive sequence at n={n}: '{format_sequence(expr)}' = {mpmath.nstr(val, 8)}",
                node=format_sequence(expr),
                n=n,
            )
        return val


def _eval_float(expr: SequenceExpr, ns: np.ndarray, shared: Mapping = _NO_SHARED) -> np.ndarray:
    """The float64 walk over a nonempty ns, then the output's own two tests."""
    with np.errstate(over="ignore", invalid="ignore"):
        out = _eval(expr, np.asarray(ns, np.float64), ns, _NP, shared)
    if np.ndim(out) == 0:
        out = np.full(ns.shape, out, dtype=np.float64)
    elif out is ns:  # the tree n over float64 indices: not the caller's array
        out = out.copy()
    # nan fails both tests; the masks are built only to name the index
    if out.min() > 0 and out.max() < np.inf:
        return out
    text = format_sequence(expr)
    nonfinite = ~np.isfinite(out)
    if nonfinite.any():
        n = _first_bad(ns, nonfinite)
        raise EvalError(f"evaluation of '{text}' is not finite at n={n}", node=text, n=n)
    bad = out <= 0
    n = _first_bad(ns, bad)
    hint = ""
    if out[int(np.argmax(bad))] == 0.0:
        hint = " (exact zero; rapidly decaying sequences can underflow the float64 lane)"
    raise PositivityError(f"not a positive sequence at n={n}: '{text}'{hint}", node=text, n=n)


def eval_array(expr: SequenceExpr, ns: np.ndarray, *, shared: Mapping = _NO_SHARED) -> np.ndarray:
    """Evaluate at every index in ns through the float64 lane.

    ns holds integers n >= 1, as an integer array or as a float64 one,
    which the walk reads as n without a conversion; float64 holds every
    integer exactly below 2^53, and both give the same values and faults.
    Runs the same walk and fault checks as eval_sequence_mp, elementwise.
    On top of them, every result must be finite and strictly positive, and a
    float64 overflow or nan fails these tests, where mpmath would return a
    value; numpy's warnings are off in the walk. A fault is reported at the
    first offending position of ns across all of these checks, so the report
    does not depend on how a caller cuts its indices into arrays. At one
    position the walk's faults come first, in walk order, then "not finite",
    then positivity.

    shared is a table of repeated subtrees, built once for a set of trees
    by _shared_subterms, whose interned trees are the ones to pass here.
    Calls that pass the same table and the same ns object evaluate each
    subtree the table holds once, so ns must not change in place between
    them. A held value passed every check when it was computed, and
    subtrees are shared only where they print alike, so values and faults
    are bit for bit those of a call without the table. An array the table
    holds is returned read-only, the tree's own value included when the
    whole tree repeats. The retry that names the first offending n runs
    without the table.
    """
    ns = np.asarray(ns)
    if ns.size == 0:
        return np.zeros(0, dtype=np.float64)
    if int(ns.min()) < 1:
        raise ValueError(f"sequence indices must be >= 1, got {int(ns.min())}")
    try:
        return _eval_float(expr, ns, shared)
    except EvalError as err:
        fault = err
    # the walk stops at the first check that fails anywhere, so another check
    # can fail earlier only in the prefix before the named index (every copy
    # of that index fails alike, so its first copy is the offending position)
    while (end := int(np.argmax(ns == fault.n))) > 0:
        try:
            _eval_float(expr, ns[:end])
        except EvalError as err:
            fault = err
        else:
            break
    raise fault
