"""Parser and evaluator for positive-sequence formulas in n.

Grammar (the public contract):

    expr   := term (("+" | "-") term)*
    term   := factor (("*" | "/") factor)*
    factor := atom ("^" factor)?
    atom   := NUMBER | "n" | "ln" "(" expr ")" | "(" expr ")" | "-" atom

"^" is right-associative and binds tighter than "*"; unary minus lives at
atom level, so "-n^2" is (-n)^2. NUMBER is an integer or decimal literal
and is held exactly as a rational, so an exponent like 1.5 loses nothing
at parse time. Only n and ln are built in: ln-based closed forms cover
the sequence families this library analyzes, and anything else would be
an untestable extension.

Evaluation is one tree walk run in two lanes. eval_sequence_mp computes
one value through mpmath at extended precision; eval_array is the float64
bulk lane used for partial sums and range comparisons over millions of
indices. A lane supplies four primitives (constant, ln, power, floor); the
walk owns the arithmetic and the four faults (ln of a nonpositive
argument, division by zero, a fractional power of a negative base, zero
raised to a negative power), each tested per index and reported at the
first offending one. So (n-5)^(n/2) is fine at n = 4, where (-1)^2 is an
integer power, and fails at n = 3 in either lane. The mpmath power
saturates to inf or 0 past a log-magnitude of 2^64, so a power tower
fails "not finite" in both lanes instead of running for ever.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Callable, Union

import mpmath
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
        if c.isdigit():
            j = i + 1
            while j < len(text) and text[j].isdigit():
                j += 1
            if j < len(text) and text[j] == ".":
                j += 1
                if j >= len(text) or not text[j].isdigit():
                    raise ExprSyntaxError(
                        f"malformed number at offset {i}: digits must follow '.'",
                        position=j,
                        expected=("digit",),
                    )
                while j < len(text) and text[j].isdigit():
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
        # grammar: "-" atom; parenthesize anything that is not atom-shaped
        inner = _fmt(node.arg, _PREC_ATOM)
        if not isinstance(node.arg, (Number, Var, Ln, Neg)):
            inner = f"({inner})"
        text = "-" + inner
        return text if _PREC_ATOM >= min_prec else f"({text})"
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


def _np_power(base, expo):
    with np.errstate(over="ignore"):
        return np.power(base, expo)


# A power whose log-magnitude |expo * ln|base|| exceeds this saturates to inf
# or 0, as float64 does far sooner. The cap lies far past every value the
# float lane can hold (|ln| < 745) and far below where mpmath.power stops
# returning: 1.5^(10^1000) takes a second and 1.5^(10^31000) never ends.
_MP_LOG_CAP = 2**64


def _mp_power(base, expo):
    if base != 0:
        magnitude = expo * mpmath.ln(abs(base))
        if magnitude > _MP_LOG_CAP:
            return mpmath.inf
        if magnitude < -_MP_LOG_CAP:
            return mpmath.mpf(0)
    return mpmath.power(base, expo)


_MP = _Lane(
    const=lambda q: mpmath.mpf(q.numerator) / q.denominator,
    ln=mpmath.ln,
    power=_mp_power,
    floor=mpmath.floor,
)
_NP = _Lane(const=float, ln=np.log, power=_np_power, floor=np.floor)


def _first_bad(ns, mask) -> int:
    # a 0-d mask comes from a constant subtree: it fails at every index
    return int(ns[int(np.argmax(mask))]) if np.ndim(mask) else int(ns[0])


def _check(bad, fault: str, node: SequenceExpr, ns) -> None:
    if np.any(bad):
        n = _first_bad(ns, bad)
        raise EvalError(
            f"{fault} in '{format_sequence(node)}' at n={n}", node=format_sequence(node), n=n
        )


def _eval(node: SequenceExpr, x, ns, lane: _Lane):
    if isinstance(node, Number):
        return lane.const(node.value)
    if isinstance(node, Var):
        return x
    if isinstance(node, Ln):
        v = _eval(node.arg, x, ns, lane)
        _check(v <= 0, "ln of nonpositive argument", node, ns)
        return lane.ln(v)
    if isinstance(node, Neg):
        return -_eval(node.arg, x, ns, lane)
    if isinstance(node, Add):
        return _eval(node.left, x, ns, lane) + _eval(node.right, x, ns, lane)
    if isinstance(node, Sub):
        return _eval(node.left, x, ns, lane) - _eval(node.right, x, ns, lane)
    if isinstance(node, Mul):
        return _eval(node.left, x, ns, lane) * _eval(node.right, x, ns, lane)
    if isinstance(node, Div):
        den = _eval(node.right, x, ns, lane)
        _check(den == 0, "division by zero", node, ns)
        return _eval(node.left, x, ns, lane) / den
    if isinstance(node, Pow):
        base = _eval(node.base, x, ns, lane)
        expo = _eval(node.exponent, x, ns, lane)
        # the exponent side is often a constant that holds nowhere, and a
        # bool array & a numpy bool scalar is numpy's slow path (about 11 ms
        # per 8 M elements, against 0.7 ms for two arrays)
        fractional = expo != lane.floor(expo)
        if np.any(fractional):
            _check((base < 0) & fractional, "fractional power of a negative base", node, ns)
        negative = expo < 0
        if np.any(negative):
            _check((base == 0) & negative, "zero raised to a negative power", node, ns)
        return lane.power(base, expo)
    raise TypeError(f"not a sequence expression node: {node!r}")


def eval_sequence_mp(expr: SequenceExpr, n: int):
    """Evaluate at integer n >= 1 in extended precision; returns an mpf.

    Nonpositive results raise PositivityError: the sequences this library
    analyzes must have positive terms.
    """
    if n < 1:
        raise ValueError(f"sequence index must be >= 1, got {n}")
    with mpmath.workdps(EVAL_DPS):
        val = _eval(expr, mpmath.mpf(n), [n], _MP)
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


def eval_array(expr: SequenceExpr, ns: np.ndarray) -> np.ndarray:
    """Evaluate at every index in ns through the float64 lane.

    Runs the same walk and fault checks as eval_sequence_mp, elementwise,
    and reports each fault at the first offending index of ns. On top of
    them, float64 overflow shows up here as "not finite", where mpmath
    would return a value, and every result must be strictly positive.
    """
    ns = np.asarray(ns)
    if ns.size == 0:
        return np.zeros(0, dtype=np.float64)
    if int(ns.min()) < 1:
        raise ValueError(f"sequence indices must be >= 1, got {int(ns.min())}")
    x = ns.astype(np.float64)
    out = _eval(expr, x, ns, _NP)
    if np.ndim(out) == 0:
        out = np.full(x.shape, out, dtype=np.float64)
    nonfinite = ~np.isfinite(out)
    if nonfinite.any():
        raise EvalError(
            f"evaluation of '{format_sequence(expr)}' is not finite at n={_first_bad(ns, nonfinite)}",
            node=format_sequence(expr),
            n=_first_bad(ns, nonfinite),
        )
    bad = out <= 0
    if bad.any():
        n_bad = _first_bad(ns, bad)
        hint = ""
        if out[int(np.argmax(bad))] == 0.0:
            hint = " (exact zero; rapidly decaying sequences can underflow the float64 lane)"
        raise PositivityError(
            f"not a positive sequence at n={n_bad}: '{format_sequence(expr)}'{hint}",
            node=format_sequence(expr),
            n=n_bad,
        )
    return out
