#!/usr/bin/env python3
"""The little formula language: parse, pretty-print, evaluate.

Run: python demos/03_sequence_formulas.py
"""

from gaplab import (
    EvalError,
    ExprSyntaxError,
    PositivityError,
    eval_sequence_mp,
    format_sequence,
    parse_sequence,
)

print("== parsing ==")
for text in ("1/(n^2)", "1/ln(n)^2", "1/(n*ln(n)^1.5)", "n^2^3", "-n^2"):
    tree = parse_sequence(text)
    print(f"  {text:20s} -> {format_sequence(tree):18s} {tree!r}")
print("note '^' binds tighter than '*' and '/', and associates to the right;")
print("unary minus lives at atom level, so -n^2 is (-n)^2.")

print()
print("== evaluation ==")
for text, n in (("n", 7), ("1/(n^2)", 4), ("1/(n*ln(n)^1.5)", 10), ("ln(ln(n))", 100)):
    print(f"  {text} at n={n}: {float(eval_sequence_mp(parse_sequence(text), n))!r}")

print()
print("== the errors are part of the contract ==")
try:
    parse_sequence("1/(n^")
except ExprSyntaxError as exc:
    print(f"  '1/(n^'      -> syntax error at offset {exc.position}, expected one of {exc.expected}")
try:
    parse_sequence("1/log(n)")
except ExprSyntaxError as exc:
    print(f"  '1/log(n)'   -> {exc}")
try:
    eval_sequence_mp(parse_sequence("1/ln(n)"), 1)
except EvalError as exc:
    print(f"  '1/ln(n)'@1  -> {exc}")
try:
    eval_sequence_mp(parse_sequence("n-5"), 3)
except PositivityError as exc:
    print(f"  'n-5'@3      -> {exc}")
print("positive terms are required throughout: every analysis downstream")
print("works with term ratios, and those need a positive sequence.")
