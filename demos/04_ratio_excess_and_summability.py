#!/usr/bin/env python3
"""The two-axis question: can a summable sequence have ratio excess -> r?

The ratio excess of a positive sequence b is

    e_n = n ln(n) (b_n / b_{n+1} - 1).

If e_n tends to a finite positive r AND the sum of b_n converges, the
pair (b, r) would make prime gaps below roughly r occur infinitely often
(see demo 05). No such pair exists, by a theorem: if e_n stays bounded,
then n (b_n/b_{n+1} - 1) = e_n / ln(n) -> 0 < 1, and Raabe's test
(Knopp, Theory and Application of Infinite Series, §38) makes the sum
of b_n diverge. What the divergence of the sum of 1/p_n proves alone is
Kummer's test with zeta_n = n ln n: for every delta > 0, infinitely many
n have g_n < p_n (zeta_{n+1} - zeta_n + delta) / zeta_n, about the mean
gap ln p_n. The scan's threshold p_n r / (n ln n) drops the
zeta_{n+1} - zeta_n ~ ln n + 1 term, and only a pair (b, r) could pay
for that. This demo measures both axes for classic families on a finite
range and shows each one fail an axis.

Run: python demos/04_ratio_excess_and_summability.py
"""

from gaplab import (
    check_candidate,
    estimate_r,
    parse_sequence,
    ratio_excess,
    summability_probe,
)

print("== ratio excess samples ==")
for text in ("1/ln(n)^2", "1/(n^2)", "1/(n*ln(n)^2)"):
    tree = parse_sequence(text)
    samples = [f"e({n}) = {ratio_excess(tree, n):8.4f}" for n in (16, 256, 4096, 65536)]
    print(f"  {text:16s} {'  '.join(samples)}")
print("1/ln(n)^2 settles near 2; 1/(n^2) grows like 2 ln n; 1/(n*ln(n)^2)")
print("grows like ln n + 2.")

print()
print("== extrapolating the excess limit ==")
for text in ("1/ln(n)^2", "1/ln(n)^3.5", "1/(n^2)"):
    diag = estimate_r(parse_sequence(text), 2**20)
    print(f"  {text:16s} r_estimate = {diag.r_estimate}   trend = {diag.remainder_trend}")

print()
print("== summability evidence ==")
for text in ("1/ln(n)^2", "1/(n^2)", "1/(n*ln(n)^2)", "1/(n*ln(n))"):
    probe = summability_probe(parse_sequence(text), 2**16)
    last = probe.increments[-1][1]
    print(f"  {text:16s} {probe.verdict:20s} last dyadic increment = {last:.3e}")
print("the verdicts combine dyadic-increment behavior with a second-kind")
print("ratio comparison against 1/(n*ln(n)^2) and 1/(n*ln(n)); they are")
print("labeled evidence, never proof.")

print()
print("== the combined check ==")
for text in ("1/ln(n)^2", "1/(n^2)", "1/(n*ln(n)^2)"):
    rep = check_candidate(parse_sequence(text), r=2.0, n_max=2**16)
    print(f"  {text:16s} candidate = {rep.candidate!s:5s}  failed axes: {rep.failed_axes}")
print("each family fails exactly one axis. by Raabe's test no positive")
print("sequence passes both in the limit; the engine reports finite-range")
print("evidence either way and hard-codes neither answer.")
