#!/usr/bin/env python3
"""Two slow laws at work: sum of 1/p diverges, and p_n grows like n ln n.

Run: python demos/02_divergence_trackers.py
"""

from gaplab import pnt_ratio_track, reciprocal_prime_sum

print("== partial sums of 1/2 + 1/3 + 1/5 + ... ==")
rows = reciprocal_prime_sum(10**7)
print(f"{'n':>10} {'p_n':>12} {'partial sum':>14} {'sum - ln ln p_n':>16}")
for r in rows:
    gap = f"{r.loglog_gap:.6f}" if r.loglog_gap is not None else "-"
    print(f"{r.n:>10,} {r.p_n:>12,} {r.partial_sum:>14.8f} {gap:>16}")
print("the sum crawls upward forever (divergence), gaining about ln 2 per")
print("squaring of the prime. The right column is finite-range evidence of")
print("Mertens' theorem (a theorem): it tends to B = 0.2614972128..., and lies")
print("within 1/(2 ln^2 p_n) of B once p_n >= 286 (Rosser & Schoenfeld 1962).")

print()
print("== p_n / (n ln n) at dyadic checkpoints ==")
rows = pnt_ratio_track(checkpoints=[2**k for k in range(2, 21)])
for r in rows:
    print(f"  n = 2^{r.n.bit_length() - 1:2d} = {r.n:>9,}   p_n = {r.p_n:>12,}   ratio = {r.pnt_ratio:.6f}")
print("the ratio drifts toward 1 from above, as the n ln n law demands,")
print("but not monotonically: local prime density bumps it up at n = 2^9")
print("and 2^10 before the slow descent resumes.")
