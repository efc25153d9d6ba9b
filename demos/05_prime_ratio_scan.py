#!/usr/bin/env python3
"""Turning a ratio inequality over real primes into gap thresholds.

For a strength r (plus an explicit epsilon standing in for the
asymptotically vanishing term), an index n is a hit when

    p_{n+1} / p_n < 1 + (r + epsilon) / (n ln n),

equivalently when the gap g_n falls below the threshold
c_n = p_n (r + epsilon) / (n ln n). Because p_n / (n ln n) tends to 1,
the thresholds approach r + epsilon: a never-ending supply of hits at
strength r would pin the liminf of the gap at or below about r.

What the divergence of the sum of 1/p_n proves on its own is a theorem
about a larger threshold. Kummer's test with zeta_n = n ln n gives, for
every delta > 0, infinitely many n with

    g_n < p_n (zeta_{n+1} - zeta_n + delta) / zeta_n
        ~ (p_n / n) (1 + (1 + delta) / ln n),

which is about the mean gap ln p_n. The scan's threshold drops the
zeta_{n+1} - zeta_n ~ ln n + 1 term; only a summable sequence with ratio
excess tending to r could pay for that, and demo 04 shows that none
exists. So the hits below are finite-range evidence, never a theorem.

Run: python demos/05_prime_ratio_scan.py
"""

from gaplab import export_report, gap_bound_report, prime_ratio_scan

LIMIT = 10**6

print("== scan at r = 2 (the twin-prime strength) ==")
scan = prime_ratio_scan(r=2.0, epsilon=0.0, limit=LIMIT)
print(f"{scan.hit_count:,} hits among indices [{scan.n_lo}, {scan.n_hi:,}]")
print(f"min gap among hits = {scan.min_gap_among_hits}, "
      f"max threshold = {scan.max_threshold_among_hits:.4f}, "
      f"borderline hits = {scan.borderline_count}")
csv_bytes = export_report(scan, "csv")
csv_lines = csv_bytes.splitlines()
print(f"first five hits, as their CSV rows ({csv_lines[0].decode()}):")
for line in csv_lines[1:6]:
    print(f"  {line.decode()}")
print("at this strength the hit set below 10^6 is exactly the twin-prime")
print("indices: thresholds hover near 2.3, so only gap-2 pairs fit under them.")

print()
print("== raising the strength admits wider gaps ==")
for r in (2.0, 4.0, 6.0):
    s = prime_ratio_scan(r, 0.0, LIMIT)
    gaps = sorted(set(s.hits_gap.tolist()))
    print(f"  r = {r}: {s.hit_count:6,} hits, gap values {gaps}")

print()
print("== epsilon explores the vanishing term ==")
for eps in (0.0, 0.25, 1.0):
    s = prime_ratio_scan(2.0, eps, LIMIT)
    print(f"  epsilon = {eps:4.2f}: {s.hit_count:6,} hits")
print("hit sets grow monotonically in both r and epsilon.")

print()
print("== the finite-range reading ==")
summary = gap_bound_report(r=2.0, epsilon=0.0, limit=LIMIT)
print(summary.statement)

print()
print("== exports ==")
json_bytes = export_report(summary, "json")
print(f"hits CSV: {len(csv_bytes):,} bytes")
print(f"summary JSON: {len(json_bytes):,} bytes, byte-stable across runs and "
      f"thread counts")
