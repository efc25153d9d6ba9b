#!/usr/bin/env python3
"""Turning a ratio inequality over real primes into gap thresholds.

For a strength r (plus an explicit epsilon standing in for the
asymptotically vanishing term), an index n is a hit when

    p_{n+1} / p_n < 1 + (r + epsilon) / (n ln n),

equivalently when the gap g_n falls below the threshold
c_n = p_n (r + epsilon) / (n ln n). Because p_n / (n ln n) tends to 1,
the thresholds approach r + epsilon: a never-ending supply of hits at
strength r would pin the liminf of the gap at or below about r.

Run: python demos/05_prime_ratio_scan.py
"""

from itertools import islice

from gaplab import export_report, gap_bound_report, prime_ratio_scan

LIMIT = 10**6

print("== scan at r = 2 (the twin-prime strength) ==")
scan = prime_ratio_scan(r=2.0, epsilon=0.0, limit=LIMIT)
print(f"{scan.hit_count:,} hits among indices [{scan.n_lo}, {scan.n_hi:,}]")
print(f"min gap among hits = {scan.min_gap_among_hits}, "
      f"max threshold = {scan.max_threshold_among_hits:.4f}, "
      f"borderline hits = {scan.borderline_count}")
print("first five hits (n, p_n, p_next, g_n, threshold):")
for hit in islice(scan.iter_hits(), 5):
    print(f"  {hit[:5]}")
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
csv_bytes = export_report(scan, "csv")
json_bytes = export_report(summary, "json")
print(f"hits CSV: {len(csv_bytes):,} bytes, header "
      f"{csv_bytes.splitlines()[0].decode()!r}")
print(f"summary JSON: {len(json_bytes):,} bytes, byte-stable across runs and "
      f"thread counts")
