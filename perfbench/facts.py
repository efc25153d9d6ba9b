"""Prime facts the benchmark checks gaplab's artifacts against.

None of these numbers comes from gaplab. pi(10^8), pi(10^9) and the twin
counts at 10^8 and 10^9 are the published values (OEIS A006880, A007508).
The rest were derived with the bytearray sieve below, which shares no code
with gaplab; `python3 perfbench/facts.py` derives all of them again (about
25 s on a 2-core Xeon) and exits non-zero on any mismatch.

Near a base point the benchmark extends these facts with `is_prime`, a
deterministic Miller-Rabin test, so that a seed may move a limit a little.
"""

from __future__ import annotations

import math
import sys

# pi(x), the twin-pair count (pairs p, p+2 with p + 2 <= x) and the largest
# prime <= x, at each base limit a workload starts from
PI = {10**8: 5_761_455, 4 * 10**8: 21_336_326, 10**9: 50_847_534}
TWINS = {10**8: 440_312, 4 * 10**8: 1_507_733, 10**9: 3_424_506}
LAST_PRIME = {10**8: 99_999_989, 4 * 10**8: 399_999_959, 10**9: 999_999_937}

# for a scan starting at index n_lo: twin pairs (p_n, p_n + 2) with
# n < n_lo, and the first twin pair (n, p_n) with n >= n_lo
TWINS_BELOW_INDEX = {2: 0, 20_000_000: 1_418_478}
FIRST_TWIN_FROM_INDEX = {2: (2, 3), 20_000_000: (20_000_012, 373_588_067)}

_SMALL = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; exact for every n < 3.3e24."""
    if n < 2:
        return False
    for p in _SMALL:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _SMALL:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def primes_between(lo: int, hi: int) -> list[int]:
    """The primes in the half-open range (lo, hi]."""
    return [n for n in range(lo + 1, hi + 1) if is_prime(n)]


def _odd_prime_segments(limit: int, span: int = 1 << 24):
    """Yield (low, flags): flags[i] says whether low + 2 i is prime."""
    root = math.isqrt(limit)
    small = bytearray([1]) * (root + 1)
    small[:2] = b"\0\0"
    for i in range(2, math.isqrt(root) + 1):
        if small[i]:
            small[i * i :: i] = bytes(len(range(i * i, root + 1, i)))
    base = [i for i in range(3, root + 1, 2) if small[i]]
    low = 3
    while low <= limit:
        high = min(low + 2 * span, limit + 1)
        flags = bytearray([1]) * ((high - low + 1) // 2)
        for p in base:
            if p * p >= high:
                break
            start = max(p * p, (low + p - 1) // p * p)
            if start % 2 == 0:
                start += p
            first = (start - low) // 2
            flags[first::p] = bytes(len(range(first, len(flags), p)))
        yield low, flags
        low += 2 * len(flags)


def derive(limit: int = 10**9) -> dict:
    """Recompute every table above by sieving to limit."""
    marks = sorted(PI)
    found = {"PI": {}, "TWINS": {}, "LAST_PRIME": {},
             "TWINS_BELOW_INDEX": {2: 0}, "FIRST_TWIN_FROM_INDEX": {}}
    count, twins, prev = 1, 0, 2  # the prime 2 is p_1
    for low, flags in _odd_prime_segments(limit):
        pos = flags.find(1)
        while pos != -1:
            p = low + 2 * pos
            while marks and p > marks[0]:
                m = marks.pop(0)
                found["PI"][m], found["TWINS"][m], found["LAST_PRIME"][m] = count, twins, prev
            if p - prev == 2:  # the pair (p_count, p)
                twins += 1
                for n_lo in FIRST_TWIN_FROM_INDEX:
                    if count >= n_lo and n_lo not in found["FIRST_TWIN_FROM_INDEX"]:
                        found["FIRST_TWIN_FROM_INDEX"][n_lo] = (count, prev)
            count += 1
            if count in TWINS_BELOW_INDEX:
                found["TWINS_BELOW_INDEX"][count] = twins
            prev = p
            pos = flags.find(1, pos + 1)
    for m in marks:
        found["PI"][m], found["TWINS"][m], found["LAST_PRIME"][m] = count, twins, prev
    return found


if __name__ == "__main__":
    expected = {"PI": PI, "TWINS": TWINS, "LAST_PRIME": LAST_PRIME,
                "TWINS_BELOW_INDEX": TWINS_BELOW_INDEX,
                "FIRST_TWIN_FROM_INDEX": FIRST_TWIN_FROM_INDEX}
    got = derive()
    bad = [name for name in expected if got[name] != expected[name]]
    for name in expected:
        print(f"{name}: {'ok' if name not in bad else got[name]}")
    sys.exit(1 if bad else 0)
