"""Output checks: each artifact against facts that do not come from gaplab.

Every check returns a list of problems; an empty list means the artifact
passed. At seed 0 each workload's artifact must also match the sha256 it
had at the commit the benchmark was written against (`PINNED_SHA256`).
"""

from __future__ import annotations

import math
import random
from decimal import Decimal, localcontext

from facts import (
    FIRST_TWIN_FROM_INDEX,
    LAST_PRIME,
    PI,
    TWINS,
    TWINS_BELOW_INDEX,
    is_prime,
    primes_between,
)

# sha256 of the seed-0 artifacts (and of `gaplab bounds`) as gaplab wrote them
# when this benchmark was added; seeds other than 0 have no pin
PINNED_SHA256 = {
    "bounds": "be5a24a3a0686b4d0400ec068851c8ba9e8f7db94cf473930e2215c36aea951b",
    "gaps-1e9": "06979b7400eea1ff8304a65c42f7312cf4c7dfb50394005a3c9817230254155d",
    "scan-export-1e8": "9388a291125bf4ffe515fe51b2b604e64c8766ea50dd3834a901a9a2a3dea1b8",
    "scan-recheck-4e8": "56b45b1c72a9a2a82ea111ff88c6d2f74787027201241eaca1759e5803d680db",
    "star-2e25": "33e1e6e2ec930237978f4f960086a0683903a336bb23f42c19880b63e12336b6",
}


def _expect(problems: list[str], what: str, got, want) -> None:
    if got != want:
        problems.append(f"{what}: got {got!r}, want {want!r}")


def _close(problems: list[str], what: str, got: float, want: float, rel: float) -> None:
    if not abs(got - want) <= rel * abs(want):
        problems.append(f"{what}: got {got!r}, want {want!r} (rel {rel:g})")


def prime_facts(base: int, limit: int) -> dict:
    """pi, twin count and last prime at limit, extended from base by Miller-Rabin."""
    window = primes_between(base - 2, limit)
    above = [p for p in window if p > base]
    return {
        "pi": PI[base] + len(above),
        "twins": TWINS[base] + sum(b - a == 2 for a, b in zip(window, window[1:])),
        "last_prime": above[-1] if above else LAST_PRIME[base],
    }


def _index_of(p: int, base: int) -> int:
    """pi(p) for a prime p near base."""
    if p > base:
        return PI[base] + len(primes_between(base, p))
    return PI[base] - len(primes_between(p, base))


def _last_twin(limit: int) -> int:
    """The largest p with p and p + 2 prime and p + 2 <= limit."""
    q = limit
    while not (is_prime(q) and is_prime(q - 2)):
        q -= 1
    return q - 2


# ---------------------------------------------------------------------------
# gaps


def gaps_facts(limit: int, base: int) -> dict:
    return {"limit": limit, **prime_facts(base, limit)}


def check_gaps(doc: dict, facts: dict) -> list[str]:
    """Telescoping facts of the gap histogram up to limit."""
    problems: list[str] = []
    hist = {k: v for k, v in doc["histogram"]}
    _expect(problems, "limit", doc["limit"], facts["limit"])
    _expect(problems, "total_gaps", doc["total_gaps"], facts["pi"] - 1)
    _expect(problems, "sum of histogram counts", sum(hist.values()), facts["pi"] - 1)
    _expect(problems, "sum k h_k + 2", sum(k * v for k, v in hist.items()) + 2, facts["last_prime"])
    _expect(problems, "h_2", hist.get(2), facts["twins"])
    _expect(problems, "h_1", hist.get(1), 1)
    _expect(problems, "tail minima", {m for _, m in doc["min_gap_tail"]}, {2})
    return problems


# ---------------------------------------------------------------------------
# scan


def scan_facts(limit: int, base: int, n_lo: int) -> dict:
    """What a scan at r = 2, epsilon = 0 must report.

    Its hits are exactly the twin pairs with index >= n_lo. p_n > n ln n for
    every n (Rosser 1939), so each gap of 2 falls below its threshold
    2 p_n/(n ln n). p_n < n (ln n + ln ln n) for n >= 6 keeps every later
    threshold below 4, and the one earlier gap of 4 (g_4, threshold 2.52)
    misses too.
    """
    facts = prime_facts(base, limit)
    last = _last_twin(limit)
    return {
        "limit": limit,
        "n_lo": n_lo,
        "n_hi": facts["pi"] - 1,
        "hit_count": facts["twins"] - TWINS_BELOW_INDEX[n_lo],
        "first": FIRST_TWIN_FROM_INDEX[n_lo],
        "last": (_index_of(last, base), last),
    }


def check_scan(scan: dict, facts: dict, seed: int) -> list[str]:
    problems: list[str] = []
    hits = scan["hits"]
    for key in ("limit", "n_lo", "n_hi", "hit_count"):
        _expect(problems, key, scan[key], facts[key])
    _expect(problems, "rows", len(hits), facts["hit_count"])
    _expect(problems, "r, epsilon", (scan["r"], scan["epsilon"]), (2, 0))
    _expect(problems, "borderline_count", scan["borderline_count"], 0)
    _expect(problems, "min_gap_among_hits", scan["min_gap_among_hits"], 2)
    _expect(problems, "tail minima other than 2", {m for _, m in scan["tail_min_gap"]} - {2}, set())
    if problems or not hits:
        return problems
    _expect(problems, "first hit", tuple(hits[0][:2]), facts["first"])
    _expect(problems, "last hit", tuple(hits[-1][:2]), facts["last"])
    prev_n = 0
    max_threshold = 0.0
    for n, p, q, g, t, b in hits:
        if not (n > prev_n and g == 2 and q == p + 2 and b is False and t > 2):
            problems.append(f"bad hit row {[n, p, q, g, t, b]}")
            break
        prev_n = n
        max_threshold = max(max_threshold, t)
    _expect(problems, "max_threshold_among_hits", scan["max_threshold_among_hits"], max_threshold)
    for n, p, _q, _g, t, _b in random.Random(seed).sample(hits, min(1000, len(hits))):
        if not (is_prime(p) and is_prime(p + 2)):
            problems.append(f"hit {n}: {p} and {p + 2} are not both prime")
        _close(problems, f"threshold at {n}", t, 2 * p / (n * math.log(n)), 1e-13)
    return problems


def check_gap_bound(doc: dict, facts: dict, seed: int) -> list[str]:
    problems = check_scan(doc["scan"], facts, seed)
    if not problems:
        _expect(problems, "implied_bound", doc["implied_bound"],
                math.ceil(doc["scan"]["max_threshold_among_hits"]))
    return problems


# ---------------------------------------------------------------------------
# star


def _excess(n: int) -> float:
    """e_n of b_n = 1/(n ln^2 n): n ln n (b_n/b_(n+1) - 1), at 40 digits."""
    with localcontext() as ctx:
        ctx.prec = 40
        n0, n1 = Decimal(n), Decimal(n + 1)
        l0, l1 = n0.ln(), n1.ln()
        return float(n0 * l0 * (n1 * l1 * l1 / (n0 * l0 * l0) - 1))


def _f(x: float) -> float:
    return 1.0 / (x * math.log(x) ** 2)


def _partial_sum(n: int, head: int = 4096) -> float:
    """sum_(k=2..n) 1/(k ln^2 k): direct below head, Euler-Maclaurin above."""
    if n < head:
        return math.fsum(_f(k) for k in range(2, n + 1))
    direct = math.fsum(_f(k) for k in range(2, head))

    def df(x: float) -> float:
        lx = math.log(x)
        return -(lx + 2) / (x * x * lx**3)

    integral = 1 / math.log(head) - 1 / math.log(n)
    return math.fsum([direct, integral, (_f(head) + _f(n)) / 2, (df(n) - df(head)) / 12])


def star_facts(n_max: int) -> dict:
    """b_n = 1/(n ln^2 n) at r = 1: summable, but e_n = ln n + 2 + o(1) diverges."""
    dyadic = [1 << k for k in range(1, n_max.bit_length())]
    sum_points = dyadic + ([n_max] if dyadic[-1] != n_max else [])
    return {
        "n_max": n_max,
        "excess": [(n, _excess(n)) for n in dyadic],
        "partial_sums": [(n, _partial_sum(n)) for n in sum_points],
    }


def check_star(doc: dict, facts: dict) -> list[str]:
    problems: list[str] = []
    n_max = facts["n_max"]
    _expect(problems, "expression, r, n0, n_max",
            (doc["expression"], doc["r"], doc["n0"], doc["n_max"]),
            ("1/(n*ln(n)^2)", 1, 2, n_max))
    _expect(problems, "verdicts",
            (doc["candidate"], doc["failed_axes"], doc["summability"]["verdict"],
             doc["diagnostics"]["r_estimate"], doc["diagnostics"]["remainder_trend"]),
            (False, ["ratio"], "converging-evidence", "divergent", "growing"))
    for what, rel, got, want in (
        ("e", 1e-12, doc["diagnostics"]["samples"], facts["excess"]),
        ("partial sum", 1e-13, doc["summability"]["partial_sums"], facts["partial_sums"]),
    ):
        _expect(problems, f"{what} points", [n for n, _ in got], [n for n, _ in want])
        for (n, x), (_, y) in zip(got, want):
            _close(problems, f"{what} at {n}", x, y, rel)
    cmp = doc["summability"]["reference_comparisons"]
    _expect(problems, "convergent-reference violations",
            cmp["convergent_reference"]["violation_count"], 0)
    _expect(problems, "divergent-reference violations",
            (cmp["divergent_reference"]["violation_count"],
             cmp["divergent_reference"]["first_violation"],
             cmp["divergent_reference"]["last_violation"]),
            (n_max - 1, 2, n_max))
    return problems


def check_bounds(doc: dict) -> list[str]:
    problems: list[str] = []
    _expect(problems, "bounds", {k: v["bound"] for k, v in doc["bounds"].items()},
            {"gpy_conditional": 16, "zhang": 70_000_000, "polymath8": 4_680, "maynard": 600})
    return problems
