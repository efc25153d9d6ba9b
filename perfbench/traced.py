"""Run one gaplab command in-process with spans around each layer boundary.

    python3 perfbench/traced.py SPANS_FILE ARGV...
    python3 perfbench/traced.py --speedup LIMIT

The first form wraps the module-level functions in `BOUNDARIES`, runs
`gaplab.cli.main(ARGV)` and writes every span (name, start, end, parent
index) and counter to SPANS_FILE as JSON. The second times draining
`sieve_primes(LIMIT)` at threads=1 and threads=2 and prints both times.
gaplab is imported from PYTHONPATH; a boundary that is missing makes the
run fail before gaplab's command starts.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import Counter


class Tracer:
    """Spans kept in memory: [name, start, end, index of the parent span]."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()

    def begin(self, name: str) -> None:
        parent = self.stack[-1] if self.stack else None
        self.stack.append(len(self.spans))
        self.spans.append([name, time.perf_counter(), None, parent])

    def end(self) -> None:
        self.spans[self.stack.pop()][2] = time.perf_counter()


def _wrap_call(tracer: Tracer, name: str, fn, count):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        tracer.begin(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.end()
        if count:
            count(tracer.counts, args, result)
        return result

    return traced


def _wrap_generator(tracer: Tracer, name: str, fn, count):
    """One span per next(): the consumer's work between items is not inside."""

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        items = fn(*args, **kwargs)
        while True:
            tracer.begin(name)
            try:
                item = next(items)
            except StopIteration:
                return
            finally:
                tracer.end()
            if count:
                count(tracer.counts, args, item)
            yield item

    return traced


def _count_scan(counts: Counter, args, scan) -> None:
    counts["ratios.hits"] += scan.hit_count
    counts["ratios.borderline"] += scan.borderline_count
    counts["ratios.scanned"] += scan.n_hi - scan.n_lo + 1


# (module, attribute, span name, is a generator, counter update taking the
# call's arguments and its result or item). A function that another module
# imported by name is wrapped in that module, where the call looks it up.
BOUNDARIES = [
    ("gaplab.cli", "run", "cli", False, None),
    ("gaplab.cli", "export_report", "report", False,
     lambda c, args, data: c.update({"report.bytes": len(data)})),
    ("gaplab.cli", "gpy_statistics", "gaps.stats", False, None),
    ("gaplab.cli", "prime_ratio_scan", "ratios.scan", False, _count_scan),
    ("gaplab.ratios", "prime_ratio_scan", "ratios.scan", False, _count_scan),
    ("gaplab.ratios", "_recheck_mp", "ratios.recheck", False, None),
    ("gaplab.ratios", "ratio_excess", "ratios.excess", False, None),
    ("gaplab.ratios", "ratio_comparison", "ratios.compare", False, None),
    ("gaplab.ratios", "summability_probe", "ratios.probe", False, None),
    ("gaplab.ratios", "eval_array", "expr.eval", False,
     lambda c, args, values: c.update({"expr.terms": len(values)})),
    ("gaplab.ratios", "exact_block_sum", "accum.sum", False,
     lambda c, args, pair: c.update({"accum.terms": len(args[0])})),
    ("gaplab.gaps", "iter_gap_blocks", "gaps.adapter", True,
     lambda c, args, item: c.update({"gaps.pairs": len(item[1])})),
    ("gaplab.ratios", "iter_gap_blocks", "gaps.adapter", True,
     lambda c, args, item: c.update({"gaps.pairs": len(item[1])})),
    ("gaplab.gaps", "sieve_primes", "sieve", True,
     lambda c, args, block: c.update({"sieve.blocks": 1, "sieve.primes": len(block)})),
]


def install(tracer: Tracer) -> None:
    for module_name, attr, name, is_generator, count in BOUNDARIES:
        module = importlib.import_module(module_name)
        fn = getattr(module, attr)  # AttributeError: the boundary moved
        wrap = _wrap_generator if is_generator else _wrap_call
        setattr(module, attr, wrap(tracer, name, fn, count))


def _speedup(limit: int) -> dict:
    from gaplab.sieve import sieve_primes

    times = {}
    for threads in (1, 2):
        start = time.perf_counter()
        for _ in sieve_primes(limit, threads=threads):
            pass
        times[f"t{threads}"] = time.perf_counter() - start
    return times


def main(argv: list[str]) -> int:
    if argv[0] == "--speedup":
        print(json.dumps(_speedup(int(argv[1]))))
        return 0
    spans_file, command = argv[0], argv[1:]
    tracer = Tracer()
    install(tracer)
    import gaplab.cli

    code = gaplab.cli.main(command)
    with open(spans_file, "w", encoding="utf-8") as fh:
        json.dump({"spans": tracer.spans, "counts": tracer.counts}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
