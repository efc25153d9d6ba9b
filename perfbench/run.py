"""Benchmark of the gaplab CLI: each workload runs as `python -m gaplab` children.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Children run one at a time, started by perfbench/spawner.py, with --threads
left at 1.
With --trace 0 a run repeats its workload's command for about S seconds,
checks every artifact, and reports the medians of the end-to-end metrics:
wall_s (child spawn to exit), peak_rss_mb (the child's own ru_maxrss, from
os.wait4) and setup_s (a `gaplab bounds` child, run twice per cycle). With
--trace 1 it pairs each untraced child with one that runs the same command
in-process under perfbench/traced.py and reports the per-layer split.

The last line of standard output is one JSON object: correct, attempted,
failed and metrics. A run fails on a non-zero exit or a failed output
check; fail_frac = failed / attempted. Everything the run writes goes to
.bench_out/ at the repository root; artifacts are deleted once checked.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from checks import (
    PINNED_SHA256,
    check_bounds,
    check_gap_bound,
    check_gaps,
    check_scan,
    check_star,
    gaps_facts,
    scan_facts,
    star_facts,
)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
HERE = Path(__file__).resolve().parent
TRACED = HERE / "traced.py"
RUN_LIMIT_S = 170  # a run, children included, must end within this


class BenchError(Exception):
    """The benchmark itself cannot produce a result."""


@dataclass(frozen=True)
class Workload:
    argv: Callable[[int], list[str]]  # seed offset -> gaplab arguments
    facts: Callable[[int], dict]  # seed offset -> what the artifact must say
    check: Callable[[dict, dict, int], list[str]]  # (doc, facts, seed) -> problems
    layers: tuple[str, ...]  # spans that must appear in a traced run


# Seed 0 runs the listed size; any other seed adds an offset below 2^16 to the
# limit (or n_max), which keeps the work within 0.01% of the listed size.
WORKLOADS = {
    "gaps-1e9": Workload(
        lambda d: ["gaps", "--limit", str(10**9 + d)],
        lambda d: gaps_facts(10**9 + d, 10**9),
        lambda doc, facts, seed: check_gaps(doc, facts),
        ("cli", "report", "gaps.stats", "gaps.adapter", "sieve"),
    ),
    "scan-export-1e8": Workload(
        lambda d: ["scan", "--r", "2", "--limit", str(10**8 + d)],
        lambda d: scan_facts(10**8 + d, 10**8, 2),
        check_scan,
        ("cli", "report", "ratios.scan", "gaps.adapter", "sieve"),
    ),
    "scan-recheck-4e8": Workload(
        lambda d: ["scan", "--r", "2", "--limit", str(4 * 10**8 + d),
                   "--n-lo", "20000000", "--summary"],
        lambda d: scan_facts(4 * 10**8 + d, 4 * 10**8, 20_000_000),
        check_gap_bound,
        ("cli", "report", "ratios.scan", "gaps.adapter", "sieve"),
    ),
    "star-2e25": Workload(
        lambda d: ["star", "--expr", "1/(n*ln(n)^2)", "--r", "1", "--n-max", str(2**25 + d)],
        lambda d: star_facts(2**25 + d),
        lambda doc, facts, seed: check_star(doc, facts),
        ("cli", "report", "ratios.excess", "ratios.compare", "ratios.probe",
         "expr.eval", "accum.sum"),
    ),
}

END_TO_END = {"wall_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}

PER_LAYER = {
    "sieve.self_s": "s", "sieve.blocks": "count", "sieve.primes": "count",
    "sieve.speedup_t2": "x",
    "gaps.adapter_s": "s", "gaps.pairs": "count", "gaps.stats_s": "s",
    "ratios.scan_s": "s", "ratios.hits": "count", "ratios.borderline": "count",
    "ratios.rechecks": "count", "ratios.recheck_s": "s", "ratios.recheck_share": "frac",
    "ratios.excess_s": "s", "ratios.excess_calls": "count",
    "ratios.compare_s": "s", "ratios.probe_s": "s",
    "expr.eval_s": "s", "expr.terms": "count",
    "accum.sum_s": "s", "accum.terms": "count",
    "report.export_s": "s", "report.bytes": "B",
    "cli.self_s": "s",
    "proc.cpu_s": "s", "proc.cpu_util": "frac",
    "trace.overhead_frac": "frac",
}


def seed_offset(seed: int) -> int:
    return 0 if seed == 0 else random.Random(seed).randrange(1, 1 << 16)


@dataclass
class Child:
    wall_s: float
    rss_mb: float
    cpu_s: float
    artifact: bytes = b""
    problems: list[str] = field(default_factory=list)


class Spawner:
    """perfbench/spawner.py: starts each child, so that run.py's own peak RSS
    does not enter the children's ru_maxrss. Start it before run.py grows."""

    def __enter__(self) -> "Spawner":
        self.proc = subprocess.Popen([sys.executable, str(HERE / "spawner.py")],
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        return self

    def __exit__(self, *exc) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()

    def run(self, request: dict) -> dict:
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise BenchError("the spawner process exited")
        return json.loads(reply)


class Runner:
    """Runs gaplab children one at a time and checks what they write."""

    def __init__(self, spawner: Spawner, tmp: Path, deadline: float):
        self.spawner = spawner
        self.tmp = tmp
        self.deadline = deadline
        self.attempted = 0
        self.failed = 0
        self.verdicts: dict[str, list[str]] = {}  # sha256 of a checked artifact -> problems

    def spawn(self, cmd: list[str]) -> Child:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        log = self.tmp / "child.log"
        reply = self.spawner.run({"cmd": cmd, "cwd": str(ROOT), "env": env, "log": str(log),
                                  "timeout": max(1.0, self.deadline - time.monotonic())})
        child = Child(reply["wall_s"], reply["maxrss_kb"] / 1024, reply["cpu_s"])
        if reply["returncode"] != 0:
            child.problems.append(f"exit {reply['returncode']}: {log.read_bytes()[-2000:]!r}")
        return child

    def gaplab(self, argv: list[str], pin: str | None, check: Callable[[dict], list[str]],
               spans: Path | None = None) -> Child:
        """One child on argv, its artifact checked; spans selects an in-process traced run."""
        artifact = self.tmp / "artifact"
        head = [sys.executable, "-m", "gaplab"] if spans is None else [sys.executable, str(TRACED), str(spans)]
        child = self.spawn([*head, *argv, "--out", str(artifact)])
        if artifact.exists():
            child.artifact = artifact.read_bytes()
            artifact.unlink()
        if not child.problems:
            digest = hashlib.sha256(child.artifact).hexdigest()
            if pin is not None and digest != pin:
                child.problems.append("sha256 differs from the pinned seed-0 artifact")
            if digest not in self.verdicts:  # identical bytes get the same verdict
                try:
                    self.verdicts[digest] = check(json.loads(child.artifact))
                except (ValueError, KeyError, TypeError, IndexError) as exc:
                    self.verdicts[digest] = [f"unreadable artifact: {exc!r}"]
            child.problems += self.verdicts[digest]
        self.attempted += 1
        if child.problems:
            self.failed += 1
            print(f"FAILED {argv[0]}: {'; '.join(child.problems)[:2000]}", file=sys.stderr)
        return child

    def setup(self) -> Child:
        # bounds takes no input, so its pin holds at every seed
        return self.gaplab(["bounds"], PINNED_SHA256["bounds"], check_bounds)


# ---------------------------------------------------------------------------
# measuring


def _median(values: list[float]) -> float:
    if all(isinstance(v, int) for v in values):
        return statistics.median_low(values)  # counts stay whole numbers
    return statistics.median(values)


def _self_times(spans: list[list]) -> tuple[dict[str, float], Counter]:
    """Per span name: total duration minus the time its child spans cover."""
    inner = [0.0] * len(spans)
    for _name, start, end, parent in spans:
        if parent is not None:
            inner[parent] += end - start
    self_s: dict[str, float] = defaultdict(float)
    calls: Counter = Counter()
    for (name, start, end, _parent), covered in zip(spans, inner):
        self_s[name] += end - start - covered
        calls[name] += 1
    return self_s, calls


def _layer_metrics(trace: dict, plain: Child, traced: Child) -> dict[str, float]:
    self_s, calls = _self_times(trace["spans"])
    counts = trace["counts"]
    scanned = counts.get("ratios.scanned", 0)
    return {
        "sieve.self_s": self_s["sieve"],
        "sieve.blocks": counts.get("sieve.blocks", 0),
        "sieve.primes": counts.get("sieve.primes", 0),
        "gaps.adapter_s": self_s["gaps.adapter"],
        "gaps.pairs": counts.get("gaps.pairs", 0),
        "gaps.stats_s": self_s["gaps.stats"],
        "ratios.scan_s": self_s["ratios.scan"],
        "ratios.hits": counts.get("ratios.hits", 0),
        "ratios.borderline": counts.get("ratios.borderline", 0),
        "ratios.rechecks": calls["ratios.recheck"],
        "ratios.recheck_s": self_s["ratios.recheck"],
        "ratios.recheck_share": calls["ratios.recheck"] / scanned if scanned else 0.0,
        "ratios.excess_s": self_s["ratios.excess"],
        "ratios.excess_calls": calls["ratios.excess"],
        "ratios.compare_s": self_s["ratios.compare"],
        "ratios.probe_s": self_s["ratios.probe"],
        "expr.eval_s": self_s["expr.eval"],
        "expr.terms": counts.get("expr.terms", 0),
        "accum.sum_s": self_s["accum.sum"],
        "accum.terms": counts.get("accum.terms", 0),
        "report.export_s": self_s["report"],
        "report.bytes": counts.get("report.bytes", 0),
        "cli.self_s": self_s["cli"],
        "proc.cpu_s": plain.cpu_s,
        "proc.cpu_util": plain.cpu_s / plain.wall_s,
        "trace.overhead_frac": traced.wall_s / plain.wall_s - 1,
    }


def measure(spawner: Spawner, name: str, seed: int, seconds: float, trace: bool, tmp: Path) -> dict:
    """One run of one workload: the metrics, their samples and the failure counts."""
    workload = WORKLOADS[name]
    offset = seed_offset(seed)
    argv = workload.argv(offset)
    facts = workload.facts(offset)
    pin = PINNED_SHA256[name] if seed == 0 else None

    def check(doc: dict) -> list[str]:
        return workload.check(doc, facts, seed)

    runner = Runner(spawner, tmp, time.monotonic() + RUN_LIMIT_S)
    if runner.setup().problems:  # also fills the bytecode and file caches
        raise BenchError("gaplab does not run: `gaplab bounds` failed")
    samples: dict[str, list[float]] = defaultdict(list)
    deadline = time.monotonic() + seconds
    while True:
        started = time.monotonic()
        plain = runner.gaplab(argv, pin, check)
        samples["wall_s"].append(plain.wall_s)
        samples["peak_rss_mb"].append(plain.rss_mb)
        if trace:
            spans = tmp / "spans.json"
            traced = runner.gaplab(argv, None, check, spans=spans)
            if traced.problems:
                raise BenchError(f"traced run failed: {traced.problems}")
            if traced.artifact != plain.artifact:
                raise BenchError("traced artifact differs from the untraced one")
            record = json.loads(spans.read_text())
            ran = {span[0] for span in record["spans"]}
            missing = [layer for layer in workload.layers if layer not in ran]
            if missing:
                raise BenchError(f"layers never ran on {name}: {missing}")
            for metric, value in _layer_metrics(record, plain, traced).items():
                samples[metric].append(value)
        else:
            samples["setup_s"] += [runner.setup().wall_s for _ in range(2)]
        cycle = time.monotonic() - started
        if time.monotonic() + cycle > deadline:
            break
    if trace:
        speedup = 0.0
        if name == "gaps-1e9":
            limit = argv[argv.index("--limit") + 1]
            child = runner.spawn([sys.executable, str(TRACED), "--speedup", limit])
            if child.problems:
                raise BenchError(f"sieve speedup run failed: {child.problems}")
            times = json.loads((tmp / "child.log").read_text())
            speedup = times["t1"] / times["t2"]
        samples["sieve.speedup_t2"].append(speedup)
    units = PER_LAYER if trace else END_TO_END
    return {
        "workload": name,
        "seed": seed,
        "argv": argv,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "samples": {m: samples[m] for m in units},
        "metrics": {m: {"value": _median(samples[m]), "unit": u} for m, u in units.items()},
    }


# ---------------------------------------------------------------------------
# environment and output


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read().strip()
    except OSError:
        return ""


def environment() -> dict:
    cpu = next((line.split(":", 1)[1].strip() for line in _read("/proc/cpuinfo").splitlines()
                if line.startswith("model name")), platform.processor() or "unknown")
    caches = {}
    for index in range(8):
        base = f"/sys/devices/system/cpu/cpu0/cache/index{index}"
        level, kind = _read(f"{base}/level"), _read(f"{base}/type")
        if level and kind != "Instruction":
            caches[f"L{level}"] = _read(f"{base}/size")
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True).stdout.strip() or "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "caches": caches,
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "mpmath": importlib.metadata.version("mpmath"),
        "commit": commit,
    }


def _describe(result: dict) -> None:
    print(f"{result['workload']}  seed {result['seed']}: gaplab {' '.join(result['argv'])}")
    for metric, m in result["metrics"].items():
        values = result["samples"][metric]
        spread = f"  (min {min(values):.6g}, max {max(values):.6g})" if len(values) > 1 else ""
        value = f"{m['value']:>14}" if isinstance(m["value"], int) else f"{m['value']:>14.6g}"
        print(f"  {metric:22s} {value} {m['unit']:5s} median of {len(values)}{spread}")
    frac = result["failed"] / result["attempted"]
    print(f"  {'fail_frac':22s} {frac:>14.6g} {'frac':5s} {result['failed']} of {result['attempted']} runs")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "gaplab" / "__main__.py").is_file():
        print(f"no gaplab sources under {SRC}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    env = environment()
    print("env " + json.dumps(env, sort_keys=True))
    OUT.mkdir(exist_ok=True)
    results = []
    try:
        with Spawner() as spawner:
            for name in names:
                with tempfile.TemporaryDirectory(dir=OUT) as tmp:
                    results.append(measure(spawner, name, args.seed, args.seconds,
                                           bool(args.trace), Path(tmp)))
                _describe(results[-1])
                record = OUT / f"{name}-seed{args.seed}-trace{args.trace}.json"
                record.write_text(json.dumps({"env": env, **results[-1]}, indent=1) + "\n")
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{m}": v for r in results for m, v in r["metrics"].items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
