"""Command-line front end: one subcommand per capability, stable exports.

Exit codes: 0 success, 2 usage errors (bad flags, malformed expressions),
1 computation errors. Errors are written to stderr as a JSON object so
scripts can parse them. Identical configs produce byte-identical output
files regardless of --threads; all numeric output carries 15 significant
digits.

A JSON config file may supply any RunConfig field of the command's own
flags by name (e.g. {"limit": 1000000, "output": "out.json"}; a flag
spelling such as "expr" or "out" is an unknown key, and a field the
command has no flag for, such as "r" for gaps, is refused as the flag
would be). Each value must have its field's type, explicit flags always
win, and every usage error, argparse's own included, is one JSON object
on stderr.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
import types
from contextlib import nullcontext
from dataclasses import dataclass
from typing import get_args, get_origin, get_type_hints

import numpy as np

from .errors import ExprSyntaxError
from .expr import format_sequence, parse_sequence
from .gaps import gpy_statistics, literature_bounds
from .ratios import check_candidate, gap_bound_report, prime_ratio_scan
from .report import ParsedExpression, SieveSummary, export_report
from .series import reciprocal_prime_sum
from .sieve import sieve_primes, write_dump_block

__all__ = ["RunConfig", "UsageError", "run", "main"]


class UsageError(ValueError):
    """Invalid flag combination; maps to exit code 2."""


@dataclass
class RunConfig:
    """One validated invocation: exactly one command plus its inputs."""

    command: str
    limit: int | None = None
    expression: str | None = None
    r: float | None = None
    epsilon: float = 0.0
    checkpoints: list[int] | None = None
    n_lo: int = 2
    n0: int = 2
    n_max: int = 1 << 16
    threads: int = 1
    output: str | None = None
    format: str = "json"
    dump: str | None = None
    summary: bool = False


_COMMANDS = ("sieve", "gaps", "series", "parse", "star", "scan", "bounds")

_NEEDS_LIMIT = {"sieve", "gaps", "series", "scan"}
_NEEDS_EXPR = {"parse", "star"}
_JSON_ONLY = {"parse", "star"}


def _validate(config: RunConfig) -> None:
    if config.command not in _COMMANDS:
        raise UsageError(f"command must be one of {', '.join(_COMMANDS)}, got {config.command!r}")
    if config.format not in ("csv", "json"):
        raise UsageError(f"format must be csv or json, got {config.format!r}")
    if config.command in _NEEDS_LIMIT and config.limit is None:
        raise UsageError(f"'{config.command}' requires --limit")
    if config.command in _NEEDS_EXPR and not config.expression:
        raise UsageError(f"'{config.command}' requires --expr")
    if config.command in ("star", "scan") and config.r is None:
        raise UsageError(f"'{config.command}' requires --r")
    if config.command in _JSON_ONLY and config.format != "json":
        raise UsageError(f"'{config.command}' supports only --format json")
    if config.threads < 1:
        raise UsageError(f"--threads must be >= 1, got {config.threads}")
    if config.dump is not None and config.command != "sieve":
        raise UsageError("--dump is only valid with 'sieve'")


def run(config: RunConfig) -> int:
    """Execute one command; writes the artifact to --out (default stdout)."""
    _validate(config)
    cmd = config.command

    if cmd == "sieve":
        artifact = _sieve_artifact(config)
    elif cmd == "gaps":
        artifact = gpy_statistics(config.limit)
    elif cmd == "series":
        artifact = reciprocal_prime_sum(config.limit, config.checkpoints)
    elif cmd == "parse":
        ast = parse_sequence(config.expression)
        artifact = ParsedExpression(expression=format_sequence(ast), ast=ast)
    elif cmd == "star":
        ast = parse_sequence(config.expression)
        artifact = check_candidate(ast, config.r, config.n0, config.n_max)
    elif cmd == "scan":
        if config.summary:
            artifact = gap_bound_report(config.r, config.epsilon, config.limit, config.n_lo)
        else:
            artifact = prime_ratio_scan(config.r, config.epsilon, config.limit, config.n_lo)
    else:  # bounds
        artifact = literature_bounds()

    data = export_report(artifact, config.format)
    if config.output in (None, "-"):
        sys.stdout.buffer.write(data)
        sys.stdout.buffer.flush()
    else:
        with open(config.output, "wb") as fh:
            fh.write(data)
    return 0


# A summary alone sieves [limit - width, limit] with
# width = max(_SUMMARY_WINDOW, ceil(limit / _RAMARE_SAOUTER)), and that
# window always holds a prime. For limit <= 4,098 it reaches 2. Below
# 10,726,905,041 no prime gap exceeds 382, and the maximal gap 382 ends
# exactly there (maximal-gap tables: Young & Potler 1989; Oliveira e Silva,
# Herzog & Pardi, Math. Comp. 83, 2014). From there on every interval
# (x(1 - 1/28,313,999), x] holds a prime (Ramaré & Saouter, J. Number
# Theory 98, 2003). The width passes 4,096 only above 1.16e11, where
# pi(limit) dominates the run: at 1e12 it is 35,319, one segment.
_SUMMARY_WINDOW = 4096
_RAMARE_SAOUTER = 28_313_999


def _sieve_artifact(config: RunConfig):
    """One sieve_primes pass feeds the summary, the CSV rows and the dump.

    The CSV and the dump need every prime, so they start at 2; a summary
    alone sieves only the theorem-sized window below the limit (see the
    comment above). Either way the summary is read from the last block:
    the index of its last prime is the count.
    """
    keep = config.format == "csv"
    limit = config.limit
    width = max(_SUMMARY_WINDOW, -(-limit // _RAMARE_SAOUTER))
    start = 2 if keep or config.dump else max(2, limit - width)
    kept = []
    with open(config.dump, "wb") if config.dump else nullcontext() as dump:
        for block in sieve_primes(limit, start=start):
            if dump:
                write_dump_block(dump, block)
            if keep:
                kept.append(block.primes)
    if keep:
        return np.concatenate(kept)
    count = block.start_index + len(block) - 1
    return SieveSummary(limit=limit, prime_count=count, last_prime=int(block.primes[-1]))


# ---------------------------------------------------------------------------
# argument parsing


def _int_list(text: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",") if part]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad checkpoint list {text!r}: {exc}")


class _Parser(argparse.ArgumentParser):
    """Raises each command-line error as a UsageError, so main emits it as JSON."""

    def __init__(self, **kwargs):
        # one spelling per flag, in each subcommand's parser too: --ex is not --expr
        super().__init__(allow_abbrev=False, **kwargs)

    def error(self, message: str):
        raise UsageError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="gaplab",
        description="Prime gaps, divergence trackers, sequence analysis and ratio scans.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", dest="output", default=None,
                        help="output path; '-' or omitted writes to stdout")
    common.add_argument("--format", default=None,
                        help="artifact format: csv or json (default json)")
    common.add_argument("--config", default=None,
                        help="JSON file of RunConfig field values; flags win")

    stream = argparse.ArgumentParser(add_help=False)
    stream.add_argument("--limit", type=int, default=None, help="inclusive prime bound")
    stream.add_argument("--threads", type=int, default=None,
                        help="accepted and ignored (must be >= 1); the sieve runs on one thread")

    sub = parser.add_subparsers(dest="command")
    p = sub.add_parser("sieve", parents=[common, stream], help="prime counts and dumps")
    p.add_argument("--dump", default=None, help="also dump primes as little-endian int64")
    sub.add_parser("gaps", parents=[common, stream], help="gap histogram and normalized minima")
    p = sub.add_parser("series", parents=[common, stream],
                       help="reciprocal-prime sums and p_n/(n ln n)")
    p.add_argument("--checkpoints", type=_int_list, default=None,
                   help="comma-separated indices (default: powers of two)")
    p = sub.add_parser("parse", parents=[common], help="parse a sequence formula")
    p.add_argument("--expr", dest="expression", default=None)
    p = sub.add_parser("star", parents=[common], help="two-axis candidate check")
    p.add_argument("--expr", dest="expression", default=None)
    p.add_argument("--r", type=float, default=None, help="target ratio-excess limit")
    p.add_argument("--n0", type=int, default=None,
                   help="first ratio-excess sample (default 2); the summability probe always sums from n = 2")
    p.add_argument("--n-max", type=int, default=None, help="last index analyzed (default 2^16)")
    p = sub.add_parser("scan", parents=[common, stream],
                       help="scan primes for p_(n+1)/p_n < 1 + (r+eps)/(n ln n)")
    p.add_argument("--r", type=float, default=None)
    p.add_argument("--epsilon", type=float, default=None, help="explicit stand-in for the vanishing term (default 0)")
    p.add_argument("--n-lo", type=int, default=None, help="first index scanned (default 2)")
    p.add_argument("--summary", action="store_true", default=None,
                   help="emit the gap-bound summary instead of the raw scan")
    sub.add_parser("bounds", parents=[common], help="published liminf gap bounds")
    return parser


_HINTS = get_type_hints(RunConfig)


def _fits(hint, val) -> bool:
    """Whether a JSON value has the type a RunConfig field's hint names.

    A bool is only a bool, and an int also fits a float.
    """
    if isinstance(hint, types.UnionType):
        return any(_fits(h, val) for h in get_args(hint))
    if get_origin(hint) is list:
        return isinstance(val, list) and all(_fits(get_args(hint)[0], v) for v in val)
    if isinstance(val, bool):
        return hint is bool
    if hint is float:
        return isinstance(val, (int, float))
    return isinstance(val, hint)


def config_from_args(args: argparse.Namespace) -> RunConfig:
    values = vars(args).copy()
    path = values.pop("config", None)
    if path:
        with open(path, "r", encoding="utf-8") as fh:
            try:
                file_values = json.load(fh)
            except json.JSONDecodeError as exc:
                raise UsageError(f"bad config file {path}: {exc}")
        if not isinstance(file_values, dict):
            raise UsageError(f"config file {path} must hold a JSON object")
        for key, val in file_values.items():
            key = key.replace("-", "_")
            if key not in _HINTS or key == "command":
                raise UsageError(f"config file {path}: unknown key {key!r}")
            if key not in values:  # values holds the subcommand's own flags
                raise UsageError(f"config file {path}: {values['command']!r} does not take {key!r}")
            if not _fits(_HINTS[key], val):
                hint = RunConfig.__annotations__[key]
                raise UsageError(f"config file {path}: {key} must be {hint}, got {val!r}")
            # a flag left unset (None) defers to the file
            if values.get(key) is None:
                values[key] = val
    command = values.pop("command")
    return RunConfig(command, **{k: v for k, v in values.items() if v is not None})


def _emit_error(exc: BaseException) -> None:
    payload = {"type": type(exc).__name__, "message": str(exc)}
    if isinstance(exc, ExprSyntaxError):
        payload["position"] = exc.position
        payload["expected"] = list(exc.expected)
    sys.stderr.write(json.dumps({"error": payload}, sort_keys=True) + "\n")


# one or two dashes and a name: the shape of every flag, such as --out or -h
_FLAG_SHAPED = re.compile(r"--?[A-Za-z][\w-]*(=.*)?", re.DOTALL)


def _is_flag(arg: str) -> bool:
    """Whether an argument after --expr is a flag rather than a formula.

    A formula names only n and ln, so no flag of this CLI parses as one,
    while -n, --n and -(n-2) are formulas.
    """
    if not _FLAG_SHAPED.fullmatch(arg):
        return False
    try:
        parse_sequence(arg)
    except ExprSyntaxError:
        return True
    return False


def _expr_values_attached(argv: list[str]) -> list[str]:
    """argv with each --expr written as --expr=VALUE when VALUE starts with '-'.

    argparse reads an argument that starts with '-' as a flag, so --expr -n
    would leave --expr without its value. A flag after --expr is left
    alone, so --expr --out x.json is still a usage error.
    """
    out: list[str] = []
    for arg in argv:
        if out and out[-1] == "--expr" and arg.startswith("-") and not _is_flag(arg):
            out[-1] = f"--expr={arg}"
        else:
            out.append(arg)
    return out


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        config = config_from_args(build_parser().parse_args(_expr_values_attached(argv)))
        return run(config)
    except (UsageError, ExprSyntaxError) as exc:
        # ahead of ValueError, which both subclass
        _emit_error(exc)
        return 2
    except (ValueError, ArithmeticError, TypeError, OSError, MemoryError) as exc:
        # numpy's failed allocations raise a MemoryError subclass
        _emit_error(exc)
        return 1


if __name__ == "__main__":
    sys.exit(main())
