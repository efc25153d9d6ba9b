"""Stable export schemas: deterministic JSON and CSV for every report.

Contract: JSON is UTF-8 with sorted keys; CSV uses LF line endings, '.'
decimals and no thousands separators; every numeric value is printed with
15 significant digits. Identical inputs therefore serialize to identical
bytes on every platform and thread count. Each JSON document embeds the
schema version and its report kind.

One encoder (`_to_obj`) and its inverse (`_from_obj`), both driven by the
report dataclasses, cover every report. Each dataclass field becomes a key
of the same name; tuples and lists become lists; a Fraction becomes its
str; an int-keyed dict (the gap histogram) becomes sorted [key, value]
pairs; an expression node adds "op", its class name in lower case. The
decoder follows the field type hints: ints become floats where the hint
says float, and the SequenceExpr union is resolved through "op".

Written out by hand, and only these: GapStats adds its "note"; ScanReport
writes its hit arrays (array fields are never keys) as "hits" rows and
adds "borderline_count"; the series list is wrapped as {"checkpoints":
[...]} and the bounds table as {"bounds": {name: {"bound", "citation"}}}.

Hit rows are written by one row template per chunk of
ScanReport.iter_hit_chunks() columns, not cell by cell: %d for the
integers, %.15g for the threshold (the same text as format_float for
every finite double) and false/true for the borderline flag. Before any
row is written, the whole threshold column is checked, and a non-finite
threshold raises the ValueError that format_float raises.

CSV: each artifact is one table. The two array-backed tables, the scan
hits and the index,prime list, are written as a header line plus
row-template chunks; the others (histogram, series, bounds) go through
csv.writer, which quotes the citations. The series and bounds headers are
their dataclass field names.
"""

from __future__ import annotations

import csv
import io
import json
import math
import types
import typing
from collections.abc import Iterator
from dataclasses import dataclass, fields, is_dataclass
from fractions import Fraction
from itertools import chain

import numpy as np

from . import ratios as _ratios
from .expr import SequenceExpr
from .gaps import GapBoundEntry, GapStats
from .ratios import (
    CandidateReport,
    GapBoundSummary,
    RatioDiagnostics,
    ScanReport,
    SummabilityVerdict,
)
from .series import SeriesCheckpoint

__all__ = [
    "SCHEMA_VERSION",
    "SieveSummary",
    "ParsedExpression",
    "format_float",
    "to_json",
    "to_csv",
    "export_report",
    "parse_report",
]

SCHEMA_VERSION = "1"


@dataclass(frozen=True)
class SieveSummary:
    limit: int
    prime_count: int
    last_prime: int


@dataclass(frozen=True)
class ParsedExpression:
    expression: str  # canonical form; re-parsing it rebuilds ast
    ast: SequenceExpr


def _non_finite(x: float) -> ValueError:
    return ValueError(f"non-finite value cannot be exported: {x!r}")


def format_float(x: float) -> str:
    """15 significant digits; the one float format every export uses."""
    if not math.isfinite(x):
        raise _non_finite(x)
    return f"{x:.15g}"


# the two container reports, named by their item type
_SERIES = list[SeriesCheckpoint]
_BOUNDS = dict[str, GapBoundEntry]

_KINDS = {
    GapStats: "gap_stats",
    _SERIES: "series_checkpoints",
    RatioDiagnostics: "ratio_diagnostics",
    SummabilityVerdict: "summability_verdict",
    CandidateReport: "candidate_report",
    ScanReport: "scan_report",
    GapBoundSummary: "gap_bound_summary",
    _BOUNDS: "literature_gap_bounds",
    SieveSummary: "sieve_summary",
    ParsedExpression: "sequence_expression",
}
_TYPES = {kind: t for t, kind in _KINDS.items()}

_NODE_TYPES = typing.get_args(SequenceExpr)
_NODES = {cls.__name__.lower(): cls for cls in _NODE_TYPES}

_GAP_NOTE = "minima and tail minima are finite-range proxies for liminf claims, evidence not proof"

_HIT_COLUMNS = ("n", "p_n", "p_next", "g_n", "threshold", "borderline")

# one row of a hit chunk; the borderline cell is taken from _BOOL_TEXT
_JSON_HIT_ROW = "[%d,%d,%d,%d,%.15g,%s]"
_CSV_HIT_ROW = "%d,%d,%d,%d,%.15g,%s\n"
_CSV_PRIME_ROW = "%d,%d\n"
_BOOL_TEXT = ("false", "true")


def _report_type(report):
    """The key of `report` in _KINDS; a non-empty container is named by its items."""
    if isinstance(report, list) and report and all(isinstance(r, SeriesCheckpoint) for r in report):
        return _SERIES
    if isinstance(report, dict) and report and all(isinstance(e, GapBoundEntry) for e in report.values()):
        return _BOUNDS
    return type(report)


# ---------------------------------------------------------------------------
# row templates for the array-backed tables


def _hit_text(report: ScanReport, template: str, sep: str) -> Iterator[str]:
    """The hit rows as text, one string per chunk: `template % row` per row,
    rows joined by `sep`. The whole threshold column is checked first,
    because %.15g prints inf and nan where format_float refuses them."""
    thr = report.hits_threshold
    finite = np.isfinite(thr)
    if not finite.all():
        raise _non_finite(float(thr[~finite][0]))
    return (
        sep.join(map(template.__mod__, zip(n, p, q, g, t, map(_BOOL_TEXT.__getitem__, b))))
        for n, p, q, g, t, b in report.iter_hit_chunks()
    )


def _prime_text(primes: np.ndarray) -> Iterator[str]:
    """The index,prime rows as text, one string per chunk of _HIT_ROWS rows."""
    step = _ratios._HIT_ROWS
    for lo in range(0, len(primes), step):
        rows = enumerate(primes[lo : lo + step].tolist(), start=lo + 1)
        yield "".join(map(_CSV_PRIME_ROW.__mod__, rows))


# ---------------------------------------------------------------------------
# encoder


def _to_obj(value):
    """A report value as plain lists, dicts and scalars (rules above)."""
    if is_dataclass(value):
        obj = {
            f.name: _to_obj(v)
            for f in fields(value)
            if not isinstance(v := getattr(value, f.name), np.ndarray)
        }
        if isinstance(value, _NODE_TYPES):
            obj["op"] = type(value).__name__.lower()
        elif isinstance(value, GapStats):
            obj["note"] = _GAP_NOTE
        elif isinstance(value, ScanReport):
            obj["hits"] = _hit_text(value, _JSON_HIT_ROW, ",")
            obj["borderline_count"] = value.borderline_count
        return obj
    if isinstance(value, (list, tuple)):
        return [_to_obj(v) for v in value]
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, dict):
        if all(isinstance(k, int) for k in value):
            return [[k, _to_obj(v)] for k, v in sorted(value.items())]
        return {k: _to_obj(v) for k, v in value.items()}
    return value


def _json_pieces(value) -> Iterator[str]:
    """JSON text of a _to_obj result, in pieces: keys sorted, floats via
    format_float. to_json joins the pieces once, so no container's text is
    copied into its parent's.

    An iterator holds pre-encoded JSON items (the scan hit chunks); each
    is yielded as it is.
    """
    if isinstance(value, dict):
        yield "{"
        for i, k in enumerate(sorted(value)):
            if not isinstance(k, str):
                raise TypeError(f"JSON object keys must be strings, got {k!r}")
            yield f"{',' if i else ''}{json.dumps(k, ensure_ascii=False)}:"
            yield from _json_pieces(value[k])
        yield "}"
    elif isinstance(value, (list, tuple, Iterator)):
        yield "["
        for i, v in enumerate(value):
            if i:
                yield ","
            if isinstance(value, Iterator):
                yield v
            else:
                yield from _json_pieces(v)
        yield "]"
    elif value is None:
        yield "null"
    elif isinstance(value, (bool, np.bool_)):
        yield "true" if value else "false"
    elif isinstance(value, str):
        yield json.dumps(value, ensure_ascii=False)
    elif isinstance(value, (int, np.integer)):
        yield str(int(value))
    elif isinstance(value, (float, np.floating)):
        yield format_float(float(value))
    else:
        raise TypeError(f"cannot serialize {type(value).__name__} to JSON")


def to_json(report) -> str:
    """Serialize any registered report to deterministic JSON."""
    rtype = _report_type(report)
    if rtype not in _KINDS:
        raise TypeError(f"no JSON schema registered for {type(report).__name__}")
    if rtype == _SERIES:
        doc = {"checkpoints": _to_obj(report)}
    elif rtype == _BOUNDS:
        doc = {
            "bounds": {
                name: {k: v for k, v in _to_obj(e).items() if k != "name"}
                for name, e in report.items()
            }
        }
    else:
        doc = _to_obj(report)
    doc["schema_version"] = SCHEMA_VERSION
    doc["report"] = _KINDS[rtype]
    return "".join(chain(_json_pieces(doc), ["\n"]))


# ---------------------------------------------------------------------------
# decoder (round-trip support)


def _from_obj(hint, value):
    """Inverse of _to_obj for a value of type `hint`."""
    if value is None:
        return None
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin in (typing.Union, types.UnionType):
        if isinstance(value, dict):  # an expression node
            cls = _NODES.get(value.get("op"))
            if cls is None:
                raise ValueError(f"unknown expression op {value.get('op')!r}")
            return _from_obj(cls, value)
        if float in args and isinstance(value, int) and not isinstance(value, bool):
            return float(value)
        return value
    if hint is float:
        return float(value)
    if hint is Fraction:
        return Fraction(value)
    if is_dataclass(hint):
        hints = typing.get_type_hints(hint)
        kwargs = {f.name: _from_obj(hints[f.name], value[f.name]) for f in fields(hint) if f.name in value}
        if hint is ScanReport:
            kwargs.update(_hit_columns(value["hits"]))
        return hint(**kwargs)
    if origin is list:
        return [_from_obj(args[0], v) for v in value]
    if origin is tuple:
        if len(args) == 2 and args[1] is Ellipsis:
            return tuple(_from_obj(args[0], v) for v in value)
        return tuple(_from_obj(a, v) for a, v in zip(args, value))
    if origin is dict:
        if args[0] is int:
            return {int(k): _from_obj(args[1], v) for k, v in value}
        return {k: _from_obj(args[1], v) for k, v in value.items()}
    return value


def _hit_columns(rows: list) -> dict[str, np.ndarray]:
    n, p, _q, g, t, b = zip(*rows) if rows else ((),) * len(_HIT_COLUMNS)
    return {
        "hits_n": np.array(n, dtype=np.int64),
        "hits_p": np.array(p, dtype=np.int64),
        "hits_gap": np.array(g, dtype=np.int64),
        "hits_threshold": np.array(t, dtype=np.float64),
        "hits_borderline": np.array(b, dtype=bool),
    }


def parse_report(text: str | bytes):
    """Rebuild a report object from its JSON export."""
    doc = json.loads(text)
    kind = doc.get("report")
    if doc.get("schema_version") != SCHEMA_VERSION:
        raise ValueError(f"unsupported schema version {doc.get('schema_version')!r}")
    if kind not in _TYPES:
        raise ValueError(f"unknown report kind {kind!r}")
    rtype = _TYPES[kind]
    if rtype == _SERIES:
        return _from_obj(_SERIES, doc["checkpoints"])
    if rtype == _BOUNDS:
        return {
            name: _from_obj(GapBoundEntry, {**e, "name": name})
            for name, e in doc["bounds"].items()
        }
    return _from_obj(rtype, doc)


# ---------------------------------------------------------------------------
# CSV


def _fmt_cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, (float, np.floating)):
        return format_float(float(v))
    return str(v)


def _field_table(cls, items):
    names = tuple(f.name for f in fields(cls))
    return names, ([_fmt_cell(getattr(x, name)) for name in names] for x in items)


def _text_table(report) -> Iterator[str] | None:
    """An array-backed table as its header line and row-template chunks;
    None for the tables that csv.writer writes."""
    if isinstance(report, GapBoundSummary):
        report = report.scan
    if isinstance(report, ScanReport):
        return chain([",".join(_HIT_COLUMNS) + "\n"], _hit_text(report, _CSV_HIT_ROW, ""))
    if isinstance(report, np.ndarray) and report.dtype.kind == "i":
        return chain(["index,prime\n"], _prime_text(report))
    return None


def _csv_table(report):
    """A report's CSV schema as (header, rows); int and str cells stay as they are."""
    rtype = _report_type(report)
    if rtype is GapStats:
        return ("gap", "count"), sorted(report.histogram.items())
    if rtype == _SERIES:
        return _field_table(SeriesCheckpoint, report)
    if rtype == _BOUNDS:
        return _field_table(GapBoundEntry, [report[name] for name in sorted(report)])
    raise TypeError(f"no CSV schema registered for {type(report).__name__}")


def to_csv(report) -> str:
    """Serialize a report to its documented CSV schema."""
    text = _text_table(report)
    if text is not None:
        return "".join(text)
    header, rows = _csv_table(report)
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(header)
    w.writerows(rows)
    return buf.getvalue()


def export_report(report, format: str) -> bytes:
    """Render a report in the requested format; UTF-8 bytes out."""
    if format == "json":
        return to_json(report).encode("utf-8")
    if format == "csv":
        return to_csv(report).encode("utf-8")
    raise ValueError(f"unknown export format {format!r}")
