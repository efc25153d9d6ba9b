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

The array-backed tables (the scan hit rows in JSON and CSV, and the
index,prime CSV) are written by one text kernel, _HIT_ROWS rows at a
time, with no Python per row. Each column becomes a (rows, width) byte
matrix whose unused positions hold the pad byte 0; the matrices and the
literal separators are stacked side by side, and the pad bytes are
dropped. Integers (%d) are looked up four digits at a time in a table
whose top-group entries carry pads for their leading zeros. The
threshold (%.15g, the same text as format_float) is exact: with
X = floor(log10 t) and k = 14 - X, Dekker's two-product gives
t*10^k = hi + lo with no rounding (10^k is a double for k <= 22). For
10^14 <= hi < 2^50, ulp(hi) <= 1/8 divides 1/2 and |lo| <= ulp(hi)/2,
so the sign of hi - floor(hi) - 1/2, then of lo, then the parity of
floor(hi) decide the round-half-even integer D of t*10^k: the digits
that correctly rounded %.15g prints. D = 10^15 is the carry to X + 1. A
row keeps Python's '%.15g' unless t > 0, -4 <= X <= 14 after the carry
(no exponent form) and hi + lo >= 10^14 (log10 may put X one too high
near a power of ten). Before any row is written, the whole threshold
column is checked, and a non-finite threshold raises the ValueError
that format_float raises.

CSV: each artifact is one table. The two array-backed tables are
written as a header line plus kernel chunks; the others (histogram,
series, bounds) go through csv.writer, which quotes the citations. The
series and bounds headers are their dataclass field names.
"""

from __future__ import annotations

import csv
import functools
import io
import json
import math
import types
import typing
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, fields, is_dataclass
from fractions import Fraction
from itertools import chain

import numpy as np

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


def _report_type(report):
    """The key of `report` in _KINDS; a non-empty container is named by its items."""
    if isinstance(report, list) and report and all(isinstance(r, SeriesCheckpoint) for r in report):
        return _SERIES
    if isinstance(report, dict) and report and all(isinstance(e, GapBoundEntry) for e in report.values()):
        return _BOUNDS
    return type(report)


# ---------------------------------------------------------------------------
# text kernel for the array-backed tables

# rows per kernel chunk: an export holds the byte matrices of one chunk at
# a time, besides the text already written: about 1.8 MB of them (traced)
# at 2^13 rows, half of what 2^14 rows take.
_HIT_ROWS = 1 << 13

_PAD = 0  # fills a field to its width; never a byte of the text
_TOP, _BLANK = 10000, 20000  # offsets of the padded and blank entries in _Tables.digits
_SPLIT = 2.0**27 + 1  # Veltkamp's splitter for 53-bit doubles


class _Tables(typing.NamedTuple):
    digits: np.ndarray  # four ASCII bytes per entry, read as one uint32 (see _tables)
    pow10: np.ndarray  # 10^k for k = 0..18, each exact
    keep: np.ndarray  # row r: 0xFF at the first r of 15 digits, pads after
    lead: np.ndarray  # what precedes the digits of X = -4..-1, then of X >= 0
    bools: np.ndarray  # "false", "true" and a pad


@functools.cache
def _tables() -> _Tables:
    """The kernel's lookup tables, built at its first use, so that runs
    that write no array-backed table never build them. Entry v < 10000 of
    `digits` is v with leading zeros, _TOP + v is v with pads for its
    leading zeros (0 keeps its units digit) and _BLANK is four pads."""
    digits = np.ascontiguousarray(np.indices((10,) * 4, dtype=np.uint8).reshape(4, -1).T) + np.uint8(ord("0"))
    seen = np.logical_or.accumulate(digits != ord("0"), axis=1)
    seen[:, -1] = True
    top = np.where(seen, digits, np.uint8(_PAD))
    blank = np.full((1, 4), _PAD, dtype=np.uint8)
    return _Tables(
        digits=np.vstack([digits, top, blank]).view(np.uint32).ravel(),
        pow10=np.array([10**k for k in range(19)], dtype=np.float64),
        keep=np.where(np.arange(15) < np.arange(16)[:, None], 0xFF, _PAD).astype(np.uint8),
        lead=np.array([b"0.000", b"\x000.00", b"\x00\x000.0", b"\x00\x00\x000.", b""], dtype="S5")
        .view(np.uint8)
        .reshape(5, 5),
        bools=np.array([b"false", b"true"], dtype="S5").view(np.uint8).reshape(2, 5),
    )


def _int_field(x: np.ndarray) -> np.ndarray:
    """%d of each integer in x as a (rows, width) byte matrix."""
    x = x.astype(np.int64, copy=False)
    mag = np.abs(x).view(np.uint64)  # abs(-2^63) wraps to 2^63 as uint64
    width = len(str(int(mag.max(initial=0))))
    groups = -(-width // 4)
    idx = np.empty((len(x), groups), dtype=np.intp)
    rest = mag
    for col in range(groups - 1, -1, -1):
        rest, v = np.divmod(rest, 10000)
        top = rest == 0
        idx[:, col] = np.where(top, v + _TOP, v)
        if col < groups - 1:  # a group above the leading one is blank
            idx[top & (v == 0), col] = _BLANK
    field = _tables().digits[idx].view(np.uint8)
    neg = x < 0
    if neg.any():
        sign = np.where(neg, ord("-"), _PAD).astype(np.uint8)
        field = np.hstack([sign[:, None], field])
    return field


def _two_product(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """hi + lo == a*b exactly (Dekker 1971), barring overflow and underflow."""
    hi = a * b
    c = _SPLIT * a
    a_hi = c - (c - a)
    a_lo = a - a_hi
    c = _SPLIT * b
    b_hi = c - (c - b)
    b_lo = b - b_hi
    lo = ((a_hi * b_hi - hi) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo
    return hi, lo


def _decimal(t: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(D, X, ok) per double: where ok, t rounded to 15 significant digits,
    ties to even, is D * 10^(X - 14) with 10^14 <= D < 10^15 and
    -4 <= X <= 14 (the digits and exponent that %.14e prints). Rows
    without ok hold D = 10^14 and any X. The argument is in the module
    docstring."""
    ok = t > 0
    x = np.floor(np.log10(np.where(ok, t, 1.0)))
    ok &= (x >= -4) & (x <= 14)
    a = np.where(ok, t, 1.0)
    hi, lo = _two_product(a, _tables().pow10[np.where(ok, 14 - x, 0).astype(np.intp)])
    ok &= (hi > 1e14) | (hi == 1e14) & (lo >= 0)
    base = np.floor(hi)
    half = hi - base - 0.5
    up = (half > 0) | (half == 0) & ((lo > 0) | (lo == 0) & (base % 2 == 1))
    d = base + up
    carry = d == 1e15
    x += carry
    ok &= (d <= 1e15) & (x <= 14)
    return np.where(ok & ~carry, d, 1e14).astype(np.int64), x, ok


def _float_field(t: np.ndarray) -> np.ndarray:
    """%.15g of each double in t as a (rows, width) byte matrix; rows that
    _decimal cannot print exactly take Python's text."""
    d, x, ok = _decimal(t)
    tables = _tables()
    # D's 15 digits, then a point byte after each (a pad, or "." after
    # digit X when a digit follows it); digits past both digit X and the
    # last nonzero digit are pads; X < 0 puts "0." and -X - 1 zeros first
    rest, v3 = np.divmod(d, 10000)
    rest, v2 = np.divmod(rest, 10000)
    v0, v1 = np.divmod(rest, 10000)
    digits = tables.digits[np.stack([v0, v1, v2, v3], axis=1)].view(np.uint8)[:, 1:]
    last = 14 - np.argmax(digits[:, ::-1] != ord("0"), axis=1)
    xi = np.clip(x, -4, 14).astype(np.intp)
    body = (digits & tables.keep[np.maximum(xi, last) + 1]).astype("<u2")
    dot = np.flatnonzero((xi >= 0) & (last > xi))
    body[dot, xi[dot]] |= ord(".") << 8
    field = np.hstack([tables.lead[np.minimum(xi, 0) + 4], body.view(np.uint8)])
    if not ok.all():
        # '%.15g' is at most 22 bytes, so the field is wide enough
        text = np.array(["%.15g" % v for v in t[~ok].tolist()], dtype=f"S{field.shape[1]}")
        field[~ok] = text.view(np.uint8).reshape(len(text), -1)
    return field


def _rows(m: int, *cells: np.ndarray | bytes) -> bytes:
    """The text of m rows: each cell a (m, width) byte matrix or a literal
    repeated on every row, side by side, pads dropped."""
    text = np.hstack(
        [np.broadcast_to(np.frombuffer(c, np.uint8), (m, len(c))) if isinstance(c, bytes) else c for c in cells]
    ).tobytes()
    return text.translate(None, bytes([_PAD]))


def _hit_text(report: ScanReport, as_json: bool) -> Iterator[bytes]:
    """The hit rows as text, one bytes object per chunk of _HIT_ROWS rows:
    JSON rows [n,p_n,p_next,g_n,threshold,borderline] joined by commas, or
    CSV lines. The whole threshold column is checked first, because
    %.15g prints inf and nan where format_float refuses them."""
    thr = report.hits_threshold
    finite = np.isfinite(thr)
    if not finite.all():
        raise _non_finite(float(thr[~finite][0]))
    return (_hit_chunk(report, slice(lo, lo + _HIT_ROWS), as_json) for lo in range(0, len(thr), _HIT_ROWS))


def _hit_chunk(report: ScanReport, rows: slice, as_json: bool) -> bytes:
    p, g = report.hits_p[rows], report.hits_gap[rows]
    cells = (
        _int_field(report.hits_n[rows]), b",",
        _int_field(p), b",",
        _int_field(p + g), b",",
        _int_field(g), b",",
        _float_field(report.hits_threshold[rows]), b",",
        _tables().bools[report.hits_borderline[rows].view(np.uint8)],
    )
    if as_json:
        return _rows(len(p), b"[", *cells, b"],")[:-1]
    return _rows(len(p), *cells, b"\n")


def _prime_text(primes: np.ndarray) -> Iterator[bytes]:
    """The index,prime rows as text, one bytes object per chunk of _HIT_ROWS rows."""
    for lo in range(0, len(primes), _HIT_ROWS):
        chunk = primes[lo : lo + _HIT_ROWS]
        index = np.arange(lo + 1, lo + 1 + len(chunk), dtype=np.int64)
        yield _rows(len(chunk), _int_field(index), b",", _int_field(chunk), b"\n")


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
            obj["hits"] = _hit_text(value, as_json=True)
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


def _json_pieces(value) -> Iterator[bytes]:
    """UTF-8 JSON text of a _to_obj result, in pieces: keys sorted, floats
    via format_float.

    An iterator holds pre-encoded JSON items (the scan hit chunks); each
    is yielded as it is.
    """
    if isinstance(value, dict):
        yield b"{"
        for i, k in enumerate(sorted(value)):
            if not isinstance(k, str):
                raise TypeError(f"JSON object keys must be strings, got {k!r}")
            yield f"{',' if i else ''}{json.dumps(k, ensure_ascii=False)}:".encode()
            yield from _json_pieces(value[k])
        yield b"}"
    elif isinstance(value, (list, tuple, Iterator)):
        yield b"["
        for i, v in enumerate(value):
            if i:
                yield b","
            if isinstance(value, Iterator):
                yield v
            else:
                yield from _json_pieces(v)
        yield b"]"
    elif value is None:
        yield b"null"
    elif isinstance(value, (bool, np.bool_)):
        yield b"true" if value else b"false"
    elif isinstance(value, str):
        yield json.dumps(value, ensure_ascii=False).encode()
    elif isinstance(value, (int, np.integer)):
        yield str(int(value)).encode()
    elif isinstance(value, (float, np.floating)):
        yield format_float(float(value)).encode()
    else:
        raise TypeError(f"cannot serialize {type(value).__name__} to JSON")


def _json_document(report) -> Iterable[bytes]:
    """The JSON export of any registered report, in pieces."""
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
    return chain(_json_pieces(doc), [b"\n"])


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


def _csv_document(report) -> Iterable[bytes]:
    """The CSV export of a report, in pieces: an array-backed table as its
    header line and kernel chunks, any other table through csv.writer."""
    if isinstance(report, GapBoundSummary):
        report = report.scan
    if isinstance(report, ScanReport):
        return chain([",".join(_HIT_COLUMNS).encode() + b"\n"], _hit_text(report, as_json=False))
    if isinstance(report, np.ndarray) and report.dtype.kind == "i":
        return chain([b"index,prime\n"], _prime_text(report))
    header, rows = _csv_table(report)
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(header)
    w.writerows(rows)
    return [buf.getvalue().encode()]


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


def export_report(report, format: str) -> bytes:
    """Render a report in the requested format; UTF-8 bytes out."""
    if format == "json":
        pieces = _json_document(report)
    elif format == "csv":
        pieces = _csv_document(report)
    else:
        raise ValueError(f"unknown export format {format!r}")
    buf = io.BytesIO()
    buf.writelines(pieces)
    return buf.getvalue()
