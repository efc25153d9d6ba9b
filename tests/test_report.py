import dataclasses
import hashlib
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

from gaplab.expr import parse_sequence
from gaplab.gaps import gpy_statistics, literature_bounds
from gaplab.ratios import (
    GapBoundSummary,
    ScanReport,
    check_candidate,
    estimate_r,
    gap_bound_report,
    prime_ratio_scan,
    summability_probe,
)
from gaplab.report import (
    SCHEMA_VERSION,
    ParsedExpression,
    SieveSummary,
    _decimal,
    _float_field,
    _format_float,
    _int_field,
    _rows,
    export_report,
    parse_report,
)
from gaplab.series import reciprocal_prime_sum
from gaplab.sieve import primes_upto

from test_acceptance import _artifact_bytes


def all_reports():
    tree = parse_sequence("1/ln(n)^2")
    # every node type, Fraction literals with their lexemes included
    every_op = parse_sequence("-(n^2.5 - 3)/ln(n) + 0.125*n")
    return [
        gpy_statistics(10**4),
        reciprocal_prime_sum(10**3),
        reciprocal_prime_sum(100, checkpoints=[1, 4, 25]),  # n = 1: empty columns
        estimate_r(tree, 2**10),
        summability_probe(tree, 2**10),
        check_candidate(tree, 2.0, n_max=2**10),
        check_candidate(parse_sequence("1/n"), 2.0, n_max=2**10),  # r_estimate is a str
        prime_ratio_scan(2.0, 0.0, 10**4),
        prime_ratio_scan(0.01, 0.0, 100),  # no hits
        gap_bound_report(2.0, 0.0, 10**4),
        gap_bound_report(0.01, 0.0, 100),  # no hits: null bound and minima
        literature_bounds(),
        SieveSummary(limit=100, prime_count=25, last_prime=97),
        ParsedExpression(expression="1/ln(n)^2", ast=tree),
        ParsedExpression(expression="-((n^2.5 - 3))/ln(n) + 0.125*n", ast=every_op),
    ]


def test_format_float_is_15_significant_digits():
    assert _format_float(math.pi) == "3.14159265358979"
    assert _format_float(2.0) == "2"
    assert _format_float(0.26153741) == "0.26153741"
    assert _format_float(1e22) == "1e+22"
    with pytest.raises(ValueError):
        _format_float(float("inf"))


def test_json_is_versioned_and_sorted():
    for report in all_reports():
        doc = json.loads(export_report(report, "json"))
        assert doc["schema_version"] == SCHEMA_VERSION
        assert "report" in doc
        keys = list(doc)
        assert keys == sorted(keys)


def test_json_round_trip_reproduces_bytes():
    for report in all_reports():
        first = export_report(report, "json")
        again = export_report(parse_report(first), "json")
        assert again == first, type(report).__name__


def test_scan_report_fields():
    doc = json.loads(export_report(prime_ratio_scan(2.0, 0.0, 10**4), "json"))
    for key in ("r", "epsilon", "hit_count", "min_gap_among_hits", "hits"):
        assert key in doc


def test_histogram_csv_schema():
    text = export_report(gpy_statistics(10**4), "csv")
    lines = text.splitlines()
    assert lines[0] == b"gap,count"
    assert lines[1] == b"1,1"
    assert b"\r" not in text


def test_series_csv_schema():
    lines = export_report(reciprocal_prime_sum(100, checkpoints=[1, 4, 25]), "csv").splitlines()
    assert lines[0] == b"n,p_n,partial_sum,pnt_ratio,loglog_gap"
    # n=1 leaves the undefined columns empty
    assert lines[1].startswith(b"1,2,0.5,,")
    assert len(lines) == 4


def test_scan_csv_schema():
    report = prime_ratio_scan(2.0, 0.0, 100)
    lines = export_report(report, "csv").splitlines()
    assert lines[0] == b"n,p_n,p_next,g_n,threshold,borderline"
    assert lines[1].split(b",")[:4] == [b"2", b"3", b"5", b"2"]
    assert lines[1].endswith(b"false")


def test_bounds_exports():
    table = literature_bounds()
    assert b"70000000" in export_report(table, "json")
    csv_text = export_report(table, "csv")
    assert csv_text.splitlines()[0] == b"name,bound,citation"
    assert b"zhang,70000000" in csv_text


def test_primes_csv():
    lines = export_report(primes_upto(10), "csv").splitlines()
    assert lines == [b"index,prime", b"1,2", b"2,3", b"3,5", b"4,7"]


def test_unknown_type_and_format_are_rejected():
    with pytest.raises(TypeError, match="no JSON schema registered for object"):
        export_report(object(), "json")
    # a field value the walk has no JSON form for, and a non-string object key
    with pytest.raises(TypeError, match="^cannot serialize set to JSON$"):
        export_report(SieveSummary(limit={10}, prime_count=4, last_prime=7), "json")
    with pytest.raises(TypeError, match="JSON object keys must be strings, got 0.5"):
        export_report(SieveSummary(limit={0.5: 10}, prime_count=4, last_prime=7), "json")
    with pytest.raises(TypeError):
        export_report(check_candidate(parse_sequence("1/n"), 2.0, n_max=2**10), "csv")
    with pytest.raises(ValueError):
        export_report(literature_bounds(), "xml")


def test_export_report_returns_bytes():
    data = export_report(SieveSummary(10, 4, 7), "json")
    assert isinstance(data, bytes)
    assert data.decode("utf-8").endswith("\n")


def test_parse_report_rejects_other_versions():
    data = export_report(SieveSummary(10, 4, 7), "json")
    data = data.replace(b'"schema_version":"1"', b'"schema_version":"9"')
    with pytest.raises(ValueError):
        parse_report(data)
    # an unknown report kind, and an expression node with an unknown op
    data = export_report(SieveSummary(10, 4, 7), "json").replace(b'"sieve_summary"', b'"frob"')
    with pytest.raises(ValueError, match="unknown report kind 'frob'"):
        parse_report(data)
    data = export_report(ParsedExpression("ln(n)", parse_sequence("ln(n)")), "json")
    assert b'"op":"ln"' in data
    with pytest.raises(ValueError, match="unknown expression op 'sin'"):
        parse_report(data.replace(b'"op":"ln"', b'"op":"sin"'))


def test_parsed_scan_preserves_arrays():
    report = prime_ratio_scan(2.0, 0.0, 10**3)
    back = parse_report(export_report(report, "json"))
    assert np.array_equal(back.hits_n, report.hits_n)
    assert back.hits_threshold.dtype == np.float64


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


# sha256 of the criterion-10 CLI artifacts, frozen from the hand-written
# per-type serializer that preceded the field-driven one
GOLDEN_CLI_SHA256 = {
    "sieve.csv": "4acd8b01cac5f9704c6c0d6257bd1ad3f82123e76df965821f987514c15959b2",
    "sieve.json": "b0af625bd9cf4fcf2dcb258f12078d670de5cd77425e8ca977b8d92693d7eec4",
    "gaps.csv": "96c8685b3e623fdab246df29924acb9b582d4fbc3483321b570042e9c2cb840e",
    "gaps.json": "33d7e823b17f303eb9968a1153a3d2c8c6aff5b70643b48a94ad6d8e9e9c8b0d",
    "series.csv": "776d29bf39c86a7e025ba029fd80fe47f40e9844c5c3af195f8861de1fff5e68",
    "series.json": "7739a5b7fb473d17fce3b57c401313184178d9bbff1a4b3818978258d34a1fdd",
    "scan.csv": "7d85249df7511fd29669ad27d07ebf63b8149f22f30c38dbba2af7b851a5e099",
    "scan.json": "d83fba8ae16b76fcdbf8ed0381ce3ad843ec911f7695e56b9ccf3c0534ca9615",
    "bounds.csv": "e6b1ed5f3c696812738abca36d128d6627aa8b6b5a09f3dcfb9d378d7c0e7375",
    "bounds.json": "be5a24a3a0686b4d0400ec068851c8ba9e8f7db94cf473930e2215c36aea951b",
    "star.json": "7ad2e5cf40ee15abfb490211661fb89767ec8c88175b94601831be4139e5101a",
    "parse.json": "c074b2d47db41b6da730c9f1faf5dfc1711801f52246bb57280542ba7ce9d885",
}

# (JSON, CSV) sha256 of each all_reports() entry; None: no CSV schema
GOLDEN_REPORT_SHA256 = {
    "0 GapStats": (
        "c4b9832e006019ddbf1894b0ddd78252e9ff9da7c0d499ab7536c99b4ce095df",
        "69d144d41feb3d03d89be9369fce1af8e963cd9c1fdeff64033e7c7330102de0",
    ),
    "1 list": (
        "6b8f37e33d77e92577398d49f67949cf0f9a0de81ae0793c79390ec98953b947",
        "96de1e796f941d7143f00ffce4ef4f70f6a7ecbdb1655bfa592173c901779696",
    ),
    "2 list": (
        "002bcf7eef45b0179f72a2d4e7388681fce51f8449d68d25ded4c9a821b2e05f",
        "aa4cd232d806d6f7af0554115c003d79767f2d6ab7c1d9a9470ae2a8e0fe0c51",
    ),
    "3 RatioDiagnostics": (
        "98644777f9af168ad380fbc1010f056076c123a92c5f7002fb7c4c50ac56b1e7",
        None,
    ),
    "4 SummabilityVerdict": (
        "392209bf868796b1b6a29f0d84ed72732e0ee55eb341b068c0e2b9ff4666e712",
        None,
    ),
    "5 CandidateReport": (
        "98aee26d753208917bd1fbaa1d6e29c0ec77f0e2e0d0d99acde27cc4b47e6d69",
        None,
    ),
    "6 CandidateReport": (
        "9ed682ce1a6be385cd49489acf0b38737fd2dc0a6ab36d462cce35bc8d71a060",
        None,
    ),
    "7 ScanReport": (
        "607f835399ea82966057e58629f6bc076487fdd7759ca25b515a9c7867bd3f63",
        "fd4e10038045acda9e75c9c199c8db035ebfe4592ab202b87ceb777478481d0b",
    ),
    "8 ScanReport": (
        "266a9cab2fd1984941ea4650fc04c4583cad9b8cb9e8b195194b2084061924c5",
        "1fd9621d07cc7a9138b89f1386d59e152b6d724f744f63a3f8ff70a733e455e9",
    ),
    "9 GapBoundSummary": (
        "15426521fda1b7b2881fce51acf5405072f658d7f730e2bc8b6445f2cd33909e",
        "fd4e10038045acda9e75c9c199c8db035ebfe4592ab202b87ceb777478481d0b",
    ),
    "10 GapBoundSummary": (
        "acec723ce3292625aacad18fe0ce7d16727af410892270040e6984eb923ac4de",
        "1fd9621d07cc7a9138b89f1386d59e152b6d724f744f63a3f8ff70a733e455e9",
    ),
    "11 dict": (
        "be5a24a3a0686b4d0400ec068851c8ba9e8f7db94cf473930e2215c36aea951b",
        "e6b1ed5f3c696812738abca36d128d6627aa8b6b5a09f3dcfb9d378d7c0e7375",
    ),
    "12 SieveSummary": (
        "12da455aa6878ee41cf2989f332dbd90f3bce1f836955cd6ea7a748ec35e2102",
        None,
    ),
    "13 ParsedExpression": (
        "77bd7e254b42d4f6025290e00b3c15b34eddaf10f50b15d4cf0fb578de0dad12",
        None,
    ),
    "14 ParsedExpression": (
        "9d51048b03bfcc1833f31a68f989d3fbba5f079936cb1f134153f8387bb4666d",
        None,
    ),
}


def test_cli_artifacts_match_golden_bytes(tmp_path):
    artifacts = _artifact_bytes(tmp_path, "golden", threads=1)
    assert {name: _sha256(data) for name, data in artifacts.items()} == GOLDEN_CLI_SHA256


def _csv_sha256(report) -> str | None:
    try:
        return _sha256(export_report(report, "csv"))
    except TypeError:
        return None


def test_report_exports_match_golden_bytes():
    got = {
        f"{i} {type(report).__name__}": (_sha256(export_report(report, "json")), _csv_sha256(report))
        for i, report in enumerate(all_reports())
    }
    assert got == GOLDEN_REPORT_SHA256


def hand_scan() -> ScanReport:
    """Hit rows no scan fixture exports: a borderline hit, and thresholds
    that print integral (2), in exponent form (1e-05, 1.5e+16), at full
    15 digits and rounded from 0.30000000000000004."""
    return ScanReport(
        r=2.0,
        epsilon=0.5,
        limit=30,
        n_lo=2,
        n_hi=9,
        hit_count=5,
        hits_n=np.array([2, 3, 5, 7, 9], dtype=np.int64),
        hits_p=np.array([3, 5, 11, 17, 23], dtype=np.int64),
        hits_gap=np.array([2, 2, 2, 2, 6], dtype=np.int64),
        hits_threshold=np.array([2.0, 1e-05, 1.5e16, 3.14159265358979, 0.1 + 0.2]),
        hits_borderline=np.array([False, True, False, False, False]),
        min_gap_among_hits=2,
        max_threshold_among_hits=1.5e16,
        tail_min_gap=[(2, 2), (4, 2), (8, 6)],
    )


# sha256 of the hand_scan() exports, frozen from the per-cell encoder that
# preceded the row-template writer
GOLDEN_HAND_SCAN_SHA256 = {
    "scan.json": "d22c00ece65738b0cff5cdd8e6630aa8e8dba5b7a3cefbca9a2675e2a84ac6e5",
    "scan.csv": "6d1abff5e646eec1908c7206fa8f480926e1f22f21324e507cfa75b4405cde0c",
    "summary.json": "b7178448f17b29624c4cf0a59e42f186628ef53c4183447251ca3f2452d603b2",
    "summary.csv": "6d1abff5e646eec1908c7206fa8f480926e1f22f21324e507cfa75b4405cde0c",
}


@pytest.mark.parametrize("hit_rows", [1, 2, 1 << 16])
def test_hand_built_scan_matches_golden_bytes(monkeypatch, hit_rows):
    monkeypatch.setattr("gaplab.report._HIT_ROWS", hit_rows)
    scan = hand_scan()
    summary = GapBoundSummary(scan=scan, implied_bound=15000000000000000, statement="hand-built")
    got = {
        f"{name}.{fmt}": _sha256(export_report(report, fmt))
        for name, report in (("scan", scan), ("summary", summary))
        for fmt in ("json", "csv")
    }
    assert got == GOLDEN_HAND_SCAN_SHA256


# sha256 of exports whose floats come out of accum.exact_block_sum at full
# block length, frozen from the two-fsum kernel that preceded the bin sums
GOLDEN_EXACT_SUM_SHA256 = {
    "series 1e7 json": "bafc940212290dc43db8a63d7b5ad8c6c943ec68990caa891a11d82793b07476",
    "series 1e7 csv": "bc0344b6112cfadd223bd73e6664bd57a577c1425eed5dc91d349ef48ec746ac",
    "1/(n*ln(n)^2)": "9b0985fcc0f21b9d4e7e4fc32b3aee541eca17f81ca54490972868141e0a0885",
    "1/ln(n)^2": "92c3f032ecc23433769973d6f11a1e8071364e1b8088d007a6cde771fa8a03d3",
    # non-monotone terms: the block sums see no ordered input
    "(3+(0-1)^n)/n^2": "e9b4dae0eb9386bf88a17575b08580eacc0fd8e0b5fddd3d62a76c1687fbe974",
}


def test_exact_sum_exports_match_golden_bytes():
    series = reciprocal_prime_sum(10**7)
    got = {f"series 1e7 {fmt}": _sha256(export_report(series, fmt)) for fmt in ("json", "csv")}
    for text in ("1/(n*ln(n)^2)", "1/ln(n)^2", "(3+(0-1)^n)/n^2"):
        got[text] = _sha256(export_report(check_candidate(parse_sequence(text), 1.0, 2, 2**20), "json"))
    assert got == GOLDEN_EXACT_SUM_SHA256


def _float_texts(values) -> list[str]:
    t = np.array(values, dtype=np.float64)
    return _rows(len(t), _float_field(t), b"\n").decode().splitlines()


def _int_texts(values) -> list[str]:
    x = np.array(values, dtype=np.int64)
    return _rows(len(x), _int_field(x), b"\n").decode().splitlines()


@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=50))
def test_float_kernel_is_format_float(xs):
    # both signs, subnormals and exponent form: every finite double, with
    # fallback rows among kernel rows
    assert _float_texts(xs) == [_format_float(x) for x in xs]


@given(st.floats(min_value=1e-4, max_value=1e15, exclude_max=True))
def test_decimal_is_the_digits_of_percent_14e(x):
    d, exp, ok = _decimal(np.array([x]))
    # only the neighbourhood of a power of ten may leave the kernel
    assert ok[0] or abs(x / 10.0 ** round(math.log10(x)) - 1) < 1e-12
    if ok[0]:
        mantissa, exponent = ("%.14e" % x).split("e")
        assert (int(d[0]), int(exp[0])) == (int(mantissa.replace(".", "")), int(exponent))


@pytest.mark.parametrize(
    "x, text",
    [
        (123456789012345.5, "123456789012346"),
        (123456789012344.5, "123456789012344"),
        (12345678901234.25, "12345678901234.2"),
        (12345678901234.75, "12345678901234.8"),
    ],
)
def test_ties_at_the_16th_digit_round_to_even(x, text):
    assert _format_float(x) == text
    assert _decimal(np.array([x]))[2][0]  # printed by the kernel, not the fallback
    assert _float_texts([x]) == [text]


_NEAR_POWERS = [1e15, 1e14, 99999999999999.5, 1e-4, 1e-5, 999.9999999999999, 9.999999999999995e14, 1.0, 0.1]


def test_powers_of_ten_and_their_neighbours():
    xs = np.array(_NEAR_POWERS)
    xs = np.concatenate([np.nextafter(xs, 0), xs, np.nextafter(xs, np.inf)])
    xs = np.concatenate([xs, -xs, [0.0, -0.0, 5e-324, 1.7976931348623157e308]])
    assert _float_texts(xs) == [_format_float(x) for x in xs.tolist()]


def test_integer_kernel_edges():
    edges = [0, 9, 10, 9999, 10000, 99999999, 100000000, 2**63 - 1, -1, -10000, -(2**63)]
    assert _int_texts(edges) == [str(v) for v in edges]
    for v in edges:
        assert _int_texts([v]) == [str(v)]


@given(st.lists(st.integers(-(2**63), 2**63 - 1), min_size=1, max_size=50))
def test_integer_kernel_is_percent_d(xs):
    assert _int_texts(xs) == [str(v) for v in xs]


def test_export_holds_its_bytes_once(monkeypatch):
    """The text is built once, in the buffer export_report returns: the
    peak stays under 1.5 times its length plus a chunk's work space."""
    monkeypatch.setattr("gaplab.report._HIT_ROWS", 1024)
    rows = 10**5
    n = np.arange(2, rows + 2, dtype=np.int64)
    scan = ScanReport(
        r=2.0,
        epsilon=0.0,
        limit=10**13,
        n_lo=2,
        n_hi=rows + 1,
        hit_count=rows,
        hits_n=n,
        hits_p=n * 10**6 + 1,
        hits_gap=np.full(rows, 2, dtype=np.int64),
        hits_threshold=np.linspace(2.0, 3.0, rows),
        hits_borderline=n % 7 == 0,
        min_gap_among_hits=2,
        max_threshold_among_hits=3.0,
    )
    for fmt in ("json", "csv"):
        tracemalloc.start()
        try:
            data = export_report(scan, fmt)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(data) > 4 * 10**6
        assert peak < 1.5 * len(data) + 10**6, (fmt, peak, len(data))


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_non_finite_threshold_is_not_exported(bad):
    scan = hand_scan()
    thresholds = scan.hits_threshold.copy()
    thresholds[3] = bad
    scan = dataclasses.replace(scan, hits_threshold=thresholds)
    summary = GapBoundSummary(scan=scan, implied_bound=None, statement="hand-built")
    for report in (scan, summary):
        for fmt in ("json", "csv"):
            with pytest.raises(ValueError, match="non-finite value cannot be exported"):
                export_report(report, fmt)
