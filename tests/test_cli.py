import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import gaplab
import gaplab.cli as cli
import gaplab.ratios as ratios
from gaplab.cli import RunConfig, UsageError, main, run
from gaplab.sieve import PrimeBlock, prime_count, primes_upto

from oracles import count_gaps, is_prime


def invoke(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_bounds_json_to_stdout(capsys):
    code, out, err = invoke(["bounds"], capsys)
    assert code == 0 and err == ""
    doc = json.loads(out)
    assert doc["bounds"]["zhang"]["bound"] == 70_000_000


def test_bounds_csv(capsys):
    code, out, _ = invoke(["bounds", "--format", "csv"], capsys)
    assert code == 0
    assert out.splitlines()[0] == "name,bound,citation"


def test_sieve_summary_and_csv(tmp_path, capsys):
    out_file = tmp_path / "primes.csv"
    code, _, _ = invoke(
        ["sieve", "--limit", "10", "--format", "csv", "--out", str(out_file)], capsys
    )
    assert code == 0
    assert out_file.read_text().splitlines() == ["index,prime", "1,2", "2,3", "3,5", "4,7"]
    code, out, _ = invoke(["sieve", "--limit", "100"], capsys)
    assert json.loads(out)["prime_count"] == 25


def test_sieve_dump(tmp_path, capsys):
    dump = tmp_path / "p.bin"
    code, _, _ = invoke(["sieve", "--limit", "100", "--dump", str(dump)], capsys)
    assert code == 0
    assert dump.read_bytes()[:8] == (2).to_bytes(8, "little")


def test_sieve_dump_is_written_in_the_same_pass(tmp_path, capsys, monkeypatch, set_segment_size):
    passes = []
    sieve_primes = cli.sieve_primes

    def counted(*args, **kwargs):
        passes.append(args)
        return sieve_primes(*args, **kwargs)

    monkeypatch.setattr(cli, "sieve_primes", counted)
    expected = primes_upto(100_000)
    set_segment_size(64)
    for fmt in ("json", "csv"):
        dump, out = tmp_path / f"{fmt}.bin", tmp_path / f"primes.{fmt}"
        passes.clear()
        code, _, _ = invoke(
            ["sieve", "--limit", "100000", "--format", fmt]
            + ["--dump", str(dump), "--out", str(out)],
            capsys,
        )
        assert code == 0 and len(passes) == 1
        assert np.array_equal(np.fromfile(dump, dtype="<i8"), expected)
        if fmt == "json":
            doc = json.loads(out.read_text())
            assert (doc["prime_count"], doc["last_prime"]) == (9592, 99991)
        else:
            assert out.read_text().splitlines()[-1] == "9592,99991"


@pytest.mark.parametrize("segment_size", [64, 101, 4096])
def test_sieve_summary_reads_a_short_window(capsys, monkeypatch, segment_size, set_segment_size):
    starts = []
    sieve_primes = cli.sieve_primes

    def recorded(limit, **kwargs):
        starts.append(kwargs.get("start", 2))
        return sieve_primes(limit, **kwargs)

    monkeypatch.setattr(cli, "sieve_primes", recorded)
    primes = primes_upto(2 * 10**5)
    # limits just below the primes that end the widest gaps, where the
    # window reaches furthest back for its last prime
    widest = np.argsort(-np.diff(primes), kind="stable")[:4]
    limits = [int(primes[i + 1]) - 1 for i in widest] + [2, 3, 4, 4098, 4099, 2 * 10**5]
    set_segment_size(segment_size)
    for limit in limits:
        starts.clear()
        code, out, _ = invoke(["sieve", "--limit", str(limit)], capsys)
        below = primes[primes <= limit]
        doc = json.loads(out)
        assert code == 0
        assert (doc["prime_count"], doc["last_prime"]) == (len(below), int(below[-1])), limit
        # below 1.16e11 the window is _SUMMARY_WINDOW wide
        assert starts == [max(2, limit - cli._SUMMARY_WINDOW)], limit


def test_sieve_summary_below_the_maximal_gap_382(capsys):
    # the maximal gap 382 runs from 10,726,904,659 to 10,726,905,041, the
    # first x of the Ramaré–Saouter interval theorem
    limit = 10_726_905_040
    code, out, _ = invoke(["sieve", "--limit", str(limit)], capsys)
    doc = json.loads(out)
    assert code == 0
    assert doc["last_prime"] == 10_726_904_659
    assert is_prime(doc["last_prime"])
    assert not any(is_prime(m) for m in range(doc["last_prime"] + 1, limit + 1))
    assert doc["prime_count"] == prime_count(limit)


@pytest.mark.parametrize("limit", [10**12, 2**62])
def test_sieve_summary_window_grows_with_the_limit(capsys, monkeypatch, limit):
    starts = []

    def recorded(limit, *, start):
        # no pi: one stand-in block whose last prime is the limit
        starts.append(start)
        yield PrimeBlock(start_index=1, primes=np.array([limit], dtype=np.int64))

    monkeypatch.setattr(cli, "sieve_primes", recorded)
    code, _, _ = invoke(["sieve", "--limit", str(limit)], capsys)
    assert code == 0
    # ceil(limit / 28,313,999), the Ramaré–Saouter width, in integers
    assert starts == [limit - (limit + 28_313_998) // 28_313_999]


@pytest.mark.parametrize("limit, count, last", [
    (10**10, 455_052_511, 9_999_999_967),
    (10**11, 4_118_054_813, 99_999_999_977),
])
def test_sieve_summary_matches_published_values(capsys, limit, count, last):
    # pi(10^k) is OEIS A006880 and the largest prime below 10^k is A003618
    code, out, _ = invoke(["sieve", "--limit", str(limit)], capsys)
    doc = json.loads(out)
    assert code == 0
    assert (doc["prime_count"], doc["last_prime"]) == (count, last)


def test_scan_csv_twin_rows(tmp_path, capsys, oracle_primes_1m):
    hits = tmp_path / "hits.csv"
    code, _, _ = invoke(
        ["scan", "--r", "2", "--epsilon", "0", "--limit", "10000", "--out", str(hits)]
        + ["--format", "csv"],
        capsys,
    )
    assert code == 0
    rows = hits.read_text().splitlines()[1:]
    twin_rows = [r for r in rows if r.split(",")[3] == "2"]
    assert len(twin_rows) == count_gaps(oracle_primes_1m, 2, 10**4)


def test_scan_csv_twin_rows_at_1e6(tmp_path, capsys):
    hits = tmp_path / "hits.csv"
    code, _, _ = invoke(
        ["scan", "--r", "2", "--epsilon", "0", "--limit", "1000000",
         "--out", str(hits), "--format", "csv"],
        capsys,
    )
    assert code == 0
    gap2_rows = [r for r in hits.read_text().splitlines()[1:] if r.split(",")[3] == "2"]
    assert len(gap2_rows) == 8169


def test_scan_summary_flag(capsys):
    code, out, _ = invoke(
        ["scan", "--r", "2", "--limit", "1000", "--summary"], capsys
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["report"] == "gap_bound_summary"
    assert "statement" in doc


def test_parse_reports_syntax_position(capsys):
    code, out, err = invoke(["parse", "--expr", "1/(n^"], capsys)
    assert code == 2
    assert out == ""
    doc = json.loads(err)
    assert doc["error"]["position"] == 5
    assert doc["error"]["type"] == "ExprSyntaxError"


@pytest.mark.parametrize("text, position", [("n^²", 2), ("١", 0)],
                         ids=["superscript-exponent", "arabic-indic"])
def test_parse_reports_a_non_ascii_digit_with_its_offset(capsys, text, position):
    code, out, err = invoke(["parse", "--expr", text], capsys)
    assert (code, out) == (2, "")
    assert err.count("\n") == 1
    error = json.loads(err)["error"]
    assert (error["type"], error["position"]) == ("ExprSyntaxError", position)


def test_parse_emits_canonical_form_and_ast(capsys):
    code, out, _ = invoke(["parse", "--expr", "1/(n^2)"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["expression"] == "1/n^2"
    assert doc["ast"]["op"] == "div"


@pytest.mark.parametrize("text, printed", [("-(n-2)", "-(n - 2)"), ("-n", "-n"), ("--n", "--n")])
def test_parse_takes_an_expr_value_that_starts_with_a_minus(capsys, text, printed):
    # argparse alone reads such a value as a flag and leaves --expr without one
    code, out, err = invoke(["parse", "--expr", text], capsys)
    assert (code, err) == (0, "")
    assert json.loads(out)["expression"] == printed
    assert invoke(["parse", f"--expr={text}"], capsys) == (0, out, "")


def test_star_takes_an_expr_value_that_starts_with_a_minus(capsys):
    argv = ["--r", "1", "--n-max", "1024"]
    code, out, err = invoke(["star", "--expr", "-(-1/n^2)", *argv], capsys)
    assert (code, err) == (0, "")
    assert invoke(["star", "--expr=-(-1/n^2)", *argv], capsys) == (0, out, "")


def test_expr_followed_by_a_flag_is_still_a_usage_error(tmp_path, capsys):
    target = tmp_path / "x.json"
    code, out, err = invoke(["parse", "--expr", "--out", str(target)], capsys)
    assert (code, out) == (2, "")
    assert err.count("\n") == 1
    error = json.loads(err)["error"]
    assert error == {"type": "UsageError", "message": "argument --expr: expected one argument"}
    assert not target.exists()


def test_star_command(capsys):
    code, out, _ = invoke(
        ["star", "--expr", "1/ln(n)^2", "--r", "2", "--n-max", str(2**12)], capsys
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["candidate"] is False
    assert doc["failed_axes"] == ["summability"]


def test_series_command(capsys):
    code, out, _ = invoke(
        ["series", "--limit", "100", "--checkpoints", "4,25", "--format", "csv"], capsys
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "n,p_n,partial_sum,pnt_ratio,loglog_gap"
    assert len(lines) == 3


def test_gaps_command(capsys):
    code, out, _ = invoke(["gaps", "--limit", "1000", "--format", "csv"], capsys)
    assert code == 0
    assert out.splitlines()[0] == "gap,count"


def test_missing_required_flags_are_usage_errors(capsys):
    code, _, err = invoke(["gaps"], capsys)
    assert code == 2
    assert json.loads(err)["error"]["type"] == "UsageError"
    code, _, _ = invoke(["scan", "--limit", "100"], capsys)
    assert code == 2
    code, _, _ = invoke(["parse", "--expr", "n", "--format", "csv"], capsys)
    assert code == 2


def test_computation_errors_exit_1(capsys):
    code, _, err = invoke(
        ["series", "--limit", "100", "--checkpoints", "26"], capsys
    )
    assert code == 1
    assert "exceeds the prime count" in json.loads(err)["error"]["message"]
    # a partial sum beyond the float range
    code, _, err = invoke(["star", "--expr", "10^302", "--r", "2", "--n-max", "2097152"], capsys)
    assert code == 1
    error = json.loads(err)["error"]
    assert error["type"] == "OverflowError"
    assert error["message"] == "partial sum at n=2097152 exceeds the float range"


def test_memory_error_is_a_json_computation_error(capsys, monkeypatch):
    # numpy raises _ArrayMemoryError, a MemoryError, when an allocation fails
    def exhausted():
        raise MemoryError("Unable to allocate 763. MiB for an array")

    monkeypatch.setattr(cli, "literature_bounds", exhausted)
    code, out, err = invoke(["bounds"], capsys)
    assert code == 1 and out == ""
    assert json.loads(err) == {
        "error": {"type": "MemoryError", "message": "Unable to allocate 763. MiB for an array"}
    }


def test_config_file_supplies_defaults_and_flags_win(tmp_path, capsys):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"limit": 10, "format": "csv"}))
    code, out, _ = invoke(["sieve", "--config", str(config)], capsys)
    assert code == 0
    assert out.splitlines()[1] == "1,2"
    code, out, _ = invoke(["sieve", "--config", str(config), "--limit", "100"], capsys)
    assert code == 0
    assert len(out.splitlines()) == 26  # flag limit beats file limit


def test_config_file_rejects_unknown_keys(tmp_path, capsys):
    config = tmp_path / "bad.json"
    config.write_text(json.dumps({"limitt": 10}))
    code, _, err = invoke(["sieve", "--config", str(config), "--limit", "10"], capsys)
    assert code == 2
    assert "unknown key" in json.loads(err)["error"]["message"]


@pytest.mark.parametrize("argv, file_values", [
    (["bounds"], {"output": 1}),
    (["scan", "--limit", "100", "--r", "2"], {"summary": "no"}),
    (["gaps"], {"limit": 1e6}),
    (["star", "--expr", "1/n", "--r", "1"], {"n_max": "65536"}),
    (["series", "--limit", "100"], {"checkpoints": 64}),
    (["series", "--limit", "100"], {"checkpoints": [2, True]}),
    (["sieve", "--limit", "100"], {"threads": True}),
    (["gaps", "--limit", "100"], {"segment_size": 32}),
    # a field the command has no flag for, refused as the flag would be
    (["gaps", "--limit", "100"], {"r": 2}),
    (["bounds"], {"limit": 5}),
    # a file that is not JSON (a str is written as it is), and one that
    # holds a JSON array instead of an object
    (["bounds"], "{bad"),
    (["bounds"], [1, 2]),
], ids=["output-int", "summary-str", "limit-float", "n_max-str", "checkpoints-int",
        "checkpoints-bool-item", "threads-bool", "segment_size-small", "gaps-r", "bounds-limit",
        "not-json", "json-array"])
def test_bad_config_values_are_usage_errors(tmp_path, capsys, argv, file_values):
    config = tmp_path / "run.json"
    config.write_text(file_values if isinstance(file_values, str) else json.dumps(file_values))
    code, out, err = invoke(argv + ["--config", str(config)], capsys)
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1
    assert json.loads(err)["error"]["type"] == "UsageError"


def test_segment_size_is_neither_a_flag_nor_a_config_key(tmp_path, capsys):
    code, out, err = invoke(["gaps", "--limit", "100", "--segment-size", "64"], capsys)
    assert (code, out) == (2, "")
    error = json.loads(err)["error"]
    assert error["type"] == "UsageError"
    assert "unrecognized arguments: --segment-size" in error["message"]
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"segment_size": 64}))
    code, out, err = invoke(["gaps", "--limit", "100", "--config", str(config)], capsys)
    assert (code, out) == (2, "")
    error = json.loads(err)["error"]
    assert error["type"] == "UsageError"
    assert "unknown key 'segment_size'" in error["message"]


def test_config_file_int_fits_a_float_field(tmp_path, capsys):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"r": 2}))
    argv = ["scan", "--limit", "1000", "--summary"]
    code, from_file, _ = invoke(argv + ["--config", str(config)], capsys)
    assert code == 0
    assert from_file == invoke(argv + ["--r", "2"], capsys)[1]


_STAR = "1/(n*ln(n)^2)"


@pytest.mark.parametrize("argv, file_values, flags", [
    (["parse"], {"expression": "1/(n^2)"}, ["--expr", "1/(n^2)"]),
    (["star", "--n-max", "4096"], {"expression": _STAR, "r": 1}, ["--expr", _STAR, "--r", "1"]),
    (["star", "--n-max", "4096", "--r", "1"], {"expression": _STAR}, ["--expr", _STAR]),
    (["scan", "--r", "2", "--limit", "1000"], {"summary": True}, ["--summary"]),
    (["gaps"], {"limit": 1000}, ["--limit", "1000"]),
], ids=["parse", "star", "star-expr-only", "summary", "gaps-limit"])
def test_config_file_values_give_the_bytes_of_their_flags(tmp_path, capsys, argv, file_values,
                                                         flags):
    config = tmp_path / "run.json"
    config.write_text(json.dumps(file_values))
    code, from_file, err = invoke(argv + ["--config", str(config)], capsys)
    assert (code, err) == (0, "")
    assert from_file == invoke(argv + flags, capsys)[1]


@pytest.mark.parametrize("argv, file_values, key, from_flag", [
    (["parse", "--expr", "1/n^3"], {"expression": "1/n^2"}, "expression", "1/n^3"),
    (["star", "--expr", "1/n^2", "--r", "3", "--n-max", "1024"], {"r": 1}, "r", 3),
    (["scan", "--r", "2", "--limit", "1000", "--summary"], {"summary": False},
     "report", "gap_bound_summary"),
], ids=["expression", "r", "summary"])
def test_flags_beat_config_file_values(tmp_path, capsys, argv, file_values, key, from_flag):
    config = tmp_path / "run.json"
    config.write_text(json.dumps(file_values))
    code, out, _ = invoke(argv + ["--config", str(config)], capsys)
    assert code == 0
    assert json.loads(out)[key] == from_flag
    assert out == invoke(argv, capsys)[1]


@pytest.mark.parametrize("argv, message", [
    (["parse"], "'parse' requires --expr"),
    (["star", "--r", "1"], "'star' requires --expr"),
    (["star", "--expr", "1/n^2"], "'star' requires --r"),
    (["gaps", "--limit", "100", "--format", "xml"], "format must be csv or json, got 'xml'"),
    (["gaps", "--limit", "abc"], "argument --limit: invalid int value: 'abc'"),
    (["series", "--limit", "100", "--checkpoints", "4,x"], "bad checkpoint list '4,x'"),
    (["bounds", "--bogus"], "unrecognized arguments: --bogus"),
    (["frob"], "invalid choice: 'frob'"),
    ([], "command must be one of"),
    (["sieve", "--limit", "100", "--threads", "0"], "--threads must be >= 1, got 0"),
    # each flag has one spelling: --ex is no --expr, with or without '='
    (["parse", "--ex", "-n"], "unrecognized arguments: --ex -n"),
    (["parse", "--ex=-n"], "unrecognized arguments: --ex=-n"),
    (["star", "--expr", "1/n^2", "--r", "1", "--n-m", "2048"], "unrecognized arguments: --n-m 2048"),
    (["gaps", "--lim", "100"], "unrecognized arguments: --lim 100"),
], ids=["parse-no-expr", "star-no-expr", "star-no-r", "format-xml", "limit-abc",
        "checkpoints-x", "unknown-flag", "unknown-command", "no-command", "threads-0",
        "abbrev-ex", "abbrev-ex-equals", "abbrev-n-m", "abbrev-lim"])
def test_every_usage_error_is_one_json_object(capsys, argv, message):
    code, out, err = invoke(argv, capsys)
    assert (code, out) == (2, "")
    assert err.count("\n") == 1
    error = json.loads(err)["error"]
    assert error["type"] == "UsageError"
    assert message in error["message"]


def test_help_still_prints_usage_and_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["gaps", "--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert out.startswith("usage: gaplab gaps") and "csv or json" in out


def test_run_config_validation_errors():
    with pytest.raises(UsageError):
        run(RunConfig(command="sieve"))
    with pytest.raises(UsageError):
        run(RunConfig(command="star", expression="1/n"))
    with pytest.raises(UsageError):
        run(RunConfig(command="gaps", limit=100, format="xml"))
    with pytest.raises(UsageError):
        run(RunConfig(command="gaps", limit=100, dump="x.bin"))


def test_stdout_dash_is_stdout(capsys):
    code, out, _ = invoke(["bounds", "--out", "-", "--format", "csv"], capsys)
    assert code == 0
    assert out.startswith("name,bound")


def run_child(args: list[str], **kwargs) -> subprocess.CompletedProcess:
    return run_python(["-m", "gaplab", *args], **kwargs)


def run_python(args: list[str], **kwargs) -> subprocess.CompletedProcess:
    # the child must import the gaplab under test, installed or not
    package_root = str(Path(gaplab.__file__).resolve().parent.parent)
    child_path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": child_path},
        **kwargs,
    )


# Runs main(argv) as `python -m gaplab` does, with the artifact discarded,
# then prints which of the deferred modules the command loaded.
_LOADED_BY_MAIN = """
import json, os, sys
from gaplab.cli import main
code = main([*sys.argv[1:], "--out", os.devnull])
print(json.dumps([code, [m for m in ("mpmath", "concurrent.futures") if m in sys.modules]]))
"""


@pytest.mark.parametrize(
    "argv, loaded",
    [
        pytest.param(argv, loaded, id=argv[0])
        for argv, loaded in [
            (["bounds"], []),
            (["parse", "--expr", "1/(n*ln(n)^2)"], []),
            (["gaps", "--limit", "1000"], ["concurrent.futures"]),
            (["series", "--limit", "1000"], ["concurrent.futures"]),
            (["sieve", "--limit", "1000"], ["concurrent.futures"]),
            # every hit at r = 2 to 1e5 is decided in float64, with no recheck
            (["scan", "--r", "2", "--limit", "100000"], ["concurrent.futures"]),
            (["star", "--expr", "1/(n*ln(n)^2)", "--r", "1", "--n-max", "1024"], ["mpmath"]),
        ]
    ],
)
def test_each_command_loads_only_the_deferred_modules_it_uses(argv, loaded):
    # mpmath is the exact lane's, and a prime stream's read-ahead needs
    # concurrent.futures: a command that uses neither must not pay to import it
    proc = run_python(["-c", _LOADED_BY_MAIN, *argv])
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [0, loaded]


def test_a_recheck_in_a_fresh_interpreter_loads_mpmath():
    # a knife-edge pair: r sits 1e-13 relative above the pair's own excess
    args = (1000, 7919, 8, 6.9784116974191965, 0.0)
    code = (
        "import json, sys\n"
        "from gaplab.ratios import _recheck_mp\n"
        "before = 'mpmath' in sys.modules\n"
        f"pair = _recheck_mp(*{args!r})\n"
        "print(json.dumps([before, 'mpmath' in sys.modules, pair]))\n"
    )
    in_process = ratios._recheck_mp(*args)
    assert in_process == (True, True)
    proc = run_python(["-c", code])
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [False, True, list(in_process)]


def test_console_entry_point_runs():
    proc = run_child(["sieve", "--limit", "50"])
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["prime_count"] == 15


def test_power_tower_fails_fast_instead_of_hanging():
    # the exponent is about 10^31000: an unsaturated mpmath.power never
    # returns, and no signal interrupts it, so only a child can time out
    proc = run_child(["star", "--expr", "1.5^(ln(3)^15^5)/n^2", "--r", "1"], timeout=30)
    assert proc.returncode == 1
    assert "not finite" in proc.stderr


@pytest.mark.parametrize("text, error, message", [
    ("1/(n^100*10^250)", "PositivityError",
     "not a positive sequence at n=4: '1/(n^100*10^250)' "
     "(exact zero; rapidly decaying sequences can underflow the float64 lane)"),
    ("1/(n^400-n^400+n^2)", "EvalError",
     "evaluation of '1/(n^400 - n^400 + n^2)' is not finite at n=6"),
], ids=["overflow-to-zero", "inf-minus-inf"])
def test_a_float64_overflow_is_one_json_error_and_no_numpy_warning(text, error, message):
    # the child keeps Python's default filters, which would print numpy's
    # RuntimeWarning on stderr ahead of the JSON error
    proc = run_child(["star", "--expr", text, "--r", "1", "--n-max", "1024"])
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr.count("\n") == 1
    assert json.loads(proc.stderr)["error"] == {"type": error, "message": message}


def test_identical_runs_produce_identical_bytes(tmp_path):
    files = []
    for tag, threads in (("a", 1), ("b", 8), ("c", 1)):
        out = tmp_path / f"hits_{tag}.csv"
        config = RunConfig(
            command="scan", r=2.0, epsilon=0.0, limit=10**5,
            threads=threads, output=str(out), format="csv",
        )
        assert run(config) == 0
        files.append(out.read_bytes())
    assert files[0] == files[1] == files[2]
