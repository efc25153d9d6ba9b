import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import gaplab
import gaplab.cli as cli
import gaplab.sieve as sieve
from gaplab.cli import RunConfig, UsageError, main, run
from gaplab.sieve import primes_upto, read_prime_dump

from oracles import count_gaps


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
        assert np.array_equal(read_prime_dump(str(dump)), expected)
        if fmt == "json":
            doc = json.loads(out.read_text())
            assert (doc["prime_count"], doc["last_prime"]) == (9592, 99991)
        else:
            assert out.read_text().splitlines()[-1] == "9592,99991"


@pytest.mark.parametrize("segment_size", [64, 101, 4096])
def test_sieve_summary_counts_bitmaps(capsys, monkeypatch, segment_size, set_segment_size):
    def no_blocks(*args, **kwargs):
        raise AssertionError("the summary went through sieve_primes")

    monkeypatch.setattr(cli, "sieve_primes", no_blocks)
    primes = primes_upto(2 * 10**5)
    # final segments [low, limit] that hold no prime: low is a segment
    # start and limit is the last number before the next prime; the widest
    # such segments lie in the largest gaps
    lows = np.arange(3, int(primes[-1]), 2 * segment_size)
    nxt = primes[np.searchsorted(primes, lows)]
    empty = np.flatnonzero(nxt > lows)
    widest = empty[np.argsort(lows[empty] - nxt[empty], kind="stable")[:4]]
    limits = [int(nxt[i]) - 1 for i in widest] + [2 * 10**5]
    set_segment_size(segment_size)
    # a one-number tail sends most segments to the full-segment search
    for tail in (sieve._TAIL, 1):
        monkeypatch.setattr(sieve, "_TAIL", tail)
        for limit in limits:
            code, out, _ = invoke(["sieve", "--limit", str(limit)], capsys)
            below = primes[primes <= limit]
            doc = json.loads(out)
            assert code == 0
            assert (doc["prime_count"], doc["last_prime"]) == (len(below), int(below[-1])), limit


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


def test_parse_emits_canonical_form_and_ast(capsys):
    code, out, _ = invoke(["parse", "--expr", "1/(n^2)"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["expression"] == "1/n^2"
    assert doc["ast"]["op"] == "div"


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
], ids=["output-int", "summary-str", "limit-float", "n_max-str", "checkpoints-int",
        "checkpoints-bool-item", "threads-bool", "segment_size-small"])
def test_bad_config_values_are_usage_errors(tmp_path, capsys, argv, file_values):
    config = tmp_path / "run.json"
    config.write_text(json.dumps(file_values))
    code, out, err = invoke(argv + ["--config", str(config)], capsys)
    assert code == 2
    assert out == ""
    assert json.loads(err)["error"]["type"] == "UsageError"


def test_segment_size_is_neither_a_flag_nor_a_config_key(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["gaps", "--limit", "100", "--segment-size", "64"])
    assert exc.value.code == 2
    capsys.readouterr()
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
    # the child must import the gaplab under test, installed or not
    package_root = str(Path(gaplab.__file__).resolve().parent.parent)
    child_path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "gaplab", *args],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": child_path},
        **kwargs,
    )


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
