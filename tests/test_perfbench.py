"""perfbench's traced runner still finds every layer boundary it wraps."""

import importlib
import importlib.util
import inspect
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import gaplab
import gaplab.ratios as ratios

TRACED = Path(__file__).resolve().parent.parent / "perfbench" / "traced.py"


def _load_traced():
    spec = importlib.util.spec_from_file_location("perfbench_traced", TRACED)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


BOUNDARIES = _load_traced().BOUNDARIES


@pytest.mark.parametrize(
    "module_name, attr, is_generator",
    [(m, a, gen) for m, a, _name, gen, _count in BOUNDARIES],
    ids=[f"{m}.{a}" for m, a, *_ in BOUNDARIES],
)
def test_traced_boundary_resolves(module_name, attr, is_generator):
    # run.py --trace 1 wraps these names; a missing one fails the traced run
    fn = getattr(importlib.import_module(module_name), attr, None)
    assert callable(fn), f"{module_name}.{attr} is gone"
    # a generator wrapped as a call would time its creation, not its items
    assert inspect.isgeneratorfunction(fn) == is_generator


def test_traced_star_keeps_its_spans(tmp_path):
    # the traced star-2e25 run needs these spans and counts the terms they
    # see; n_max = 2 + _CHUNK makes two probe chunks, the second of one term,
    # so three evaluations and two comparisons per chunk show as 6 and 4.
    # Each evaluation reads its chunk and one index past it, and the sums are
    # cut at the dyadic n from 2 to _CHUNK, at the chunk's end and at n_max
    chunk = ratios._CHUNK
    package_root = str(Path(gaplab.__file__).resolve().parent.parent)
    child_path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    spans_file = tmp_path / "spans.json"
    command = ["star", "--expr", "1/(n*ln(n)^2)", "--r", "1", "--n-max", str(2 + chunk)]
    proc = subprocess.run(
        [sys.executable, str(TRACED), str(spans_file), *command, "--out", str(tmp_path / "star.json")],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": child_path},
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    traced = json.loads(spans_file.read_text(encoding="utf-8"))
    calls = Counter(name for name, *_ in traced["spans"])
    sums = chunk.bit_length() + 1
    assert (calls["expr.eval"], calls["ratios.compare"], calls["accum.sum"]) == (6, 4, sums)
    counts = traced["counts"]
    assert (counts["expr.terms"], counts["accum.terms"]) == (3 * (chunk + 1) + 3 * 2, chunk + 1)
