"""perfbench's traced runner still finds every layer boundary it wraps."""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

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
