"""Smoke tests: every demo and the README's library example run as written."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import gaplab

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def _library_block() -> str:
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_runs(demo):
    # the child must import the gaplab under test, installed or not
    package_root = str(Path(gaplab.__file__).resolve().parent.parent)
    child_path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(demo)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": child_path},
    )
    assert proc.returncode == 0, proc.stderr


def test_readme_library_block_runs(capsys):
    exec(compile(_library_block(), "README.md", "exec"), {})
    assert "Finite-range evidence" in capsys.readouterr().out
