"""Smoke test: every script under demos/ and every fenced Python block
of README.md runs to completion against the package in src/."""

import os
import pathlib
import re
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
README_BLOCKS = re.findall(
    r"^```python\n(.*?)^```$", (ROOT / "README.md").read_text(encoding="utf-8"), re.M | re.S
)


@pytest.mark.parametrize(
    "argv",
    [[str(d)] for d in DEMOS] + [["-c", block] for block in README_BLOCKS],
    ids=[d.name for d in DEMOS] + [f"README.md-block{i}" for i in range(len(README_BLOCKS))],
)
def test_demo_runs(argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, *argv], capture_output=True, text=True, env=env, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr


def test_demos_are_found():
    assert DEMOS
    assert README_BLOCKS
