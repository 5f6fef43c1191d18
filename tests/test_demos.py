"""Smoke test: the quick demos and the README's python examples run to completion against the source tree."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
# 05_surfaces_and_orderings is left out: it takes several seconds
DEMOS = ("01_states_and_povms", "02_strategies_by_knowledge", "03_maximin_oracle", "04_monte_carlo")
README_BLOCKS = re.findall(r"^```python\n(.*?)^```$", (ROOT / "README.md").read_text(), re.MULTILINE | re.DOTALL)


def _run(argv):
    path = os.pathsep.join(p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *argv], cwd=ROOT, env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_exits_0(demo):
    proc = _run([str(ROOT / "demos" / f"{demo}.py")])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout


def test_readme_has_python_examples():
    assert README_BLOCKS


@pytest.mark.parametrize("block", range(len(README_BLOCKS)))
def test_readme_python_example_runs(block):
    proc = _run(["-c", README_BLOCKS[block]])
    assert proc.returncode == 0, proc.stderr
