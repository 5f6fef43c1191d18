"""Smoke test: the quick demos run to completion against the source tree."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
# 05_surfaces_and_orderings is left out: it takes several seconds
DEMOS = ("01_states_and_povms", "02_strategies_by_knowledge", "03_maximin_oracle", "04_monte_carlo")


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_exits_0(demo):
    path = os.pathsep.join(p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / f"{demo}.py")], cwd=ROOT,
                          env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout
