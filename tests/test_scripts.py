"""Smoke tests of the experiment scripts: each runs to exit 0 and prints its
final verdict line."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("argv, last_line", [
    (["run_completeness_suite.py", "--resolution", "1e-2"], "all COMPLETE"),
    (["run_growth_trend.py", "--nmax", "3", "--resolution", "1e-2"], "ln|d| = 0.693147"),
    (["run_degree_minus1_example.py"], "fixed point free on the invariant set: CONFIRMED"),
])
def test_script_runs_to_its_verdict(argv, last_line):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / argv[0]), *argv[1:]],
                          capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().splitlines()[-1] == last_line
