"""Smoke tests: each experiment script runs with small arguments and exits 0."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_script(name, *args):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=600,
    )


def test_headline_sweep():
    proc = run_script("headline_sweep.py", "--max-m", "3")
    assert proc.returncode == 0, proc.stderr
    assert "mld at a rank-q point" in proc.stdout


def test_oracle_vs_formula():
    proc = run_script("oracle_vs_formula.py", "--samples", "50")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "beta rule" in proc.stdout


def test_nash_survey(tmp_path):
    proc = run_script("nash_survey.py", "--out", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    assert "FAIL" not in proc.stdout
    assert len(list(tmp_path.glob("nash_m*_k*.json"))) == 5
