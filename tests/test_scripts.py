"""Smoke tests: each experiment script runs with small arguments and exits 0."""

import hashlib
import json
import os
import re
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
    assert len(list(tmp_path.glob("nash_m*_k*.json"))) == 9
    # Each printed digest is that of the JSON report written beside it.
    printed = re.findall(r"\(m=(\d), k=(\d)\):.* digest=([0-9a-f]{16})$", proc.stdout, re.M)
    assert len(printed) == 9
    # The m = 4 reports are those pinned in test_forms.
    assert [digest for m, _, digest in printed if m == "4"] == [
        "e36002069fddab80", "ccd60f92c4738333", "d6eda88fa7139c10", "dfd6805906558773",
    ]
    for m, k, digest in printed:
        data = json.loads((tmp_path / f"nash_m{m}_k{k}.json").read_text())
        data.pop("elapsed_seconds")
        for entry in data["subsets"]:
            entry.pop("seconds")
        text = json.dumps(data, sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest()[:16] == digest, (m, k)
