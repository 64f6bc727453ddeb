"""Smoke test: the walkthroughs in demos/ run to completion against the
current package and leave no files behind."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize(
    "demo",
    ["mass_imputation.py", "bootstrap_intervals.py", "cli_workflow.py", "simulation_study.py"],
)
def test_demo_runs(demo, tmp_path):
    # DSM_THREADS bounds the simulation demo's process pool on many-core hosts.
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), TMPDIR=str(tmp_path), DSM_THREADS="2")
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo)],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert list(tmp_path.iterdir()) == []
