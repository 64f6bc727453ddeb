"""Smoke test of the benchmark harness in bench/: its output checks still
reject corrupted outputs, and a traced `dsm simulate` reports the span
counts the per-layer metrics are built from.  Nothing here gates on
timing."""

import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _run(args, **env):
    proc = subprocess.run(
        [sys.executable, *args],
        cwd=ROOT,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src"), **env),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return proc


def test_bench_self_test_passes():
    assert "self-test passed" in _run(["bench/run.py", "--self-test"]).stdout


def test_traced_simulate_span_counts(tmp_path):
    # One population per replication serves all four scenarios; each
    # scenario fits its own scores.
    spans = tmp_path / "spans.json"
    _run(["bench/traced_cli.py", "--spans", str(spans), "--",
          "simulate", "--table", "2", "--reps", "3", "--out", str(tmp_path / "t2.csv")],
         DSM_THREADS="1")
    calls = Counter(s["name"] for s in json.loads(spans.read_text())["spans"])
    assert calls["simulation.gen_population"] == 3
    assert calls["scores.fit_scores"] == 12
