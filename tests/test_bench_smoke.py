"""Smoke test of the benchmark harness in bench/: its output checks still
reject corrupted outputs, and traced `dsm simulate` and `dsm estimate`
runs report the span counts the per-layer metrics are built from.
Nothing here gates on timing."""

import importlib.util
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


def _bench_module(name):
    """Import bench/<name>.py as module bench_<name>."""
    spec = importlib.util.spec_from_file_location(f"bench_{name}", ROOT / "bench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


def test_bench_self_test_passes():
    assert "self-test passed" in _run(["bench/run.py", "--self-test"]).stdout


def test_traced_simulate_span_counts(tmp_path):
    # One population per replication serves all four scenarios, and each
    # model is fitted once per column set: the two pure scenarios' fits
    # hold the halves of the two mixed ones.
    spans = tmp_path / "spans.json"
    _run(["bench/traced_cli.py", "--spans", str(spans), "--",
          "simulate", "--table", "2", "--reps", "3", "--out", str(tmp_path / "t2.csv")],
         DSM_THREADS="1")
    calls = Counter(s["name"] for s in json.loads(spans.read_text())["spans"])
    assert calls["simulation.gen_population"] == 3
    assert calls["scores.fit_scores"] == 6


def test_traced_estimate_spans_every_pipeline_layer(tmp_path):
    # A CLI that stopped calling a wrapped name would leave its per-layer
    # metrics reading 0; every estimate-side name must show one span.
    pa, pb = tmp_path / "a.csv", tmp_path / "b.csv"
    _bench_module("inputs").write_estimate_inputs(3, pa, pb, n_a=200, n_b=400)
    spans = tmp_path / "spans.json"
    _run(["bench/traced_cli.py", "--spans", str(spans), "--",
          "estimate", "--sample-a", str(pa), "--sample-b", str(pb),
          "--covariates", "x1,x2,x3,x4", "--bootstrap", "50", "--out", str(tmp_path / "e.csv")],
         DSM_THREADS="1")
    recorded = json.loads(spans.read_text())["spans"]
    calls = Counter(s["name"] for s in recorded)
    wrapped = [t.removeprefix("dsm.").replace(":", ".") for t in _bench_module("traced_cli").TARGETS]
    pipeline = [n for n in wrapped if not n.startswith("simulation.")]
    assert {n: calls[n] for n in wrapped} == {n: int(n in pipeline) for n in wrapped}
    # Plain interval: one weight per A-unit; corrected intervals: A and B.
    assert sum(s.get("multipliers", 0) for s in recorded) == 50 * (200 + 2 * 600)
