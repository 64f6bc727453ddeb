"""Smoke test: the walkthroughs in demos/ run to completion against the
current package and leave no files behind."""

import pytest

from support import ROOT, run_python


@pytest.mark.parametrize(
    "demo",
    ["mass_imputation.py", "bootstrap_intervals.py", "cli_workflow.py", "simulation_study.py"],
)
def test_demo_runs(demo, tmp_path):
    # DSM_THREADS bounds the simulation demo's process pool on many-core hosts.
    proc = run_python([str(ROOT / "demos" / demo)], timeout=120, TMPDIR=str(tmp_path),
                      DSM_THREADS="2")
    assert proc.returncode == 0, proc.stderr
    assert list(tmp_path.iterdir()) == []
