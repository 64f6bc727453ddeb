"""Self-test of the output checks: a correct output passes, and each
corrupted output is rejected.

    python3 bench/run.py --self-test

Runs small commands in-process (400/800 units, 200 bootstrap draws, two
replications), so it takes a few seconds.
"""

from __future__ import annotations

import os
import shutil
from pathlib import Path


import checks
from checks import CheckFailed
from inputs import COVARIATES, write_estimate_inputs


def _flip_digit(data: bytes) -> bytes:
    # Change the last digit of the first float in the second line.
    line_end = data.index(b"\n") + 1
    pos = data.index(b",", line_end) - 1
    return data[:pos] + (b"1" if data[pos:pos + 1] != b"1" else b"2") + data[pos + 1:]


def _run_cli(args):
    import dsm.cli

    code = dsm.cli.main(args)
    if code != 0:
        raise SystemExit(f"self-test: dsm {' '.join(args)} exited {code}")
    out = Path(args[args.index("--out") + 1])
    return out.read_bytes(), Path(f"{out}.meta").read_bytes()


def _table4_output(reps, seed, coverage=0.5):
    rows = ["m,n_a,n_b,scenario,coverage_sample_b,coverage_population"]
    meta = ["table=4", f"seed={seed}", f"reps={reps}", "scale=desk"]
    for m, n_a, n_b in checks.COVERAGE_ROWS:
        for sc in checks.SCENARIOS:
            rows.append(f"{m},{n_a},{n_b},{sc},{coverage!r},0.5")
            meta.append(f"failed_m{m}_{n_a}_{n_b}_{sc}=0")
    meta.append("n_boot=1000")
    return ("\r\n".join(rows) + "\r\n").encode(), ("\n".join(meta) + "\n").encode()


def self_test(work: Path) -> int:
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    os.environ["DSM_THREADS"] = "1"
    seed, m, n_boot = 3, 3, 200
    pa, pb = work / "a.csv", work / "b.csv"
    inputs = write_estimate_inputs(seed, pa, pb, n_a=400, n_b=800)
    est = _run_cli(["estimate", "--sample-a", str(pa), "--sample-b", str(pb),
                    "--covariates", ",".join(COVARIATES), "--m", str(m),
                    "--bootstrap", str(n_boot), "--seed", str(seed),
                    "--out", str(work / "est.csv")])
    t2 = _run_cli(["simulate", "--table", "2", "--reps", "2", "--seed", str(seed),
                   "--out", str(work / "t2.csv")])
    t4 = _table4_output(2, seed)

    def estimate(csv_bytes, meta_bytes):
        checks.check_estimate(csv_bytes, meta_bytes, pa, pb, COVARIATES, m, n_boot, seed, inputs)

    _, _, smat, plan, inner, mu, se = checks.recompute_estimate(pa, pb, COVARIATES, m, n_boot, seed)
    # A B row copying a duplicated A row has three zero-distance donors;
    # swapping two of them breaks only the ascending-index tie order.
    tied = next(i for i in inputs.dup_b_rows if plan.distances[i, 1] == 0.0)
    swapped = plan.j_sets.copy()
    swapped[tied, [0, 1]] = swapped[tied, [1, 0]]
    b_rows = checks.oracle_rows(seed, plan.n_b, inputs.dup_b_rows)
    a_rows = checks.oracle_rows(seed + 1, plan.n_a, inputs.dup_a_rows)

    t2_missing_row = b"".join(t2[0].splitlines(keepends=True)[:-1])
    accepted = [
        ("estimate output", lambda: estimate(*est)),
        ("table 2 output", lambda: checks.check_simulate(*t2, "2", 2, seed)),
        ("table 4 output", lambda: checks.check_simulate(*t4, "4", 2, seed)),
    ]
    rejected = [
        ("estimate CSV with one digit changed", lambda: estimate(_flip_digit(est[0]), est[1])),
        ("estimate .meta with m edited", lambda: estimate(est[0], est[1].replace(b"m=3", b"m=4"))),
        ("B match with two tied donors swapped",
         lambda: checks.check_match_order(smat, swapped, inner.l_sets, b_rows, a_rows)),
        ("B matches in reverse order",
         lambda: checks.check_match_order(smat, plan.j_sets[:, ::-1], inner.l_sets, b_rows, a_rows)),
        ("estimate 10 SEs from the truth", lambda: checks.check_truth(mu + 10 * se, se, inputs.true_mean)),
        ("table 2 with its last row missing", lambda: checks.check_simulate(t2_missing_row, t2[1], "2", 2, seed)),
        ("table 2 run under another seed", lambda: checks.check_simulate(*t2, "2", 2, seed + 1)),
        ("table 4 with a coverage of 1.5",
         lambda: checks.check_simulate(*_table4_output(2, seed, 1.5), "4", 2, seed)),
        ("table 4 with a failure count missing",
         lambda: checks.check_simulate(t4[0], t4[1].replace(b"failed_m3_500_1000_TT=0\n", b""), "4", 2, seed)),
    ]

    ok = True
    for label, check in accepted:
        try:
            check()
            print(f"  accepted  {label}")
        except CheckFailed as err:
            ok = False
            print(f"  WRONG     {label} was rejected: {err}")
    for label, check in rejected:
        try:
            check()
            ok = False
            print(f"  WRONG     {label} was accepted")
        except CheckFailed as err:
            print(f"  rejected  {label}: {err}")
    print("self-test " + ("passed" if ok else "FAILED"))
    if ok:
        shutil.rmtree(work)
    return 0 if ok else 1
