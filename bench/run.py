"""Benchmark of the `dsm` command-line program.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --self-test

Run from anywhere inside a checkout; the program under test is the
checkout's `src/dsm`, put on PYTHONPATH of every child interpreter.
Workloads, metrics, units and bounds are listed in BENCHMARK.json at the
checkout root, which this script reads.

One operation (op) is one `dsm` command in a fresh interpreter
(`python3 -m dsm.cli ...`, which is what the `dsm` script runs).  Ops run
one after another, a closed loop with one client, until `--seconds` have
passed; at least one op runs.  The inputs come from `--seed` alone: the
estimate workload's CSVs are written by `inputs.py`, and the simulate
workloads pass the seed to `dsm simulate`.

The host's speed drifts by tens of percent within minutes on a shared
machine, for the program and for any other code alike.  So every run
also times `reference.py`, fixed work that does not touch `dsm`, in fresh
interpreters: one copy before the first set-up import and after each,
and as many copies at once as the op keeps processes busy (DSM_THREADS,
or 1) before the first op and after each op.  The host factor of an op
or import is the mean of the reference wall times just before and just
after it, over REF_NOMINAL_S, and its wall time is divided by it; its
CPU time is divided by the same ratio taken from the reference CPU time
per copy.  Both then read in seconds on a host where the reference
takes REF_NOMINAL_S.  A change to the program moves them in full; a
change in host speed cancels.  The raw times and the median factor are
printed, and every sample is kept in the results file.

A new op starts only while the last op and its reference runs would still
end within `--seconds`, so a run ends close to its length.

`--trace 0` reports the end-to-end metrics, divided by the host factor:
  setup_s      median wall time of fresh interpreters that only
               `import dsm.cli`, after one untimed warm-up import
  op_s_p50     median over ops of the op wall time, interpreter start-up
               included
  cpu_s_p50    median over ops of the op user+sys CPU, waited-for pool
               workers included
  peak_rss_mb  median over ops of the largest resident set of any process
               the op ran (the op and its pool workers): `wait4`'s
               ru_maxrss.  Linux also carries into it the high-water mark
               of this process when it spawns the op (35-55 MB), which is
               below what `import dsm.cli` alone takes (55 MB).  Not
               divided by the host factor
  reps_per_s   problems one op solves over op_s_p50: replication-scenario
               pairs attempted for `simulate`, one estimation problem for
               `estimate`
Failed ops and failed replications are printed as fail_frac and
rep_fail_frac, and carried by the `attempted`/`failed` counts of the
result; they are 0 on a healthy run, so they are not bounded metrics.

`--trace 1` runs one untraced op for the expected output, then pairs of
plain and traced ops through `traced_cli.py` with DSM_THREADS=1, and
reports the per-layer metrics of the traced ops (medians), plus
trace.overhead_frac (the median over pairs of traced over plain
`cli.main` time, minus one; the pairs alternate which op runs first) and
simulation.rep_fail_frac.  Per-layer times are raw seconds, not divided
by a host factor.

Every op's CSV and `.meta` must be byte-identical to the first op's
(the traced DSM_THREADS=1 ops to the DSM_THREADS=2 reference), and the
first op's output must pass the workload's check in `checks.py`.  A
mismatch or a failed check counts the op as failed.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  Exit status: 0 when every op
passed, 1 when an op failed, 2 when the checkout has no `dsm` sources.
Each run also writes its environment, samples and metrics to
`.bench_work/results/` in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path

import checks
from inputs import write_estimate_inputs
from selftest import self_test
from traced_cli import layer_metrics, median_metrics

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

SETUP_IMPORTS = 5
REFERENCE = BENCH / "reference.py"
# Reference wall time that defines the unit of the end-to-end times.
REF_NOMINAL_S = 0.5
# Ops still running this long after the run started are killed and count
# as failed, so a run ends within 180 s.
DEADLINE_S = 160.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.  table None is `dsm estimate` on the
    generated 4000/8000 CSVs; otherwise `dsm simulate --table T --reps R`
    with DSM_THREADS pinned to `threads`."""

    name: str
    table: str | None = None
    reps: int = 0
    threads: int | None = None

    @property
    def pairs(self) -> int:
        """Problems one op solves (replication-scenario pairs)."""
        if self.table is None:
            return 1
        rows = 1 if self.table == "2" else len(checks.COVERAGE_ROWS)
        return rows * len(checks.SCENARIOS) * self.reps


WORKLOADS = {
    w.name: w
    for w in (
        Workload("estimate_n4k"),
        Workload("scenario_table", table="2", reps=50, threads=2),
        Workload("coverage_grid", table="4", reps=2, threads=2),
    )
}
ESTIMATE_M = 3
ESTIMATE_BOOT = 2000


# -- processes ----------------------------------------------------------

def _kill_group(pid):
    try:
        os.killpg(pid, signal.SIGKILL)
    except OSError:
        pass


@dataclass
class Proc:
    wall_s: float
    cpu_s: float
    peak_mb: float
    code: int


def run_process(argv, env, log, deadline, copies=1) -> Proc:
    """Run `copies` copies of argv, started together, to completion, each
    in its own process group.  The wall time lasts until the last copy
    ends; CPU time is summed, and peak RSS is the largest, over the copies
    and their waited-for children.  The op's pool workers are always
    waited for, and `wait4`'s ru_maxrss folds in the high-water mark of
    every reaped descendant, so it counts them.  The groups are killed at
    the deadline, and the code is then -1; otherwise it is the first
    nonzero exit code, or 0."""
    cpu, peak = 0.0, 0.0
    with open(log, "wb") as out:
        t0 = time.perf_counter()
        procs = [subprocess.Popen(argv, env=env, cwd=ROOT, stdout=out,
                                  stderr=subprocess.STDOUT, start_new_session=True)
                 for _ in range(copies)]
        timer = threading.Timer(max(0.0, deadline - t0),
                                lambda: [_kill_group(p.pid) for p in procs])
        timer.start()
        try:
            for p in procs:
                _, status, usage = os.wait4(p.pid, 0)
                p.returncode = os.waitstatus_to_exitcode(status)
                cpu += usage.ru_utime + usage.ru_stime
                peak = max(peak, usage.ru_maxrss / 1024.0)
            wall = time.perf_counter() - t0
        finally:
            timer.cancel()
            timer.join()
            for p in procs:
                if p.returncode is None:
                    _kill_group(p.pid)
                    p.wait()
    if t0 + wall >= deadline:
        code = -1
    else:
        code = next((p.returncode for p in procs if p.returncode), 0)
    return Proc(wall_s=wall, cpu_s=cpu, peak_mb=peak, code=code)


def child_env(threads) -> dict:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("DSM_THREADS", None)
    if threads is not None:
        env["DSM_THREADS"] = str(threads)
    return env


# -- workloads ----------------------------------------------------------

@dataclass
class Run:
    """State of one benchmark run."""

    workload: Workload
    seed: int
    dir: Path
    deadline: float
    inputs: object = None
    n_ops: int = 0

    def prepare(self):
        if self.workload.table is None:
            self.inputs = write_estimate_inputs(self.seed, self.dir / "a.csv", self.dir / "b.csv")

    def dsm_args(self, out):
        if self.workload.table is None:
            return ["estimate", "--sample-a", str(self.dir / "a.csv"),
                    "--sample-b", str(self.dir / "b.csv"), "--covariates", "x1,x2,x3,x4",
                    "--m", str(ESTIMATE_M), "--bootstrap", str(ESTIMATE_BOOT),
                    "--seed", str(self.seed), "--out", str(out)]
        return ["simulate", "--table", self.workload.table, "--reps", str(self.workload.reps),
                "--seed", str(self.seed), "--out", str(out)]

    def op(self, prefix, threads):
        """Run one op; returns (Proc, (csv bytes, meta bytes) or None)."""
        self.n_ops += 1
        out = self.dir / f"op{self.n_ops}.csv"
        proc = run_process(prefix + self.dsm_args(out), child_env(threads),
                           self.dir / f"op{self.n_ops}.log", self.deadline)
        outputs = None
        if proc.code == 0 and out.exists() and Path(f"{out}.meta").exists():
            outputs = (out.read_bytes(), Path(f"{out}.meta").read_bytes())
        for path in (out, Path(f"{out}.meta")):
            path.unlink(missing_ok=True)
        return proc, outputs

    def check(self, outputs) -> int:
        """Full output check; returns failed replication-scenario pairs."""
        if self.workload.table is None:
            checks.check_estimate(*outputs, self.dir / "a.csv", self.dir / "b.csv",
                                  ("x1", "x2", "x3", "x4"), ESTIMATE_M, ESTIMATE_BOOT,
                                  self.seed, self.inputs)
            return 0
        return checks.check_simulate(*outputs, self.workload.table, self.workload.reps, self.seed)


def verify(run, results):
    """Count failed ops: nonzero exit, missing output, output differing
    from the first op's, or a first output failing the check.  Returns
    (failed, failed replication pairs, messages)."""
    messages, failed, rep_failed = [], 0, 0
    reference = next((outputs for _, outputs in results if outputs is not None), None)
    for i, (proc, outputs) in enumerate(results, start=1):
        if outputs is None:
            failed += 1
            messages.append(f"op {i}: exit code {proc.code}, see op{i}.log")
        elif outputs != reference:
            failed += 1
            messages.append(f"op {i}: output differs from the first output (determinism)")
    if reference is not None:
        try:
            rep_failed = run.check(reference)
        except checks.CheckFailed as err:
            failed = len(results)
            messages.append(f"check failed: {err}")
    return failed, rep_failed, messages


def reference(run, copies) -> Proc:
    """One reference run: `copies` copies of `reference.py` started
    together, with one BLAS thread each."""
    env = dict(child_env(None), **{k: "1" for k in THREAD_VARS})
    log = run.dir / "reference.log"
    proc = run_process([sys.executable, str(REFERENCE)], env, log, run.deadline, copies)
    if proc.code != 0:
        raise SystemExit(f"bench: {REFERENCE.name} failed, see {log}")
    return proc


def host_factors(times):
    """Host factor of each timed process, from the reference times just
    before and just after it."""
    return [(times[i] + times[i + 1]) / 2 / REF_NOMINAL_S for i in range(len(times) - 1)]


def measure_setup(run):
    """Set-up import wall times, and the one-copy reference runs around
    each of them."""
    python = [sys.executable, "-c", "import dsm.cli"]
    log = run.dir / "setup.log"
    warm = run_process(python, child_env(None), log, run.deadline)
    if warm.code != 0:
        raise SystemExit(f"bench: `import dsm.cli` failed, see {log}")
    walls, refs = [], [reference(run, 1).wall_s]
    for _ in range(SETUP_IMPORTS):
        walls.append(run_process(python, child_env(None), log, run.deadline).wall_s)
        refs.append(reference(run, 1).wall_s)
    return walls, refs


def closed_loop(seconds, step):
    """Call step() until `seconds` have passed, starting a call only while
    one as long as the last would still end in time; at least once."""
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        if step() is False:
            return
        last = time.perf_counter() - t0
        if time.perf_counter() + last - start > seconds:
            return


def run_untraced(run, seconds):
    # refs[i] runs just before op i + 1 and refs[i + 1] just after it.
    copies = run.workload.threads or 1
    setup, setup_refs = measure_setup(run)
    refs = [reference(run, copies)]
    results = []

    def step():
        results.append(run.op([sys.executable, "-m", "dsm.cli"], run.workload.threads))
        refs.append(reference(run, copies))

    closed_loop(seconds, step)
    failed, rep_failed, messages = verify(run, results)
    wall_factors = host_factors([r.wall_s for r in refs])
    cpu_factors = host_factors([r.cpu_s / copies for r in refs])
    ok = [(p, w, c) for (p, o), w, c in zip(results, wall_factors, cpu_factors) if o is not None]
    ok = ok or [(p, w, c) for (p, _), w, c in zip(results, wall_factors, cpu_factors)]
    metrics = {
        "setup_s": statistics.median(w / g for w, g in zip(setup, host_factors(setup_refs))),
        "op_s_p50": statistics.median(p.wall_s / w for p, w, _ in ok),
        "cpu_s_p50": statistics.median(p.cpu_s / c for p, _, c in ok),
        "peak_rss_mb": statistics.median(p.peak_mb for p, _, _ in ok),
    }
    metrics["reps_per_s"] = run.workload.pairs / metrics["op_s_p50"]
    samples = {
        "setup_s": setup,
        "op_s": [p.wall_s for p, _ in results],
        "cpu_s": [p.cpu_s for p, _ in results],
        "peak_rss_mb": [p.peak_mb for p, _ in results],
        "exit": [p.code for p, _ in results],
        "reference_s": [r.wall_s for r in refs],
        "reference_cpu_s": [r.cpu_s for r in refs],
        "setup_reference_s": setup_refs,
    }
    extra = {
        "fail_frac": failed / len(results),
        "rep_fail_frac": rep_failed / run.workload.pairs if run.workload.table else 0.0,
        "host_factor": statistics.median(wall_factors),
        "raw.setup_s": statistics.median(setup),
        "raw.op_s_p50": statistics.median(p.wall_s for p, _, _ in ok),
        "raw.cpu_s_p50": statistics.median(p.cpu_s for p, _, _ in ok),
    }
    return results, failed, metrics, extra, samples, messages


def run_traced(run, seconds):
    traced_cli = [sys.executable, str(BENCH / "traced_cli.py"), "--spans"]
    results = [run.op([sys.executable, "-m", "dsm.cli"], run.workload.threads)]
    traced, overhead, pairs = [], [], []

    def step():
        # Alternate which of the pair runs first, so a drift in host speed
        # does not always favour the same side.
        order = (True, False) if len(pairs) % 2 == 0 else (False, True)
        pair = {}
        for plain in order:
            spans = run.dir / f"spans{run.n_ops + 1}.json"
            prefix = traced_cli + [str(spans)] + (["--plain"] if plain else []) + ["--"]
            results.append(run.op(prefix, 1))
            if results[-1][1] is None:
                continue
            with open(spans) as fh:
                record = json.load(fh)
            pair[plain] = record["main_s"]
            if not plain:
                traced.append(layer_metrics(record["spans"]))
        pairs.append(pair)
        if len(pair) == 2:
            overhead.append(pair[False] / pair[True] - 1.0)
        return bool(pair)  # when every op fails, stop; verify() counts them

    closed_loop(seconds, step)
    failed, rep_failed, messages = verify(run, results)
    metrics = median_metrics(traced) if traced else {}
    if overhead:
        metrics["trace.overhead_frac"] = statistics.median(overhead)
    metrics["simulation.rep_fail_frac"] = (
        rep_failed / run.workload.pairs if run.workload.table else 0.0
    )
    samples = {"overhead_frac": overhead, "traced": traced}
    return results, failed, metrics, {}, samples, messages


# -- environment and output --------------------------------------------

def environment(run, trace):
    def version(pkg):
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return None

    sha = None
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, check=True).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "dsm").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": run.workload.name,
        "seed": run.seed,
        "trace": trace,
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "DSM_THREADS": run.workload.threads,
        "DSM_THREADS_traced_ops": 1 if trace else None,
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
    }


def load_spec():
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Benchmark of the dsm CLI.")
    parser.add_argument("--workload", choices=tuple(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="show that the output checks reject corrupted outputs")
    args = parser.parse_args(argv)
    start = time.perf_counter()

    if not (SRC / "dsm" / "cli.py").is_file():
        print(f"bench: no dsm sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.self_test:
        return self_test(WORK / "selftest")
    if args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0:
        parser.error("--seed must be nonnegative")

    spec = load_spec()
    run_dir = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    run_dir.mkdir(parents=True)
    run = Run(WORKLOADS[args.workload], args.seed, run_dir, start + DEADLINE_S)
    run.prepare()
    measure = run_traced if args.trace else run_untraced
    results, failed, values, extra, samples, messages = measure(run, args.seconds)

    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in listed if m["name"] in values}
    env = environment(run, args.trace)
    print(f"workload {run.workload.name}  seed {run.seed}  trace {args.trace}  "
          f"ops {len(results)} (closed loop, 1 client)")
    for name, metric in metrics.items():
        print(f"  {name:40s} {metric['value']:>16.6g} {metric['unit']}")
    for name, value in extra.items():
        print(f"  {name:40s} {value:>16.6g} {'s' if name.startswith('raw.') else 'ratio'}")
    for line in messages:
        print(f"  FAIL {line}")
    print("env " + json.dumps(env, sort_keys=True))

    missing = [m["name"] for m in listed if m["name"] not in metrics]
    if missing:
        messages.append(f"metrics not measured: {missing}")
    correct = failed == 0 and not missing
    result = {"correct": correct, "attempted": len(results), "failed": failed,
              "metrics": metrics}
    (WORK / "results").mkdir(exist_ok=True)
    with open(WORK / "results" / f"{run_dir.name}.json", "w") as fh:
        json.dump({**result, "env": env, "extra": extra, "samples": samples,
                   "messages": messages}, fh, indent=1)
    if correct:
        shutil.rmtree(run_dir)
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
