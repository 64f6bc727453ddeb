"""Run every workload in BENCHMARK.json under several seeds and summarise
each end-to-end metric by its median, quartiles and spread.  With
`--runs 1` it is the one command that runs every workload once.

    python3 bench/baseline.py [--runs 10] [--first-seed 1] [--traced]
                              [--compare FILE] [--out FILE]

Each run is one `bench/run.py` process with the run length from
BENCHMARK.json, seeds first-seed, first-seed+1, ...  The spread of a
metric is the distance between its first and third quartile
(`statistics.quantiles(values, n=4)`) over its median.  A spread above
the metric's bound makes the set unsteady; one above a third of the
bound is flagged as `above bound/3`, the steadiness the benchmark aims
for, but does not fail.  `--compare FILE` checks every median against
the same workload and metric in an earlier summary and fails when it is
worse by more than the bound.  The exit status is nonzero when an output
check fails, a set is unsteady or a comparison fails.  `--traced` adds
one `--trace 1` run per workload, under the first seed.  The summary
goes to FILE as JSON (default: print only).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def run_once(workload, seed, seconds, trace):
    """One benchmark run; returns (result, env)."""
    argv = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.splitlines()
    env = next((json.loads(line[4:]) for line in lines if line.startswith("env ")), None)
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{' '.join(argv)} exited {proc.returncode}:\n{proc.stdout}{proc.stderr}")
    return json.loads(lines[-1]), env


def summarise(values, bound):
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"values": values, "median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median, "bound": bound}


def main(argv=None) -> int:
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--compare")
    parser.add_argument("--out")
    args = parser.parse_args(argv)

    metrics = {m["name"]: m for m in spec["end_to_end"]}
    earlier = {}
    if args.compare:
        with open(args.compare) as fh:
            earlier = json.load(fh)["workloads"]
    summary = {"run_seconds": spec["run_seconds"], "workloads": {}}
    ok = True
    for workload in (w["name"] for w in spec["workloads"]):
        seeds = list(range(args.first_seed, args.first_seed + args.runs))
        results, envs = [], []
        for seed in seeds:
            result, env = run_once(workload, seed, spec["run_seconds"], 0)
            results.append(result)
            envs.append(env)
            print(f"{workload} seed {seed}, {result['attempted']} ops: " + ", ".join(
                f"{k} {v['value']:.4g} {v['unit']}" for k, v in result["metrics"].items()),
                flush=True)
        entry = {"env": envs[0],
                 "seeds": seeds,
                 "attempted": [r["attempted"] for r in results],
                 "failed": [r["failed"] for r in results],
                 "end_to_end": {}}
        for name, metric in metrics.items() if len(seeds) > 1 else ():
            bound = metric["bound"]
            stats = summarise([r["metrics"][name]["value"] for r in results], bound)
            stats["unit"] = metric["unit"]
            entry["end_to_end"][name] = stats
            unsteady = stats["spread"] > bound
            notes = ["UNSTEADY" if unsteady else "above bound/3" if stats["spread"] > bound / 3 else ""]
            worse = False
            if name in earlier.get(workload, {}).get("end_to_end", {}):
                change = stats["median"] / earlier[workload]["end_to_end"][name]["median"] - 1.0
                worse = (change if metric["better"] == "lower" else -change) > bound
                notes.append(f"vs earlier {change:+.4f}" + (" WORSE" if worse else ""))
            ok &= not (unsteady or worse)
            print(f"  {name:12s} median {stats['median']:.5g} {stats['unit']:5s} "
                  f"spread {stats['spread']:.4f} bound {bound} {' '.join(notes)}")
        if args.traced:
            result, _ = run_once(workload, seeds[0], spec["run_seconds"], 1)
            entry["per_layer"] = {k: v["value"] for k, v in result["metrics"].items()}
        summary["workloads"][workload] = entry
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(summary, fh, indent=1)
            fh.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
