"""Run one `dsm` command in this interpreter and time it per layer.

    python3 bench/traced_cli.py --spans FILE [--plain] -- <dsm arguments>

The command runs through `dsm.cli.main`, exactly as the `dsm` console
script runs it.  Unless `--plain` is given, the public functions that
`dsm.cli` and `dsm.simulation` call are replaced, in every `dsm` module
that holds a reference to them, by wrappers that record one span per
call: name, start, end and the span that caused it.  The program itself
is not edited.  Spans are kept in memory and written to FILE as JSON
when the command ends, together with the wall time of `cli.main`.
`--plain` writes the same file with no spans, which gives the untraced
`cli.main` time that the tracing overhead is measured against.

Pool workers do not report spans back, so traced runs must set
DSM_THREADS=1.  tracemalloc runs only inside the calls whose
temporary-allocation peak is reported (matching and bootstrap), so the
other layers pay no tracing cost for it.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import inspect
import json
import statistics
import sys
import time
import tracemalloc

# Wrapped functions, "module:function".  The layer of a span is the
# module name without the "dsm." prefix.
TARGETS = (
    "dsm.io:load_samples",
    "dsm.io:write_csv",
    "dsm.io:write_meta",
    "dsm.scores:fit_scores",
    "dsm.scores:fit_prognostic",
    "dsm.scores:build_score_matrix",
    "dsm.matching:find_matches",
    "dsm.matching:find_inner_neighbors",
    "dsm.estimators:point_estimates",
    "dsm.uncertainty:analytic_variance",
    "dsm.uncertainty:bootstrap_ci_plain",
    "dsm.uncertainty:bootstrap_ci_debiased",
    "dsm.uncertainty:bootstrap_ci_population",
    "dsm.simulation:run_coverage_grid",
    "dsm.simulation:run_scenario_table",
    "dsm.simulation:run_monte_carlo",
    "dsm.simulation:gen_population",
    "dsm.simulation:poisson_sample",
    "dsm.simulation:pps_sample",
)

_BOOTSTRAPS = ("uncertainty.bootstrap_ci_plain", "uncertainty.bootstrap_ci_debiased",
               "uncertainty.bootstrap_ci_population")
_PEAK = {"matching.find_matches", "matching.find_inner_neighbors", *_BOOTSTRAPS}
_SIM_RUNNERS = ("simulation.run_coverage_grid", "simulation.run_scenario_table",
                "simulation.run_monte_carlo")


def _counts(name, args, result):
    """Work counts of one call, taken from its arguments and result."""
    if name == "io.load_samples":
        return {"rows": result[0].n + result[1].n}
    if name == "scores.fit_scores":
        return {"newton_iterations": result.iterations}
    if name in _BOOTSTRAPS:
        plan = args["plan"]
        units = plan.n_a if name == "uncertainty.bootstrap_ci_plain" else plan.n_a + plan.n_b
        return {"multipliers": result.draws.shape[0] * units}
    return {}


class Tracer:
    """Span recorder.  Each span is a dict with name, parent (index into
    `spans` or None), start, end and optional counts."""

    def __init__(self):
        self.spans = []
        self._open = []

    def span(self, name, fn, args=(), kwargs=None, counts=None):
        """Call fn(*args, **kwargs) inside a span and return its result.
        `counts(result)` adds work counts to the span."""
        kwargs = kwargs or {}
        record = {"name": name, "parent": self._open[-1] if self._open else None}
        self.spans.append(record)
        self._open.append(len(self.spans) - 1)
        own_tracemalloc = name in _PEAK and not tracemalloc.is_tracing()
        if own_tracemalloc:
            tracemalloc.start()
        record["start"] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()
            if own_tracemalloc:
                record["peak_mb"] = tracemalloc.get_traced_memory()[1] / 2**20
                tracemalloc.stop()
        if counts is not None:
            record.update(counts(result))
        return result

    def wrap(self, fn):
        name = fn.__module__.removeprefix("dsm.") + "." + fn.__name__
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.span(
                name, fn, args, kwargs,
                lambda result: _counts(name, signature.bind(*args, **kwargs).arguments, result),
            )

        return wrapper

    def install(self):
        """Replace every reference to a target function held by a loaded
        `dsm` module with its traced wrapper."""
        modules = [m for n, m in sys.modules.items() if n == "dsm" or n.startswith("dsm.")]
        for target in TARGETS:
            module_name, func_name = target.split(":")
            original = getattr(importlib.import_module(module_name), func_name)
            wrapper = self.wrap(original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)


def layer_metrics(spans):
    """Per-layer metrics of one traced command.  A layer that did no work
    reports 0."""
    children = [0.0] * len(spans)
    for s in spans:
        if s["parent"] is not None:
            children[s["parent"]] += s["end"] - s["start"]

    def total(*names, key=None):
        return sum((s["end"] - s["start"]) if key is None else s.get(key, 0)
                   for s in spans if s["name"] in names)

    def calls(name):
        return sum(1 for s in spans if s["name"] == name)

    def peak(*names):
        return max((s["peak_mb"] for s in spans if s["name"] in names and "peak_mb" in s),
                   default=0.0)

    def self_time(*names):
        return sum(s["end"] - s["start"] - children[i]
                   for i, s in enumerate(spans) if s["name"] in names)

    load_s = total("io.load_samples")
    boot_s = total(*_BOOTSTRAPS)
    multipliers = total(*_BOOTSTRAPS, key="multipliers")
    return {
        "cli.main_s": total("cli.main"),
        "cli.self_s": self_time("cli.main"),
        "io.load_samples_s": load_s,
        "io.rows_per_s": total("io.load_samples", key="rows") / load_s if load_s else 0.0,
        "io.write_s": total("io.write_csv", "io.write_meta"),
        "scores.fit_scores_s": total("scores.fit_scores"),
        "scores.fit_scores_calls": calls("scores.fit_scores"),
        "scores.fit_prognostic_calls": calls("scores.fit_prognostic"),
        "scores.newton_iterations": total("scores.fit_scores", key="newton_iterations"),
        "scores.build_score_matrix_s": total("scores.build_score_matrix"),
        "matching.find_matches_s": total("matching.find_matches"),
        "matching.find_matches_peak_mb": peak("matching.find_matches"),
        "matching.find_matches_calls": calls("matching.find_matches"),
        "matching.find_inner_neighbors_s": total("matching.find_inner_neighbors"),
        "matching.find_inner_neighbors_peak_mb": peak("matching.find_inner_neighbors"),
        "estimators.point_estimates_s": total("estimators.point_estimates"),
        "uncertainty.bootstrap_s": boot_s,
        "uncertainty.bootstrap_peak_mb": peak(*_BOOTSTRAPS),
        "uncertainty.multipliers": multipliers,
        "uncertainty.ns_per_multiplier": boot_s / multipliers * 1e9 if multipliers else 0.0,
        "uncertainty.analytic_variance_s": total("uncertainty.analytic_variance"),
        "simulation.gen_population_s": total("simulation.gen_population"),
        "simulation.gen_population_calls": calls("simulation.gen_population"),
        "simulation.sampling_s": total("simulation.poisson_sample", "simulation.pps_sample"),
        "simulation.self_s": self_time(*_SIM_RUNNERS),
    }


def median_metrics(per_op):
    """Median of each layer metric over several traced commands."""
    return {k: statistics.median(m[k] for m in per_op) for k in per_op[0]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spans", required=True, help="JSON file to write")
    parser.add_argument("--plain", action="store_true", help="time cli.main without spans")
    parser.add_argument("dsm_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    dsm_args = args.dsm_args[1:] if args.dsm_args[:1] == ["--"] else args.dsm_args

    import dsm.cli

    tracer = Tracer()
    if not args.plain:
        tracer.install()
    code = tracer.span("cli.main", dsm.cli.main, (dsm_args,))
    main_span = tracer.spans[0]
    with open(args.spans, "w") as fh:
        json.dump({
            "exit": code,
            "main_s": main_span["end"] - main_span["start"],
            "spans": [] if args.plain else tracer.spans,
        }, fh)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
