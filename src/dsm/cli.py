"""Command-line interface.

Three subcommands: `impute` writes matched-donor outcome imputations for
the reference sample, `estimate` writes all point estimates with
analytic and bootstrap uncertainty, `simulate` reruns the built-in
Monte Carlo study tables.  Exit codes separate failure families: 2 for
input, schema and output-path problems, 3 for numeric/configuration
problems, 4 for convergence problems; each `dsm.errors` class declares
its status as `exit_code`.  DSM_THREADS caps the simulation's
processes and the bootstrap's threads (unset: the CPUs it may run on);
BLAS runs on one thread unless its thread variables are exported.
"""

from __future__ import annotations

import argparse
import atexit
import errno
import gc
import os
import sys
import warnings
from functools import partial

# Every BLAS call in dsm works on at most 5 columns, so extra BLAS threads
# only spin.  A BLAS library reads these once, as it loads, so they are set
# above the first import that loads numpy.  A value the user exported
# wins; simulation workers inherit the setting.
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")

# Exit's forced collections over the numpy/scipy heap take about 45 ms; an
# atexit freeze, after main() has closed its files, spares them.  Not at
# import, which misses scipy, nor in main(), which freezes a caller's heap.
atexit.register(gc.freeze)

import numpy as np

from . import __version__
from .errors import DsmError, ExtremePropensityWarning
from .io import RunConfig, load_samples, write_csv, write_meta
from .estimators import point_estimates
from .matching import find_inner_neighbors, find_matches, impute
from .scores import build_score_matrix, fit_scores
from .simulation import COVERAGE_GRID, ScenarioSpec, run_coverage_grid, run_scenario_table
from .uncertainty import (
    BootstrapSpec,
    _worker_count,
    analytic_variance,
    bootstrap_ci_debiased,
    bootstrap_ci_plain,
    bootstrap_ci_population,
)

_EXIT_SCHEMA = 2
_EXIT_NUMERIC = 3

# --scale presets: replications and bootstrap draws.
_SCALES = {"desk": (500, 1000), "paper": (2000, 2000)}

# Point estimates in report order.  The bias-corrected estimates and their
# bias terms, which --no-debias leaves out, are the names holding "bias".
_ESTIMATES = (
    "mu_b", "mu_b_debiased", "bias_hat", "mu_dsm", "mu_dsm_debiased",
    "bias_hat_weighted", "dre", "n_hat",
)

_TABLE_MODE = {"1": "none", "2": "none", "3": "cubic", "a1": "extreme", "4": "none"}

_IMPUTE_BLOCK = 16_384  # B units `impute` turns into Python rows at a time


def _fit_meta(args, fit, plan):
    return {
        "m": args.m,
        "n_a": plan.n_a,
        "n_b": plan.n_b,
        "newton_iterations": fit.iterations,
        "gradient_norm": fit.grad_norm,
        "sd_sampling_score": fit.sd_f,
        "sd_prognostic_score": fit.sd_g,
    }


def _load(args):
    return load_samples(args.sample_a, args.sample_b,
                        RunConfig(args.outcome, args.weight, args.covariates))


def cmd_impute(args):
    """Write one row per sample-B unit: covariates, weight, imputed
    outcome, and both fitted scores."""
    a, b = _load(args)
    fit = fit_scores(a, b)
    plan = find_matches(build_score_matrix(a, b, fit), args.m, d_b=b.d)
    yhat = impute(plan, a.y)
    _, f_b, _, g_b = fit._scores(a, b)

    header = list(args.covariates) + [args.weight, "y_hat", "sampling_score", "prognostic_score"]
    cols = (b.x, b.d, yhat, f_b, g_b)
    rows = (row for i in range(0, b.n, _IMPUTE_BLOCK)
            for row in np.column_stack([c[i:i + _IMPUTE_BLOCK] for c in cols]).tolist())
    write_csv(args.out, header, rows)
    write_meta(args.out + ".meta", _fit_meta(args, fit, plan))


def cmd_estimate(args):
    """Write the full estimate report: point estimates, analytic
    variance, and percentile-inverted bootstrap intervals."""
    if args.n_boot < 2:
        raise ValueError(f"--bootstrap must be at least 2, got {args.n_boot}")
    bs = BootstrapSpec(n_draws=args.n_boot, alpha=args.alpha, seed=args.seed)
    _worker_count()  # a bad DSM_THREADS fails before any CSV is read
    a, b = _load(args)
    j = args.j if args.j is not None else 2 * args.m
    fit = fit_scores(a, b)
    smat = build_score_matrix(a, b, fit)
    plan = find_matches(smat, args.m, d_b=b.d)
    inner = find_inner_neighbors(smat, j)  # a bad j fails before any bootstrap
    est = point_estimates(plan, fit, a, b)
    var = analytic_variance(plan, a.y, est.mu_b, inner)
    se = (var / plan.n_b) ** 0.5
    intervals = [("ci_plain", bootstrap_ci_plain(plan, a.y, est.mu_b, bs))]
    if args.debias:
        intervals += [
            ("ci_debiased", bootstrap_ci_debiased(plan, fit, a, b, est.mu_b_debiased, bs)),
            ("ci_population", bootstrap_ci_population(plan, fit, a, b, est.mu_dsm_debiased, bs)),
        ]

    rows = [(name, getattr(est, name), "", "") for name in _ESTIMATES
            if args.debias or "bias" not in name]
    rows += [("analytic_variance", var, "", ""), ("analytic_se", se, "", "")]
    rows += [(name, ci.point, ci.lo, ci.hi) for name, ci in intervals]
    write_csv(args.out, ("quantity", "value", "lo", "hi"), rows)

    meta = {"seed": args.seed, **_fit_meta(args, fit, plan)}
    meta.update(j=j, n_boot=args.n_boot, alpha=args.alpha, debias=str(args.debias).lower())
    write_meta(args.out + ".meta", meta)


def _simulate_base(args) -> ScenarioSpec:
    if args.table == "4" and args.m is not None:
        raise ValueError("--m does not apply to table 4: the coverage grid fixes m per row")
    if args.table != "4" and args.n_boot is not None:
        raise ValueError("--bootstrap applies to table 4 only: the other tables build no intervals")
    if args.table == "4" and args.n_boot is not None and args.n_boot < 2:
        raise ValueError("--bootstrap must be at least 2 for table 4: its coverage needs intervals")
    reps, boot = _SCALES[args.scale]
    return ScenarioSpec(
        nonlinearity=_TABLE_MODE[args.table],
        m=ScenarioSpec.m if args.m is None else args.m,
        n_reps=reps if args.reps is None else args.reps,
        n_boot=0 if args.table != "4" else (boot if args.n_boot is None else args.n_boot),
        seed=args.seed,
    )


def cmd_simulate(args):
    """Rerun a study table and write its rows.

    Tables 1/2 use the linear population (sample-B-mean and
    population-mean views), 3 the squared/cubed covariate distortion,
    a1 the fractional-exponent distortion, 4 the interval-coverage grid.
    """
    base = _simulate_base(args)
    meta = {"table": args.table, "seed": args.seed, "reps": base.n_reps, "scale": args.scale}

    rows = []
    if args.table == "4":
        header = ("m", "n_a", "n_b", "scenario", "coverage_sample_b", "coverage_population")
        for entry in run_coverage_grid(base, COVERAGE_GRID):
            for sc, rep in entry["reports"].items():
                rows.append((entry["m"], entry["n_a"], entry["n_b"], sc,
                             rep.summary("mu_b_debiased").coverage,
                             rep.summary("mu_dsm_debiased").coverage))
                meta[f"failed_m{entry['m']}_{entry['n_a']}_{entry['n_b']}_{sc}"] = rep.n_failed
        meta["n_boot"] = base.n_boot
    else:
        header = ("scenario", "estimator", "mean", "rb_pct", "mse")
        if args.table == "1":
            target_key, names = "target_b", ("mu_b", "mu_b_debiased")
            target_label = "sample_b_mean"
        else:
            target_key, names = "target_pop", ("sample_a_mean", "dre", "mu_dsm", "mu_dsm_debiased")
            target_label = "population_mean"
        for sc, rep in run_scenario_table(base).items():
            rows.append((sc, target_label, rep.target_mean(target_key), 0.0, 0.0))
            for name in names:
                s = rep.summary(name)
                rows.append((sc, s.name, s.mean, s.rb_pct, s.mse))
            meta[f"failed_{sc}"] = rep.n_failed
    write_csv(args.out, header, rows)
    write_meta(args.out + ".meta", meta)


def _column_list(text: str) -> tuple:
    return tuple(c.strip() for c in text.split(",") if c.strip())


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dsm",
        description="Double score matching: mass imputation and population inference.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_data_args(p):
        p.add_argument("--sample-a", required=True, help="volunteer sample CSV")
        p.add_argument("--sample-b", required=True, help="reference sample CSV")
        p.add_argument("--outcome", default=RunConfig.outcome,
                       help="outcome column in sample A (default %(default)s)")
        p.add_argument("--weight", default=RunConfig.weight,
                       help="design-weight column in sample B (default %(default)s)")
        p.add_argument(
            "--covariates", required=True, type=_column_list,
            help="comma-separated covariate column names, shared by both files",
        )
        p.add_argument("--m", type=int, default=ScenarioSpec.m,
                       help="matches per unit (default %(default)s)")
        p.add_argument("--out", required=True, help="output CSV path")

    p_imp = sub.add_parser("impute", help="write matched-donor imputations for sample B")
    add_data_args(p_imp)

    p_est = sub.add_parser("estimate", help="write point estimates and intervals")
    add_data_args(p_est)
    p_est.add_argument("--j", type=int, help="inner neighbors (default 2*m)")
    p_est.add_argument("--bootstrap", dest="n_boot", type=int, default=BootstrapSpec.n_draws,
                       help="bootstrap replicates (default %(default)s)")
    p_est.add_argument("--alpha", type=float, default=BootstrapSpec.alpha,
                       help="interval miscoverage level (default %(default)s)")
    p_est.add_argument(
        "--debias", action=argparse.BooleanOptionalAction, default=True,
        help="include bias-corrected estimates and their intervals",
    )
    p_est.add_argument("--seed", type=int, default=BootstrapSpec.seed,
                       help="bootstrap seed (default %(default)s)")

    # --m and --bootstrap stay None when not given, so misuse can be told
    # apart from a default.
    p_sim = sub.add_parser("simulate", help="rerun a built-in study table")
    p_sim.add_argument("--table", required=True, choices=("1", "2", "3", "4", "a1"))
    p_sim.add_argument("--reps", type=int, help="override the preset's replication count")
    p_sim.add_argument("--bootstrap", dest="n_boot", type=int,
                       help="override the preset's bootstrap replicates (table 4)")
    p_sim.add_argument("--m", type=int,
                       help=f"matches per unit (tables 1-3, a1; default {ScenarioSpec.m})")
    p_sim.add_argument("--seed", type=int, default=ScenarioSpec.seed,
                       help="replication seed (default %(default)s)")
    p_sim.add_argument("--scale", choices=tuple(_SCALES), default="desk",
                       help="replication preset (default %(default)s)")
    p_sim.add_argument("--out", required=True, help="output CSV path")
    return parser


def _show_warning(show, message, category, *where):
    """Print an ExtremePropensityWarning as one `dsm: warning:` line, else call show."""
    if issubclass(category, ExtremePropensityWarning):
        print(f"dsm: warning: {message}", file=sys.stderr)
    else:
        show(message, category, *where)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {"impute": cmd_impute, "estimate": cmd_estimate, "simulate": cmd_simulate}
    try:
        # Checked before any work, so a run cannot finish with nowhere to
        # write, nor write over its own input.
        out_dir = os.path.dirname(args.out) or "."
        if not os.path.isdir(out_dir):
            raise FileNotFoundError(errno.ENOENT, "no such directory", out_dir)
        for path in (args.out, args.out + ".meta"):
            if os.path.isdir(path):
                raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
            for option in ("sample-a", "sample-b"):  # simulate reads no input
                source = getattr(args, option.replace("-", "_"), None)
                if (source and os.path.exists(path) and os.path.exists(source)
                        and os.path.samefile(path, source)):
                    raise FileExistsError(errno.EEXIST, f"output would overwrite --{option}", path)
        for option in ("reps", "m", "j"):  # before any CSV is read or any work done
            value = getattr(args, option, None)
            if value is not None and value < 1:
                raise ValueError(f"--{option} must be at least 1, got {value}")
        with warnings.catch_warnings():
            warnings.showwarning = partial(_show_warning, warnings.showwarning)
            handlers[args.command](args)
    except DsmError as err:
        message = str(err)
        column = getattr(err, "column", None)  # RankDeficient's covariate index
        if column is not None:
            # Name the covariate by its CSV header, as --covariates does.
            message = message.replace(f"column {column} ", f"{args.covariates[column]!r} ", 1)
        print(f"dsm: {message}", file=sys.stderr)
        return err.exit_code
    except ValueError as err:
        print(f"dsm: {err}", file=sys.stderr)
        return _EXIT_NUMERIC
    except MemoryError as err:
        print(f"dsm: out of memory: {err}", file=sys.stderr)
        return _EXIT_NUMERIC
    except OSError as err:
        if err.filename is None:
            raise
        print(f"dsm: {err.filename}: {err.strerror}", file=sys.stderr)
        return _EXIT_SCHEMA
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
