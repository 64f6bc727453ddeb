"""Command-line interface.

Three subcommands: `impute` writes matched-donor outcome imputations for
the reference sample, `estimate` writes all point estimates with
analytic and bootstrap uncertainty, `simulate` reruns the built-in
Monte Carlo study tables.  Exit codes separate failure families: 2 for
input, schema and output-path problems, 3 for numeric/configuration
problems, 4 for convergence problems.  DSM_THREADS caps the simulation's
processes and the bootstrap's threads (unset: the CPUs it may run on).
"""

from __future__ import annotations

import argparse
import errno
import os
import sys
from dataclasses import fields

from . import __version__
from .errors import (
    DsmError,
    NonConvergence,
    NonpositiveWeight,
    ParseError,
    SchemaMismatch,
    Separation,
)
from .io import RunConfig, load_samples, write_csv, write_meta
from .matching import find_matches, impute
from .scores import build_score_matrix, fit_scores
from .simulation import (
    COVERAGE_GRID,
    ScenarioSpec,
    _analyse,
    run_coverage_grid,
    run_scenario_table,
)
from .uncertainty import BootstrapSpec, _worker_count, analytic_variance, bootstrap_ci_plain

_EXIT_SCHEMA = 2
_EXIT_NUMERIC = 3
_EXIT_CONVERGENCE = 4

# --scale presets: replications and bootstrap draws.
_SCALES = {"desk": (500, 1000), "paper": (2000, 2000)}

_TABLE_MODE = {"1": "none", "2": "none", "3": "cubic", "a1": "extreme", "4": "none"}


def _fit_meta(config: RunConfig, fit, plan):
    return {
        "m": config.m,
        "n_a": plan.n_a,
        "n_b": plan.n_b,
        "newton_iterations": fit.iterations,
        "gradient_norm": fit.grad_norm,
        "sd_sampling_score": fit.sd_f,
        "sd_prognostic_score": fit.sd_g,
    }


def cmd_impute(config: RunConfig):
    """Write one row per sample-B unit: covariates, weight, imputed
    outcome, and both fitted scores."""
    a, b = load_samples(config.sample_a, config.sample_b, config)
    fit = fit_scores(a, b)
    plan = find_matches(build_score_matrix(a, b, fit), config.m, d_b=b.d)
    yhat = impute(plan, a.y)
    f_b = fit.propensity(b.x)
    g_b = fit.prognostic(b.x)

    header = list(config.covariates) + [config.weight, "y_hat", "sampling_score", "prognostic_score"]
    rows = [list(b.x[i]) + [b.d[i], yhat[i], f_b[i], g_b[i]] for i in range(b.n)]
    write_csv(config.out, header, rows)
    write_meta(config.out + ".meta", _fit_meta(config, fit, plan))


def cmd_estimate(config: RunConfig):
    """Write the full estimate report: point estimates, analytic
    variance, and percentile-inverted bootstrap intervals."""
    bs = BootstrapSpec(n_draws=config.n_boot, alpha=config.alpha, seed=config.seed)
    _worker_count()  # a bad DSM_THREADS fails before any CSV is read
    a, b = load_samples(config.sample_a, config.sample_b, config)
    j = config.j if config.j is not None else 2 * config.m
    fit, plan, inner, est, ci_deb, ci_pop = _analyse(
        a, b, config.m, bs if config.debias else None, j=j)
    var = analytic_variance(plan, a.y, est.mu_b, inner)
    se = (var / plan.n_b) ** 0.5
    ci_plain = bootstrap_ci_plain(plan, a.y, est.mu_b, bs)

    rows = [
        ("mu_b", est.mu_b, "", ""),
        ("mu_dsm", est.mu_dsm, "", ""),
        ("dre", est.dre, "", ""),
        ("n_hat", est.n_hat, "", ""),
        ("analytic_variance", var, "", ""),
        ("analytic_se", se, "", ""),
        ("ci_plain", est.mu_b, ci_plain.lo, ci_plain.hi),
    ]
    if config.debias:
        rows[1:1] = [
            ("mu_b_debiased", est.mu_b_debiased, "", ""),
            ("bias_hat", est.bias_hat, "", ""),
        ]
        rows[4:4] = [
            ("mu_dsm_debiased", est.mu_dsm_debiased, "", ""),
            ("bias_hat_weighted", est.bias_hat_weighted, "", ""),
        ]
        rows += [
            ("ci_debiased", est.mu_b_debiased, ci_deb.lo, ci_deb.hi),
            ("ci_population", est.mu_dsm_debiased, ci_pop.lo, ci_pop.hi),
        ]
    write_csv(config.out, ("quantity", "value", "lo", "hi"), rows)

    meta = {"seed": config.seed, **_fit_meta(config, fit, plan)}
    meta.update(j=j, n_boot=config.n_boot, alpha=config.alpha, debias=str(config.debias).lower())
    write_meta(config.out + ".meta", meta)


def _simulate_base(config: RunConfig) -> ScenarioSpec:
    if config.table == "4" and config.m is not None:
        raise ValueError("--m does not apply to table 4: the coverage grid fixes m per row")
    if config.table != "4" and config.n_boot is not None:
        raise ValueError("--bootstrap applies to table 4 only: the other tables build no intervals")
    reps, boot = _SCALES[config.scale]
    if config.reps is not None:
        reps = config.reps
    if config.n_boot is not None:
        boot = config.n_boot
    return ScenarioSpec(
        nonlinearity=_TABLE_MODE[config.table],
        m=ScenarioSpec.m if config.m is None else config.m,
        n_reps=reps,
        n_boot=boot if config.table == "4" else 0,
        seed=config.seed,
    )


def cmd_simulate(config: RunConfig):
    """Rerun a study table and write its rows.

    Tables 1/2 use the linear population (sample-B-mean and
    population-mean views), 3 the squared/cubed covariate distortion,
    a1 the fractional-exponent distortion, 4 the interval-coverage grid.
    """
    base = _simulate_base(config)
    meta = {
        "table": config.table,
        "seed": config.seed,
        "reps": base.n_reps,
        "scale": config.scale,
    }

    if config.table == "4":
        rows = []
        grid = run_coverage_grid(base, COVERAGE_GRID)
        for entry in grid:
            for sc, rep in entry["reports"].items():
                rows.append(
                    (
                        entry["m"], entry["n_a"], entry["n_b"], sc,
                        rep.summary("mu_b_debiased").coverage,
                        rep.summary("mu_dsm_debiased").coverage,
                    )
                )
                meta[f"failed_m{entry['m']}_{entry['n_a']}_{entry['n_b']}_{sc}"] = rep.n_failed
        write_csv(
            config.out,
            ("m", "n_a", "n_b", "scenario", "coverage_sample_b", "coverage_population"),
            rows,
        )
        meta["n_boot"] = base.n_boot
        write_meta(config.out + ".meta", meta)
        return

    reports = run_scenario_table(base)
    if config.table == "1":
        target_key, names = "target_b", ("mu_b", "mu_b_debiased")
        target_label = "sample_b_mean"
    else:
        target_key, names = "target_pop", ("sample_a_mean", "dre", "mu_dsm", "mu_dsm_debiased")
        target_label = "population_mean"

    rows = []
    for sc, rep in reports.items():
        rows.append((sc, target_label, rep.target_mean(target_key), 0.0, 0.0))
        for name in names:
            s = rep.summary(name)
            rows.append((sc, s.name, s.mean, s.rb_pct, s.mse))
        meta[f"failed_{sc}"] = rep.n_failed
    write_csv(config.out, ("scenario", "estimator", "mean", "rb_pct", "mse"), rows)
    write_meta(config.out + ".meta", meta)


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
        p.add_argument("--outcome", help="outcome column in sample A")
        p.add_argument("--weight", help="design-weight column in sample B")
        p.add_argument(
            "--covariates", required=True, type=_column_list,
            help="comma-separated covariate column names, shared by both files",
        )
        p.add_argument("--m", type=int, help="matches per unit")
        p.add_argument("--out", required=True, help="output CSV path")

    # Each dest is a RunConfig field.  An option left unset is left out of
    # the namespace, so RunConfig's default applies.
    no_defaults = {"argument_default": argparse.SUPPRESS}
    p_imp = sub.add_parser(
        "impute", help="write matched-donor imputations for sample B", **no_defaults)
    add_data_args(p_imp)

    p_est = sub.add_parser("estimate", help="write point estimates and intervals", **no_defaults)
    add_data_args(p_est)
    p_est.add_argument("--j", type=int, help="inner neighbors (default 2*m)")
    p_est.add_argument(
        "--bootstrap", dest="n_boot", type=int, default=2000, help="bootstrap replicates",
    )
    p_est.add_argument("--alpha", type=float, help="interval miscoverage level")
    p_est.add_argument(
        "--debias", action=argparse.BooleanOptionalAction,
        help="include bias-corrected estimates and their intervals",
    )
    p_est.add_argument("--seed", type=int, help="bootstrap seed")

    p_sim = sub.add_parser("simulate", help="rerun a built-in study table", **no_defaults)
    p_sim.add_argument("--table", required=True, choices=("1", "2", "3", "4", "a1"))
    p_sim.add_argument("--reps", type=int, help="override replication count")
    p_sim.add_argument("--bootstrap", dest="n_boot", type=int, help="bootstrap replicates (table 4)")
    p_sim.add_argument("--m", type=int, default=None, help="matches per unit (tables 1-3, a1)")
    p_sim.add_argument("--seed", type=int, help="replication seed")
    p_sim.add_argument("--scale", choices=tuple(_SCALES), help="replication preset")
    p_sim.add_argument("--out", required=True, help="output CSV path")
    return parser


def _config_from(args) -> RunConfig:
    names = {f.name for f in fields(RunConfig)}
    cfg = RunConfig(**{k: v for k, v in vars(args).items() if k in names})
    if cfg.seed < 0:
        raise ValueError("seed must be nonnegative")
    # Checked before any work, so a run cannot finish with nowhere to write.
    out_dir = os.path.dirname(cfg.out) or "."
    if not os.path.isdir(out_dir):
        raise FileNotFoundError(errno.ENOENT, "no such directory", out_dir)
    return cfg


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {"impute": cmd_impute, "estimate": cmd_estimate, "simulate": cmd_simulate}
    try:
        handlers[args.command](_config_from(args))
    except (ParseError, SchemaMismatch, NonpositiveWeight) as err:
        print(f"dsm: {err}", file=sys.stderr)
        return _EXIT_SCHEMA
    except (NonConvergence, Separation) as err:
        print(f"dsm: {err}", file=sys.stderr)
        return _EXIT_CONVERGENCE
    except (DsmError, ValueError) as err:
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
