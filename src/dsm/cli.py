"""Command-line interface.

Three subcommands: `impute` writes matched-donor outcome imputations for
the reference sample, `estimate` writes all point estimates with
analytic and bootstrap uncertainty, `simulate` reruns the built-in
Monte Carlo study tables.  Exit codes separate failure families: 2 for
input/schema problems, 3 for numeric/configuration problems, 4 for
fit-convergence problems.  DSM_THREADS caps simulation parallelism.
"""

from __future__ import annotations

import argparse
import sys

from . import __version__
from .errors import (
    DsmError,
    NonConvergence,
    NonpositiveWeight,
    ParseError,
    SchemaMismatch,
    Separation,
)
from .estimators import point_estimates
from .io import RunConfig, load_samples, write_csv, write_meta
from .matching import find_inner_neighbors, find_matches, impute
from .scores import build_score_matrix, fit_scores
from .simulation import (
    COVERAGE_GRID,
    ScenarioSpec,
    run_coverage_grid,
    run_scenario_table,
)
from .uncertainty import (
    BootstrapSpec,
    analytic_variance,
    bootstrap_ci_debiased,
    bootstrap_ci_plain,
    bootstrap_ci_population,
)

_EXIT_SCHEMA = 2
_EXIT_NUMERIC = 3
_EXIT_CONVERGENCE = 4

# --scale presets: replications and bootstrap draws.
_SCALES = {"desk": (500, 1000), "paper": (2000, 2000)}

_TABLE_MODE = {"1": "none", "2": "none", "3": "cubic", "a1": "extreme", "4": "none"}


def _fit_and_match(config: RunConfig):
    a, b = load_samples(config.sample_a, config.sample_b, config)
    fit = fit_scores(a, b)
    smat = build_score_matrix(a, b, fit)
    plan = find_matches(smat, config.m, d_b=b.d)
    return a, b, fit, smat, plan


def _fit_meta(config: RunConfig, fit, plan):
    return {
        "seed": config.seed,
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
    a, b, fit, smat, plan = _fit_and_match(config)
    yhat = impute(plan, a.y)
    f_b = fit.propensity(b.x)
    g_b = fit.prognostic(b.x)

    header = list(config.covariates) + [config.weight, "y_hat", "sampling_score", "prognostic_score"]
    rows = [
        list(b.x[i]) + [b.d[i], yhat[i], f_b[i], g_b[i]]
        for i in range(b.n)
    ]
    write_csv(config.out, header, rows)
    write_meta(config.out + ".meta", _fit_meta(config, fit, plan))


def cmd_estimate(config: RunConfig):
    """Write the full estimate report: point estimates, analytic
    variance, and percentile-inverted bootstrap intervals."""
    a, b, fit, smat, plan = _fit_and_match(config)
    est = point_estimates(plan, fit, a, b)
    j = config.j if config.j is not None else 2 * config.m
    inner = find_inner_neighbors(smat, j)
    var = analytic_variance(plan, a.y, est.mu_b, inner)
    se = (var / plan.n_b) ** 0.5

    n_boot = config.n_boot if config.n_boot is not None else 2000
    bs = BootstrapSpec(n_draws=n_boot, alpha=config.alpha, seed=config.seed)
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
        ci_deb = bootstrap_ci_debiased(plan, fit, a, b, est.mu_b_debiased, bs)
        ci_pop = bootstrap_ci_population(plan, fit, a, b, est.mu_dsm_debiased, bs)
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

    meta = _fit_meta(config, fit, plan)
    meta.update(j=j, n_boot=n_boot, alpha=config.alpha, debias=str(config.debias).lower())
    write_meta(config.out + ".meta", meta)


def _simulate_base(config: RunConfig) -> ScenarioSpec:
    reps, boot = _SCALES[config.scale]
    if config.reps is not None:
        reps = config.reps
    if config.n_boot is not None:
        boot = config.n_boot
    return ScenarioSpec(
        nonlinearity=_TABLE_MODE[config.table],
        m=config.m,
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
        p.add_argument("--outcome", default="y", help="outcome column in sample A")
        p.add_argument("--weight", default="d", help="design-weight column in sample B")
        p.add_argument(
            "--covariates", required=True,
            help="comma-separated covariate column names, shared by both files",
        )
        p.add_argument("--m", type=int, default=3, help="matches per unit")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", required=True, help="output CSV path")

    p_imp = sub.add_parser("impute", help="write matched-donor imputations for sample B")
    add_data_args(p_imp)

    p_est = sub.add_parser("estimate", help="write point estimates and intervals")
    add_data_args(p_est)
    p_est.add_argument("--j", type=int, default=None, help="inner neighbors (default 2*m)")
    p_est.add_argument("--bootstrap", type=int, default=2000, help="bootstrap replicates")
    p_est.add_argument("--alpha", type=float, default=0.05, help="interval miscoverage level")
    p_est.add_argument(
        "--debias", action=argparse.BooleanOptionalAction, default=True,
        help="include bias-corrected estimates and their intervals",
    )

    p_sim = sub.add_parser("simulate", help="rerun a built-in study table")
    p_sim.add_argument("--table", required=True, choices=("1", "2", "3", "4", "a1"))
    p_sim.add_argument("--reps", type=int, default=None, help="override replication count")
    p_sim.add_argument("--bootstrap", type=int, default=None, help="override bootstrap replicates")
    p_sim.add_argument("--m", type=int, default=3, help="matches per unit (tables 1-3, a1)")
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument("--scale", choices=tuple(_SCALES), default="desk")
    p_sim.add_argument("--out", required=True, help="output CSV path")
    return parser


def _config_from(args) -> RunConfig:
    cfg = RunConfig(
        sample_a=getattr(args, "sample_a", None),
        sample_b=getattr(args, "sample_b", None),
        outcome=getattr(args, "outcome", "y"),
        weight=getattr(args, "weight", "d"),
        covariates=tuple(
            c.strip() for c in getattr(args, "covariates", "").split(",") if c.strip()
        ),
        m=getattr(args, "m", 3),
        j=getattr(args, "j", None),
        n_boot=getattr(args, "bootstrap", None),
        alpha=getattr(args, "alpha", 0.05),
        seed=args.seed,
        debias=getattr(args, "debias", True),
        out=args.out,
        table=getattr(args, "table", None),
        reps=getattr(args, "reps", None),
        scale=getattr(args, "scale", "desk"),
    )
    if args.seed < 0:
        raise ValueError("seed must be nonnegative")
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
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
