"""End-to-end reproduction checks for the built-in Monte Carlo study.

One test per criterion.  REFERENCE_* hold the relative-bias values at
the design's full replication count; desk runs here use 500
replications, so each comparison carries a Monte Carlo tolerance.
Everything runs at seed 101.
"""

import numpy as np
import pytest

from dsm.estimators import point_estimates
from dsm.matching import find_matches, impute
from dsm.scores import (
    SampleA,
    SampleB,
    ScoreMatrix,
    build_score_matrix,
    fit_propensity,
    fit_scores,
)
from dsm.simulation import (
    ScenarioSpec,
    gen_population,
    run_coverage_grid,
    run_monte_carlo,
    run_scenario_table,
)
from dsm.uncertainty import (
    BootstrapSpec,
    bootstrap_ci_debiased,
    bootstrap_ci_population,
    mammen_draw,
)
from support import TOY_D, TOY_XA, TOY_XB, grid_argmax, oracle_match

SEED = 101
REPS = 500

# Relative bias in percent, by estimator and scenario.
REFERENCE_SAMPLE_B = {
    "mu_b": {"TT": -0.390, "FT": 0.395, "TF": 0.156, "FF": 22.126},
    "mu_b_debiased": {"TT": -0.193, "FT": 0.688, "TF": -0.086, "FF": 22.403},
}
REFERENCE_POPULATION = {
    "mu_dsm": {"TT": -0.107, "FT": 0.518, "TF": 0.345, "FF": 24.693},
    "mu_dsm_debiased": {"TT": -0.105, "FT": 0.564, "TF": 0.044, "FF": 24.777},
    "dre": {"TT": -0.076, "FT": -0.262, "TF": -0.087, "FF": 24.777},
}
REFERENCE_POP_MEAN = 9.278
REFERENCE_SAMPLE_A_RB = 28.331

RB_TOL = 1.0      # percentage points, scenarios with one correct model
RB_TOL_FF = 3.0   # both models wrong: only the rough bias level is stable


@pytest.fixture(scope="module")
def linear_reports():
    return run_scenario_table(ScenarioSpec(nonlinearity="none", n_reps=REPS, seed=SEED))


@pytest.fixture(scope="module")
def cubic_reports():
    spec = ScenarioSpec(nonlinearity="cubic", n_reps=REPS, seed=SEED)
    return run_scenario_table(spec, scenarios=("TT", "TF"))


@pytest.fixture(scope="module")
def extreme_report():
    spec = ScenarioSpec(nonlinearity="extreme", n_reps=REPS, seed=SEED)
    return run_scenario_table(spec, scenarios=("TT",))["TT"]


@pytest.fixture(scope="module")
def coverage_rows():
    base = ScenarioSpec(nonlinearity="none", n_reps=REPS, n_boot=1000, seed=SEED)
    return run_coverage_grid(base, grid=((3, 500, 1000), (5, 1000, 1000)))


def _rb(report, name):
    return report.summary(name).rb_pct


@pytest.mark.slow
def test_criterion_1_sample_b_mean_bias(linear_reports):
    """Matched-donor estimates of the reference-sample mean sit at the
    reference bias levels in all four specification scenarios."""
    for name, cells in REFERENCE_SAMPLE_B.items():
        for sc, want in cells.items():
            got = _rb(linear_reports[sc], name)
            tol = RB_TOL_FF if sc == "FF" else RB_TOL
            print(f"{name} {sc}: rb={got:+.3f} reference={want:+.3f} tol={tol}")
            assert got == pytest.approx(want, abs=tol)
    # The fully specified scenario must also be numerically unproblematic.
    assert linear_reports["TT"].n_failed <= 0.005 * REPS


@pytest.mark.slow
def test_criterion_2_population_mean_bias(linear_reports):
    """Design-weighted estimators of the population mean: anchor value,
    volunteer-sample naive bias, and all estimator biases."""
    tt = linear_reports["TT"]
    pop_mean = tt.target_mean("target_pop")
    naive = _rb(tt, "sample_a_mean")
    print(f"population mean {pop_mean:.4f}; volunteer naive rb {naive:+.3f}")
    assert pop_mean == pytest.approx(REFERENCE_POP_MEAN, abs=0.05)
    assert naive == pytest.approx(REFERENCE_SAMPLE_A_RB, abs=1.5)

    for name, cells in REFERENCE_POPULATION.items():
        for sc, want in cells.items():
            got = _rb(linear_reports[sc], name)
            tol = RB_TOL_FF if sc == "FF" else RB_TOL
            print(f"{name} {sc}: rb={got:+.3f} reference={want:+.3f} tol={tol}")
            assert got == pytest.approx(want, abs=tol)


@pytest.mark.slow
def test_criterion_3_cubic_distortion_ordering(cubic_reports):
    """Under squared/cubed covariate distortion the matching estimator
    stays nearly unbiased while inverse-propensity weighting does not,
    and dropping a covariate hurts the weighted estimator more."""
    dsm_tt = _rb(cubic_reports["TT"], "mu_dsm")
    dre_tt = _rb(cubic_reports["TT"], "dre")
    dsm_tf = _rb(cubic_reports["TF"], "mu_dsm")
    dre_tf = _rb(cubic_reports["TF"], "dre")
    print(f"TT: dsm={dsm_tt:+.3f} dre={dre_tt:+.3f}; TF: dsm={dsm_tf:+.3f} dre={dre_tf:+.3f}")
    assert abs(dsm_tt) < 2.5
    assert abs(dre_tt) > 2.5
    assert dre_tf > dsm_tf


@pytest.mark.slow
def test_criterion_4_extreme_distortion_robustness(extreme_report):
    """Fractional-exponent distortion destabilizes inverse-propensity
    weighting while both matching estimators stay moderately biased."""
    dre = _rb(extreme_report, "dre")
    dsm = _rb(extreme_report, "mu_dsm")
    deb = _rb(extreme_report, "mu_dsm_debiased")
    print(f"dre={dre:+.2f} dsm={dsm:+.3f} debiased={deb:+.3f}")
    assert abs(dre) > 50.0
    assert abs(dsm) < 10.0
    assert abs(deb) < 10.0


@pytest.mark.slow
def test_criterion_5_interval_coverage(coverage_rows):
    """Wild-bootstrap intervals reach nominal 95% coverage on both
    targets whenever one score model is right, and collapse when both
    are wrong."""
    for entry in coverage_rows:
        label = f"m={entry['m']} n_a={entry['n_a']} n_b={entry['n_b']}"
        for sc, rep in entry["reports"].items():
            cov_b = rep.summary("mu_b_debiased").coverage
            cov_pop = rep.summary("mu_dsm_debiased").coverage
            print(f"{label} {sc}: cover_b={cov_b:.3f} cover_pop={cov_pop:.3f}")
            if sc == "FF":
                assert cov_b < 0.10
                assert cov_pop < 0.10
            else:
                assert 0.92 <= cov_b <= 0.97
                assert 0.92 <= cov_pop <= 0.97


def _fitted_instance(seed, unit_weights=False):
    rng = np.random.default_rng(seed)
    xa = rng.normal(0.0, 1.0, (30, 2))
    y = 1.5 + xa @ np.array([2.0, -1.0]) + rng.normal(0.0, 0.5, 30)
    xb = rng.normal(0.3, 1.1, (40, 2))
    d = np.ones(40) if unit_weights else rng.uniform(1.0, 5.0, 40)
    a, b = SampleA(xa, y), SampleB(xb, d)
    fit = fit_scores(a, b)
    return a, b, fit, build_score_matrix(a, b, fit)


def test_criterion_6_core_identities():
    """Fast non-simulation properties: donor-count conservation, the two
    algebraic forms of each estimator, equal-weight reductions, the
    bootstrap weight moments, the score MLE against a grid oracle, the
    matcher against brute force, and the synthetic-population
    calibrations with byte-exact seed determinism."""
    # Donor-count conservation and the dual form of the imputation mean.
    a, b, fit, smat = _fitted_instance(3)
    plan = find_matches(smat, 3, d_b=b.d)
    assert int(plan.k_counts.sum()) == plan.m * plan.n_b
    est = point_estimates(plan, fit, a, b)
    assert est.mu_b == pytest.approx(float(impute(plan, a.y).mean()), abs=1e-12)

    # Bias-corrected mean, residual form.
    g_a, g_b = fit.prognostic(a.x), fit.prognostic(b.x)
    residual_form = float(
        np.mean([g_b[i] + (a.y[j] - g_a[j]).mean() for i, j in enumerate(plan.j_sets)])
    )
    assert est.mu_b_debiased == pytest.approx(residual_form, abs=1e-10)

    # Equal design weights collapse the weighted path onto the plain one.
    a1, b1, fit1, smat1 = _fitted_instance(6, unit_weights=True)
    plan1 = find_matches(smat1, 3, d_b=b1.d)
    assert np.array_equal(plan1.k_weighted, plan1.k_counts)
    est1 = point_estimates(plan1, fit1, a1, b1)
    assert est1.mu_dsm == est1.mu_b
    assert est1.mu_dsm_debiased == pytest.approx(est1.mu_b_debiased, abs=1e-12)
    bs = BootstrapSpec(n_draws=400, alpha=0.05, seed=11)
    ci_deb = bootstrap_ci_debiased(plan1, fit1, a1, b1, est1.mu_b_debiased, bs)
    ci_pop = bootstrap_ci_population(plan1, fit1, a1, b1, est1.mu_b_debiased, bs)
    assert (ci_pop.lo, ci_pop.hi) == (ci_deb.lo, ci_deb.hi)

    # Two-point bootstrap weights: mean 0, variance 1, third moment 1.
    w = mammen_draw(np.random.default_rng(17), 1_000_000)
    n = w.shape[0]
    assert abs(w.mean()) < 4.0 / np.sqrt(n)
    assert abs(w.var() - 1.0) < 4.0 / np.sqrt(n)
    assert abs((w**3).mean() - 1.0) < 8.0 / np.sqrt(n)

    # Sampling-score MLE against the grid oracle.
    oracle_theta = grid_argmax(TOY_XA, TOY_XB, TOY_D, lo=-6.0, hi=6.0)
    theta = fit_propensity(SampleA(TOY_XA, np.zeros(4)), SampleB(TOY_XB, TOY_D))
    assert np.allclose(theta, oracle_theta, atol=1e-4)

    # Matcher against brute force on random instances, ties included.
    rng = np.random.default_rng(29)
    for _ in range(200):
        n_a = int(rng.integers(1, 51))
        n_b = int(rng.integers(1, 31))
        m = int(rng.integers(1, n_a + 1))
        za = rng.normal(size=(n_a, 2))
        zb = rng.normal(size=(n_b, 2))
        if rng.random() < 0.5:
            za, zb = np.round(za, 1), np.round(zb, 1)
        z = np.vstack([za, zb])
        got = find_matches(ScoreMatrix(z=z, n_a=n_a), m)
        assert np.array_equal(got.j_sets, oracle_match(za, zb, m))

    # Synthetic-population calibrations.
    spec = ScenarioSpec(nonlinearity="none", n_reps=REPS, seed=SEED)
    pop = gen_population(spec, np.random.default_rng(SEED))
    corr = float(np.corrcoef(pop.cond_mean, pop.y)[0, 1])
    assert corr == pytest.approx(spec.rho, abs=0.01)
    size = pop.c_pps + pop.x[:, 2]
    assert float(size.max() / size.min()) == pytest.approx(50.0, abs=1e-9)
    assert float(pop.pi_b.sum()) == pytest.approx(spec.n_b, abs=1e-6)
    assert float(pop.pi_a.sum()) == pytest.approx(spec.n_a, abs=1e-6)

    # Identical runs are byte-identical.
    small = ScenarioSpec(
        nonlinearity="none", n_pop=4000, n_a=150, n_b=300,
        n_reps=4, seed=42,
    )
    r1, r2 = run_monte_carlo(small), run_monte_carlo(small)
    for key in r1.estimates:
        assert r1.estimates[key].tobytes() == r2.estimates[key].tobytes()
    for key in r1.targets:
        assert r1.targets[key].tobytes() == r2.targets[key].tobytes()


@pytest.mark.slow
def test_criterion_7_error_shrinks_with_sample_size(linear_reports):
    """Root-mean-square error of the matched-donor mean falls at roughly
    the root-n rate when both sample sizes double."""
    small = linear_reports["TT"]
    big_spec = ScenarioSpec(nonlinearity="none", n_a=1000, n_b=2000, n_reps=REPS, seed=SEED)
    big = run_scenario_table(big_spec, scenarios=("TT",))["TT"]

    def rms(rep):
        err = rep.estimates["mu_b"] - rep.targets["target_b"]
        return float(np.sqrt((err**2).mean()))

    factor = rms(small) / rms(big)
    print(f"rms small={rms(small):.4f} big={rms(big):.4f} shrink factor={factor:.3f}")
    assert 1.2 <= factor <= 1.7
