"""Synthetic-population calibrations, the two sampling designs, scenario
views, and the Monte Carlo harness contract (determinism, failure
accounting, single-replication degeneracy)."""

import multiprocessing
import os
import pickle
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dsm.simulation as sim
import dsm.uncertainty as unc
from dsm import (
    NONLINEARITY_MODES,
    BracketFailure,
    DomainError,
    DsmError,
    InfeasibleRatio,
    RepeatedSelection,
    RhoOutOfRange,
    ScenarioSpec,
    calibrate_pps,
    calibrate_sigma,
    calibrate_theta0,
    gen_population,
    observed_covariates,
    poisson_sample,
    pps_sample,
    run_monte_carlo,
    run_scenario_table,
)


class FixedDraws:
    """Generator stand-in for pps_sample: the identity permutation and a
    fixed systematic start u."""

    def __init__(self, u):
        self.u = u

    def permutation(self, n):
        return np.arange(n)

    def random(self):
        return self.u


@pytest.fixture(autouse=True)
def one_worker(monkeypatch):
    # Replications run in this process unless a test asks for a pool.
    monkeypatch.setenv("DSM_THREADS", "1")


# -- calibrations -------------------------------------------------------

def test_sigma_noiseless_limit():
    lp = np.array([1.0, 2.0, 5.0])
    assert calibrate_sigma(lp, 1.0) == 0.0


def test_sigma_multiplier_at_rho_03():
    # sigma / sd(lp) = sqrt(1/0.09 - 1) = 3.17980...
    lp = np.array([0.0, 2.0])  # sd exactly 1
    assert calibrate_sigma(lp, 0.3) == pytest.approx(np.sqrt(1.0 / 0.09 - 1.0), abs=1e-12)


def test_sigma_rejects_bad_rho():
    lp = np.zeros(3)
    for rho in (0.0, -0.2, 1.5):
        with pytest.raises(RhoOutOfRange):
            calibrate_sigma(lp, rho)


def test_realized_outcome_correlation():
    spec = ScenarioSpec(n_pop=20000, n_a=500, n_b=1000)
    for seed in (0, 1, 2):
        pop = gen_population(spec, np.random.default_rng(seed))
        corr = np.corrcoef(pop.y, pop.cond_mean)[0, 1]
        assert abs(corr - 0.3) < 0.01


def test_theta0_symmetric_case():
    x = np.zeros((10, 4))
    assert calibrate_theta0(x, 5.0) == 0.0


def test_theta0_hits_target_size():
    rng = np.random.default_rng(3)
    pop = gen_population(ScenarioSpec(n_pop=20000, n_a=500, n_b=1000), rng)
    assert abs(pop.pi_a.sum() - 500.0) <= 1e-6
    assert np.all((pop.pi_a > 0) & (pop.pi_a < 1))


def test_theta0_infeasible_target():
    x = np.zeros((10, 4))
    with pytest.raises(BracketFailure):
        calibrate_theta0(x, 15.0)


def _plain_bisection(x, target):
    """Oracle: calibrate_theta0 sweeping every bisection point."""
    base = np.asarray(x, dtype=np.float64) @ sim._SELECTION_SLOPES

    def excess(t):
        return float(sim._expit(t + base).sum()) - target

    lo, hi = -40.0, 40.0
    e_lo, e_hi = excess(lo), excess(hi)
    for _ in range(20):
        if e_lo <= 0.0 <= e_hi:
            break
        lo, hi = lo * 2.0, hi * 2.0
        e_lo, e_hi = excess(lo), excess(hi)
    else:
        raise BracketFailure(f"target size {target} cannot be bracketed")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        e_mid = excess(mid)
        if abs(e_mid) <= sim._CALIBRATION_TOL:
            return mid
        if e_mid < 0.0:
            lo = mid
        else:
            hi = mid
    raise BracketFailure("bisection failed to reach tolerance")


def _outcome(calibrate, x, target):
    try:
        return np.float64(calibrate(x, target)).tobytes()
    except BracketFailure as err:
        return str(err)


@pytest.mark.parametrize("nonlinearity", NONLINEARITY_MODES)
def test_theta0_bit_equal_to_plain_bisection(nonlinearity):
    # Cubed or scaled covariates put the root beyond [-40, 40], so the
    # bracket doubles; scaled by 1e6 the size function is nearly a step.
    x = gen_population(ScenarioSpec(), np.random.default_rng(11)).x
    view = observed_covariates(x, nonlinearity)
    for scale in (1.0, 1e3, 1e6):
        for n_a in (100, 500, 1000, 3000, 9000):
            xs = view * scale
            assert _outcome(calibrate_theta0, xs, n_a) == _outcome(_plain_bisection, xs, n_a)


@pytest.mark.parametrize("x, target", [
    pytest.param(np.zeros((10, 4)), 15.0, id="infeasible"),
    pytest.param(np.zeros((10, 4)), 10.0 * 1e-20, id="root_below_minus_40"),
    # 8000 equal units step the size by more than the tolerance per ulp.
    pytest.param(np.tile([0.0, 0.0, 0.0, 5e7], (8000, 1)), 4000.3, id="no_tolerance"),
    pytest.param(np.tile([0.0, 0.0, 0.0, 5e8], (50, 1)), 25.3, id="beyond_doubling"),
    # Infinite linear predictors sweep fine but give no Newton start.
    pytest.param(np.vstack([np.zeros((8, 4)), np.full((1, 4), np.inf), np.full((1, 4), -np.inf)]),
                 3.0, id="infinite_covariates"),
])
def test_theta0_failures_and_edges_match_plain_bisection(x, target):
    assert _outcome(calibrate_theta0, x, target) == _outcome(_plain_bisection, x, target)


@pytest.fixture
def sweeps(monkeypatch):
    """Record one entry per expit sweep of the simulation module."""
    calls, expit = [], sim._expit

    def counted(t):
        calls.append(1)
        return expit(t)

    monkeypatch.setattr(sim, "_expit", counted)
    return calls


def test_theta0_sweeps_and_population_reuses_the_last(sweeps):
    # Plain bisection takes about 37 sweeps here; skipping proven
    # decisions takes about 8.
    spec = ScenarioSpec(nonlinearity="none", n_a=500, n_b=1000)
    for s in range(5):
        x = gen_population(spec, np.random.default_rng([spec.seed, s])).x
        sweeps.clear()
        theta0 = calibrate_theta0(x, spec.n_a)
        n_sweeps = len(sweeps)
        sweeps.clear()
        pop = gen_population(spec, np.random.default_rng([spec.seed, s]))
        assert n_sweeps <= 15
        assert len(sweeps) <= n_sweeps
        assert np.array_equal(pop.pi_a, sim._expit(theta0 + x @ sim._SELECTION_SLOPES))


def test_theta0_sweeps_every_midpoint_without_a_proof_margin(monkeypatch, sweeps):
    # At a 1e-10 tolerance the rounding bound of a 20000-unit sweep exceeds
    # a quarter of it, so no sweep may decide another point.
    monkeypatch.setattr(sim, "_CALIBRATION_TOL", 1e-10)
    x = gen_population(ScenarioSpec(), np.random.default_rng(11)).x
    outcomes = []
    for calibrate in (calibrate_theta0, _plain_bisection):
        sweeps.clear()
        outcomes.append((_outcome(calibrate, x, 500), len(sweeps)))
    assert outcomes[0] == outcomes[1]


def test_pps_closed_form_shift():
    # x3 in {1, 50} with ratio 50 needs no shift at all.
    c, pi = calibrate_pps(np.array([1.0, 50.0]), 1)
    assert c == pytest.approx(0.0, abs=1e-12)
    assert pi.sum() == pytest.approx(1.0, abs=1e-9)


def test_pps_ratio_and_total():
    rng = np.random.default_rng(4)
    x3 = rng.exponential(1.0, 5000)
    c, pi = calibrate_pps(x3, 600)
    size = c + x3
    assert size.max() / size.min() == pytest.approx(50.0, abs=1e-9)
    assert abs(pi.sum() - 600.0) <= 1e-6
    assert np.all((pi > 0) & (pi <= 1.0))


def test_pps_caps_and_rescales():
    x3 = np.ones(100)
    x3[0] = 5000.0
    c, pi = calibrate_pps(x3, 50)
    assert pi[0] == 1.0
    assert abs(pi.sum() - 50.0) <= 1e-6
    assert np.all(pi <= 1.0)


def test_pps_constant_size_infeasible():
    with pytest.raises(InfeasibleRatio):
        calibrate_pps(np.full(20, 3.0), 5)


def test_population_mean_anchor():
    # E[y] = 2 + 0.5 + 1.15 + 1.33 + 4.298 = 9.278 under the covariate
    # chain; the realized mean at N=20000 sits within about 0.03.
    spec = ScenarioSpec(n_pop=20000, n_a=500, n_b=1000)
    for seed in (0, 1, 2):
        pop = gen_population(spec, np.random.default_rng(seed))
        assert abs(pop.cond_mean.mean() - 9.278) < 0.03


# -- sampling designs ---------------------------------------------------

def test_poisson_certain_inclusion():
    idx = poisson_sample(np.ones(50), np.random.default_rng(5))
    assert np.array_equal(idx, np.arange(50))


def test_poisson_size_concentration():
    n = 10**5
    idx = poisson_sample(np.full(n, 0.5), np.random.default_rng(6))
    assert abs(idx.size - n / 2) < 4 * np.sqrt(n / 4)


def test_pps_fixed_size_and_uniqueness():
    rng = np.random.default_rng(7)
    _, pi = calibrate_pps(rng.exponential(1.0, 2000), 100)
    idx = pps_sample(pi, 100, rng)
    assert idx.size == 100
    assert np.all(np.diff(idx) > 0)


def test_pps_requires_calibrated_probabilities():
    with pytest.raises(ValueError):
        pps_sample(np.full(10, 0.3), 5, np.random.default_rng(0))


def test_pps_calibration_near_census_passes_the_sampler_checks():
    # n_b = N - 1 forces the most capping rounds; the calibrated pi still
    # lie in (0, 1] and sum to n_b, so a valid ScenarioSpec never reaches
    # pps_sample's argument errors (nor calibrate_pps's own: the spec
    # already requires 0 < n_b < n_pop).
    rng = np.random.default_rng(12)
    for n in (2, 3, 10, 400):
        for _ in range(20):
            _, pi = calibrate_pps(rng.exponential(1.0, n), n - 1)
            assert np.all((pi > 0.0) & (pi <= 1.0))
            assert abs(pi.sum() - (n - 1)) <= 1e-6
            assert pps_sample(pi, n - 1, rng).size == n - 1


def test_pps_repeated_selection_is_a_package_error():
    # Only rounding can make systematic selection hit a unit twice: here
    # the total falls 5e-7 short of n_b, so the last point runs past the
    # final edge and is clamped onto the certainty unit the previous
    # point already took.
    with pytest.raises(RepeatedSelection):
        pps_sample(np.array([1.0 - 5e-7, 1.0]), 2, FixedDraws(1.0 - 1e-7))


def test_pps_point_on_an_edge_selects_the_next_unit():
    # Unit i covers [edge_{i-1}, edge_i): with edges 0.5, 1, 1.5, 2 the
    # points 0.5 and 1.5 lie exactly on edges and select units 1 and 3.
    assert pps_sample(np.full(4, 0.5), 2, FixedDraws(0.5)).tolist() == [1, 3]


def test_pps_equal_probability_frequencies():
    # pi constant at n_b/N reduces to equal-probability sampling; the
    # per-unit inclusion frequency over many replications stays within
    # 4 binomial standard errors of the target.
    n, n_b, reps = 2000, 100, 10**4
    pi = np.full(n, n_b / n)
    rng = np.random.default_rng(8)
    counts = np.zeros(n)
    for _ in range(reps):
        counts[pps_sample(pi, n_b, rng)] += 1
    p = n_b / n
    bound = 4 * np.sqrt(p * (1 - p) / reps)
    assert np.max(np.abs(counts / reps - p)) < bound


def test_pps_unequal_probability_frequencies():
    # First-order inclusion probabilities are exact for the systematic
    # design, so frequencies track the calibrated pi unit by unit.
    n, n_b, reps = 2000, 100, 10**4
    rng = np.random.default_rng(9)
    _, pi = calibrate_pps(rng.exponential(1.0, n), n_b)
    counts = np.zeros(n)
    for _ in range(reps):
        counts[pps_sample(pi, n_b, rng)] += 1
    se = np.sqrt(pi * (1 - pi) / reps)
    dev = np.abs(counts / reps - pi)
    assert np.max(dev - 4 * se) < 0.0


# -- scenario views -----------------------------------------------------

def test_views_identity_under_linear_mode():
    rng = np.random.default_rng(10)
    x = np.abs(rng.normal(size=(30, 4))) + 0.1
    xbar = observed_covariates(x, "none")
    assert np.array_equal(xbar, x)
    assert sim._MODEL_COLUMNS["T"] == (0, 1, 2, 3)


def test_views_reduced_models_drop_fourth_covariate():
    # Prognostic model first: FT reduces only the prognostic model.
    cols = {sc: (sim._MODEL_COLUMNS[sc[0]], sim._MODEL_COLUMNS[sc[1]]) for sc in sim.SCENARIOS}
    assert cols["FT"] == ((0, 1, 2), (0, 1, 2, 3))
    assert cols["TF"] == ((0, 1, 2, 3), (0, 1, 2))
    assert cols["FF"] == ((0, 1, 2), (0, 1, 2))


def test_views_cubic_transforms():
    x = np.array([[1.0, 2.0, 3.0, 4.0], [0.0, 0.5, 1.5, 2.5]])
    xbar = observed_covariates(x, "cubic")
    assert np.array_equal(xbar[:, 0], x[:, 0])
    assert np.array_equal(xbar[:, 1], x[:, 1] ** 2)
    assert np.array_equal(xbar[:, 2], x[:, 2] ** 3)
    assert np.array_equal(xbar[:, 3], x[:, 3] ** 2)


def test_views_extreme_transforms():
    x = np.array([[1.0, 2.0, 4.0, 2.0]])
    xbar = observed_covariates(x, "extreme")
    assert xbar[0, 1] == pytest.approx(2.0**1.15)
    assert xbar[0, 2] == pytest.approx(4.0**-0.85)
    assert xbar[0, 3] == pytest.approx(2.0**-1.15)


def test_views_extreme_domain_error():
    x = np.array([[1.0, 2.0, -1.0, 2.0]])
    with pytest.raises(DomainError):
        observed_covariates(x, "extreme")


def test_views_reject_unknown_labels():
    x = np.ones((2, 4))
    with pytest.raises(ValueError):
        run_scenario_table(SMALL, ("XX",))
    with pytest.raises(ValueError):
        observed_covariates(x, "quartic")


# -- harness ------------------------------------------------------------

SMALL = ScenarioSpec(
    n_pop=4000, n_a=150, n_b=300, m=3, n_reps=4, n_boot=0, seed=42,
)


def test_single_replication_degenerate_aggregates():
    spec = ScenarioSpec(
        n_pop=4000, n_a=150, n_b=300, m=3, n_reps=1, n_boot=0, seed=11,
    )
    rep = run_monte_carlo(spec)
    assert rep.n_ok == 1 and rep.n_failed == 0
    row = rep.summary("mu_b")
    est = float(rep.estimates["mu_b"][0])
    tgt = float(rep.targets["target_b"][0])
    assert row.rb_pct == (est - tgt) / tgt * 100.0
    assert row.mse == (est - tgt) ** 2
    assert row.mean == est


def test_same_seed_reproduces_bitwise():
    r1 = run_monte_carlo(SMALL)
    r2 = run_monte_carlo(SMALL)
    for key in r1.estimates:
        assert np.array_equal(r1.estimates[key], r2.estimates[key])
    for key in r1.targets:
        assert np.array_equal(r1.targets[key], r2.targets[key])


def test_worker_count_does_not_change_results(monkeypatch):
    serial = run_monte_carlo(SMALL)
    monkeypatch.setenv("DSM_THREADS", "2")
    parallel = run_monte_carlo(SMALL)
    for key in serial.estimates:
        assert np.array_equal(serial.estimates[key], parallel.estimates[key])


def _assert_reports_equal(got, want, n_reps):
    # Bitwise equality of every report field over the first n_reps
    # replications; none of them may have failed.
    for sc, rep in want.items():
        other = got[sc]
        assert rep.failures == other.failures == ()
        for field in ("estimates", "targets", "coverage"):
            theirs, ours = getattr(other, field), getattr(rep, field)
            assert theirs.keys() == ours.keys()
            for key in ours:
                assert np.array_equal(theirs[key][:n_reps], ours[key][:n_reps]), (sc, field, key)


def test_pool_workers_match_serial_with_bootstrap(monkeypatch):
    # Pool workers bootstrap on one thread.  A replication run in this
    # process bootstraps on DSM_THREADS threads: one for the whole serial
    # table, two for the single replication (no pool for one replication).
    spec = replace(SMALL, n_reps=4, n_boot=40)
    serial = run_scenario_table(spec)
    monkeypatch.setenv("DSM_THREADS", "2")
    pooled = run_scenario_table(spec)
    first = run_scenario_table(replace(spec, n_reps=1))
    _assert_reports_equal(pooled, serial, 4)
    _assert_reports_equal(pooled, first, 1)


def test_pool_never_outnumbers_replications(monkeypatch):
    # A fork pool starts all of its processes at once, so it is sized to
    # the replications; one replication, or one worker, runs in this
    # process.
    made = []

    class RecordingPool:
        def __init__(self, max_workers, initializer):
            made.append(max_workers)
            # Spawn and forkserver pools pickle their initializer.
            pickle.loads(pickle.dumps(initializer))

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables, chunksize=1):
            return map(fn, *iterables)

    monkeypatch.setattr(sim, "ProcessPoolExecutor", RecordingPool)
    for threads, n_reps, expected in [("4", 2, [2]), ("2", 3, [2]), ("4", 1, []), ("1", 3, [])]:
        monkeypatch.setenv("DSM_THREADS", threads)
        made.clear()
        reports = run_scenario_table(replace(SMALL, n_reps=n_reps))
        assert made == expected, threads
        assert all(rep.n_ok + rep.n_failed == n_reps for rep in reports.values())


@pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                    reason="the spy reaches the pool workers through fork")
def test_pool_workers_bootstrap_on_one_thread(monkeypatch, tmp_path):
    # With DSM_THREADS=2 this process would split each bootstrap in two
    # draw ranges; a replication in a pool worker draws it in one.
    monkeypatch.setenv("DSM_THREADS", "2")
    log = tmp_path / "ranges"
    real = unc._draw_range

    def spy(spec, resid, norm, out, lo, hi):
        with open(log, "a") as fh:
            fh.write(f"{os.getpid()} {lo} {hi} {spec.n_draws}\n")
        real(spec, resid, norm, out, lo, hi)

    monkeypatch.setattr(unc, "_draw_range", spy)
    run_scenario_table(replace(SMALL, n_reps=2, n_boot=30))
    rows = [line.split() for line in log.read_text().splitlines()]
    assert len(rows) == 2 * 4 * 2
    for pid, lo, hi, n_draws in rows:
        assert pid != str(os.getpid())
        assert (lo, hi) == ("0", n_draws)


def test_bootstrap_coverage_flags_present():
    from dataclasses import replace

    rep = run_monte_carlo(replace(SMALL, n_reps=2, n_boot=50))
    assert set(rep.coverage) == {"cover_b", "cover_pop"}
    for flags in rep.coverage.values():
        assert np.isin(flags, [0.0, 1.0]).all()
    assert rep.summary("mu_b_debiased").coverage is not None


def test_failed_replications_are_counted(monkeypatch):
    from dsm.errors import Separation

    real = sim._replicate

    def flaky(spec, scenarios, s):
        if s == 2:
            return {sc: ("fail", Separation.__name__) for sc in scenarios}
        return real(spec, scenarios, s)

    monkeypatch.setattr(sim, "_replicate", flaky)
    rep = run_monte_carlo(SMALL)
    assert rep.n_ok == 3 and rep.n_failed == 1
    assert rep.failures == ("Separation",)
    assert rep.estimates["mu_b"].shape == (3,)


def test_all_failures_raise(monkeypatch):
    monkeypatch.setattr(
        sim, "_replicate",
        lambda spec, scenarios, s: {sc: ("fail", "Separation") for sc in scenarios},
    )
    with pytest.raises(DsmError):
        run_monte_carlo(SMALL)


def test_failure_counts_under_its_scenario_only(monkeypatch):
    # The second FT fit (replication 1) fails; the other scenarios of that
    # replication, and FT in every other replication, still count.
    from dsm.errors import Separation

    real = sim.fit_scores
    ft_fits = []

    def flaky(*args, cols_r, cols_y, **kwargs):
        if len(cols_y) == 3 and len(cols_r) == 4:
            ft_fits.append(None)
            if len(ft_fits) == 2:
                raise Separation("forced")
        return real(*args, cols_r=cols_r, cols_y=cols_y, **kwargs)

    monkeypatch.setattr(sim, "fit_scores", flaky)
    reports = run_scenario_table(SMALL)
    assert reports["FT"].n_ok == 3 and reports["FT"].failures == ("Separation",)
    assert np.array_equal(
        reports["FT"].targets["target_b"], np.delete(reports["TT"].targets["target_b"], 1)
    )
    for sc in ("TT", "TF", "FF"):
        assert reports[sc].n_ok == 4 and reports[sc].n_failed == 0


def test_scenario_table_draws_each_population_once(monkeypatch):
    real = sim.gen_population
    calls = []

    def counted(spec, rng):
        calls.append(None)
        return real(spec, rng)

    monkeypatch.setattr(sim, "gen_population", counted)
    run_scenario_table(SMALL)
    assert len(calls) == SMALL.n_reps


def test_replication_builds_its_samples_once(monkeypatch):
    # A scenario only chooses model columns: one observed-covariate view
    # and one pair of samples per replication, whatever the scenario count.
    calls = {"view": 0, "a": 0, "b": 0}

    def counted(key, real):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return real(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(sim, "observed_covariates", counted("view", sim.observed_covariates))
    monkeypatch.setattr(sim, "SampleA", counted("a", sim.SampleA))
    monkeypatch.setattr(sim, "SampleB", counted("b", sim.SampleB))
    reports = run_scenario_table(SMALL)
    assert len(reports) == 4
    assert calls == {"view": SMALL.n_reps, "a": SMALL.n_reps, "b": SMALL.n_reps}


def test_sample_build_failure_fails_every_scenario(monkeypatch):
    def out_of_domain(x, nonlinearity):
        raise DomainError("forced")

    monkeypatch.setattr(sim, "observed_covariates", out_of_domain)
    results = sim._replicate(SMALL, sim.SCENARIOS, 0)
    assert results == {sc: ("fail", "DomainError") for sc in sim.SCENARIOS}


def test_empty_volunteer_sample_fails_its_replication():
    # Replication 6 of this spec draws no volunteer unit: it fails under
    # every scenario instead of aborting the run, and with every other
    # replication failing too the run raises the package's error.
    spec = ScenarioSpec(n_pop=400, n_a=1, n_b=30, m=1, n_reps=8, seed=2)
    assert sim._replicate(spec, sim.SCENARIOS, 6) == {
        sc: ("fail", "EmptySample") for sc in sim.SCENARIOS
    }
    with pytest.raises(DsmError, match="every replication failed"):
        run_scenario_table(spec)


def test_coverage_grid_failure_names_its_row(monkeypatch):
    # The grid has no try/except of its own: the all-failed error from the
    # row's table run names the scenario and the row's sizes.
    monkeypatch.setattr(sim, "_replicate",
                        lambda spec, names, s: {sc: ("fail", "MTooLarge") for sc in names})
    with pytest.raises(DsmError) as err:
        sim.run_coverage_grid(ScenarioSpec(n_reps=1, n_boot=20), ((4, 300, 600),))
    assert str(err.value) == (
        "scenario TT at m=4, n_a=300, n_b=600: "
        "every replication failed (MTooLarge: 1); nothing to aggregate")


def test_scenario_table_shares_replication_data():
    # One seed drives every scenario: the targets are identical series,
    # so scenario columns differ only through the model views.
    reports = run_scenario_table(SMALL)
    base = reports["TT"]
    for sc in ("FT", "TF", "FF"):
        assert np.array_equal(reports[sc].targets["target_b"], base.targets["target_b"])
        assert np.array_equal(reports[sc].targets["target_pop"], base.targets["target_pop"])


def test_unknown_scenario_rejected_before_any_draw(monkeypatch):
    def no_draws(spec, rng):
        raise AssertionError("population drawn")

    monkeypatch.setattr(sim, "gen_population", no_draws)
    with pytest.raises(ValueError, match="scenario must be one of"):
        run_scenario_table(SMALL, ("TT", "ZZ"))
    with pytest.raises(ValueError, match="scenario must be one of"):
        run_monte_carlo(SMALL, "ZZ")


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_small_specs_account_for_every_replication(data):
    # Every replication of a valid small spec either counts as ok or as a
    # named failure under each scenario; the only error that may escape is
    # the package's "every replication failed".  n_b runs up to N - 1 to
    # reach the reference design's capping.
    n_pop = data.draw(st.integers(3, 400), label="n_pop")
    spec = ScenarioSpec(
        nonlinearity=data.draw(st.sampled_from(sim.NONLINEARITY_MODES), label="mode"),
        n_pop=n_pop,
        n_a=data.draw(st.integers(1, min(80, n_pop - 1)), label="n_a"),
        n_b=data.draw(st.integers(1, n_pop - 1), label="n_b"),
        m=data.draw(st.integers(1, 5), label="m"),
        n_reps=data.draw(st.integers(1, 3), label="n_reps"),
        n_boot=data.draw(st.sampled_from((0, 20)), label="n_boot"),
        seed=data.draw(st.integers(0, 2**32), label="seed"),
    )
    try:
        reports = run_scenario_table(spec)
    except DsmError as err:
        assert "every replication failed" in str(err)
        return
    for rep in reports.values():
        assert rep.n_ok + rep.n_failed == spec.n_reps


def test_spec_validation():
    with pytest.raises(ValueError):
        ScenarioSpec(nonlinearity="spline")
    with pytest.raises(ValueError, match="rho"):
        ScenarioSpec(rho=0.0)
    with pytest.raises(ValueError):
        ScenarioSpec(n_pop=100, n_b=100)
    with pytest.raises(ValueError):
        ScenarioSpec(seed=-3)
    # One bootstrap draw has no spread; it fails here, before any draw.
    for n_boot in (-1, 1):
        with pytest.raises(ValueError, match="n_boot"):
            ScenarioSpec(n_boot=n_boot)
    assert ScenarioSpec(n_boot=2).n_boot == 2
