"""Synthetic-population calibrations, the two sampling designs, scenario
views, and the Monte Carlo harness contract (determinism, failure
accounting, single-replication degeneracy)."""

import concurrent.futures
import multiprocessing
import os
import pickle
from dataclasses import fields, replace

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
    assert pop.n == pop.pi_a.shape[0] == 20000
    assert abs(pop.pi_a.sum() - 500.0) <= 1e-6
    assert np.all((pop.pi_a > 0) & (pop.pi_a < 1))


def test_theta0_infeasible_target():
    x = np.zeros((10, 4))
    with pytest.raises(BracketFailure):
        calibrate_theta0(x, 15.0)


def _plain_bisection(x, target):
    """Oracle: plain bisection with calibrate_theta0's bracket, tolerance
    and failure messages."""
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


def _assert_same_contract(x, target):
    """calibrate_theta0 succeeds where _plain_bisection does, with a swept
    excess within tolerance, and fails where it does with the same message."""
    try:
        _plain_bisection(x, target)
    except BracketFailure as err:
        with pytest.raises(BracketFailure) as raised:
            calibrate_theta0(x, target)
        assert str(raised.value) == str(err)
        return
    theta0 = calibrate_theta0(x, target)
    base = np.asarray(x, dtype=np.float64) @ sim._SELECTION_SLOPES
    assert abs(float(sim._expit(theta0 + base).sum()) - target) <= sim._CALIBRATION_TOL


@pytest.mark.parametrize("nonlinearity", NONLINEARITY_MODES)
def test_theta0_meets_the_plain_bisection_contract(nonlinearity):
    # Cubed or scaled covariates put the root beyond [-40, 40], so the
    # bracket doubles; scaled by 1e6 the size function is nearly a step.
    x = gen_population(ScenarioSpec(), np.random.default_rng(11)).x
    view = observed_covariates(x, nonlinearity)
    for scale in (1.0, 1e3, 1e6):
        for n_a in (100, 500, 1000, 3000, 9000):
            _assert_same_contract(view * scale, n_a)


_THETA0_EDGES = [
    pytest.param(np.zeros((10, 4)), 15.0, id="infeasible"),
    pytest.param(np.zeros((10, 4)), 10.0 * 1e-20, id="root_below_minus_40"),
    # 8000 equal units step the size by more than the tolerance per ulp.
    pytest.param(np.tile([0.0, 0.0, 0.0, 5e7], (8000, 1)), 4000.3, id="no_tolerance"),
    pytest.param(np.tile([0.0, 0.0, 0.0, 5e8], (50, 1)), 25.3, id="beyond_doubling"),
    # Infinite linear predictors sweep fine but give no Newton start.
    pytest.param(np.vstack([np.zeros((8, 4)), np.full((1, 4), np.inf), np.full((1, 4), -np.inf)]),
                 3.0, id="infinite_covariates"),
]


@pytest.mark.parametrize("x, target", _THETA0_EDGES)
def test_theta0_failures_and_edges_match_plain_bisection(x, target):
    _assert_same_contract(x, target)


def _bracket_first_newton(x, target):
    """Oracle: calibrate_theta0's safeguarded Newton with the bracket's ends
    swept, and doubled until they hold the target, before any step."""
    base = np.asarray(x, dtype=np.float64) @ sim._SELECTION_SLOPES
    n = base.shape[0]
    lo, hi = -40.0, 40.0
    for _ in range(20):
        if sim._expit(lo + base).sum() <= target <= sim._expit(hi + base).sum():
            break
        lo, hi = lo * 2.0, hi * 2.0
    else:
        raise BracketFailure(f"target size {target} cannot be bracketed")
    t = 0.5 * (lo + hi)
    if 0 < target < n and np.isfinite(base).all():
        t = min(max(float(np.log(target / (n - target)) - base.mean()), lo), hi)
    for _ in range(200):
        f = sim._expit(t + base)
        e = float(f.sum()) - target
        if abs(e) <= sim._CALIBRATION_TOL:
            return t
        lo, hi = (t, hi) if e < 0.0 else (lo, t)
        slope = float((f * (1.0 - f)).sum())
        step = t - e / slope if slope > 0.0 else np.nan
        t = step if lo < step < hi else 0.5 * (lo + hi)
    raise BracketFailure("bisection failed to reach tolerance")


def _assert_bracket_first(x, target):
    try:
        expected = _bracket_first_newton(x, target)
    except BracketFailure as err:
        with pytest.raises(BracketFailure) as raised:
            calibrate_theta0(x, target)
        assert str(raised.value) == str(err)
        return
    assert repr(calibrate_theta0(x, target)) == repr(expected)


@pytest.mark.parametrize("x, target", _THETA0_EDGES)
def test_theta0_edges_equal_newton_on_a_bracket_swept_first(x, target):
    # Sweeping the bracket's ends only when needed changes no bit.
    _assert_bracket_first(x, target)


@pytest.mark.parametrize("nonlinearity", NONLINEARITY_MODES)
def test_theta0_equals_newton_on_a_bracket_swept_first(nonlinearity):
    x = gen_population(ScenarioSpec(), np.random.default_rng(11)).x
    view = observed_covariates(x, nonlinearity)
    for scale in (1.0, 3.0, 30.0, 1e3, 1e6):
        for n_a in (100, 500, 1000, 3000, 9000):
            _assert_bracket_first(view * scale, n_a)


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
    # Plain bisection takes about 37 sweeps here; Newton about 5, as the
    # logit start lands near the root and the bracket ends go unswept.
    spec = ScenarioSpec(nonlinearity="none", n_a=500, n_b=1000)
    for s in range(5):
        x = gen_population(spec, np.random.default_rng([spec.seed, s])).x
        sweeps.clear()
        theta0 = calibrate_theta0(x, spec.n_a)
        n_sweeps = len(sweeps)
        sweeps.clear()
        pop = gen_population(spec, np.random.default_rng([spec.seed, s]))
        assert n_sweeps <= 6
        assert len(sweeps) <= n_sweeps
        assert np.array_equal(pop.pi_a, sim._expit(theta0 + x @ sim._SELECTION_SLOPES))


def test_theta0_meets_a_tight_tolerance_in_few_sweeps(monkeypatch, sweeps):
    # Plain bisection needs about 48 sweeps for 1e-10; Newton converges
    # quadratically once inside the bracket.
    monkeypatch.setattr(sim, "_CALIBRATION_TOL", 1e-10)
    x = gen_population(ScenarioSpec(), np.random.default_rng(11)).x
    sweeps.clear()
    theta0 = calibrate_theta0(x, 500)
    assert len(sweeps) <= 10
    assert abs(float(sim._expit(theta0 + x @ sim._SELECTION_SLOPES).sum()) - 500) <= 1e-10


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


# (m, n_a, n_b) rows of a coverage grid small enough for a test.
_SMALL_GRID = ((3, 150, 300), (2, 120, 250), (4, 180, 300))


def test_coverage_grid_rows_match_their_own_tables(monkeypatch):
    # 3 rows of 11 replications make 33 jobs: at 2 workers the pool hands
    # them out 2 at a time, so a chunk spans the first two rows' edge.
    # Each row's reports are still those of its own table run.
    base = replace(SMALL, n_reps=11, n_boot=20)
    serial = sim.run_coverage_grid(base, _SMALL_GRID)
    monkeypatch.setenv("DSM_THREADS", "2")
    pooled = sim.run_coverage_grid(base, _SMALL_GRID)
    monkeypatch.setenv("DSM_THREADS", "1")
    assert len(serial) == len(pooled) == len(_SMALL_GRID)
    for (m, n_a, n_b), one, two in zip(_SMALL_GRID, serial, pooled):
        for row in (one, two):
            assert (row["m"], row["n_a"], row["n_b"]) == (m, n_a, n_b)
        own = run_scenario_table(replace(base, m=m, n_a=n_a, n_b=n_b))
        assert own.keys() == one["reports"].keys() == two["reports"].keys()
        _assert_reports_equal(one["reports"], own, 11)
        _assert_reports_equal(two["reports"], own, 11)


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

    # run_scenario_table looks the pool class up where it starts the pool.
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    for threads, n_reps, expected in [("4", 2, [2]), ("2", 3, [2]), ("4", 1, []), ("1", 3, [])]:
        monkeypatch.setenv("DSM_THREADS", threads)
        made.clear()
        reports = run_scenario_table(replace(SMALL, n_reps=n_reps))
        assert made == expected, threads
        assert all(rep.n_ok + rep.n_failed == n_reps for rep in reports.values())
    # A coverage grid is one run: its rows share one pool, sized to all of
    # their replications, and one worker runs them all in this process.
    for threads, expected in [("4", [3]), ("1", [])]:
        monkeypatch.setenv("DSM_THREADS", threads)
        made.clear()
        grid = sim.run_coverage_grid(replace(SMALL, n_reps=1), _SMALL_GRID)
        assert made == expected, threads
        assert [(row["m"], row["n_a"], row["n_b"]) for row in grid] == list(_SMALL_GRID)
        assert all(rep.n_ok + rep.n_failed == 1
                   for row in grid for rep in row["reports"].values())


@pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                    reason="the spy reaches the pool workers through fork")
def test_pool_workers_bootstrap_on_one_thread(monkeypatch, tmp_path):
    # With DSM_THREADS=2 this process would split each bootstrap in two
    # draw ranges; a replication in a pool worker draws it in one, and
    # draws one block for the intervals of all its scenarios.
    monkeypatch.setenv("DSM_THREADS", "2")
    log = tmp_path / "ranges"
    real = unc._draw_range

    def spy(spec, resid, norm, out, buf, lo, hi):
        with open(log, "a") as fh:
            fh.write(f"{os.getpid()} {lo} {hi} {spec.n_draws}\n")
        real(spec, resid, norm, out, buf, lo, hi)

    monkeypatch.setattr(unc, "_draw_range", spy)
    run_scenario_table(replace(SMALL, n_reps=2, n_boot=30))
    rows = [line.split() for line in log.read_text().splitlines()]
    assert len(rows) == 2
    for pid, lo, hi, n_draws in rows:
        assert pid != str(os.getpid())
        assert (lo, hi) == ("0", n_draws)


@pytest.mark.parametrize("failing", ["FT", "FF"])
def test_scenario_intervals_do_not_depend_on_the_other_scenarios(monkeypatch, failing):
    # A replication draws one multiplier block for the intervals of all of
    # its scenarios.  A scenario's intervals and report are bitwise the
    # same run alone, with the other three, or with another scenario
    # failing in replication 1, which adds no column to that draw.
    from dsm.errors import Separation

    real_intervals, drawn = sim._intervals, []

    def recorded(bs, columns):
        reports = real_intervals(bs, columns)
        drawn.append([(r.lo, r.hi) for r in reports])
        return reports

    monkeypatch.setattr(sim, "_intervals", recorded)
    spec = replace(SMALL, n_reps=3, n_boot=40)
    together = run_scenario_table(spec)
    joint, drawn[:] = list(drawn), []
    assert [len(d) for d in joint] == [8, 8, 8]
    order = ["TT", "FF", "FT", "TF"]  # a replication runs the pure scenarios first
    for sc in sim.SCENARIOS:
        i = order.index(sc)
        assert pickle.dumps(run_monte_carlo(spec, sc)) == pickle.dumps(together[sc]), sc
        assert drawn == [d[2 * i : 2 * i + 2] for d in joint], sc
        drawn.clear()

    real_estimates, calls = sim.point_estimates, []
    model = tuple(sim._MODEL_COLUMNS[letter] for letter in failing)  # (cols_y, cols_r)

    def flaky(plan, fit, a, b):
        if (fit.cols_y, fit.cols_r) == model:
            calls.append(None)
            if len(calls) == 2:
                raise Separation("forced")
        return real_estimates(plan, fit, a, b)

    monkeypatch.setattr(sim, "point_estimates", flaky)
    reports = run_scenario_table(spec)
    gone = 2 * order.index(failing)
    assert drawn == [joint[0], joint[1][:gone] + joint[1][gone + 2 :], joint[2]]
    for sc in sim.SCENARIOS:
        if sc != failing:
            assert pickle.dumps(reports[sc]) == pickle.dumps(together[sc]), sc
    assert reports[failing].failures == ("Separation",) and reports[failing].n_ok == 2
    for field in ("estimates", "targets", "coverage"):
        for key, series in getattr(together[failing], field).items():
            got = getattr(reports[failing], field)[key]
            assert np.array_equal(got, np.delete(series, 1)), (field, key)


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
    # FT's second estimation (replication 1) fails; the other scenarios of
    # that replication, and FT in every other replication, still count.
    from dsm.errors import Separation

    real = sim.point_estimates
    ft_calls = []

    def flaky(plan, fit, a, b):
        if len(fit.cols_y) == 3 and len(fit.cols_r) == 4:
            ft_calls.append(None)
            if len(ft_calls) == 2:
                raise Separation("forced")
        return real(plan, fit, a, b)

    monkeypatch.setattr(sim, "point_estimates", flaky)
    reports = run_scenario_table(SMALL)
    assert reports["FT"].n_ok == 3 and reports["FT"].failures == ("Separation",)
    assert np.array_equal(
        reports["FT"].targets["target_b"], np.delete(reports["TT"].targets["target_b"], 1)
    )
    for sc in ("TT", "TF", "FF"):
        assert reports[sc].n_ok == 4 and reports[sc].n_failed == 0


def _counted_fits(monkeypatch, fail=None, at=None):
    """Patch sim.fit_scores to record each call's (cols_y, cols_r) and to
    raise Separation on call number `at` (0-based) with columns `fail`."""
    from dsm.errors import Separation

    real, calls = sim.fit_scores, []

    def counted(*args, cols_r, cols_y, **kwargs):
        calls.append((cols_y, cols_r))
        if (cols_y, cols_r) == fail and calls.count(fail) == at + 1:
            raise Separation("forced")
        return real(*args, cols_r=cols_r, cols_y=cols_y, **kwargs)

    monkeypatch.setattr(sim, "fit_scores", counted)
    return calls


@pytest.mark.parametrize("mode", NONLINEARITY_MODES)
def test_mixed_fit_is_the_fit_of_its_columns(monkeypatch, mode):
    # A mixed scenario's fit, assembled from the halves of the two pure
    # fits, is bitwise the fit_scores fit of its own columns, field by field.
    real, seen = sim.build_score_matrix, []

    def recorded(a, b, fit):
        seen.append((a, b, fit))
        return real(a, b, fit)

    monkeypatch.setattr(sim, "build_score_matrix", recorded)
    run_scenario_table(replace(SMALL, n_reps=2, nonlinearity=mode))
    assert len(seen) == 2 * 4  # each scenario's fit, in both replications
    for rep in (seen[:4], seen[4:]):
        a, b, _ = rep[0]
        fits = {(fit.cols_y, fit.cols_r): fit for _, _, fit in rep}
        assert len(fits) == 4 and all(ra is a and rb is b for ra, rb, _ in rep)
        for sc in ("FT", "TF"):
            cols_y, cols_r = (sim._MODEL_COLUMNS[letter] for letter in sc)
            want = sim.fit_scores(a, b, cols_r=cols_r, cols_y=cols_y)
            for field in fields(want):
                ours = getattr(fits[cols_y, cols_r], field.name)
                theirs = getattr(want, field.name)
                if isinstance(theirs, np.ndarray):
                    assert ours.dtype == theirs.dtype and ours.tobytes() == theirs.tobytes()
                elif field.name in ("a", "b"):
                    assert ours is theirs
                else:
                    assert type(ours) is type(theirs) and ours == theirs, (sc, field.name)


@pytest.mark.parametrize("scenarios, n_fits", [
    (sim.SCENARIOS, 2),
    (("FT",), 1),
    (("FT", "FF", "TF"), 3),
])
def test_each_model_is_fitted_once_per_replication(monkeypatch, scenarios, n_fits):
    # Mixed scenarios reuse the two pure fits only when both are requested.
    calls = _counted_fits(monkeypatch)
    reports = run_scenario_table(replace(SMALL, n_reps=1), scenarios)
    assert len(calls) == n_fits == len(set(calls))
    assert all(rep.n_ok == 1 for rep in reports.values())


def test_failed_pure_fit_leaves_mixed_scenarios_their_own_fits(monkeypatch):
    # FF's fit fails in replication 1, so there FT and TF fit their own
    # columns; they and TT report bitwise what they report unforced, and FF
    # counts the one failure.
    unforced = run_scenario_table(SMALL)
    ff = (sim._MODEL_COLUMNS["F"],) * 2
    calls = _counted_fits(monkeypatch, fail=ff, at=1)
    reports = run_scenario_table(SMALL)
    per_rep = [calls[:2], calls[2:6], calls[6:8], calls[8:10]]
    assert len(calls) == 10 and all(len(set(rep)) == len(rep) for rep in per_rep)
    assert set(per_rep[1]) == {tuple(sim._MODEL_COLUMNS[letter] for letter in sc)
                               for sc in sim.SCENARIOS}
    for sc in ("TT", "FT", "TF"):
        assert pickle.dumps(reports[sc]) == pickle.dumps(unforced[sc]), sc
    assert reports["FF"].failures == ("Separation",) and reports["FF"].n_ok == 3


@pytest.mark.parametrize("n_boot", [0, 30])
def test_scenario_reports_do_not_depend_on_the_order_or_the_other_scenarios(
        monkeypatch, n_boot):
    # Whatever set of scenarios runs, and in whatever order, each one's
    # report is bitwise its report run alone, at one worker or two, and the
    # table lists them in the order asked.
    spec = replace(SMALL, n_reps=3, n_boot=n_boot)
    alone = {sc: pickle.dumps(run_monte_carlo(spec, sc)) for sc in sim.SCENARIOS}
    for threads in ("1", "2"):
        monkeypatch.setenv("DSM_THREADS", threads)
        for scenarios in [("FF", "TT", "TF", "FT"), ("TF", "TT"), ("FF", "FT"), ("TF", "FT")]:
            reports = run_scenario_table(spec, scenarios)
            assert tuple(reports) == scenarios
            for sc in scenarios:
                assert pickle.dumps(reports[sc]) == alone[sc], (threads, scenarios, sc)


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
    # So is an empty list, which would otherwise draw every population for nothing.
    for empty in ((), [], iter(())):
        with pytest.raises(ValueError, match=r"scenario must be one of .*, got \(\)"):
            run_scenario_table(SMALL, empty)


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
