"""Synthetic-population generator and the Monte Carlo harness.

One replication builds a finite population with four dependent
covariates and a linear outcome, draws a volunteer sample by Poisson
sampling with covariate-driven inclusion odds and a reference sample by
systematic probability-proportional-to-size sampling on a size variable
tied to the third covariate, then runs every estimator on those samples
under each requested model-specification scenario.  Scenario tags are
two letters, prognostic model first: a T model uses all four observed
covariates, an F model omits the fourth, the one carrying nearly all of
the volunteer sample's selection bias.  A nonlinearity mode distorts
what the analyst observes (the sampling designs always act on the true
covariates), so even T-labeled models can see a wrong functional form.
"""

from __future__ import annotations

import warnings
from collections import Counter
from dataclasses import dataclass, replace
from itertools import islice, starmap

import numpy as np

from .errors import (
    BracketFailure,
    DomainError,
    DsmError,
    ExtremePropensityWarning,
    InfeasibleRatio,
    RepeatedSelection,
    RhoOutOfRange,
)
from .estimators import point_estimates
from .matching import find_matches
from .scores import SampleA, SampleB, _expit, build_score_matrix, fit_scores
from .uncertainty import (
    BootstrapSpec,
    _corrected_column,
    _intervals,
    _one_bootstrap_thread,
    _worker_count,
)

__all__ = [
    "SCENARIOS",
    "NONLINEARITY_MODES",
    "COVERAGE_GRID",
    "ScenarioSpec",
    "PopulationFrame",
    "EstimatorRow",
    "SimReport",
    "calibrate_sigma",
    "calibrate_theta0",
    "calibrate_pps",
    "gen_population",
    "poisson_sample",
    "pps_sample",
    "observed_covariates",
    "run_monte_carlo",
    "run_scenario_table",
    "run_coverage_grid",
]

SCENARIOS = ("TT", "FT", "TF", "FF")
# Covariate columns a scenario letter gives its model.
_MODEL_COLUMNS = {"T": (0, 1, 2, 3), "F": (0, 1, 2)}
NONLINEARITY_MODES = ("none", "cubic", "extreme")

# Volunteer-sample selection slopes on the true covariates.
_SELECTION_SLOPES = np.array([0.1, 0.2, 0.1, 0.2])

# (m, n_a, n_b) rows of the coverage study.
COVERAGE_GRID = (
    (3, 500, 1000),
    (3, 1000, 500),
    (5, 1000, 500),
    (5, 1000, 1000),
    (6, 1000, 2000),
    (8, 1500, 1000),
    (8, 1500, 1500),
    (10, 2000, 2000),
    (10, 2500, 2500),
    (15, 3000, 1500),
)

_CALIBRATION_TOL = 1e-6

# max(size)/min(size) of the reference design's size variable.
_PPS_RATIO = 50.0


@dataclass(frozen=True)
class ScenarioSpec:
    """Configuration of one Monte Carlo run, shared by all its scenarios.

    n_a is the expected volunteer-sample size (Poisson sampling gives a
    random realized size); n_b is the exact reference-sample size.
    n_boot = 0 skips interval construction.
    """

    nonlinearity: str = "none"
    n_pop: int = 20000
    n_a: int = 500
    n_b: int = 1000
    m: int = 3
    n_reps: int = 500
    n_boot: int = 0
    rho: float = 0.3
    seed: int = 0

    def __post_init__(self):
        if self.nonlinearity not in NONLINEARITY_MODES:
            raise ValueError(f"nonlinearity must be one of {NONLINEARITY_MODES}")
        for field in ("n_pop", "n_a", "n_b", "m", "n_reps"):
            if getattr(self, field) < 1:
                raise ValueError(f"{field} must be at least 1, got {getattr(self, field)}")
        if self.n_b >= self.n_pop or self.n_a >= self.n_pop:
            raise ValueError("sample sizes must be smaller than the population")
        if not 0.0 < self.rho <= 1.0:
            raise ValueError("rho must lie in (0, 1]")
        if self.n_boot < 0 or self.n_boot == 1:
            raise ValueError("n_boot (bootstrap draws) must be 0 or at least 2")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")


@dataclass(frozen=True)
class PopulationFrame:
    """One realized finite population with its design quantities."""

    x: np.ndarray
    y: np.ndarray
    cond_mean: np.ndarray
    pi_a: np.ndarray
    pi_b: np.ndarray
    c_pps: float

    @property
    def n(self) -> int:
        return self.x.shape[0]


# -- calibrations -------------------------------------------------------

def calibrate_sigma(linear_predictor, rho: float) -> float:
    """Residual standard deviation giving corr(y, E[y|x]) = rho.

    With y = lp + sigma * eps the correlation is sd(lp) / sqrt(sd(lp)^2
    + sigma^2); solving gives sigma = sd(lp) * sqrt(1/rho^2 - 1).
    rho = 1 is the noiseless limit.
    """
    if not 0.0 < rho <= 1.0:
        raise RhoOutOfRange(f"rho must lie in (0, 1], got {rho!r}")
    lp = np.asarray(linear_predictor, dtype=np.float64)
    return float(np.std(lp) * np.sqrt(1.0 / rho**2 - 1.0))


def calibrate_theta0(x, target_n_a: float) -> float:
    """Selection intercept making the expected volunteer-sample size hit
    target_n_a, by safeguarded Newton on the monotone size function."""
    return _calibrate_theta0(x, target_n_a)[0]


def _calibrate_theta0(x, target_n_a: float):
    """calibrate_theta0's intercept and the selection probabilities at it.

    Safeguarded Newton (rtsafe): each sweep narrows the bracket by the sign
    of its excess, then steps t - e / sum f(1 - f) when that lands strictly
    inside the bracket, and bisects otherwise.  It starts from the logit
    guess, clipped into the bracket, when the target and the linear
    predictors allow one, else from the bracket's midpoint.  The bracket
    [-w, w] starts at w = 40.  Its ends are swept only when the start lies
    outside it, a step would first leave it or the sweeps run out; if they
    do not hold the target, w doubles and Newton restarts.
    """
    base = np.asarray(x, dtype=np.float64) @ _SELECTION_SLOPES
    n = base.shape[0]
    start = 0.0
    if 0 < target_n_a < n and np.isfinite(base).all():
        start = float(np.log(target_n_a / (n - target_n_a)) - base.mean())

    def holds(w):
        return _expit(-w + base).sum() <= target_n_a <= _expit(w + base).sum()

    for w in (40.0 * 2.0**k for k in range(20)):
        lo, hi = -w, w
        t, held = min(max(start, lo), hi), False
        # A start beyond the bracket suggests that the root is beyond it too.
        if t != start and not (held := holds(w)):
            continue
        for _ in range(200):
            f = _expit(t + base)
            e = float(f.sum()) - target_n_a
            if abs(e) <= _CALIBRATION_TOL:
                return t, f
            lo, hi = (t, hi) if e < 0.0 else (lo, t)
            slope = float((f * (1.0 - f)).sum())
            step = t - e / slope if slope > 0.0 else np.nan  # NaN, like inf, bisects
            if not (lo < step < hi or held or (held := holds(w))):
                break
            t = step if lo < step < hi else 0.5 * (lo + hi)
        else:
            if held or holds(w):
                raise BracketFailure("bisection failed to reach tolerance")
    raise BracketFailure(f"target size {target_n_a} cannot be bracketed")


def calibrate_pps(x3, target_n_b: int):
    """Size variable and inclusion probabilities for the reference design.

    Shifts the third covariate by the constant c making max(size)/min(size)
    equal _PPS_RATIO, scales to sum(pi) = target_n_b, then repairs any pi > 1
    by capping and rescaling the rest (which preserves the total).  Each
    round caps at least one more unit, and the free units always share a
    total smaller than their number, so they cannot all reach 1: the
    repair ends with every pi in (0, 1].

    Returns (c, pi).
    """
    x3 = np.asarray(x3, dtype=np.float64)
    n = x3.shape[0]
    if not 0 < target_n_b < n:
        raise ValueError("target size must lie strictly between 0 and the population size")
    c = (x3.max() - _PPS_RATIO * x3.min()) / (_PPS_RATIO - 1.0)
    size = c + x3
    if size.min() <= 0.0:
        raise InfeasibleRatio(f"ratio {_PPS_RATIO} forces nonpositive size values")

    pi = target_n_b * size / size.sum()
    capped = np.zeros(n, dtype=bool)
    while np.any(pi > 1.0):
        capped |= pi >= 1.0
        remaining = target_n_b - int(capped.sum())
        if remaining <= 0:
            raise InfeasibleRatio("too many units force pi = 1 for this target size")
        free = ~capped
        pi[capped] = 1.0
        pi[free] = remaining * size[free] / size[free].sum()
    return float(c), pi


# -- population and samples ---------------------------------------------

def gen_population(spec: ScenarioSpec, rng) -> PopulationFrame:
    """Draw one finite population.

    Covariates chain on each other (binary, shifted uniform, shifted
    exponential, shifted chi-square); the outcome is linear in all four
    with noise calibrated to spec.rho.  Draw order is fixed, so a given
    generator state always yields the same population.
    """
    n = spec.n_pop
    x1 = (rng.random(n) < 0.5).astype(np.float64)
    x2 = rng.uniform(0.0, 2.0, n) + 0.3 * x1
    x3 = rng.exponential(1.0, n) + 0.2 * (x1 + x2)
    x4 = rng.chisquare(4.0, n) + 0.1 * (x1 + x2 + x3)
    x = np.column_stack([x1, x2, x3, x4])

    cond_mean = 2.0 + x.sum(axis=1)
    sigma = calibrate_sigma(cond_mean, spec.rho)
    y = cond_mean + sigma * rng.standard_normal(n)

    _, pi_a = _calibrate_theta0(x, spec.n_a)
    c_pps, pi_b = calibrate_pps(x3, spec.n_b)
    return PopulationFrame(x=x, y=y, cond_mean=cond_mean, pi_a=pi_a, pi_b=pi_b, c_pps=c_pps)


def poisson_sample(pi, rng) -> np.ndarray:
    """Independent Bernoulli selection; returns sorted indices (random size)."""
    pi = np.asarray(pi, dtype=np.float64)
    return np.flatnonzero(rng.random(pi.shape[0]) < pi)


def pps_sample(pi, n_b: int, rng) -> np.ndarray:
    """Fixed-size systematic PPS selection on a randomly permuted frame.

    Requires sum(pi) == n_b (within 1e-6) and 0 < pi <= 1; each unit's
    inclusion probability is then exactly pi.  Returns sorted indices.
    """
    pi = np.asarray(pi, dtype=np.float64)
    if abs(float(pi.sum()) - n_b) > _CALIBRATION_TOL:
        raise ValueError("inclusion probabilities must sum to the sample size")
    if np.any(pi <= 0.0) or np.any(pi > 1.0):
        raise ValueError("inclusion probabilities must lie in (0, 1]")
    perm = rng.permutation(pi.shape[0])
    edges = np.cumsum(pi[perm])
    points = rng.random() + np.arange(n_b)
    pos = np.searchsorted(edges, points, side="right")
    pos = np.minimum(pos, pi.shape[0] - 1)
    if np.any(pos[1:] == pos[:-1]):
        raise RepeatedSelection("systematic selection hit a unit twice")
    return np.sort(perm[pos])


def observed_covariates(x, nonlinearity: str) -> np.ndarray:
    """Analyst-visible covariates: x itself, or its squared/cubed (cubic)
    or fractional-exponent (extreme) distortion."""
    x = np.asarray(x, dtype=np.float64)
    if nonlinearity == "none":
        return x
    if nonlinearity == "cubic":
        return np.column_stack([x[:, 0], x[:, 1] ** 2, x[:, 2] ** 3, x[:, 3] ** 2])
    if nonlinearity == "extreme":
        if np.any(x[:, 1] < 0.0) or np.any(x[:, 2] <= 0.0) or np.any(x[:, 3] <= 0.0):
            raise DomainError("fractional/negative exponents need positive covariates")
        return np.column_stack([x[:, 0], x[:, 1] ** 1.15, x[:, 2] ** -0.85, x[:, 3] ** -1.15])
    raise ValueError(f"nonlinearity must be one of {NONLINEARITY_MODES}")


# -- Monte Carlo --------------------------------------------------------

def _replicate(spec: ScenarioSpec, scenarios, s: int) -> dict:
    """Run replication s under each scenario; returns {scenario: ("ok",
    results) or ("fail", error name)}.

    The population, both samples (on the observed covariates) and the
    bootstrap seed are drawn once from the stream keyed by (seed, s) and
    shared by every scenario, which only chooses each model's columns; so
    a replication is identical no matter how the work is scheduled.  A
    package error while drawing or building them fails every scenario.
    """
    rng = np.random.default_rng([spec.seed, s])
    try:
        pop = gen_population(spec, rng)
        ia = poisson_sample(pop.pi_a, rng)
        ib = pps_sample(pop.pi_b, spec.n_b, rng)
        xbar = observed_covariates(pop.x, spec.nonlinearity)
        a = SampleA(xbar[ia], pop.y[ia])
        b = SampleB(xbar[ib], 1.0 / pop.pi_b[ib])
    except DsmError as err:
        return dict.fromkeys(scenarios, ("fail", type(err).__name__))
    boot_seed = int(rng.integers(0, 2**63))
    bs = BootstrapSpec(n_draws=spec.n_boot, seed=boot_seed) if spec.n_boot else None

    shared = {
        "target_b": float(pop.cond_mean[ib].mean()),
        "target_pop": float(pop.cond_mean.mean()),
        "sample_a_mean": float(a.y.mean()),
    }
    results, columns, flags = {}, [], []
    for scenario in scenarios:
        cols_y, cols_r = _MODEL_COLUMNS[scenario[0]], _MODEL_COLUMNS[scenario[1]]
        try:
            with warnings.catch_warnings():
                # distorted-covariate modes raise extreme-propensity warnings wholesale;
                # they are dropped (recording min/max propensity is ROADMAP item 5)
                warnings.simplefilter("ignore", ExtremePropensityWarning)
                fit = fit_scores(a, b, cols_r=cols_r, cols_y=cols_y)
                plan = find_matches(build_score_matrix(a, b, fit), spec.m, d_b=b.d)
                est = point_estimates(plan, fit, a, b)
        except DsmError as err:
            results[scenario] = ("fail", type(err).__name__)
            continue
        out = dict(shared, **{k: getattr(est, k) for k in _TARGET_OF if k not in shared})
        results[scenario] = ("ok", out)
        if bs is not None:
            columns += [_corrected_column(plan, fit, a, b, est.mu_b_debiased, weighted=False),
                        _corrected_column(plan, fit, a, b, est.mu_dsm_debiased, weighted=True)]
            flags += [(out, "cover_b", "target_b"), (out, "cover_pop", "target_pop")]
    # Every scenario's intervals share the units and boot_seed, so one block serves them all.
    for (out, flag, target), ci in zip(flags, _intervals(bs, columns) if columns else ()):
        out[flag] = float(ci.lo < out[target] < ci.hi)
    return results


# Estimator name -> target series it chases.
_TARGET_OF = {
    "sample_a_mean": "target_pop",
    "mu_b": "target_b",
    "mu_b_debiased": "target_b",
    "mu_dsm": "target_pop",
    "mu_dsm_debiased": "target_pop",
    "dre": "target_pop",
}
_COVER_OF = {"mu_b_debiased": "cover_b", "mu_dsm_debiased": "cover_pop"}


@dataclass(frozen=True)
class EstimatorRow:
    """Monte Carlo summary of one estimator: average estimate, relative
    bias in percent, mean squared error, and interval coverage when
    intervals were run."""

    name: str
    mean: float
    rb_pct: float
    mse: float
    coverage: float | None = None


@dataclass(frozen=True)
class SimReport:
    """Raw per-replication results of one Monte Carlo run.

    estimates/targets/coverage hold aligned arrays over the successful
    replications, in replication order; failures lists the error class
    name of each dropped replication.
    """

    n_ok: int
    n_failed: int
    failures: tuple
    estimates: dict
    targets: dict
    coverage: dict

    def target_mean(self, key: str) -> float:
        return float(self.targets[key].mean())

    def summary(self, name: str) -> EstimatorRow:
        est = self.estimates[name]
        tgt = self.targets[_TARGET_OF[name]]
        cov = None
        flag_key = _COVER_OF.get(name)
        if flag_key in self.coverage:
            cov = float(self.coverage[flag_key].mean())
        return EstimatorRow(
            name=name,
            mean=float(est.mean()),
            rb_pct=float(((est - tgt) / tgt).mean() * 100.0),
            mse=float(((est - tgt) ** 2).mean()),
            coverage=cov,
        )


def _report(results, scenario: str, spec: ScenarioSpec) -> SimReport:
    """One scenario's SimReport from its results in replication order."""
    ok = [payload for status, payload in results if status == "ok"]
    failures = tuple(payload for status, payload in results if status != "ok")
    if not ok:
        reasons = ", ".join(f"{name}: {n}" for name, n in Counter(failures).items())
        raise DsmError(
            f"scenario {scenario} at m={spec.m}, n_a={spec.n_a}, n_b={spec.n_b}: "
            f"every replication failed ({reasons}); nothing to aggregate")

    keys = ok[0].keys()
    series = {k: np.array([r[k] for r in ok]) for k in keys}
    coverage = {k: series.pop(k) for k in ("cover_b", "cover_pop") if k in series}
    targets = {k: series.pop(k) for k in ("target_b", "target_pop")}
    return SimReport(n_ok=len(ok), n_failed=len(failures), failures=failures,
                     estimates=series, targets=targets, coverage=coverage)


def _run(specs, scenarios=SCENARIOS) -> list:
    """One {scenario: SimReport} per spec, all their replications in one run."""
    names = tuple(dict.fromkeys(scenarios))
    if not set(names) <= set(SCENARIOS):
        raise ValueError(f"scenario must be one of {SCENARIOS}")
    jobs = [(spec, names, s) for spec in specs for s in range(spec.n_reps)]
    workers = min(_worker_count(), len(jobs))
    if workers > 1:
        # Lazy: the process pool loads multiprocessing, socket and more, slowing `import dsm`.
        from concurrent.futures import ProcessPoolExecutor

        import scipy.special  # loaded once here: the forked workers inherit it

        with ProcessPoolExecutor(workers, initializer=_one_bootstrap_thread) as pool:
            chunk = max(1, len(jobs) // (workers * 8))
            results = iter(list(pool.map(_replicate, *zip(*jobs), chunksize=chunk)))
    else:
        results = iter(list(starmap(_replicate, jobs)))
    rows = [(spec, list(islice(results, spec.n_reps))) for spec in specs]
    return [{sc: _report([r[sc] for r in row], sc, spec) for sc in names} for spec, row in rows]


def run_scenario_table(base: ScenarioSpec, scenarios=SCENARIOS) -> dict:
    """Run base.n_reps replications, each drawing its population and
    samples once for every scenario, and return {scenario: SimReport}.

    Replications failing with a package error (separation, rank loss,
    domain problems) are dropped and counted per scenario; the rest are
    aggregated in replication order, so reports are bit-identical for a
    given spec no matter the worker count.  One worker runs them in this
    process; more share one pool of up to DSM_THREADS (else the CPUs this
    process may run on) processes, never more than replications, each
    bootstrapping on one thread.
    """
    return _run([base], scenarios)[0]


def run_monte_carlo(spec: ScenarioSpec, scenario: str = "TT") -> SimReport:
    """Run spec.n_reps replications of one scenario (see run_scenario_table)."""
    return run_scenario_table(spec, (scenario,))[scenario]


def run_coverage_grid(base: ScenarioSpec, grid=COVERAGE_GRID):
    """Run the coverage study rows; returns a list of dicts with the row
    sizes and {scenario: SimReport} under each of the four scenarios.
    All rows' replications run as one table run would, in one pool sized
    to all of them; a row's all-failed scenario is reported after them."""
    specs = [replace(base, m=m, n_a=n_a, n_b=n_b) for m, n_a, n_b in grid]
    return [{"m": sp.m, "n_a": sp.n_a, "n_b": sp.n_b, "reports": reports}
            for sp, reports in zip(specs, _run(specs))]
