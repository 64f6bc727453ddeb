"""Variance estimation and wild-bootstrap confidence intervals.

Matching with replacement makes the naive resampling bootstrap
inconsistent, because redrawing units changes how often each donor is
reused.  The wild bootstrap below keeps the match structure fixed and
perturbs unit-level residual terms with two-point multiplier weights
whose first three moments are (0, 1, 1).  An analytic variance built
from local residual-variance estimates is provided as a cross-check.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .matching import InnerNeighbors, MatchPlan, impute
from .scores import SampleA, SampleB, ScoreFit

__all__ = [
    "MAMMEN_NEG",
    "MAMMEN_POS",
    "MAMMEN_P_NEG",
    "BootstrapSpec",
    "IntervalReport",
    "sigma2_units",
    "sigma2_homoskedastic",
    "analytic_variance",
    "mammen_draw",
    "bootstrap_ci_plain",
    "bootstrap_ci_debiased",
    "bootstrap_ci_population",
]

_SQRT5 = np.sqrt(5.0)

# Two-point multiplier distribution: golden-ratio support points with
# P(w = MAMMEN_NEG) = MAMMEN_P_NEG give E[w] = 0, E[w^2] = E[w^3] = 1.
MAMMEN_NEG = -(_SQRT5 - 1.0) / 2.0
MAMMEN_POS = (_SQRT5 + 1.0) / 2.0
MAMMEN_P_NEG = (_SQRT5 + 1.0) / (2.0 * _SQRT5)

# Uniform draws are generated in row-major (replicate, unit) order and
# chunked only along replicates, so results do not depend on chunk size.
_CHUNK_ELEMS = 1 << 21


@dataclass(frozen=True)
class BootstrapSpec:
    """Replicate count, interval level, and RNG seed for one bootstrap."""

    n_draws: int = 2000
    alpha: float = 0.05
    seed: int = 0

    def __post_init__(self):
        if self.n_draws < 2:
            raise ValueError("n_draws must be at least 2")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must lie strictly between 0 and 1")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")


@dataclass(frozen=True)
class IntervalReport:
    """A point estimate with its percentile-inverted bootstrap interval.

    The interval is [point - q_hi, point - q_lo] where q_lo, q_hi are the
    alpha/2 and 1-alpha/2 quantiles of the centered bootstrap draws,
    which are kept in full for diagnostics.
    """

    point: float
    lo: float
    hi: float
    q_lo: float
    q_hi: float
    draws: np.ndarray


def mammen_draw(rng, size=None):
    """Draw from the two-point multiplier distribution.

    Returns a scalar when size is None, else an ndarray of that shape.
    """
    u = rng.random(size)
    if size is None:
        return MAMMEN_NEG if u < MAMMEN_P_NEG else MAMMEN_POS
    return np.where(u < MAMMEN_P_NEG, MAMMEN_NEG, MAMMEN_POS)


# -- residual variance and the analytic check ---------------------------

def sigma2_units(inner: InnerNeighbors, y_a) -> np.ndarray:
    """Local residual-variance estimate for every sample-A unit.

    Unit i's estimate is (J/(J+1)) * (y_i - nbhd mean)^2 with the mean
    taken over its J nearest other A-units; the leading factor removes
    the inflation from differencing against an average of J draws.
    """
    y_a = np.asarray(y_a, dtype=np.float64)
    if y_a.shape[0] != inner.l_sets.shape[0]:
        raise ValueError("y_a must have one outcome per sample-A unit")
    gap = y_a - y_a[inner.l_sets].mean(axis=1)
    return (inner.j / (inner.j + 1.0)) * gap**2


def sigma2_homoskedastic(inner: InnerNeighbors, y_a) -> float:
    """Common residual variance: the unweighted mean of the per-unit
    estimates over sample A."""
    return float(sigma2_units(inner, y_a).mean())


def analytic_variance(
    plan: MatchPlan,
    y_a,
    mu_b_hat: float,
    inner: InnerNeighbors,
    homoskedastic: bool = False,
) -> float:
    """Analytic variance of the sample-B mean estimator, normalized so
    that sqrt(result / n_b) is the standard error of mu_b.

    Sum of a heterogeneity term (spread of imputed outcomes around the
    estimate) and a matching term in which donors reused k times
    contribute k*(k-1) copies of their residual variance.
    """
    y_a = np.asarray(y_a, dtype=np.float64)
    yhat = impute(plan, y_a)
    n_b = plan.n_b
    term_het = float(((yhat - mu_b_hat) ** 2).mean())
    if homoskedastic:
        s2 = np.full(plan.n_a, sigma2_homoskedastic(inner, y_a))
    else:
        s2 = sigma2_units(inner, y_a)
    k = plan.k_counts.astype(np.float64)
    term_match = float((k * (k - 1.0) / plan.m**2) @ s2) / n_b
    return term_het + term_match


# -- wild bootstrap -----------------------------------------------------

def _centered_draws(spec: BootstrapSpec, resid_a, resid_b, norm):
    """Bootstrap draws q_b = (w_a . resid_a + w_b . resid_b) / norm.

    Multiplier weights come from a counter-based generator keyed by the
    seed; replicate b always consumes rows b of the (n_draws, n_units)
    uniform block, so identical seeds give identical draws regardless of
    chunking, and a run with resid_b = None consumes only A-columns.
    """
    resid_a = np.asarray(resid_a, dtype=np.float64)
    if resid_b is None:
        resid = resid_a
    else:
        resid = np.concatenate([resid_a, np.asarray(resid_b, dtype=np.float64)])
    n = resid.shape[0]
    gen = np.random.Generator(np.random.Philox(key=spec.seed))
    out = np.empty(spec.n_draws)
    chunk = max(1, _CHUNK_ELEMS // max(1, n))
    pos = 0
    while pos < spec.n_draws:
        take = min(chunk, spec.n_draws - pos)
        w = mammen_draw(gen, (take, n))
        # Row-wise multiply-reduce, not a matvec: BLAS accumulation order
        # varies with the row count, which would make the draws depend on
        # the chunk size at the last ulp.
        out[pos : pos + take] = (w * resid).sum(axis=1) / norm
        pos += take
    return out


def _interval(point: float, draws: np.ndarray, alpha: float) -> IntervalReport:
    q_lo = float(np.quantile(draws, alpha / 2.0))
    q_hi = float(np.quantile(draws, 1.0 - alpha / 2.0))
    return IntervalReport(
        point=point, lo=point - q_hi, hi=point - q_lo, q_lo=q_lo, q_hi=q_hi, draws=draws
    )


def bootstrap_ci_plain(plan: MatchPlan, y_a, point: float, spec: BootstrapSpec) -> IntervalReport:
    """Interval for the plain matching estimator of the sample-B mean.

    Each replicate perturbs the donor-level terms k_i * (y_i - point) / m
    with independent multiplier weights and averages over n_b.
    """
    y_a = np.asarray(y_a, dtype=np.float64)
    resid_a = plan.k_counts * (y_a - point) / plan.m
    draws = _centered_draws(spec, resid_a, None, plan.n_b)
    return _interval(point, draws, spec.alpha)


def _corrected_interval(plan, fit, a, b, point, spec, k, d, norm) -> IntervalReport:
    """Interval for a bias-corrected mean, unweighted or design-weighted.

    A-units contribute weighted prognostic residuals k_i*(y_i - g_i)/m,
    B-units contribute d_i*(g_i - point); both sides get their own
    multiplier weights and the sum is divided by norm.
    """
    resid_a = k * (a.y - fit.prognostic(a.x)) / plan.m
    resid_b = d * (fit.prognostic(b.x) - point)
    draws = _centered_draws(spec, resid_a, resid_b, norm)
    return _interval(point, draws, spec.alpha)


def bootstrap_ci_debiased(
    plan: MatchPlan,
    fit: ScoreFit,
    a: SampleA,
    b: SampleB,
    point: float,
    spec: BootstrapSpec,
) -> IntervalReport:
    """Interval for the bias-corrected sample-B mean: donor counts
    k_counts, unit B weights, averaged over n_b."""
    return _corrected_interval(plan, fit, a, b, point, spec, plan.k_counts, 1.0, plan.n_b)


def bootstrap_ci_population(
    plan: MatchPlan,
    fit: ScoreFit,
    a: SampleA,
    b: SampleB,
    point: float,
    spec: BootstrapSpec,
) -> IntervalReport:
    """Interval for the bias-corrected population mean: weighted donor
    counts k_weighted, B weights d_i, normalized by the estimated
    population size sum(d).  With unit weights the draws coincide with
    bootstrap_ci_debiased under the same seed."""
    return _corrected_interval(
        plan, fit, a, b, point, spec, plan.k_weighted, b.d, float(b.d.sum())
    )
