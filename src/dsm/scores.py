"""Propensity and prognostic score models.

The sampling-score model is a logistic regression telling the two samples
apart, fitted by Newton iteration on a design-weighted likelihood: units
from the volunteer sample A contribute log(f/(1-f)) and units from the
reference sample B contribute d_i * log(1-f), with d_i the design weight.
The prognostic model is an ordinary least squares fit of the outcome on
the sample-A covariates.  Both fitted scores are evaluated on the pooled
rows and normalized to unit standard deviation, giving the
two-dimensional matching space.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import expit

from .errors import (
    DegenerateScore,
    EmptySample,
    NonConvergence,
    NonpositiveWeight,
    RankDeficient,
    Separation,
)

__all__ = [
    "SampleA",
    "SampleB",
    "ScoreFit",
    "ScoreMatrix",
    "fit_propensity",
    "fit_prognostic",
    "fit_scores",
    "build_score_matrix",
]

# Fitted propensities this close to {0, 1} count as pinned when deciding
# whether a failed fit was a separation problem.
_PIN_TOL = 1e-12
_COEF_LIMIT = 1e6

# Newton controls for the propensity fit: the max-norm gradient tolerance
# (on internally standardized covariates, so it is scale-free) and the
# cap on Newton steps.
_TOL = 1e-8
_MAX_ITER = 100


def _as_matrix(x) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError(f"covariates must be a 2-D array, got shape {x.shape}")
    if not np.all(np.isfinite(x)):
        raise ValueError("covariates contain NaN or infinite entries")
    return x


def _as_vector(v, name) -> np.ndarray:
    v = np.asarray(v, dtype=np.float64)
    if v.ndim != 1:
        raise ValueError(f"{name} must be a 1-D array, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise ValueError(f"{name} contains NaN or infinite entries")
    return v


@dataclass(frozen=True)
class SampleA:
    """Volunteer (nonprobability) sample: covariates and observed outcome."""

    x: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        x = _as_matrix(self.x)
        y = _as_vector(self.y, "y")
        if x.shape[0] != y.shape[0]:
            raise ValueError("x and y disagree on the number of units")
        if x.shape[0] < 1:
            raise EmptySample("sample A is empty")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)

    @property
    def n(self) -> int:
        return self.x.shape[0]


@dataclass(frozen=True)
class SampleB:
    """Reference probability sample: covariates and design weights d_i."""

    x: np.ndarray
    d: np.ndarray

    def __post_init__(self):
        x = _as_matrix(self.x)
        d = _as_vector(self.d, "d")
        if x.shape[0] != d.shape[0]:
            raise ValueError("x and d disagree on the number of units")
        if x.shape[0] < 1:
            raise EmptySample("sample B is empty")
        if np.any(d <= 0):
            bad = int(np.argmax(d <= 0))
            raise NonpositiveWeight(f"design weight at row {bad} is {d[bad]!r}")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "d", d)

    @property
    def n(self) -> int:
        return self.x.shape[0]


def _take_cols(x: np.ndarray, cols) -> np.ndarray:
    if cols is None:
        return x
    return x[:, list(cols)]


@dataclass(frozen=True)
class ScoreFit:
    """Fitted score models plus diagnostics.

    theta_r / theta_y hold intercept-first coefficients on the original
    covariate scale for the propensity and prognostic models; cols_r /
    cols_y record which covariate columns each model used (None = all).
    sd_f / sd_g are the pooled standard deviations used to normalize the
    score columns.  fit_scores raises when the propensity fit does not
    converge, so every fit it returns is a converged one.
    """

    theta_r: np.ndarray
    theta_y: np.ndarray
    iterations: int
    grad_norm: float
    sd_f: float
    sd_g: float
    cols_r: tuple | None = None
    cols_y: tuple | None = None

    def propensity(self, x) -> np.ndarray:
        """Fitted sampling score f(x) for each row of x (full covariate set)."""
        x = _take_cols(np.asarray(x, dtype=np.float64), self.cols_r)
        return expit(self.theta_r[0] + x @ self.theta_r[1:])

    def prognostic(self, x) -> np.ndarray:
        """Fitted outcome-model prediction g(x) for each row of x."""
        x = _take_cols(np.asarray(x, dtype=np.float64), self.cols_y)
        return self.theta_y[0] + x @ self.theta_y[1:]


@dataclass(frozen=True)
class ScoreMatrix:
    """Pooled normalized scores: column 0 the sampling score, column 1 the
    prognostic score, each scaled to unit pooled standard deviation.
    Rows are sample-A units first, then sample-B units; in_a flags the
    A rows."""

    z: np.ndarray
    in_a: np.ndarray

    @property
    def n_a(self) -> int:
        return int(self.in_a.sum())

    @property
    def n_b(self) -> int:
        return int((~self.in_a).sum())


def _standardize_columns(xa, xb):
    """Pooled column means/sds for internal standardization (empty when
    there are no covariates)."""
    pooled = np.vstack([xa, xb])
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite sd is reported below
        mu, sd = pooled.mean(axis=0), pooled.std(axis=0)
    for bad, why in ((~np.isfinite(sd), "spreads beyond float64"), (sd == 0, "is constant")):
        if np.any(bad):
            raise RankDeficient(f"covariate column {np.argmax(bad)} {why} over the pooled sample")
    return mu, sd


def _design(x, mu, sd):
    return np.column_stack([np.ones(x.shape[0]), (x - mu) / sd])


def _unstandardized(theta, mu, sd):
    slopes = theta[1:] / sd
    return np.concatenate([[theta[0] - float(slopes @ mu)], slopes])


def _newton_propensity(xa, xb, d):
    """Maximize the design-weighted sampling likelihood.

    Returns (theta on the original scale, iterations used, final gradient
    max-norm on the standardized scale).
    """
    mu, sd = _standardize_columns(xa, xb)
    dm_a = _design(xa, mu, sd)
    dm_b = _design(xb, mu, sd)
    p = dm_a.shape[1]
    if np.linalg.matrix_rank(np.vstack([dm_a, dm_b])) < p:
        raise RankDeficient("pooled design matrix is rank deficient")
    # The intercept's score equation n_A = sum_B d_i f_i, f_i < 1, needs sum(d) > n_A.
    if d.sum() <= xa.shape[0]:
        raise Separation(
            f"sample-B design weights sum to {d.sum():g}, not more than the {xa.shape[0]} "
            "sample-A units: they cannot represent a population that contains sample A"
        )

    ga = dm_a.sum(axis=0)  # gradient of the linear sample-A term
    theta = np.zeros(p)
    eta_b = dm_b @ theta
    obj = float(ga @ theta - d @ np.logaddexp(0.0, eta_b))

    def fail(msg):
        f_pool = expit(np.concatenate([dm_a @ theta, eta_b]))
        pinned = np.any(f_pool < _PIN_TOL) or np.any(f_pool > 1.0 - _PIN_TOL)
        cls = Separation if pinned else NonConvergence
        raise cls(msg)

    gnorm = np.inf
    for it in range(_MAX_ITER + 1):
        f_b = expit(eta_b)
        grad = ga - dm_b.T @ (d * f_b)
        gnorm = float(np.max(np.abs(grad)))
        if gnorm <= _TOL:
            return _unstandardized(theta, mu, sd), it, gnorm
        if it == _MAX_ITER:
            break

        w = d * f_b * (1.0 - f_b)
        hess = (dm_b * w[:, None]).T @ dm_b
        try:
            step = np.linalg.solve(hess, grad)
        except np.linalg.LinAlgError:
            fail("curvature matrix is singular")

        # Step-halving: the likelihood is concave, so the Newton direction
        # ascends; halve until the objective stops decreasing.  Near the
        # optimum the true improvement drops below the objective's float
        # resolution, so apparent decreases within summation roundoff are
        # accepted rather than rejected.
        slack = 1e-9 * (1.0 + abs(obj))
        t = 1.0
        for _ in range(60):
            cand = theta + t * step
            eta_c = dm_b @ cand
            obj_c = float(ga @ cand - d @ np.logaddexp(0.0, eta_c))
            if np.isfinite(obj_c) and obj_c >= obj - slack:
                break
            t *= 0.5
        else:
            fail(f"step search stalled at gradient norm {gnorm:.3g}")

        theta, eta_b, obj = cand, eta_c, obj_c
        if np.max(np.abs(_unstandardized(theta, mu, sd))) > _COEF_LIMIT:
            raise Separation("coefficients diverged; the samples are separable")

    fail(f"no convergence in {_MAX_ITER} iterations (gradient norm {gnorm:.3g})")


def fit_propensity(a: SampleA, b: SampleB) -> np.ndarray:
    """Fit the sampling-score logistic model.

    Maximizes sum_A log(f/(1-f)) + sum_B d_i log(1-f) over intercept-first
    coefficients theta, where f = expit(theta_0 + x theta).  With no
    covariates this reduces to the closed form f = N_A / sum(d).

    Parameters
    ----------
    a, b : SampleA, SampleB
        Samples with identical covariate column layout.

    Returns
    -------
    ndarray of shape (k+1,), intercept first, on the original covariate
    scale.
    """
    if a.x.shape[1] != b.x.shape[1]:
        raise ValueError("samples disagree on the number of covariate columns")
    theta, _, _ = _newton_propensity(a.x, b.x, b.d)
    return theta


def fit_prognostic(a: SampleA) -> np.ndarray:
    """Ordinary least squares of y on the sample-A covariates.

    Returns intercept-first coefficients; raises RankDeficient when the
    design (including the intercept) is not full column rank.
    """
    design = np.column_stack([np.ones(a.n), a.x])
    theta, _, rank, _ = np.linalg.lstsq(design, a.y, rcond=None)
    if rank < design.shape[1]:
        raise RankDeficient("sample-A design matrix is rank deficient")
    return theta


def fit_scores(a: SampleA, b: SampleB, cols_r=None, cols_y=None) -> ScoreFit:
    """Fit both score models and record normalization constants.

    cols_r / cols_y restrict the covariate columns each model sees
    (iterables of column indices into the full matrix; None = all), which
    is how deliberately misspecified model views are expressed.
    """
    if a.x.shape[1] != b.x.shape[1]:
        raise ValueError("samples disagree on the number of covariate columns")
    cols_r = None if cols_r is None else tuple(cols_r)
    cols_y = None if cols_y is None else tuple(cols_y)

    theta_r, iters, gnorm = _newton_propensity(
        _take_cols(a.x, cols_r), _take_cols(b.x, cols_r), b.d
    )
    theta_y = fit_prognostic(SampleA(_take_cols(a.x, cols_y), a.y))

    pooled = np.vstack([a.x, b.x])
    f = expit(theta_r[0] + _take_cols(pooled, cols_r) @ theta_r[1:])
    g = theta_y[0] + _take_cols(pooled, cols_y) @ theta_y[1:]
    return ScoreFit(
        theta_r=theta_r,
        theta_y=theta_y,
        iterations=iters,
        grad_norm=gnorm,
        sd_f=_pooled_sd(f, "sampling"),
        sd_g=_pooled_sd(g, "prognostic"),
        cols_r=cols_r,
        cols_y=cols_y,
    )


def _pooled_sd(values, label):
    sd = float(np.std(values, ddof=1))
    # A spread at roundoff scale is as useless for normalization as an
    # exactly constant score.
    floor = 1e-12 * (1.0 + float(np.max(np.abs(values))))
    if not np.isfinite(sd) or sd <= floor:
        raise DegenerateScore(f"{label} score is constant over the pooled sample")
    return sd


def build_score_matrix(a: SampleA, b: SampleB, fit: ScoreFit) -> ScoreMatrix:
    """Evaluate both scores on the pooled rows and divide each column by
    the pooled standard deviation (ddof=1) that fit_scores stored for the
    same samples, giving unit-variance columns.

    Row order is sample A first, then sample B.
    """
    pooled = np.vstack([a.x, b.x])
    z = np.column_stack([fit.propensity(pooled) / fit.sd_f, fit.prognostic(pooled) / fit.sd_g])
    in_a = np.zeros(pooled.shape[0], dtype=bool)
    in_a[: a.n] = True
    return ScoreMatrix(z=z, in_a=in_a)
