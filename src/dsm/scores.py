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

from .errors import (
    DegenerateScore,
    EmptySample,
    NonConvergence,
    NonpositiveWeight,
    RankDeficient,
    Separation,
    WeightOverflow,
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

# Newton controls for the propensity fit: the max-norm gradient tolerance,
# the cap on Newton steps, and the coefficient size that counts as
# divergence (on internally standardized covariates, so all scale-free).
_TOL = 1e-8
_MAX_ITER = 100
_COEF_LIMIT = 1e6


@dataclass(frozen=True, eq=False)
class _Sample:
    """Covariate rows of one sample, checked together with the per-unit
    vector its subclass adds."""

    x: np.ndarray

    def _validate(self, field, label) -> np.ndarray:
        x = np.asarray(self.x, dtype=np.float64)
        if x.ndim != 2:
            raise ValueError(f"covariates must be a 2-D array, got shape {x.shape}")
        if not np.all(np.isfinite(x)):
            raise ValueError("covariates contain NaN or infinite entries")
        v = np.asarray(getattr(self, field), dtype=np.float64)
        if v.ndim != 1:
            raise ValueError(f"{field} must be a 1-D array, got shape {v.shape}")
        if not np.all(np.isfinite(v)):
            raise ValueError(f"{field} contains NaN or infinite entries")
        if x.shape[0] != v.shape[0]:
            raise ValueError(f"x and {field} disagree on the number of units")
        if x.shape[0] < 1:
            raise EmptySample(f"{label} is empty")
        object.__setattr__(self, "x", x)
        v = np.ascontiguousarray(v)  # BLAS picks its dot kernel by stride, so results follow values
        object.__setattr__(self, field, v)
        return v

    @property
    def n(self) -> int:
        return self.x.shape[0]


@dataclass(frozen=True, eq=False)
class SampleA(_Sample):
    """Volunteer (nonprobability) sample: covariates and observed outcome."""

    y: np.ndarray

    def __post_init__(self):
        self._validate("y", "sample A")


@dataclass(frozen=True, eq=False)
class SampleB(_Sample):
    """Reference probability sample: covariates and design weights d_i."""

    d: np.ndarray

    def __post_init__(self):
        d = self._validate("d", "sample B")
        if np.any(d <= 0):
            bad = int(np.argmax(d <= 0))
            raise NonpositiveWeight(f"design weight at row {bad} is {d[bad]!r}")


def _expit(x):
    """The logistic function 1 / (1 + exp(-x)), elementwise."""
    # Lazy: scipy.special costs about half of `import dsm`, and only a fit needs it.
    from scipy.special import expit

    return expit(x)


def _take_cols(x, cols) -> np.ndarray:
    """The float64 columns cols of x (all when None), in C order: the fit's
    BLAS calls pick their kernels, and so their bits, by memory layout."""
    x = np.asarray(x, dtype=np.float64)
    return np.ascontiguousarray(x if cols is None else x[:, list(cols)])


def _linear(theta, x) -> np.ndarray:
    """The linear predictor of intercept-first coefficients theta, row by row."""
    return theta[0] + x @ theta[1:]


@dataclass(frozen=True, eq=False)
class ScoreFit:
    """Fitted score models, the samples they were fitted on, their scores
    there, and diagnostics.

    theta_r / theta_y hold intercept-first coefficients on the original
    covariate scale for the propensity and prognostic models; cols_r /
    cols_y record which covariate columns each model used (None = all).
    a / b are the sample objects fitted on, not copies; f / g their pooled
    scores, sample A first, and sd_f / sd_g the scores' standard
    deviations.  build_score_matrix, point_estimates and the intervals
    read f and g, so they accept a and b only: other sample objects, even
    equal copies, raise ValueError.  propensity and prognostic score other
    rows.  Every fit fit_scores returns is a converged one.
    """

    theta_r: np.ndarray
    theta_y: np.ndarray
    iterations: int
    grad_norm: float
    sd_f: float
    sd_g: float
    f: np.ndarray
    g: np.ndarray
    a: SampleA
    b: SampleB
    cols_r: tuple | None = None
    cols_y: tuple | None = None

    def propensity(self, x) -> np.ndarray:
        """Fitted sampling score f(x) for each row of x (full covariate set)."""
        return _expit(_linear(self.theta_r, _take_cols(x, self.cols_r)))

    def prognostic(self, x) -> np.ndarray:
        """Fitted outcome-model prediction g(x) for each row of x."""
        return _linear(self.theta_y, _take_cols(x, self.cols_y))

    def _scores(self, a, b):
        """Views (f_a, f_b, g_a, g_b) of the scores of a and b, the samples fitted on."""
        if a is not self.a or b is not self.b:
            raise ValueError("the fit was made on other sample objects: fit it on these")
        return self.f[: a.n], self.f[a.n :], self.g[: a.n], self.g[a.n :]


@dataclass(frozen=True, eq=False)
class ScoreMatrix:
    """Pooled normalized scores: column 0 the sampling score, column 1 the
    prognostic score, each scaled to unit pooled standard deviation.
    Rows are the n_a sample-A units first, then the sample-B units;
    in_a flags the A rows."""

    z: np.ndarray
    n_a: int

    def __post_init__(self):
        rows = self.z.shape[0]
        if not 0 <= self.n_a <= rows:
            raise ValueError(f"n_a must lie in [0, {rows}], the rows of z; got {self.n_a}")

    @property
    def n_b(self) -> int:
        return self.z.shape[0] - self.n_a

    @property
    def in_a(self) -> np.ndarray:
        return np.arange(self.z.shape[0]) < self.n_a


def _standardize_columns(x):
    """Pooled column means/sds for internal standardization (empty when
    there are no covariates)."""
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite sd is reported below
        mu, sd = x.mean(axis=0), x.std(axis=0)
    for bad, why in ((~np.isfinite(sd), "spreads beyond float64"), (sd == 0, "is constant")):
        if np.any(bad):
            j = int(np.argmax(bad))
            raise RankDeficient(f"covariate column {j} {why} over the pooled sample", column=j)
    return mu, sd


def _design(x, mu, sd):
    """[1, (x - mu) / sd] built in one C-ordered array."""
    n, p = x.shape
    dm = np.empty((n, p + 1))
    dm[:, 0] = 1.0
    np.subtract(x, mu, out=dm[:, 1:])
    dm[:, 1:] /= sd
    return dm


def _newton_propensity(x, n_a, d):
    """Maximize the design-weighted sampling likelihood over the pooled rows
    x, the n_a sample-A rows first.

    Returns (theta on the original scale, iterations used, final gradient
    max-norm on the standardized scale).
    """
    mu, sd = _standardize_columns(x)
    dm = _design(x, mu, sd)
    p = dm.shape[1]
    if np.linalg.matrix_rank(dm) < p:
        raise RankDeficient("pooled design matrix is rank deficient")
    dm_a, dm_b = dm[:n_a], dm[n_a:]
    with np.errstate(over="ignore"):  # an infinite sum is reported below
        d_sum = d.sum()
    if not np.isfinite(d_sum):
        raise WeightOverflow("sample-B design weights sum beyond float64")
    # The intercept's score equation n_A = sum_B d_i f_i, f_i < 1, needs sum(d) > n_A.
    if d_sum <= n_a:
        raise Separation(
            f"sample-B design weights sum to {d_sum:g}, not more than the {n_a} "
            "sample-A units: they cannot represent a population that contains sample A"
        )

    ga = dm_a.sum(axis=0)  # gradient of the linear sample-A term
    theta = np.zeros(p)
    eta_b = dm_b @ theta
    obj = float(ga @ theta - d @ np.logaddexp(0.0, eta_b))

    def fail(msg, cause=None):
        f_pool = _expit(dm @ theta)
        if np.any(f_pool < _PIN_TOL) or np.any(f_pool > 1.0 - _PIN_TOL):
            raise Separation(f"{msg}; {cause or 'the samples are separable'}")
        raise NonConvergence(f"{msg}; {cause}" if cause else msg)

    gnorm = np.inf
    # Overflow is handled, not warned about: weights that carry the gradient
    # or curvature out of float64 raise WeightOverflow, and the step search
    # halves a step whose objective is not finite.
    with np.errstate(over="ignore", invalid="ignore"):
        for it in range(_MAX_ITER + 1):
            f_b = _expit(eta_b)
            grad = ga - dm_b.T @ (d * f_b)
            gnorm = float(np.max(np.abs(grad)))
            if gnorm <= _TOL:
                slopes = theta[1:] / sd  # back to the original covariate scale
                return np.concatenate([[theta[0] - float(slopes @ mu)], slopes]), it, gnorm
            if it == _MAX_ITER:
                break

            w = d * f_b * (1.0 - f_b)
            hess = (dm_b * w[:, None]).T @ dm_b
            # The covariates are standardized and f(1 - f) <= 1/4: only the
            # weights can make these non-finite.
            if not (np.isfinite(gnorm) and np.all(np.isfinite(hess))):
                raise WeightOverflow(
                    "sample-B design weights are too large for the fit in float64")
            try:
                step = np.linalg.solve(hess, grad)
            except np.linalg.LinAlgError:
                fail("curvature matrix is singular", _dominant_weight(d))

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
            if np.max(np.abs(theta)) > _COEF_LIMIT:
                raise Separation("coefficients diverged; the samples are separable")

    fail(f"no convergence in {_MAX_ITER} iterations (gradient norm {gnorm:.3g})")


def _dominant_weight(d):
    """Name the largest design weight, its row, and its ratio to the sum of
    the others when it exceeds that sum; else None."""
    top = int(np.argmax(d))
    rest = np.delete(d, top).sum()  # without d[top], so a 1e308 weight keeps it finite
    if d[top] <= rest:
        return None
    share = f"{d[top] / rest:.3g} times the sum of the others" if rest else "the only one"
    return f"the largest sample-B design weight, {d[top]:g} at row {top}, is {share}"


def fit_propensity(a: SampleA, b: SampleB) -> np.ndarray:
    """Fit the sampling-score logistic model on samples with the same
    covariate columns.

    Maximizes sum_A log(f/(1-f)) + sum_B d_i log(1-f) over intercept-first
    coefficients theta, where f = expit(theta_0 + x theta), and returns
    theta (shape (k+1,)) on the original covariate scale.  With no
    covariates this reduces to the closed form f = N_A / sum(d).
    """
    if a.x.shape[1] != b.x.shape[1]:
        raise ValueError("samples disagree on the number of covariate columns")
    theta, _, _ = _newton_propensity(np.vstack([a.x, b.x]), a.n, b.d)
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
    """Fit both score models, evaluate them once on the pooled rows, and
    record the normalization constants.

    cols_r / cols_y restrict the covariate columns each model sees
    (iterables of column indices into the full matrix; None = all), which
    is how deliberately misspecified model views are expressed.
    """
    if a.x.shape[1] != b.x.shape[1]:
        raise ValueError("samples disagree on the number of covariate columns")
    cols_r = None if cols_r is None else tuple(cols_r)
    cols_y = None if cols_y is None else tuple(cols_y)

    pooled = np.vstack([a.x, b.x])
    x_r, x_y = _take_cols(pooled, cols_r), _take_cols(pooled, cols_y)
    theta_r, iters, gnorm = _newton_propensity(x_r, a.n, b.d)
    theta_y = fit_prognostic(SampleA(x_y[: a.n], a.y))
    f, g = _expit(_linear(theta_r, x_r)), _linear(theta_y, x_y)
    return ScoreFit(theta_r, theta_y, iters, gnorm,
                    sd_f=_pooled_sd(f, "sampling"), sd_g=_pooled_sd(g, "prognostic"),
                    f=f, g=g, a=a, b=b, cols_r=cols_r, cols_y=cols_y)


def _pooled_sd(values, label):
    sd = float(np.std(values, ddof=1))
    # A spread at roundoff scale is as useless for normalization as an
    # exactly constant score.
    floor = 1e-12 * (1.0 + float(np.max(np.abs(values))))
    if not np.isfinite(sd) or sd <= floor:
        raise DegenerateScore(f"{label} score is constant over the pooled sample")
    return sd


def build_score_matrix(a: SampleA, b: SampleB, fit: ScoreFit) -> ScoreMatrix:
    """Divide the fit's pooled scores by the pooled standard deviations
    (ddof=1) fit_scores stored with them, giving unit-variance columns.
    The fit must have been made on a and b.

    Row order is sample A first, then sample B.
    """
    fit._scores(a, b)  # raises unless the fit was made on a and b
    return ScoreMatrix(z=np.column_stack([fit.f / fit.sd_f, fit.g / fit.sd_g]), n_a=a.n)
