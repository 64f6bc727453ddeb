"""Variance estimation and wild-bootstrap confidence intervals.

Matching with replacement makes the naive resampling bootstrap
inconsistent, because redrawing units changes how often each donor is
reused.  The wild bootstrap below keeps the match structure fixed and
perturbs unit-level residual terms with two-point multiplier weights
whose first three moments are (0, 1, 1); intervals over the same units
and seed share one block of weights, drawn once.  An analytic variance
built from local residual-variance estimates is provided as a cross-check.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import partial

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

# Multiplier weights one thread draws and reduces at a time (512 KB of
# float64), so a chunk's temporaries stay in cache.
_CHUNK_ELEMS = 1 << 16


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


@dataclass(frozen=True, eq=False)
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


def _mammen_fill(gen, w):
    """Overwrite w in place with weights: (NEG - POS) * {1.0, 0.0} + POS is exactly {NEG, POS}."""
    np.less(gen.random(out=w), MAMMEN_P_NEG, out=w)
    w *= MAMMEN_NEG - MAMMEN_POS
    w += MAMMEN_POS
    return w


def mammen_draw(rng, size):
    """An ndarray of the given shape drawn from the two-point multiplier
    distribution."""
    return _mammen_fill(rng, np.empty(size))


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


def analytic_variance(plan: MatchPlan, y_a, mu_b_hat: float, inner: InnerNeighbors) -> float:
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
    k = plan.k_counts.astype(np.float64)
    term_match = float((k * (k - 1.0) / plan.m**2) @ sigma2_units(inner, y_a)) / n_b
    return term_het + term_match


# -- wild bootstrap -----------------------------------------------------

def _worker_count() -> int:
    """DSM_THREADS, at least 1, else the CPUs this process may run on: the one
    cap on both the bootstrap's threads and the simulation's worker processes."""
    env = os.environ.get("DSM_THREADS", "").strip()
    if env:
        try:
            threads = int(env)
        except ValueError:
            raise ValueError(f"DSM_THREADS must be an integer, got {env!r}") from None
        if threads < 1:
            raise ValueError(f"DSM_THREADS must be at least 1, got {threads}")
        return threads
    affinity = getattr(os, "sched_getaffinity", None)  # absent on macOS and Windows
    return len(affinity(0)) if affinity else os.cpu_count() or 1


def _one_bootstrap_thread() -> None:
    """Simulation pool initializer: its processes already keep the CPUs busy."""
    os.environ["DSM_THREADS"] = "1"


def _draw_range(spec: BootstrapSpec, resid, norm, out, buf, lo: int, hi: int) -> None:
    """Fill out[:, lo:hi] with draws lo..hi-1 of _centered_draws, a chunk of
    buf.shape[1] draws at a time: buf[0] holds a chunk's weights and
    buf[-1] its products (the weights themselves, in place, for one column).

    PCG64DXSM yields one 64-bit word per step and each uniform takes one
    word, so advancing it lo*n steps starts this generator at uniform
    lo*n of the single-generator (n_draws, n) block.
    """
    n, k = resid.shape
    gen = np.random.Generator(np.random.PCG64DXSM(spec.seed).advance(lo * n))
    for pos in range(lo, hi, buf.shape[1]):
        w = _mammen_fill(gen, buf[0, : hi - pos])  # chunk rows, fewer in the last
        p = buf[-1, : len(w)]
        for c in range(k):
            np.multiply(w, resid[:, c], out=p)
            # Row-wise multiply-reduce, not a matvec: BLAS accumulation order
            # varies with the row count, which would make the draws depend on
            # the chunk size at the last ulp.
            out[c, pos : pos + len(w)] = p.sum(axis=1) / norm[c]


def _centered_draws(spec: BootstrapSpec, resid, norm):
    """Bootstrap draws q_b = (w . resid[:, c]) / norm[c] for each column c
    of the (n_units, k) residual terms, one (k, n_draws) array; every
    column shares draw b's multiplier weights, one per unit.

    Multiplier weights come from one PCG64DXSM stream seeded by the seed
    (through SeedSequence), which jumps ahead exactly: draw b always uses
    row b of one (n_draws, n_units) uniform block, drawn once for all k
    columns.  [0, n_draws) is split into contiguous draw ranges, one per
    thread (_worker_count threads, no more than draws), each starting its
    own generator at its first row's offset in the block and working
    through it in cache-sized chunks.  The calling thread allocates every
    range's chunk buffers and draws the first range itself, beside a pool
    of threads - 1 (no pool for one thread).  So identical seeds give
    bit-identical draws whatever the thread count, chunk size or the
    other columns.
    """
    (n, k), n_draws = resid.shape, spec.n_draws
    out = np.empty((k, n_draws))
    threads = min(_worker_count(), n_draws)
    edges = [n_draws * t // threads for t in range(threads + 1)]
    chunk = max(1, _CHUNK_ELEMS // max(1, n))
    bufs = [np.empty((min(k, 2), min(chunk, hi - lo), n)) for lo, hi in zip(edges, edges[1:])]
    fill = partial(_draw_range, spec, resid, norm, out)
    if threads == 1:
        fill(bufs[0], 0, n_draws)
        return out
    # Lazy: concurrent.futures loads logging, threading and more, slowing `import dsm`.
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(threads - 1) as pool:
        # numpy releases the GIL while it generates and reduces.
        rest = pool.map(fill, bufs[1:], edges[1:-1], edges[2:])
        fill(bufs[0], edges[0], edges[1])
        list(rest)
    return out


def _intervals(spec: BootstrapSpec, columns) -> list:
    """One IntervalReport per (point, residual terms, norm) column, all
    from one multiplier block: the columns must share their units."""
    points, resids, norms = zip(*columns)
    # Rows of a (k, n) array: each column of its (n, k) transpose is contiguous.
    draws = _centered_draws(spec, np.array(resids).T, np.array(norms, dtype=np.float64))
    qs = np.quantile(draws, [spec.alpha / 2.0, 1.0 - spec.alpha / 2.0], axis=1).T.tolist()
    return [IntervalReport(point=p, lo=p - q_hi, hi=p - q_lo, q_lo=q_lo, q_hi=q_hi, draws=d)
            for p, d, (q_lo, q_hi) in zip(points, draws, qs)]


def bootstrap_ci_plain(plan: MatchPlan, y_a, point: float, spec: BootstrapSpec) -> IntervalReport:
    """Interval for the plain matching estimator of the sample-B mean.

    Each replicate perturbs the donor-level terms k_i * (y_i - point) / m
    with independent multiplier weights and averages over n_b.
    """
    y_a = np.asarray(y_a, dtype=np.float64)
    if y_a.shape != (plan.n_a,):
        raise ValueError("y_a must have one outcome per donor")
    return _intervals(spec, [(point, plan.k_counts * (y_a - point) / plan.m, plan.n_b)])[0]


def _corrected_column(plan, fit, a, b, point, weighted: bool):
    """(point, residual terms, norm) of a bias-corrected mean, for _intervals.

    A-units contribute weighted prognostic residuals k_i*(y_i - g_i)/m,
    B-units contribute d_i*(g_i - point); both sides get their own
    multiplier weights and the sum is divided by the norm.  The sample-B
    mean takes donor counts k_counts, unit weights and n_b; the
    population mean (weighted) takes k_weighted, the B weights d and the
    estimated population size sum(d).
    """
    k, d, norm = plan.k_counts, 1.0, plan.n_b
    if weighted:
        k, d, norm = plan.k_weighted, b.d, float(b.d.sum())
    _, _, g_a, g_b = fit._scores(a, b)
    return point, np.concatenate([k * (a.y - g_a) / plan.m, d * (g_b - point)]), norm


def bootstrap_ci_debiased(
    plan: MatchPlan,
    fit: ScoreFit,
    a: SampleA,
    b: SampleB,
    point: float,
    spec: BootstrapSpec,
) -> IntervalReport:
    """Interval for the bias-corrected sample-B mean."""
    return _intervals(spec, [_corrected_column(plan, fit, a, b, point, weighted=False)])[0]


def bootstrap_ci_population(
    plan: MatchPlan,
    fit: ScoreFit,
    a: SampleA,
    b: SampleB,
    point: float,
    spec: BootstrapSpec,
) -> IntervalReport:
    """Interval for the bias-corrected population mean.  With unit weights
    the draws coincide with bootstrap_ci_debiased under the same seed."""
    return _intervals(spec, [_corrected_column(plan, fit, a, b, point, weighted=True)])[0]
