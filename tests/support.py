"""Hand-written references the test modules share, one copy of each:
the brute-force matcher, the likelihood grid and its toy problem, the
hand-built match plan and score fit, the one-generator multiplier block,
and a fresh interpreter on this checkout's package.  Not a test module,
so pytest collects nothing from it."""

import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from dsm import MAMMEN_NEG, MAMMEN_P_NEG, MAMMEN_POS, MatchPlan, ScoreFit

ROOT = Path(__file__).resolve().parents[1]


def oracle_match(za, zb, m):
    """Full O(n_a * n_b) sort per B-unit; ties resolve to the lowest donor
    index via the secondary lexsort key."""
    out = np.empty((len(zb), m), dtype=np.intp)
    for i, point in enumerate(zb):
        d2 = ((za - point) ** 2).sum(axis=1)
        out[i] = np.lexsort((np.arange(len(za)), d2))[:m]
    return out


def grid_argmax(xa, xb, d, lo=-10.0, hi=10.0, rounds=4, n=201):
    """Dense grid maximizer of the design-weighted pseudo log-likelihood the
    sampling-score fit maximizes, for one covariate, refined around the best
    cell each round.  Independent of the Newton code path."""
    center = np.zeros(2)
    half = (hi - lo) / 2.0
    for _ in range(rounds):
        g0 = np.linspace(center[0] - half, center[0] + half, n)
        g1 = np.linspace(center[1] - half, center[1] + half, n)
        t0, t1 = np.meshgrid(g0, g1, indexing="ij")
        thetas = np.stack([t0.ravel(), t1.ravel()], axis=1)
        da = np.column_stack([np.ones(len(xa)), xa])
        db = np.column_stack([np.ones(len(xb)), xb])
        vals = (da @ thetas.T).sum(axis=0) - d @ np.logaddexp(0.0, db @ thetas.T)
        center = thetas[int(np.argmax(vals))]
        half = 2.0 * half / (n - 1) * 4
    return center


# Weighted B-moments must be able to absorb A's totals (sum 1 = 4,
# sum x = 5) with propensities inside (0,1), or no maximizer exists.
TOY_XA = np.array([[0.5], [1.0], [1.5], [2.0]])
TOY_XB = np.array([[0.2], [1.8]])
TOY_D = np.array([3.0, 4.0])


def plan_from(j_sets, n_a, d_b=None):
    """MatchPlan for the given donor sets, with B weights d_b (unit weights
    when omitted) and zero distances."""
    j_sets = np.asarray(j_sets, dtype=np.intp)
    m = j_sets.shape[1]
    flat = j_sets.ravel()
    k = np.bincount(flat, minlength=n_a)
    if d_b is None:
        kw = k.astype(float)
    else:
        kw = np.bincount(flat, weights=np.repeat(np.asarray(d_b, float), m), minlength=n_a)
    return MatchPlan(
        m=m,
        j_sets=j_sets,
        distances=np.zeros_like(j_sets, dtype=float),
        k_counts=k,
        k_weighted=kw,
    )


def linear_fit(intercept, slope, a, b, theta_r=(0.0, 0.0)):
    """Hand-built fit on samples a and b whose prognostic score is
    intercept + slope * x and whose sampling score is expit(theta_r[0] +
    theta_r[1] * x), flat at one half by default.  Like a fit_scores fit,
    it carries both scores of the pooled rows, sample A first."""
    fit = ScoreFit(
        theta_r=np.array(theta_r, dtype=float),
        theta_y=np.array([float(intercept), float(slope)]),
        iterations=1,
        grad_norm=0.0,
        sd_f=1.0,
        sd_g=1.0,
        f=np.empty(0),
        g=np.empty(0),
        a=a,
        b=b,
    )
    pooled = np.vstack([a.x, b.x])
    return replace(fit, f=fit.propensity(pooled), g=fit.prognostic(pooled))


def multiplier_block(seed, n_draws, n):
    """Oracle: the whole (n_draws, n) block of two-point multipliers from
    one PCG64DXSM generator, each weight selected from its uniform."""
    u = np.random.Generator(np.random.PCG64DXSM(seed)).random((n_draws, n))
    return np.where(u < MAMMEN_P_NEG, MAMMEN_NEG, MAMMEN_POS)


def run_python(args, drop=(), timeout=60, **variables):
    """Run a new interpreter on this checkout's src/ with this process's
    environment, less the variables named in drop, plus variables."""
    env = {k: v for k, v in os.environ.items() if k not in drop}
    env.update(variables, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True,
                          timeout=timeout)
