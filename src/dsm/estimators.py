"""Point estimators built on a match plan.

Two targets appear throughout: the mean outcome over the sample-B units
(mu_b family, unweighted over B) and the finite-population mean (mu_dsm
family, weighted by the design weights d_i).  Each has a matching-bias
correction that replaces matched outcomes with prognostic predictions.
A design-weighted doubly robust estimator is included for comparison.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ExtremePropensityWarning
from .matching import MatchPlan, impute
from .scores import SampleA, SampleB, ScoreFit

__all__ = ["PointEstimates", "point_estimates"]

_PROPENSITY_FLOOR = 1e-6


@dataclass(frozen=True)
class PointEstimates:
    """All point estimates for one fitted-and-matched dataset."""

    mu_b: float
    bias_hat: float
    mu_b_debiased: float
    mu_dsm: float
    bias_hat_weighted: float
    mu_dsm_debiased: float
    dre: float
    n_hat: float


def point_estimates(plan: MatchPlan, fit: ScoreFit, a: SampleA, b: SampleB) -> PointEstimates:
    """Compute every estimator once and collect the results.

    Each matching estimator averages a per-B-unit quantity, unweighted
    (sample-B mean) or weighted by d (population mean): the imputed
    outcome, and the prognostic gap (mean donor prediction minus own
    prediction) that estimates its matching bias.  mu_b equals
    sum(k_counts * y_a) / (m * n_b); under unit weights the weighted
    family reduces to the unweighted one.

    The doubly robust estimator adds A's inverse-propensity-weighted
    prognostic residuals to B's design-weighted mean prediction, each
    normalized by its own population-size estimate (sum of 1/f, sum of
    d).  It warns when a fitted propensity drops below 1e-6, since the
    residual term then rests on a handful of units.
    """
    f_a, _, g_a, g_b = fit._scores(a, b)
    if np.min(f_a) < _PROPENSITY_FLOOR:
        warnings.warn(
            f"minimum fitted propensity {np.min(f_a):.3g} is below "
            f"{_PROPENSITY_FLOOR:g}; inverse weighting may be unstable",
            ExtremePropensityWarning,
            stacklevel=2,
        )
    yhat = impute(plan, a.y)
    gaps = g_a[plan.j_sets].mean(axis=1) - g_b
    n_hat = float(b.d.sum())
    mb = float(yhat.mean())
    bh = float(gaps.mean())
    md = float(b.d @ yhat / n_hat)
    bhw = float(b.d @ gaps / n_hat)
    inv_f = 1.0 / f_a
    dre = float(inv_f @ (a.y - g_a) / inv_f.sum()) + float(b.d @ g_b / n_hat)
    return PointEstimates(
        mu_b=mb,
        bias_hat=bh,
        mu_b_debiased=mb - bh,
        mu_dsm=md,
        bias_hat_weighted=bhw,
        mu_dsm_debiased=md - bhw,
        dre=dre,
        n_hat=n_hat,
    )
