"""Point estimators: hand-computed instances, the donor-count dual form,
the two algebraic routes to the bias-corrected mean, and the reductions
that tie the weighted estimators back to the unweighted ones."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dsm import (
    ExtremePropensityWarning,
    SampleA,
    SampleB,
    ScoreMatrix,
    build_score_matrix,
    find_matches,
    fit_scores,
    impute,
    point_estimates,
)
from support import linear_fit, plan_from


def estimate(plan, y_a, b=None):
    """point_estimates for a test that fixes only the plan, the A outcomes
    and perhaps the B weights: covariates are a zero column and the
    prognostic model is flat, so every bias estimate is zero."""
    y_a = np.asarray(y_a, dtype=float)
    a = SampleA(np.zeros((y_a.shape[0], 1)), y_a)
    if b is None:
        b = SampleB(np.zeros((plan.n_b, 1)), np.ones(plan.n_b))
    return point_estimates(plan, linear_fit(0.0, 0.0, a, b), a, b)


def test_mu_b_all_donors_is_grand_mean():
    y = np.array([1.0, 4.0, 7.0])
    plan = plan_from([[0, 1, 2], [0, 1, 2]], n_a=3)
    assert estimate(plan, y).mu_b == pytest.approx(4.0, abs=1e-14)


def test_mu_b_constant_outcome():
    plan = plan_from([[0, 2], [1, 2]], n_a=3)
    assert estimate(plan, np.full(3, 5.5)).mu_b == pytest.approx(5.5, abs=1e-14)


def test_mu_b_matches_exhaustive_matching():
    # Same value whether computed from the plan or from a fresh
    # brute-force match of the 5x3 instance.
    rng = np.random.default_rng(10)
    za, zb = rng.normal(size=(5, 2)), rng.normal(size=(3, 2))
    y = rng.normal(size=5)
    z = np.vstack([za, zb])
    plan = find_matches(ScoreMatrix(z=z, n_a=5), 3)
    by_hand = np.mean(
        [y[np.argsort(((za - p) ** 2).sum(axis=1), kind="stable")[:3]].mean() for p in zb]
    )
    assert estimate(plan, y).mu_b == pytest.approx(by_hand, abs=1e-14)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_donor_count_dual_identity(data):
    # Averaging imputations over B equals averaging y over A with weights
    # k/m, to float precision.
    n_a = data.draw(st.integers(1, 8))
    n_b = data.draw(st.integers(1, 8))
    m = data.draw(st.integers(1, n_a))
    j_sets = np.array(
        [
            data.draw(
                st.lists(st.integers(0, n_a - 1), min_size=m, max_size=m, unique=True)
            )
            for _ in range(n_b)
        ]
    )
    y = np.array(data.draw(st.lists(
        st.floats(-5.0, 5.0), min_size=n_a, max_size=n_a)))
    plan = plan_from(j_sets, n_a=n_a)
    lhs = estimate(plan, y).mu_b
    rhs = float(plan.k_counts @ y) / (m * n_b)
    assert abs(lhs - rhs) < 1e-12


def test_bias_hat_zero_for_perfect_matches():
    a = SampleA(np.array([[0.0], [1.0], [2.0]]), np.zeros(3))
    b = SampleB(np.array([[1.0], [2.0]]), np.ones(2))
    plan = plan_from([[1], [2]], n_a=3)
    assert point_estimates(plan, linear_fit(1.0, 2.0, a, b), a, b).bias_hat == 0.0


def test_bias_hat_zero_for_constant_prognosis():
    rng = np.random.default_rng(11)
    a = SampleA(rng.normal(size=(4, 1)), rng.normal(size=4))
    b = SampleB(rng.normal(size=(2, 1)), np.ones(2))
    plan = plan_from([[0, 3], [1, 2]], n_a=4)
    assert point_estimates(plan, linear_fit(3.0, 0.0, a, b), a, b).bias_hat == 0.0


def test_bias_hat_linear_hand_value():
    # g(x) = 1 + 2x.  Gaps: (g(0)+g(1))/2 - g(1) = -1 and
    # (g(2)+g(3))/2 - g(0) = 5, so the average is 2.
    a = SampleA(np.array([[0.0], [1.0], [2.0], [3.0]]), np.zeros(4))
    b = SampleB(np.array([[1.0], [0.0]]), np.ones(2))
    plan = plan_from([[0, 1], [2, 3]], n_a=4)
    est = point_estimates(plan, linear_fit(1.0, 2.0, a, b), a, b)
    assert est.bias_hat == pytest.approx(2.0, abs=1e-14)


def test_debiased_two_form_identity():
    # mu_b - bias_hat equals the residual-imputation form
    # mean_B(g_i + mean_{donors}(y_j - g_j)).
    rng = np.random.default_rng(12)
    for _ in range(25):
        n_a, n_b, m = 7, 5, 3
        xa = rng.normal(size=(n_a, 1))
        xb = rng.normal(size=(n_b, 1))
        a = SampleA(xa, rng.normal(size=n_a) * 3.0)
        b = SampleB(xb, rng.uniform(1, 4, size=n_b))
        j_sets = np.array([rng.choice(n_a, size=m, replace=False) for _ in range(n_b)])
        plan = plan_from(j_sets, n_a=n_a)
        fit = linear_fit(0.7, -1.3, a, b)
        direct = point_estimates(plan, fit, a, b).mu_b_debiased
        g_a = fit.prognostic(xa)
        g_b = fit.prognostic(xb)
        residual_form = float(np.mean(g_b + (a.y - g_a)[j_sets].mean(axis=1)))
        assert abs(direct - residual_form) < 1e-10


def test_debiased_equals_plain_when_bias_vanishes():
    a = SampleA(np.array([[0.0], [2.0]]), np.array([1.0, 5.0]))
    b = SampleB(np.array([[0.0], [2.0]]), np.ones(2))
    plan = plan_from([[0], [1]], n_a=2)
    est = point_estimates(plan, linear_fit(0.5, 1.0, a, b), a, b)
    assert est.bias_hat == 0.0
    assert est.mu_b_debiased == est.mu_b


def test_debiased_with_exact_outcomes_averages_predictions():
    # y on A lies exactly on the prognostic line: the corrected mean is
    # the average B prediction.
    xa = np.array([[0.0], [1.0], [2.0]])
    xb = np.array([[0.5], [3.0]])
    b = SampleB(xb, np.ones(2))
    fit = linear_fit(2.0, 1.5, SampleA(xa, np.zeros(3)), b)
    a = SampleA(xa, fit.prognostic(xa))
    fit = replace(fit, a=a)
    plan = plan_from([[0, 1], [1, 2]], n_a=3)
    expected = float(fit.prognostic(xb).mean())
    assert point_estimates(plan, fit, a, b).mu_b_debiased == pytest.approx(expected, abs=1e-12)


def test_mu_dsm_equal_weights_reduces_to_mu_b():
    rng = np.random.default_rng(13)
    y = rng.normal(size=6)
    plan = plan_from([[0, 1], [2, 3], [4, 5]], n_a=6)
    b = SampleB(rng.normal(size=(3, 1)), np.full(3, 2.5))
    est = estimate(plan, y, b)
    assert abs(est.mu_dsm - est.mu_b) < 1e-12


def test_mu_dsm_constant_outcome():
    b = SampleB(np.zeros((3, 1)), np.array([1.0, 5.0, 2.0]))
    plan = plan_from([[0], [1], [0]], n_a=2)
    assert estimate(plan, np.full(2, -3.25), b).mu_dsm == pytest.approx(-3.25, abs=1e-14)


def test_mu_dsm_hand_weighted_average():
    y = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
    j_sets = [[0, 1, 2], [2, 3, 4], [0, 2, 4]]
    d = np.array([1.0, 2.0, 3.0])
    b = SampleB(np.zeros((3, 1)), d)
    plan = plan_from(j_sets, n_a=5, d_b=d)
    yhat = [2.0, 4.0, 3.0]
    expected = sum(w * v for w, v in zip(d, yhat)) / d.sum()
    assert estimate(plan, y, b).mu_dsm == pytest.approx(expected, abs=1e-14)


def test_mu_dsm_debiased_perfect_matches():
    a = SampleA(np.array([[0.0], [1.0], [2.0]]), np.array([2.0, 1.0, 4.0]))
    b = SampleB(np.array([[1.0], [2.0]]), np.array([3.0, 5.0]))
    plan = plan_from([[1], [2]], n_a=3, d_b=b.d)
    est = point_estimates(plan, linear_fit(-1.0, 0.5, a, b), a, b)
    assert est.mu_dsm_debiased == est.mu_dsm


def test_mu_dsm_debiased_equal_weights():
    rng = np.random.default_rng(14)
    a = SampleA(rng.normal(size=(6, 1)), rng.normal(size=6))
    b = SampleB(rng.normal(size=(4, 1)), np.full(4, 3.0))
    j_sets = np.array([rng.choice(6, size=2, replace=False) for _ in range(4)])
    plan = plan_from(j_sets, n_a=6, d_b=b.d)
    est = point_estimates(plan, linear_fit(0.2, 0.9, a, b), a, b)
    assert abs(est.mu_dsm_debiased - est.mu_b_debiased) < 1e-12


def test_mu_dsm_debiased_direct_formula():
    a = SampleA(np.array([[0.0], [1.0], [2.0], [3.0]]), np.array([1.0, 0.0, 2.0, 5.0]))
    b = SampleB(np.array([[0.5], [2.5]]), np.array([2.0, 6.0]))
    plan = plan_from([[0, 1], [2, 3]], n_a=4, d_b=b.d)
    fit = linear_fit(1.0, 1.0, a, b)
    g_a = fit.prognostic(a.x)
    g_b = fit.prognostic(b.x)
    expected = 0.0
    for i, (row, w) in enumerate(zip(plan.j_sets, b.d)):
        corrected = g_b[i] + (a.y[row] - g_a[row]).mean()
        expected += w * corrected
    expected /= b.d.sum()
    assert point_estimates(plan, fit, a, b).mu_dsm_debiased == pytest.approx(expected, abs=1e-12)


def test_dre_exact_prognosis_averages_b_predictions():
    xa = np.array([[0.0], [1.0], [4.0]])
    b = SampleB(np.array([[2.0], [3.0]]), np.array([1.0, 3.0]))
    fit = linear_fit(1.0, 2.0, SampleA(xa, np.zeros(3)), b)
    a = SampleA(xa, fit.prognostic(xa))
    fit = replace(fit, a=a)
    expected = float(b.d @ fit.prognostic(b.x) / b.d.sum())
    plan = plan_from([[0], [1]], n_a=3)
    assert point_estimates(plan, fit, a, b).dre == pytest.approx(expected, abs=1e-12)


def test_dre_flat_propensity_zero_prognosis():
    # Constant f cancels out of the normalized residual term; with g = 0
    # the estimate is just the plain sample-A mean.
    rng = np.random.default_rng(15)
    a = SampleA(rng.normal(size=(5, 1)), rng.normal(size=5))
    b = SampleB(rng.normal(size=(3, 1)), rng.uniform(1, 2, size=3))
    fit = linear_fit(0.0, 0.0, a, b, theta_r=(-0.8473, 0.0))
    plan = plan_from([[0], [1], [2]], n_a=5)
    assert point_estimates(plan, fit, a, b).dre == pytest.approx(float(a.y.mean()), abs=1e-12)


def test_dre_warns_on_extreme_propensity():
    a = SampleA(np.array([[1.0]]), np.array([2.0]))
    b = SampleB(np.array([[1.0]]), np.array([1.0]))
    fit = linear_fit(0.0, 0.0, a, b, theta_r=(-40.0, 0.0))
    with pytest.warns(ExtremePropensityWarning):
        point_estimates(plan_from([[0]], n_a=1), fit, a, b).dre


def _fitted_instance(seed, shift=0.0):
    rng = np.random.default_rng(seed)
    xa = rng.normal(size=(30, 2))
    xb = rng.normal(size=(40, 2)) * 0.9 + 0.1
    y = 1.0 + xa @ np.array([0.5, -0.25]) + rng.normal(size=30) + shift
    a = SampleA(xa, y)
    b = SampleB(xb, rng.uniform(1.0, 5.0, size=40))
    fit = fit_scores(a, b)
    plan = find_matches(build_score_matrix(a, b, fit), 3, d_b=b.d)
    return point_estimates(plan, fit, a, b)


def test_location_equivariance():
    # Adding a constant to every A outcome shifts every estimator by that
    # constant; the refit prognostic intercept absorbs it.
    base = _fitted_instance(16)
    shifted = _fitted_instance(16, shift=11.5)
    for field in ("mu_b", "mu_b_debiased", "mu_dsm", "mu_dsm_debiased", "dre"):
        lo = getattr(base, field)
        hi = getattr(shifted, field)
        assert hi - lo == pytest.approx(11.5, abs=1e-9)


def test_point_estimates_bundle_matches_parts():
    # Each field equals its defining formula, evaluated with the same
    # float operations, so the bundle is exact rather than approximate.
    rng = np.random.default_rng(17)
    a = SampleA(rng.normal(size=(8, 1)), rng.normal(size=8))
    b = SampleB(rng.normal(size=(5, 1)), rng.uniform(1, 3, size=5))
    j_sets = np.array([rng.choice(8, size=2, replace=False) for _ in range(5)])
    plan = plan_from(j_sets, n_a=8, d_b=b.d)
    fit = linear_fit(0.4, 1.1, a, b)
    est = point_estimates(plan, fit, a, b)
    yhat = impute(plan, a.y)
    gaps = fit.prognostic(a.x)[plan.j_sets].mean(axis=1) - fit.prognostic(b.x)
    assert est.mu_b == float(yhat.mean())
    assert est.bias_hat == float(gaps.mean())
    assert est.mu_b_debiased == est.mu_b - est.bias_hat
    assert est.mu_dsm == float(b.d @ yhat / b.d.sum())
    assert est.bias_hat_weighted == float(b.d @ gaps / b.d.sum())
    assert est.mu_dsm_debiased == est.mu_dsm - est.bias_hat_weighted
    inv_f = 1.0 / fit.propensity(a.x)
    dre_a = float(inv_f @ (a.y - fit.prognostic(a.x)) / inv_f.sum())
    assert est.dre == dre_a + float(b.d @ fit.prognostic(b.x) / b.d.sum())
    assert est.n_hat == pytest.approx(float(b.d.sum()))
