"""Score-model fits: logistic sampling score against a grid oracle,
least-squares prognostic score against hand algebra, and the pooled
normalization contract."""

import re

import numpy as np
import pytest
from scipy.special import expit

import dsm.scores as dsm_scores
from dsm import (
    BootstrapSpec,
    DegenerateScore,
    EmptySample,
    RankDeficient,
    SampleA,
    SampleB,
    Separation,
    ScoreMatrix,
    bootstrap_ci_debiased,
    build_score_matrix,
    find_matches,
    fit_prognostic,
    fit_propensity,
    fit_scores,
    point_estimates,
)


def loglik(theta, xa, xb, d):
    """Design-weighted pseudo log-likelihood the sampling-score fit maximizes."""
    da = np.column_stack([np.ones(len(xa)), xa])
    db = np.column_stack([np.ones(len(xb)), xb])
    return float((da @ theta).sum() - d @ np.logaddexp(0.0, db @ theta))


def grid_argmax(xa, xb, d, lo=-10.0, hi=10.0, rounds=4, n=201):
    """Dense grid maximizer of the same objective, refined around the best
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


def test_propensity_matches_grid_oracle():
    a = SampleA(TOY_XA, np.zeros(4))
    b = SampleB(TOY_XB, TOY_D)
    theta = fit_propensity(a, b)
    oracle = grid_argmax(TOY_XA[:, 0], TOY_XB[:, 0], TOY_D)
    assert np.all(np.abs(theta - oracle) < 1e-4)


def test_propensity_is_stationary_point():
    a = SampleA(TOY_XA, np.zeros(4))
    b = SampleB(TOY_XB, TOY_D)
    theta = fit_propensity(a, b)
    da = np.column_stack([np.ones(4), TOY_XA])
    db = np.column_stack([np.ones(2), TOY_XB])
    grad = da.sum(axis=0) - db.T @ (TOY_D * expit(db @ theta))
    assert np.max(np.abs(grad)) < 1e-6


def test_propensity_never_decreases_objective():
    # Concavity plus step-halving: the fit cannot end below the start.
    a = SampleA(TOY_XA, np.zeros(4))
    b = SampleB(TOY_XB, TOY_D)
    theta = fit_propensity(a, b)
    assert loglik(theta, TOY_XA, TOY_XB, TOY_D) >= loglik(
        np.zeros(2), TOY_XA, TOY_XB, TOY_D
    )


def test_intercept_only_closed_form():
    # Stationarity of the intercept-only likelihood: n_a - f * sum(d) = 0.
    rng = np.random.default_rng(7)
    a = SampleA(np.zeros((3, 0)), rng.normal(size=3))
    b = SampleB(np.zeros((4, 0)), np.array([2.0, 1.0, 4.0, 3.0]))
    theta = fit_propensity(a, b)
    assert np.isclose(expit(theta[0]), 3.0 / 10.0, atol=1e-10)


@pytest.mark.parametrize("weight, message", [
    # Unit weights sum to n_A, which the weight-total check rejects first.
    pytest.param(1.0, "design weights sum to 3, not more than the 3 sample-A units", id="1.0"),
    # Weights that could cover sample A reach the Newton iteration, which
    # fails on the perfect split.
    pytest.param(2.0, "singular|separable|stalled", id="2.0"),
])
def test_separation_raises(weight, message):
    # Covariate splits the samples perfectly: the MLE does not exist.
    a = SampleA(np.array([[1.0], [2.0], [3.0]]), np.zeros(3))
    b = SampleB(np.array([[-1.0], [-2.0], [-3.0]]), np.full(3, weight))
    with pytest.raises(Separation, match=message):
        fit_propensity(a, b)


@pytest.mark.parametrize("n_b, weight, total", [(80, 1.0, "80"), (40, 2.0, "80")])
def test_design_weights_not_covering_sample_a_raise(n_b, weight, total):
    # Fully overlapping covariates: only the weight total rules the fit out.
    rng = np.random.default_rng(12)
    a = SampleA(rng.normal(size=(100, 2)), rng.normal(size=100))
    b = SampleB(rng.normal(size=(n_b, 2)), np.full(n_b, weight))
    with pytest.raises(Separation, match=f"weights sum to {total}, not more than the 100 sample-A"):
        fit_propensity(a, b)
    with pytest.raises(Separation):
        fit_scores(a, b)


def test_design_weights_covering_sample_a_fit():
    rng = np.random.default_rng(12)
    a = SampleA(rng.normal(size=(100, 2)), rng.normal(size=100))
    b = SampleB(rng.normal(size=(80, 2)), np.full(80, 2.0))
    fit = fit_scores(a, b)
    assert fit.grad_norm <= dsm_scores._TOL


def test_prognostic_exact_interpolation():
    x = np.array([[0.0, 1.0], [1.0, 0.0], [2.0, 3.0], [1.0, 2.0]])
    y = 4.0 - 2.0 * x[:, 0] + 0.5 * x[:, 1]
    theta = fit_prognostic(SampleA(x, y))
    assert np.allclose(theta, [4.0, -2.0, 0.5], atol=1e-10)
    resid = y - (theta[0] + x @ theta[1:])
    assert float(resid @ resid) < 1e-20


def test_prognostic_constant_outcome():
    x = np.array([[0.0], [1.0], [2.0]])
    theta = fit_prognostic(SampleA(x, np.full(3, 7.0)))
    assert np.allclose(theta, [7.0, 0.0], atol=1e-12)


def test_prognostic_hand_values():
    # Normal equations for (0,1), (1,3), (2,4): intercept 7/6, slope 3/2.
    x = np.array([[0.0], [1.0], [2.0]])
    y = np.array([1.0, 3.0, 4.0])
    theta = fit_prognostic(SampleA(x, y))
    assert np.allclose(theta, [7.0 / 6.0, 3.0 / 2.0], atol=1e-12)


def test_prognostic_orthogonality():
    rng = np.random.default_rng(11)
    x = rng.normal(size=(40, 3))
    y = rng.normal(size=40) * 5.0
    theta = fit_prognostic(SampleA(x, y))
    design = np.column_stack([np.ones(40), x])
    resid = y - design @ theta
    assert np.max(np.abs(design.T @ resid)) < 1e-8 * np.linalg.norm(y)


def test_prognostic_rank_deficient():
    x = np.array([[1.0, 2.0], [2.0, 4.0], [3.0, 6.0], [4.0, 8.0]])
    with pytest.raises(RankDeficient):
        fit_prognostic(SampleA(x, np.array([1.0, 2.0, 3.0, 4.0])))


def _pair(seed, n_a=30, n_b=40, k=3):
    rng = np.random.default_rng(seed)
    xa = rng.normal(size=(n_a, k))
    xb = rng.normal(size=(n_b, k)) * 0.9 + 0.2
    y = xa @ np.array([1.0, -0.5, 0.25])[:k] + rng.normal(size=n_a)
    d = rng.uniform(1.0, 5.0, size=n_b)
    return SampleA(xa, y), SampleB(xb, d)


def test_score_matrix_columns_have_unit_pooled_sd():
    a, b = _pair(0)
    fit = fit_scores(a, b)
    scores = build_score_matrix(a, b, fit)
    assert np.allclose(scores.z.std(axis=0, ddof=1), 1.0, atol=1e-10)
    assert scores.n_a == a.n and scores.n_b == b.n


def test_identical_covariate_rows_share_score_rows():
    a, b = _pair(1)
    xb = b.x.copy()
    xb[5] = a.x[2]
    b = SampleB(xb, b.d)
    fit = fit_scores(a, b)
    scores = build_score_matrix(a, b, fit)
    assert np.array_equal(scores.z[2], scores.z[a.n + 5])


def test_constant_prognostic_predictions_degenerate():
    rng = np.random.default_rng(3)
    xa = rng.normal(size=(10, 1))
    a = SampleA(xa, np.full(10, 2.5))
    b = SampleB(rng.normal(size=(8, 1)), np.full(8, 2.0))
    with pytest.raises(DegenerateScore):
        fit_scores(a, b)


def test_row_order_invariance():
    a, b = _pair(2)
    perm_a = np.random.default_rng(5).permutation(a.n)
    perm_b = np.random.default_rng(6).permutation(b.n)
    fit = fit_scores(a, b)
    fit_p = fit_scores(
        SampleA(a.x[perm_a], a.y[perm_a]), SampleB(b.x[perm_b], b.d[perm_b])
    )
    assert np.all(np.abs(fit.theta_r - fit_p.theta_r) < 1e-6)
    assert np.all(np.abs(fit.theta_y - fit_p.theta_y) < 1e-6)


def test_affine_rescaling_leaves_fitted_values():
    # Coefficients move, fitted scores do not.
    a, b = _pair(4)
    scale, shift = 37.0, -4.0
    xa2, xb2 = a.x.copy(), b.x.copy()
    xa2[:, 1] = scale * xa2[:, 1] + shift
    xb2[:, 1] = scale * xb2[:, 1] + shift
    fit = fit_scores(a, b)
    fit2 = fit_scores(SampleA(xa2, a.y), SampleB(xb2, b.d))
    assert np.all(np.abs(fit.propensity(a.x) - fit2.propensity(xa2)) < 1e-6)
    assert np.all(np.abs(fit.prognostic(b.x) - fit2.prognostic(xb2)) < 1e-6)


def test_column_subsets_reach_both_models():
    a, b = _pair(8)
    fit = fit_scores(a, b, cols_r=(0, 1), cols_y=(0, 2))
    assert fit.theta_r.shape == (3,) and fit.theta_y.shape == (3,)
    full = fit_scores(a, b)
    assert not np.allclose(fit.theta_r, full.theta_r[:3])


@pytest.mark.parametrize("cols_r, cols_y", [(None, None), ((0, 1), (0, 2))])
def test_fit_carries_the_scores_of_its_pooled_rows(cols_r, cols_y):
    # Every later stage slices these arrays instead of evaluating the
    # models again, so they must be exactly the models' pooled scores.
    a, b = _pair(10)
    fit = fit_scores(a, b, cols_r=cols_r, cols_y=cols_y)
    pooled = np.vstack([a.x, b.x])
    assert fit.f.tobytes() == fit.propensity(pooled).tobytes()
    assert fit.g.tobytes() == fit.prognostic(pooled).tobytes()


def test_fit_made_on_samples_of_another_size_is_rejected():
    a, b = _pair(11)
    plan = find_matches(build_score_matrix(a, b, fit_scores(a, b)), 2, d_b=b.d)
    other = fit_scores(*_pair(11, n_a=29))
    message = ("the fit holds scores of 69 pooled rows, not the 70 (30 + 40) of these "
               "samples: fit it on them")
    for call in (
        lambda: build_score_matrix(a, b, other),
        lambda: point_estimates(plan, other, a, b),
        lambda: bootstrap_ci_debiased(plan, other, a, b, 0.0, BootstrapSpec(n_draws=10)),
    ):
        with pytest.raises(ValueError, match=re.escape(message) + "$"):
            call()


def test_converged_metadata():
    a, b = _pair(9)
    fit = fit_scores(a, b)
    assert fit.grad_norm <= dsm_scores._TOL
    assert 0 < fit.iterations <= dsm_scores._MAX_ITER


def test_max_iter_exhaustion_raises(monkeypatch):
    from dsm.errors import NonConvergence

    monkeypatch.setattr(dsm_scores, "_MAX_ITER", 1)
    a, b = _pair(10)
    with pytest.raises((NonConvergence, Separation)):
        fit_propensity(a, b)


def test_sample_validation():
    from dsm.errors import EmptySample, NonpositiveWeight

    with pytest.raises(ValueError):
        SampleA(np.array([[1.0], [2.0]]), np.array([1.0]))
    with pytest.raises(ValueError):
        SampleA(np.array([[np.nan]]), np.array([1.0]))
    with pytest.raises(NonpositiveWeight):
        SampleB(np.array([[1.0], [2.0]]), np.array([1.0, 0.0]))
    with pytest.raises(EmptySample, match="sample A is empty"):
        SampleA(np.zeros((0, 1)), np.zeros(0))
    with pytest.raises(EmptySample, match="sample B is empty"):
        SampleB(np.zeros((0, 1)), np.zeros(0))


@pytest.mark.parametrize("cls, field, label", [
    (SampleA, "y", "sample A"),
    (SampleB, "d", "sample B"),
])
@pytest.mark.parametrize("x, v, error, message", [
    (np.ones(2), np.ones(2), ValueError, "covariates must be a 2-D array, got shape (2,)"),
    (np.ones((2, 1)), np.ones((2, 1)), ValueError, "{field} must be a 1-D array, got shape (2, 1)"),
    (np.array([[1.0], [np.nan]]), np.ones(2), ValueError, "covariates contain NaN or infinite entries"),
    (np.ones((2, 1)), np.array([1.0, np.inf]), ValueError, "{field} contains NaN or infinite entries"),
    (np.ones((2, 1)), np.ones(3), ValueError, "x and {field} disagree on the number of units"),
    (np.zeros((0, 1)), np.zeros(0), EmptySample, "{label} is empty"),
], ids=["1d-x", "2d-vector", "nan-x", "inf-vector", "length-mismatch", "zero-rows"])
def test_sample_validation_messages(cls, field, label, x, v, error, message):
    with pytest.raises(error) as exc:
        cls(x, v)
    assert type(exc.value) is error
    assert str(exc.value) == message.format(field=field, label=label)
