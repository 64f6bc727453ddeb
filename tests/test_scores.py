"""Score-model fits: logistic sampling score against a grid oracle,
least-squares prognostic score against hand algebra, and the pooled
normalization contract."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
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
    analytic_variance,
    bootstrap_ci_debiased,
    bootstrap_ci_plain,
    bootstrap_ci_population,
    build_score_matrix,
    find_inner_neighbors,
    find_matches,
    fit_prognostic,
    fit_propensity,
    fit_scores,
    impute,
    point_estimates,
)
from support import TOY_D, TOY_XA, TOY_XB, grid_argmax


def loglik(theta, xa, xb, d):
    """Design-weighted pseudo log-likelihood the sampling-score fit maximizes."""
    da = np.column_stack([np.ones(len(xa)), xa])
    db = np.column_stack([np.ones(len(xb)), xb])
    return float((da @ theta).sum() - d @ np.logaddexp(0.0, db @ theta))


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


def test_equal_weights_split_names_no_weight():
    # No weight dominates the others here: the failure says only what the
    # pinned propensities show.
    a = SampleA(np.array([[1.0], [2.0], [3.0]]), np.zeros(3))
    b = SampleB(np.array([[-1.0], [-2.0], [-3.0]]), np.full(3, 2.0))
    with pytest.raises(Separation) as raised:
        fit_propensity(a, b)
    assert str(raised.value) == "curvature matrix is singular; the samples are separable"


@pytest.mark.parametrize("scale", [1.0, 1e-3, 1e-6, 1e-7, 1e-9, 1e-12])
def test_divergence_test_is_scale_free(scale):
    # A covariate in tiny units has huge coefficients on the original scale
    # but ordinary ones on the standardized scale the fit works in.
    a, b = _pair(5, n_a=300, n_b=600)
    xa, xb = a.x.copy(), b.x.copy()
    xa[:, 0] *= scale
    xb[:, 0] *= scale
    fit = fit_scores(SampleA(xa, a.y), SampleB(xb, b.d))
    assert np.max(np.abs(fit.f - fit_scores(a, b).f)) < 1e-12
    # A perfect split still fails as separable at every scale.
    split_a = SampleA(np.array([[1.0], [2.0], [3.0]]) * scale, np.zeros(3))
    split_b = SampleB(np.array([[-1.0], [-2.0], [-3.0]]) * scale, np.full(3, 2.0))
    with pytest.raises(Separation, match="separable"):
        fit_propensity(split_a, split_b)
    rng = np.random.default_rng(5)
    xa, xb = np.abs(rng.normal(size=(300, 2))) + 0.1, -np.abs(rng.normal(size=(600, 2))) - 0.1
    with pytest.raises(Separation, match="separable"):
        fit_propensity(SampleA(xa * scale, a.y), SampleB(xb * scale, np.full(600, 2.0)))


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
    assert np.array_equal(scores.in_a, np.arange(a.n + b.n) < a.n)


@pytest.mark.parametrize("n_a", [-1, 5, 6])
def test_score_matrix_rejects_more_a_rows_than_it_has(n_a):
    z = np.arange(8.0).reshape(4, 2)
    with pytest.raises(ValueError, match=rf"n_a must lie in \[0, 4\], the rows of z; got {n_a}"):
        ScoreMatrix(z=z, n_a=n_a)
    assert [ScoreMatrix(z=z, n_a=k).n_b for k in (0, 4)] == [4, 0]


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


def _assert_every_stage_rejects(other, a, b):
    """Each stage that reads a fit's scores refuses a fit not made on a and b."""
    plan = find_matches(build_score_matrix(a, b, fit_scores(a, b)), 2, d_b=b.d)
    spec = BootstrapSpec(n_draws=10)
    message = "the fit was made on other sample objects: fit it on these"
    for call in (
        lambda: build_score_matrix(a, b, other),
        lambda: point_estimates(plan, other, a, b),
        lambda: bootstrap_ci_debiased(plan, other, a, b, 0.0, spec),
        lambda: bootstrap_ci_population(plan, other, a, b, 0.0, spec),
    ):
        with pytest.raises(ValueError, match=re.escape(message) + "$"):
            call()


def test_fit_made_on_samples_of_another_size_is_rejected():
    a, b = _pair(11)
    _assert_every_stage_rejects(fit_scores(*_pair(11, n_a=29)), a, b)


@pytest.mark.parametrize("other_samples", [
    # 70 pooled rows split 31/39: a row-count check passes it.
    pytest.param(lambda a, b: _pair(12, n_a=31, n_b=39), id="same_total_other_split"),
    pytest.param(lambda a, b: (a, _pair(12)[1]), id="same_size_other_b"),
    pytest.param(lambda a, b: (SampleA(a.x, a.y), b), id="equal_rebuilt_a"),
])
def test_fit_made_on_other_samples_of_the_same_size_is_rejected(other_samples):
    a, b = _pair(11)
    _assert_every_stage_rejects(fit_scores(*other_samples(a, b)), a, b)


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


def _layouts():
    x = np.random.default_rng(31).normal(size=(40, 6))
    f = np.asfortranarray(x)
    return {
        "C": x, "F": f, "n x 1": x[:, :1].copy(), "n x 1 view": f[:, 1:2], "1 x p": x[:1].copy(),
        "C rows": x[::2], "C columns": x[:, ::3], "F rows": f[::2], "F columns": f[:, ::2],
        "transposed": x.T[:, :5], "fancy columns": x[:, [0, 2, 3]], "no covariates": x[:, :0],
    }


@pytest.mark.parametrize("name", list(_layouts()))
def test_design_equals_column_stack_in_bytes_and_memory_order(name):
    # The fit's BLAS calls pick their kernels by layout, so the design is
    # built in C order whatever x's own: its bits then follow its values.
    x = _layouts()[name]
    mu, sd = x.mean(axis=0), np.linspace(0.5, 2.0, x.shape[1])
    want = np.column_stack([np.ones(x.shape[0]), (x - mu) / sd])
    got = dsm_scores._design(x, mu, sd)
    assert got.flags.c_contiguous and np.array_equal(got, want)
    if x.flags.c_contiguous:
        assert got.tobytes("A") == want.tobytes("A")


def test_fit_depends_on_the_covariate_values_only():
    # Neither spelling every column out nor a Fortran-ordered copy of the
    # rows may move a bit of the fit or of its scores.
    a, b = _pair(0)
    every = tuple(range(a.x.shape[1]))
    fit, spelled = fit_scores(a, b), fit_scores(a, b, cols_r=every, cols_y=every)
    for name in ("theta_r", "theta_y", "f", "g", "iterations", "grad_norm"):
        got, want = getattr(spelled, name), getattr(fit, name)
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes(), name
    x = np.vstack([a.x, b.x])
    for model in (fit.propensity, fit.prognostic):
        assert model(np.asfortranarray(x)).tobytes() == model(x).tobytes()


# The same values as a caller may hold them: contiguous, column-major,
# strided views (a vector as one column of a wider block, as `load_samples`
# hands over the weights), sliced views off by one element, and lists.
_MATRIX_SPELLINGS = {
    "C": np.array,
    "F": np.asfortranarray,
    "strided": lambda x: np.repeat(x, 2, axis=0)[::2],
    "sliced": lambda x: np.hstack([x[:, -1:], x])[:, 1:],
    "list": lambda x: x.tolist(),
}
_VECTOR_SPELLINGS = {
    "C": np.array,
    "strided": lambda v: np.column_stack([v] * 5)[:, 4],
    "sliced": lambda v: np.concatenate([v[-1:], v])[1:],
    "list": lambda v: v.tolist(),
}


def _chain_bytes(a, b):
    """Every number the library chain produces, as bytes by name."""
    fit = fit_scores(a, b)
    smat = build_score_matrix(a, b, fit)
    plan = find_matches(smat, 3, d_b=b.d)
    inner = find_inner_neighbors(smat, 6)
    est = point_estimates(plan, fit, a, b)
    spec = BootstrapSpec(n_draws=50, seed=5)
    parts = {
        "fit": fit, "smat": smat, "plan": plan, "inner": inner, "est": est,
        "ci_plain": bootstrap_ci_plain(plan, a.y, est.mu_b, spec),
        "ci_debiased": bootstrap_ci_debiased(plan, fit, a, b, est.mu_b_debiased, spec),
        "ci_population": bootstrap_ci_population(plan, fit, a, b, est.mu_dsm_debiased, spec),
    }
    out = {
        "impute": impute(plan, a.y).tobytes(),
        "variance": np.float64(analytic_variance(plan, a.y, est.mu_b, inner)).tobytes(),
    }
    for name, part in parts.items():
        for key, value in vars(part).items():
            if isinstance(value, (np.ndarray, int, float)):
                out[f"{name}.{key}"] = np.asarray(value).tobytes()
    return out


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    seed=st.integers(0, 2),
    xa=st.sampled_from(sorted(_MATRIX_SPELLINGS)),
    xb=st.sampled_from(sorted(_MATRIX_SPELLINGS)),
    y=st.sampled_from(sorted(_VECTOR_SPELLINGS)),
    d=st.sampled_from(sorted(_VECTOR_SPELLINGS)),
)
def test_results_depend_on_the_sample_values_only(seed, xa, xb, y, d):
    a, b = _pair(seed, n_b=60)
    want = _chain_bytes(a, b)
    got = _chain_bytes(
        SampleA(_MATRIX_SPELLINGS[xa](a.x), _VECTOR_SPELLINGS[y](a.y)),
        SampleB(_MATRIX_SPELLINGS[xb](b.x), _VECTOR_SPELLINGS[d](b.d)),
    )
    assert len(want) > 40 and got.keys() == want.keys()
    assert [name for name in want if got[name] != want[name]] == []


def test_collinear_covariates_fail_the_pooled_rank_check():
    a, b = _pair(0, k=1)
    a, b = SampleA(np.hstack([a.x, 2 * a.x]), a.y), SampleB(np.hstack([b.x, 2 * b.x]), b.d)
    with pytest.raises(RankDeficient, match="^pooled design matrix is rank deficient$"):
        fit_scores(a, b)
