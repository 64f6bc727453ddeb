"""Residual-variance estimates, the analytic variance, and the wild
bootstrap: hand values, moment checks, an independently coded replicate
evaluator, and the determinism contract."""

import os
import sys
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import dsm.uncertainty as unc
from dsm import (
    MAMMEN_NEG,
    MAMMEN_P_NEG,
    MAMMEN_POS,
    BootstrapSpec,
    InnerNeighbors,
    MatchPlan,
    SampleA,
    SampleB,
    ScoreFit,
    analytic_variance,
    bootstrap_ci_debiased,
    bootstrap_ci_plain,
    bootstrap_ci_population,
    mammen_draw,
    sigma2_units,
)


def inner_from(l_sets):
    l_sets = np.asarray(l_sets, dtype=np.intp)
    return InnerNeighbors(j=l_sets.shape[1], l_sets=l_sets)


def plan_from(j_sets, n_a, d_b=None):
    j_sets = np.asarray(j_sets, dtype=np.intp)
    m = j_sets.shape[1]
    k = np.bincount(j_sets.ravel(), minlength=n_a)
    if d_b is None:
        kw = k.astype(float)
    else:
        kw = np.bincount(
            j_sets.ravel(), weights=np.repeat(np.asarray(d_b, float), m), minlength=n_a
        )
    return MatchPlan(
        m=m,
        j_sets=j_sets,
        distances=np.zeros_like(j_sets, dtype=float),
        k_counts=k,
        k_weighted=kw,
    )


def linear_fit(intercept, slope, a, b):
    """Hand-built fit on samples a and b whose prognostic score is
    intercept + slope * x, carrying both scores of the pooled rows."""
    fit = ScoreFit(
        theta_r=np.array([0.0, 0.0]),
        theta_y=np.array([float(intercept), float(slope)]),
        iterations=1,
        grad_norm=0.0,
        sd_f=1.0,
        sd_g=1.0,
        f=np.empty(0),
        g=np.empty(0),
    )
    pooled = np.vstack([a.x, b.x])
    return replace(fit, f=fit.propensity(pooled), g=fit.prognostic(pooled))


# -- residual variances -------------------------------------------------

def test_sigma2_unit_hand_value():
    # J=1, own y 2, neighbor y 0: (1/2) * (2-0)^2 = 2.
    inner = inner_from([[1], [0]])
    assert sigma2_units(inner, np.array([2.0, 0.0]))[0] == pytest.approx(2.0, abs=1e-14)


def test_sigma2_unit_equal_neighborhood():
    inner = inner_from([[1, 2, 3], [0, 2, 3], [0, 1, 3], [0, 1, 2]])
    y = np.array([1.0, 1.0, 1.0, 1.0])
    assert sigma2_units(inner, y)[0] == 0.0


def test_sigma2_units_constant_outcome():
    inner = inner_from([[1], [0], [1]])
    assert np.all(sigma2_units(inner, np.full(3, 4.0)) == 0.0)


def test_analytic_variance_no_reuse_drops_matching_term():
    # Every donor used exactly once: k*(k-1) = 0 leaves the spread term.
    y = np.array([1.0, 2.0, 5.0])
    plan = plan_from([[0], [1], [2]], n_a=3)
    inner = inner_from([[1], [0], [1]])
    mu = float(y.mean())
    v = analytic_variance(plan, y, mu, inner)
    assert v == pytest.approx(float(((y - mu) ** 2).mean()), abs=1e-14)


def test_analytic_variance_constant_outcome():
    plan = plan_from([[0, 1], [1, 2]], n_a=3)
    inner = inner_from([[1], [0], [1]])
    assert analytic_variance(plan, np.full(3, 3.0), 3.0, inner) == 0.0


def test_analytic_variance_direct_formula():
    y = np.array([1.0, 4.0, 2.0, 0.0])
    plan = plan_from([[0, 1], [1, 2], [1, 3]], n_a=4)
    inner = inner_from([[1], [2], [1], [0]])
    mu = 1.9
    yhat = y[plan.j_sets].mean(axis=1)
    s2 = (1.0 / 2.0) * (y - y[inner.l_sets[:, 0]]) ** 2
    k = plan.k_counts
    expected = float(((yhat - mu) ** 2).mean()) + float(
        (k * (k - 1) / plan.m**2 * s2).sum()
    ) / plan.n_b
    assert analytic_variance(plan, y, mu, inner) == pytest.approx(expected, abs=1e-14)


# -- multiplier distribution --------------------------------------------

def test_mammen_support_and_probability():
    assert MAMMEN_NEG == pytest.approx(-(np.sqrt(5) - 1) / 2)
    assert MAMMEN_POS == pytest.approx((np.sqrt(5) + 1) / 2)
    assert MAMMEN_P_NEG == pytest.approx((np.sqrt(5) + 1) / (2 * np.sqrt(5)))
    draws = mammen_draw(np.random.default_rng(0), 1000)
    assert set(np.unique(draws)) == {MAMMEN_NEG, MAMMEN_POS}


def test_mammen_moments():
    # Mean, variance, and third moment should be (0, 1, 1).  SEs of the
    # sample moments at n draws: 1/sqrt(n), sqrt(E w^4 - 1)/sqrt(n) = 1/sqrt(n),
    # sqrt(E w^6 - 1)/sqrt(n) = 2/sqrt(n).
    n = 10**6
    w = mammen_draw(np.random.default_rng(202), n)
    se = 1.0 / np.sqrt(n)
    assert abs(w.mean()) < 4 * se
    assert abs(np.mean(w**2) - 1.0) < 4 * se
    assert abs(np.mean(w**3) - 1.0) < 4 * 2 * se


def test_mammen_draw_matches_where_construction():
    # The in-place kernel gives, bit for bit, the weights of the
    # select-by-mask construction from the same uniforms.
    for size in [(0,), (1,), (1000,), (3, 7)]:
        got = mammen_draw(np.random.default_rng(31), size)
        u = np.random.default_rng(31).random(size)
        want = np.where(u < MAMMEN_P_NEG, MAMMEN_NEG, MAMMEN_POS)
        assert got.shape == want.shape
        assert np.array_equal(got.view(np.int64), want.view(np.int64)), size


def test_mammen_kernel_support_points_are_exact():
    # The kernel maps a uniform to (NEG - POS) * {1.0, 0.0} + POS.  These
    # identities must hold in IEEE double for every weight to be exactly a
    # support point; a change to the constants that breaks them fails here.
    step = MAMMEN_NEG - MAMMEN_POS
    assert step * 1.0 + MAMMEN_POS == MAMMEN_NEG
    assert step * 0.0 + MAMMEN_POS == MAMMEN_POS


# -- bootstrap intervals ------------------------------------------------

def test_plain_degenerate_interval():
    y = np.full(4, 2.5)
    plan = plan_from([[0, 1], [2, 3]], n_a=4)
    report = bootstrap_ci_plain(plan, y, 2.5, BootstrapSpec(n_draws=50, seed=3))
    assert report.lo == report.hi == report.point == 2.5
    assert np.all(report.draws == 0.0)


def test_plain_orientation():
    rng = np.random.default_rng(21)
    y = rng.normal(size=6)
    plan = plan_from([[0, 1], [2, 3], [4, 5], [1, 2]], n_a=6)
    report = bootstrap_ci_plain(plan, y, float(y.mean()), BootstrapSpec(n_draws=500, seed=4))
    assert report.lo <= report.hi
    assert report.lo == pytest.approx(report.point - report.q_hi)
    assert report.hi == pytest.approx(report.point - report.q_lo)


def test_plain_conditional_variance():
    # Unit-variance independent multipliers: Var(q) over replicates is
    # sum(resid^2) / n_b^2 exactly; the sample variance at B = 1e5 should
    # sit within a few percent.
    rng = np.random.default_rng(22)
    y = rng.normal(size=20)
    j_sets = np.array([rng.choice(20, size=3, replace=False) for _ in range(12)])
    plan = plan_from(j_sets, n_a=20)
    point = 0.3
    report = bootstrap_ci_plain(plan, y, point, BootstrapSpec(n_draws=10**5, seed=5))
    resid = plan.k_counts * (y - point) / plan.m
    target = float(resid @ resid) / plan.n_b**2
    assert np.var(report.draws) == pytest.approx(target, rel=0.05)


def test_seed_determinism_bit_for_bit():
    rng = np.random.default_rng(23)
    y = rng.normal(size=8)
    plan = plan_from([[0, 1], [2, 3], [4, 5]], n_a=8)
    spec = BootstrapSpec(n_draws=300, seed=77)
    r1 = bootstrap_ci_plain(plan, y, 0.0, spec)
    r2 = bootstrap_ci_plain(plan, y, 0.0, spec)
    assert np.array_equal(r1.draws, r2.draws)
    assert (r1.lo, r1.hi) == (r2.lo, r2.hi)
    r3 = bootstrap_ci_plain(plan, y, 0.0, BootstrapSpec(n_draws=300, seed=78))
    assert not np.array_equal(r1.draws, r3.draws)


def one_generator_draws(seed, resid, norm, n_draws):
    """Oracle: the whole (n_draws, n) multiplier block from one Philox
    generator, reduced row-wise."""
    gen = np.random.Generator(np.random.Philox(key=seed))
    u = gen.random((n_draws, resid.shape[0]))
    w = np.where(u < MAMMEN_P_NEG, MAMMEN_NEG, MAMMEN_POS)
    return (w * resid).sum(axis=1) / norm


def test_chunk_size_invariance(monkeypatch):
    # Every thread count, chunk size and unit count gives the one-generator
    # block bit for bit: n_draws below the thread count, unit counts whose
    # range offsets lo*n are not multiples of Philox's four words, and
    # chunks far smaller than a thread's range.  A short switch interval
    # makes the threads, which write disjoint slices of one array,
    # interleave as often as they can.
    rng = np.random.default_rng(24)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for n_a, n_draws in [(10, 257), (1, 257), (3, 3), (7, 2), (1001, 37)]:
            y = rng.normal(size=n_a)
            plan = plan_from(rng.integers(0, n_a, size=(max(4, n_a // 2), 2)), n_a=n_a)
            spec = BootstrapSpec(n_draws=n_draws, seed=9)
            resid = plan.k_counts * (y - 0.1) / plan.m
            expected = one_generator_draws(9, resid, plan.n_b, n_draws)
            for chunk_elems in (unc._CHUNK_ELEMS, 16, 1):
                monkeypatch.setattr(unc, "_CHUNK_ELEMS", chunk_elems)
                for threads in (1, 2, 3, 4):
                    monkeypatch.setenv("DSM_THREADS", str(threads))
                    draws = bootstrap_ci_plain(plan, y, 0.1, spec).draws
                    assert np.array_equal(draws, expected), (n_a, n_draws, chunk_elems, threads)
            monkeypatch.undo()
    finally:
        sys.setswitchinterval(interval)


def test_centered_draws_memory_is_one_chunk_per_thread(monkeypatch):
    # Each thread fills and reduces one reused chunk buffer in place, so
    # the traced peak stays near threads * _CHUNK_ELEMS float64 values
    # whatever the draw count.
    n = 12_000
    resid = np.random.default_rng(32).normal(size=n)
    spec = BootstrapSpec(n_draws=200, seed=5)
    for threads in (1, 2):
        monkeypatch.setenv("DSM_THREADS", str(threads))
        tracemalloc.start()
        try:
            unc._centered_draws(spec, resid, float(n))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= threads * 1.25 * unc._CHUNK_ELEMS * 8, (threads, peak)


def test_worker_count_defaults_to_cpu_affinity(monkeypatch):
    # Unset DSM_THREADS means the CPUs this process may run on (a taskset
    # or cpuset mask), not every CPU of the host.
    monkeypatch.delenv("DSM_THREADS", raising=False)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert unc._worker_count() == 1
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 2, 5}, raising=False)
    assert unc._worker_count() == 3
    monkeypatch.setenv("DSM_THREADS", "4")
    assert unc._worker_count() == 4


def test_draw_ranges_split_across_threads(monkeypatch):
    # Contiguous ranges, one per thread, never more threads than draws.
    ranges = []
    real = unc._draw_range

    def spy(spec, resid, norm, out, lo, hi):
        ranges.append((lo, hi))
        real(spec, resid, norm, out, lo, hi)

    monkeypatch.setattr(unc, "_draw_range", spy)
    plan = plan_from([[0, 1], [2, 0]], n_a=3)
    y = np.array([1.0, -2.0, 0.5])
    for threads, n_draws, expected in [
        ("1", 257, [(0, 257)]),
        ("3", 257, [(0, 85), (85, 171), (171, 257)]),
        ("4", 2, [(0, 1), (1, 2)]),
    ]:
        monkeypatch.setenv("DSM_THREADS", threads)
        ranges.clear()
        bootstrap_ci_plain(plan, y, 0.0, BootstrapSpec(n_draws=n_draws, seed=1))
        assert sorted(ranges) == expected


def test_debiased_zero_when_outcomes_match_constant_prognosis():
    a = SampleA(np.array([[0.0], [1.0], [2.0]]), np.full(3, 3.0))
    b = SampleB(np.array([[0.5], [1.5]]), np.ones(2))
    fit = linear_fit(3.0, 0.0, a, b)
    plan = plan_from([[0], [2]], n_a=3, d_b=b.d)
    report = bootstrap_ci_debiased(plan, fit, a, b, 3.0, BootstrapSpec(n_draws=40, seed=1))
    assert np.all(report.draws == 0.0)
    assert report.lo == report.hi == 3.0


def test_population_degenerate_with_exact_constant_prognosis():
    a = SampleA(np.array([[0.0], [4.0]]), np.full(2, -1.5))
    b = SampleB(np.array([[1.0], [2.0]]), np.array([2.0, 7.0]))
    fit = linear_fit(-1.5, 0.0, a, b)
    plan = plan_from([[0], [1]], n_a=2, d_b=b.d)
    report = bootstrap_ci_population(
        plan, fit, a, b, -1.5, BootstrapSpec(n_draws=40, seed=2)
    )
    assert np.all(report.draws == 0.0)


def test_population_reduces_to_debiased_under_unit_weights():
    rng = np.random.default_rng(25)
    a = SampleA(rng.normal(size=(7, 1)), rng.normal(size=7))
    b = SampleB(rng.normal(size=(5, 1)), np.ones(5))
    fit = linear_fit(0.5, 1.2, a, b)
    j_sets = np.array([rng.choice(7, size=2, replace=False) for _ in range(5)])
    plan = plan_from(j_sets, n_a=7, d_b=b.d)
    spec = BootstrapSpec(n_draws=400, seed=31)
    deb = bootstrap_ci_debiased(plan, fit, a, b, 1.1, spec)
    pop = bootstrap_ci_population(plan, fit, a, b, 1.1, spec)
    assert np.array_equal(deb.draws, pop.draws)
    assert (deb.lo, deb.hi) == (pop.lo, pop.hi)


def test_debiased_replicates_match_independent_evaluator(monkeypatch):
    # Re-derive the replicate values from scratch: one counter-based
    # generator for the whole block, A-columns first, two-point
    # multipliers, normalized sum; at every thread count, with unit counts
    # n_a + n_b of 6, 3, 7 and 1001 and chunks down to one draw.
    rng = np.random.default_rng(26)
    point = 0.45
    for n_a, n_b, n_draws in [(4, 2, 64), (2, 1, 3), (4, 3, 2), (600, 401, 37)]:
        a = SampleA(rng.normal(size=(n_a, 1)), rng.normal(size=n_a))
        b = SampleB(rng.normal(size=(n_b, 1)), rng.uniform(1.0, 4.0, size=n_b))
        fit = linear_fit(0.2, 0.8, a, b)
        plan = plan_from(rng.integers(0, n_a, size=(n_b, 2)), n_a=n_a, d_b=b.d)
        spec = BootstrapSpec(n_draws=n_draws, seed=12345)

        gen = np.random.Generator(np.random.Philox(key=12345))
        u = gen.random((n_draws, n_a + n_b))
        w = np.where(u < MAMMEN_P_NEG, MAMMEN_NEG, MAMMEN_POS)
        ra = plan.k_counts * (a.y - fit.prognostic(a.x)) / plan.m
        rb = fit.prognostic(b.x) - point
        expected = (w[:, :n_a] @ ra + w[:, n_a:] @ rb) / plan.n_b
        for chunk_elems in (unc._CHUNK_ELEMS, 1):
            monkeypatch.setattr(unc, "_CHUNK_ELEMS", chunk_elems)
            for threads in (1, 2, 3, 4):
                monkeypatch.setenv("DSM_THREADS", str(threads))
                report = bootstrap_ci_debiased(plan, fit, a, b, point, spec)
                assert np.allclose(report.draws, expected, rtol=0.0, atol=1e-12)
        monkeypatch.undo()


def test_population_replicates_match_independent_evaluator():
    rng = np.random.default_rng(27)
    a = SampleA(rng.normal(size=(4, 1)), rng.normal(size=4))
    b = SampleB(rng.normal(size=(2, 1)), np.array([1.5, 4.5]))
    fit = linear_fit(-0.4, 1.1, a, b)
    plan = plan_from([[1, 2], [0, 3]], n_a=4, d_b=b.d)
    point = -0.2
    spec = BootstrapSpec(n_draws=32, seed=999)
    report = bootstrap_ci_population(plan, fit, a, b, point, spec)

    gen = np.random.Generator(np.random.Philox(key=999))
    u = gen.random((32, 6))
    w = np.where(u < MAMMEN_P_NEG, MAMMEN_NEG, MAMMEN_POS)
    ra = plan.k_weighted * (a.y - fit.prognostic(a.x)) / plan.m
    rb = b.d * (fit.prognostic(b.x) - point)
    expected = (w[:, :4] @ ra + w[:, 4:] @ rb) / b.d.sum()
    assert np.allclose(report.draws, expected, rtol=0.0, atol=1e-12)


def test_interval_nesting():
    rng = np.random.default_rng(28)
    y = rng.normal(size=12)
    plan = plan_from([[i, (i + 1) % 12] for i in range(8)], n_a=12)
    wide = bootstrap_ci_plain(plan, y, 0.0, BootstrapSpec(n_draws=2000, alpha=0.05, seed=6))
    narrow = bootstrap_ci_plain(plan, y, 0.0, BootstrapSpec(n_draws=2000, alpha=0.10, seed=6))
    assert wide.lo <= narrow.lo <= narrow.hi <= wide.hi


def test_bootstrap_spec_validation():
    with pytest.raises(ValueError):
        BootstrapSpec(n_draws=1)
    with pytest.raises(ValueError):
        BootstrapSpec(alpha=0.0)
    with pytest.raises(ValueError):
        BootstrapSpec(alpha=1.0)
    with pytest.raises(ValueError):
        BootstrapSpec(seed=-1)
    with pytest.raises(ValueError, match=r"below 2\*\*128"):
        BootstrapSpec(seed=2**128)


def test_largest_seed_still_draws():
    y = np.arange(4.0)
    plan = plan_from([[0, 1], [2, 3]], n_a=4)
    report = bootstrap_ci_plain(plan, y, 1.5, BootstrapSpec(n_draws=20, seed=2**128 - 1))
    assert report.draws.shape == (20,) and np.all(np.isfinite(report.draws))
