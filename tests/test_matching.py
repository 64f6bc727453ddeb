"""Matching machinery against an exhaustive brute-force oracle, plus the
count-conservation and tie-breaking contracts."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dsm import (
    InnerNeighbors,
    JTooLarge,
    MatchPlan,
    MTooLarge,
    ScoreMatrix,
    find_inner_neighbors,
    find_matches,
    impute,
)


def make_scores(za, zb):
    z = np.vstack([za, zb])
    in_a = np.zeros(len(z), dtype=bool)
    in_a[: len(za)] = True
    return ScoreMatrix(z=z, in_a=in_a)


def oracle_match(za, zb, m):
    """Full O(n_a * n_b) sort per B-unit; ties resolve to the lowest donor
    index via the secondary lexsort key."""
    out = np.empty((len(zb), m), dtype=np.intp)
    for i, point in enumerate(zb):
        d2 = ((za - point) ** 2).sum(axis=1)
        out[i] = np.lexsort((np.arange(len(za)), d2))[:m]
    return out


def oracle_inner(za, j):
    """Full sort per A-unit over every A-unit, self dropped by index (a
    duplicate row ties self at distance zero, so position would not do)."""
    out = np.empty((len(za), j), dtype=np.intp)
    for i, point in enumerate(za):
        d2 = ((za - point) ** 2).sum(axis=1)
        order = np.lexsort((np.arange(len(za)), d2))
        out[i] = order[order != i][:j]
    return out


# Score rows on a half-integer lattice: distances are exact, so ties are
# exact too, at zero and at every cutoff.
_LATTICE_ROW = st.tuples(*[st.integers(-2, 2).map(lambda v: v / 2.0)] * 2)


@st.composite
def lattice_instance(draw):
    za = draw(st.lists(_LATTICE_ROW, min_size=2, max_size=10))
    za += draw(st.lists(st.sampled_from(za), max_size=4))
    zb = draw(st.lists(st.one_of(_LATTICE_ROW, st.sampled_from(za)), min_size=1, max_size=6))
    return np.array(za), np.array(zb)


@settings(max_examples=150, deadline=None)
@given(lattice_instance())
def test_matches_and_inner_neighbors_agree_with_oracle_on_ties(instance):
    za, zb = instance
    scores = make_scores(za, zb)
    for m in range(1, len(za) + 1):
        assert np.array_equal(find_matches(scores, m).j_sets, oracle_match(za, zb, m))
    for j in range(1, len(za)):
        assert np.array_equal(find_inner_neighbors(scores, j).l_sets, oracle_inner(za, j))


def random_instance(rng):
    n_a = int(rng.integers(2, 51))
    n_b = int(rng.integers(1, 31))
    m = int(rng.integers(1, min(n_a, 6) + 1))
    za = rng.normal(size=(n_a, 2))
    zb = rng.normal(size=(n_b, 2))
    if rng.random() < 0.5:
        # Quantize to force exact distance ties, including at the cutoff.
        za = np.round(za, 1)
        zb = np.round(zb, 1)
    if rng.random() < 0.3 and n_a >= 4:
        za[n_a // 2] = za[0]
        za[-1] = za[1]
    return za, zb, m


def test_matches_brute_force_oracle_on_200_instances():
    rng = np.random.default_rng(2024)
    for _ in range(200):
        za, zb, m = random_instance(rng)
        plan = find_matches(make_scores(za, zb), m)
        assert np.array_equal(plan.j_sets, oracle_match(za, zb, m))


def test_zero_distance_tie_takes_lowest_index():
    za = np.array([[1.0, 1.0], [0.3, 0.7], [0.3, 0.7]])
    zb = np.array([[0.3, 0.7]])
    plan = find_matches(make_scores(za, zb), 1)
    assert plan.j_sets[0, 0] == 1
    assert plan.distances[0, 0] == 0.0


def test_m_equals_n_a_exhausts_donors():
    rng = np.random.default_rng(1)
    za = rng.normal(size=(6, 2))
    zb = rng.normal(size=(4, 2))
    plan = find_matches(make_scores(za, zb), 6)
    for row in plan.j_sets:
        assert sorted(row) == list(range(6))
    assert np.all(plan.k_counts == 4)


def test_count_conservation():
    rng = np.random.default_rng(2)
    za = rng.normal(size=(25, 2))
    zb = rng.normal(size=(40, 2))
    d_b = rng.uniform(0.5, 9.0, size=40)
    for m in (1, 3, 7):
        plan = find_matches(make_scores(za, zb), m, d_b=d_b)
        assert plan.k_counts.sum() == m * 40
        total = plan.k_weighted.sum()
        assert abs(total - m * d_b.sum()) <= 1e-9 * abs(total)


def test_unit_weights_make_counts_agree():
    rng = np.random.default_rng(3)
    za = rng.normal(size=(12, 2))
    zb = rng.normal(size=(9, 2))
    plan = find_matches(make_scores(za, zb), 2, d_b=np.ones(9))
    assert np.array_equal(plan.k_weighted, plan.k_counts.astype(float))


def test_distances_nondecreasing_within_each_set():
    rng = np.random.default_rng(4)
    za = np.round(rng.normal(size=(30, 2)), 1)
    zb = np.round(rng.normal(size=(20, 2)), 1)
    plan = find_matches(make_scores(za, zb), 5)
    assert np.all(np.diff(plan.distances, axis=1) >= 0.0)


def test_determinism():
    rng = np.random.default_rng(5)
    za = np.round(rng.normal(size=(20, 2)), 0)
    zb = np.round(rng.normal(size=(15, 2)), 0)
    scores = make_scores(za, zb)
    p1 = find_matches(scores, 3)
    p2 = find_matches(scores, 3)
    assert np.array_equal(p1.j_sets, p2.j_sets)
    assert np.array_equal(p1.distances, p2.distances)


def test_m_bounds():
    scores = make_scores(np.zeros((3, 2)), np.ones((2, 2)))
    with pytest.raises(ValueError):
        find_matches(scores, 0)
    with pytest.raises(MTooLarge):
        find_matches(scores, 4)


def test_inner_neighbors_two_units():
    scores = make_scores(np.array([[0.0, 0.0], [1.0, 1.0]]), np.zeros((1, 2)))
    inner = find_inner_neighbors(scores, 1)
    assert inner.l_sets[0, 0] == 1
    assert inner.l_sets[1, 0] == 0


def test_inner_neighbors_collinear_ordering():
    # Donors at 0, 1, 2, 3 on a line: hand-checkable neighbor order, with
    # the equidistant tie at the interior points going to the lower index.
    za = np.column_stack([np.arange(4.0), np.zeros(4)])
    inner = find_inner_neighbors(make_scores(za, np.zeros((1, 2))), 3)
    expected = np.array([[1, 2, 3], [0, 2, 3], [1, 3, 0], [2, 1, 0]])
    assert np.array_equal(inner.l_sets, expected)


def test_inner_neighbors_full_permutation():
    rng = np.random.default_rng(6)
    za = rng.normal(size=(8, 2))
    inner = find_inner_neighbors(make_scores(za, np.zeros((1, 2))), 7)
    for i in range(8):
        assert i not in inner.l_sets[i]
        assert sorted(inner.l_sets[i]) == sorted(set(range(8)) - {i})


def test_inner_neighbors_bounds():
    scores = make_scores(np.zeros((4, 2)), np.ones((1, 2)))
    with pytest.raises(ValueError):
        find_inner_neighbors(scores, 0)
    with pytest.raises(JTooLarge):
        find_inner_neighbors(scores, 4)


def test_impute_duplicate_donor():
    za = np.array([[5.0, 5.0], [0.25, -0.5]])
    zb = np.array([[0.25, -0.5]])
    plan = find_matches(make_scores(za, zb), 1)
    y_a = np.array([9.0, 3.5])
    assert impute(plan, y_a)[0] == 3.5


def test_impute_all_donors_gives_grand_mean():
    rng = np.random.default_rng(7)
    za = rng.normal(size=(5, 2))
    zb = rng.normal(size=(3, 2))
    plan = find_matches(make_scores(za, zb), 5)
    y_a = rng.normal(size=5)
    assert np.allclose(impute(plan, y_a), y_a.mean(), atol=1e-12)


def test_impute_matches_oracle_averages():
    rng = np.random.default_rng(8)
    za = rng.normal(size=(5, 2))
    zb = rng.normal(size=(3, 2))
    y_a = rng.normal(size=5)
    plan = find_matches(make_scores(za, zb), 3)
    expected = y_a[oracle_match(za, zb, 3)].mean(axis=1)
    assert np.allclose(impute(plan, y_a), expected, atol=1e-15)


def test_impute_rejects_wrong_length():
    plan = find_matches(make_scores(np.zeros((3, 2)), np.ones((2, 2))), 1)
    with pytest.raises(ValueError):
        impute(plan, np.zeros(4))
