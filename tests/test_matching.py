"""Matching machinery against an exhaustive brute-force oracle, plus the
count-conservation and tie-breaking contracts."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dsm.matching as matching
from dsm import (
    JTooLarge,
    MTooLarge,
    ScoreMatrix,
    find_inner_neighbors,
    find_matches,
    impute,
)
from support import oracle_match, run_python


def make_scores(za, zb):
    return ScoreMatrix(z=np.vstack([za, zb]), n_a=len(za))


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


def test_weighted_counts_route_each_weight_to_its_own_donors():
    # Oracle: k_weighted[j] is the sum of d_i over the B units i that took
    # donor j.  Weights routed to other units' donors keep the total.
    rng = np.random.default_rng(4)
    za = rng.normal(size=(15, 2))
    zb = rng.normal(size=(11, 2))
    d_b = rng.uniform(0.5, 9.0, size=11)
    for m in (1, 3):
        plan = find_matches(make_scores(za, zb), m, d_b=d_b)
        expected = np.zeros(15)
        for i, donors in enumerate(plan.j_sets):
            for j in donors:
                expected[j] += d_b[i]
        assert np.allclose(plan.k_weighted, expected, rtol=1e-12, atol=0.0)


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


# -- the k-d tree search: candidates, recomputed distances, redone rows --

def _spy_redos(monkeypatch):
    """Record (row count, k) of every redo of tied rows, leaving results
    unchanged.  A tree's first candidate step is its search's one block
    (these tests stay under one block); every later step is a redo."""
    calls, trees = [], []
    real = matching._ordered

    def spy(tree, donors, points, k, m):
        if any(t is tree for t in trees):
            calls.append((len(points), k))
        else:
            trees.append(tree)
        return real(tree, donors, points, k, m)

    monkeypatch.setattr(matching, "_ordered", spy)
    return calls


def _redos_stay_small(calls, n_donors):
    return all(rows <= matching._BALL_BATCH and k < n_donors for rows, k in calls)


def test_more_exact_ties_than_candidates_match_oracle(monkeypatch):
    # 12 copies of one donor outnumber the m + 1 (and j + 2) candidates the
    # tree returns, so the cutoff tie reaches past them; self is one of
    # the copies for each copied A-unit.
    rng = np.random.default_rng(12)
    za = rng.normal(size=(40, 2))
    copies = rng.choice(40, size=12, replace=False)
    za[copies] = za[copies[0]]
    zb = np.vstack([za[copies[0]], rng.normal(size=(8, 2))])
    scores = make_scores(za, zb)
    redone = _spy_redos(monkeypatch)
    assert np.array_equal(find_matches(scores, 3).j_sets, oracle_match(za, zb, 3))
    assert np.array_equal(find_inner_neighbors(scores, 2).l_sets, oracle_inner(za, 2))
    assert sum(rows for rows, _ in redone) >= 1 + 12 and _redos_stay_small(redone, len(za))


def _near_tie_donors():
    """Donors around the origin: one at squared distance 1, four at exactly
    25, one 1 ulp above 25 and, at the highest index, one 1 ulp below 25."""
    three, four = 3.0 - 4 * np.spacing(3.0), 4.0 + np.spacing(4.0)
    za = np.array([
        [1.0, 0.0],
        [3.0, 4.0], [4.0, 3.0], [-3.0, 4.0], [0.0, 5.0],
        [three, four + np.spacing(4.0)],
        [three, four],
        [10.0, 10.0], [-10.0, 10.0],
    ])
    d2 = (za**2).sum(axis=1)
    assert d2[5] == 25.0 + np.spacing(25.0) and d2[6] == 25.0 - np.spacing(25.0)
    return za


class _TreeRoundingTheOtherWay:
    """Stands in for cKDTree: returns the m + 1 = 3 candidates a tree
    whose own rounding put donor 6 behind donors 1-5, and donor 5 ahead of
    donors 2-4, would return; for a redo, the k nearest, farthest first;
    and the count of donors inside each queried radius."""

    def __init__(self, data):
        self.data = data

    def _d2(self, x):
        return ((self.data[None, :, :] - x[:, None, :]) ** 2).sum(axis=2)

    def query(self, x, k):
        if k == 3:
            return None, np.array([[0, 1, 5]])
        return None, np.argsort(self._d2(x), axis=1, kind="stable")[:, k - 1 :: -1]

    def query_ball_point(self, x, r, return_length):
        assert return_length
        return (self._d2(x) <= (r * r)[:, None]).sum(axis=1)


def test_one_ulp_near_tie_at_the_mth_candidate_is_redone(monkeypatch):
    # The 2nd-nearest donor is 6, 1 ulp nearer than donors 1-4.  A tree
    # that ranks it after them leaves it out, and the farthest candidate
    # (donor 5) is only 1 ulp beyond the 2nd; the relative margin on the
    # redo test still sends the row to the ball.
    za, zb = _near_tie_donors(), np.zeros((1, 2))
    scores = make_scores(za, zb)
    expected = oracle_match(za, zb, 2)
    assert expected.tolist() == [[0, 6]]
    assert np.array_equal(find_matches(scores, 2).j_sets, expected)
    monkeypatch.setattr(matching, "_kdtree", lambda: _TreeRoundingTheOtherWay)
    redone = _spy_redos(monkeypatch)
    assert np.array_equal(find_matches(scores, 2).j_sets, expected)
    # One row, redone over the 7 donors within 5 of it: 0-6, not 7 or 8.
    assert redone == [(1, 7)] and _redos_stay_small(redone, len(za))


def test_candidate_subset_search_agrees_with_oracle_on_continuous_scores():
    rng = np.random.default_rng(2026)
    za = rng.normal(size=(2000, 2))
    zb = rng.normal(size=(4000, 2))
    scores = make_scores(za, zb)
    full_match = oracle_match(za, zb, 10)
    full_inner = oracle_inner(za, 20)
    for m in (1, 3, 10):
        plan = find_matches(scores, m)
        assert np.array_equal(plan.j_sets, full_match[:, :m])
        exact = np.sqrt(((za[plan.j_sets] - zb[:, None, :]) ** 2).sum(axis=2))
        assert np.array_equal(plan.distances, exact)
        inner = find_inner_neighbors(scores, 2 * m)
        assert np.array_equal(inner.l_sets, full_inner[:, : 2 * m])


def lattice_scores(n_a, n_b, seed):
    """Score rows of 4 covariates with 3 levels each: 81 distinct rows, so
    nearly every row ties its m-th neighbour with its (m + 1)-th."""
    rng = np.random.default_rng(seed)
    w = rng.normal(size=(4, 2))
    return rng.integers(0, 3, (n_a, 4)) @ w, rng.integers(0, 3, (n_b, 4)) @ w


def test_lattice_ties_are_settled_without_a_row_over_every_donor(monkeypatch):
    za, zb = lattice_scores(2000, 4000, 11)
    scores = make_scores(za, zb)
    redone = _spy_redos(monkeypatch)
    assert np.array_equal(find_matches(scores, 3).j_sets, oracle_match(za, zb, 3))
    assert np.array_equal(find_inner_neighbors(scores, 6).l_sets, oracle_inner(za, 6))
    assert sum(rows for rows, _ in redone) > 4000 and _redos_stay_small(redone, len(za))


def test_zero_radius_balls_match_oracle(monkeypatch):
    # 9 copies of donor 0 outnumber the m + 1 and j + 2 candidates, so a B
    # row on it, and each copy's own inner search, ties at d2 = 0.
    rng = np.random.default_rng(13)
    za = rng.normal(size=(60, 2))
    za[rng.choice(np.arange(1, 60), size=8, replace=False)] = za[0]
    zb = np.vstack([rng.normal(size=(10, 2)), za[:1], za[:1]])
    scores = make_scores(za, zb)
    redone = _spy_redos(monkeypatch)
    for m in (1, 3, 5):
        assert np.array_equal(find_matches(scores, m).j_sets, oracle_match(za, zb, m))
    for j in (1, 3, 5):
        assert np.array_equal(find_inner_neighbors(scores, j).l_sets, oracle_inner(za, j))
    assert 9 in [k for _, k in redone] and _redos_stay_small(redone, len(za))


def test_light_ties_are_not_redone_with_a_heavy_groups_k(monkeypatch):
    # Donors 0-299 are one point and 300-499 are 100 pairs; the rest are
    # distinct.  The first 5 B rows sit on the heavy point, the next 100 on
    # a pair each: at m = 1 each ties at d2 = 0, its ball holding 300 or 2.
    monkeypatch.setattr(matching, "_BALL_BATCH", 64)
    rng = np.random.default_rng(20)
    za = rng.normal(size=(1000, 2))
    za[:300] = za[0]
    za[300:500:2] = za[301:500:2]
    zb = np.vstack([za[:5], za[300:500:2]])
    scores = make_scores(za, zb)
    redone = _spy_redos(monkeypatch)
    assert np.array_equal(find_matches(scores, 1).j_sets, oracle_match(za, zb, 1))
    # By count: one batch of 64 light rows, then the other 36 with the heavy 5.
    assert redone == [(64, 2), (41, 300)]
    assert np.array_equal(find_inner_neighbors(scores, 1).l_sets, oracle_inner(za, 1))


def test_lattice_ball_memory_is_bounded_by_the_batch():
    # A redo holds a few values per tied row and candidate: 1024 tied rows
    # at a time peak near 3.5 MiB here, every tied row at once near 22 MiB.
    za, zb = lattice_scores(4000, 8000, 7)
    scores = make_scores(za, zb)
    find_matches(make_scores(za[:4], zb[:2]), 1)  # the k-d tree extension loads untraced
    tracemalloc.start()
    try:
        find_matches(scores, 3)
        find_inner_neighbors(scores, 6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 10 * 2**20, peak


def _block_edge_instance():
    """Lattice scores (ties at every cutoff) with duplicate rows across the
    block edges at 7 and 14: A rows 6 and 7, B rows 6 and 7, and B rows 13
    and 14 each sit at zero distance from each other and from a donor."""
    za, zb = lattice_scores(60, 100, 17)
    za[7] = za[6]
    za[13:15] = za[0]
    zb[6:8] = za[6]
    zb[13:15] = za[0]
    return za, zb


@pytest.mark.parametrize("block", [1, 7, matching._BLOCK])
def test_searches_in_blocks_equal_one_block_and_the_oracle(monkeypatch, block):
    za, zb = _block_edge_instance()
    d_b = np.random.default_rng(18).uniform(1.0, 5.0, len(zb))
    scores = make_scores(za, zb)

    def search():
        plans = [find_matches(scores, m, d_b=d_b) for m in (1, 3, 5)]
        return plans, [find_inner_neighbors(scores, j).l_sets for j in (1, 6)]

    monkeypatch.setattr(matching, "_BLOCK", len(za) + len(zb))
    one_plans, one_inner = search()
    monkeypatch.setattr(matching, "_BLOCK", block)
    plans, inner = search()
    for m, plan, one in zip((1, 3, 5), plans, one_plans):
        assert np.array_equal(plan.j_sets, oracle_match(za, zb, m))
        for field in ("j_sets", "distances", "k_counts", "k_weighted"):
            got, want = getattr(plan, field), getattr(one, field)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), (m, field)
    for j, l_sets, one in zip((1, 6), inner, one_inner):
        assert np.array_equal(l_sets, oracle_inner(za, j))
        assert l_sets.dtype == one.dtype and l_sets.tobytes() == one.tobytes()


def _traced_peak(fn):
    tracemalloc.start()
    try:
        return fn(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_search_memory_is_the_outputs_plus_one_block(monkeypatch):
    # 80 blocks of B rows and 40 of A rows: past the outputs, the weight
    # copies find_matches makes (under half the outputs) and the tree's
    # copy of the donors, the traced peak is at most 16 values per block
    # row and candidate.  One block of every row peaks above twice this bound.
    monkeypatch.setattr(matching, "_BLOCK", 512)
    rng = np.random.default_rng(19)
    za, zb = rng.normal(size=(20_000, 2)), rng.normal(size=(40_000, 2))
    scores = make_scores(za, zb)
    find_matches(make_scores(za[:4], zb[:2]), 1)  # the k-d tree extension loads untraced
    tree = 1.5 * za.nbytes
    m, j = 3, 6
    plan, peak = _traced_peak(lambda: find_matches(scores, m))
    out = sum(getattr(plan, f).nbytes for f in ("j_sets", "distances", "k_counts", "k_weighted"))
    assert peak <= 1.5 * out + tree + 16 * 512 * (m + 1) * 8, (peak, out)
    inner, peak = _traced_peak(lambda: find_inner_neighbors(scores, j))
    assert peak <= inner.l_sets.nbytes + tree + 16 * 512 * (j + 2) * 8, (peak, inner.l_sets.nbytes)


_SCIPY_LOADED = "sorted(m for m in ('scipy.special', 'scipy.spatial') if m in sys.modules)"


def test_importing_the_cli_leaves_scipy_spatial_unloaded():
    # scipy.special is about half of the start-up cost, and the k-d tree
    # extension pulls in scipy.sparse; they load on the first fit or
    # search, so start-up does not pay for them.
    for module in ("dsm", "dsm.cli"):
        proc = run_python(["-c", f"import sys, {module}; print({_SCIPY_LOADED})"])
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "[]\n", f"import {module} loaded {proc.stdout.strip()}"


_POOLS_LOADED = (
    "sorted(m for m in sys.modules if m.split('.')[0] in ('multiprocessing', 'concurrent'))"
)


def test_importing_the_cli_leaves_the_pools_unloaded():
    # multiprocessing and concurrent.futures (with logging, socket,
    # subprocess and more) load where a process or thread pool starts.
    for module in ("dsm", "dsm.cli"):
        proc = run_python(["-c", f"import sys, {module}; print({_POOLS_LOADED})"])
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "[]\n", f"import {module} loaded {proc.stdout.strip()}"


def _write_samples(tmp_path):
    rng = np.random.default_rng(3)
    pa, pb = tmp_path / "a.csv", tmp_path / "b.csv"
    x = rng.uniform(0, 2, (60, 2))
    pa.write_text("x1,x2,y\n" + "".join(f"{u},{v},{u + v}\n" for u, v in x[:20]))
    pb.write_text("x1,x2,d\n" + "".join(f"{u},{v},3.0\n" for u, v in x[20:]))
    return pa, pb


@pytest.mark.parametrize("threads, pooled", [("1", False), ("2", True)])
def test_one_thread_estimate_starts_no_thread_pool(tmp_path, monkeypatch, threads, pooled):
    # scipy.special loads concurrent.futures itself (through numpy.testing),
    # so the probe is the module that holds ThreadPoolExecutor.
    pa, pb = _write_samples(tmp_path)
    argv = ["estimate", "--sample-a", str(pa), "--sample-b", str(pb), "--covariates", "x1,x2",
            "--bootstrap", "50", "--out", str(tmp_path / "o.csv")]
    code = ("import sys; from dsm.cli import main; "
            "print(main(sys.argv[1:]), 'concurrent.futures.thread' in sys.modules)")
    monkeypatch.setenv("DSM_THREADS", threads)
    proc = run_python(["-c", code, *argv])
    assert proc.stdout == f"0 {pooled}\n", proc.stderr


@pytest.mark.parametrize("command", ["estimate", "impute", "simulate"])
def test_commands_load_the_tree_extension_not_scipy_spatial(tmp_path, monkeypatch, command):
    # Matching needs only cKDTree's extension module; the scipy.spatial
    # package would also load qhull, scipy.linalg and the rotations.
    pa, pb = _write_samples(tmp_path)
    out = ["--out", str(tmp_path / "o.csv")]
    argv = {
        "estimate": ["estimate", "--sample-a", str(pa), "--sample-b", str(pb),
                     "--covariates", "x1,x2", "--bootstrap", "50"],
        "impute": ["impute", "--sample-a", str(pa), "--sample-b", str(pb), "--covariates", "x1,x2"],
        "simulate": ["simulate", "--table", "2", "--reps", "2"],
    }[command] + out
    probe = ("sorted(m for m in ('scipy.spatial', 'scipy.linalg', 'scipy.spatial._ckdtree')"
             " if m in sys.modules)")
    code = f"import sys; from dsm.cli import main; print(main(sys.argv[1:]), {probe})"
    monkeypatch.setenv("DSM_THREADS", "1")
    proc = run_python(["-c", code, *argv])
    assert proc.stdout == "0 ['scipy.spatial._ckdtree']\n", proc.stderr


@pytest.mark.parametrize("spatial_first", [True, False])
def test_the_tree_class_is_scipy_spatial_ckdtree(spatial_first):
    # Whether scipy.spatial loads before the first search or after it, one
    # extension module serves both, so dsm searches with scipy's own class.
    search = ("from dsm import ScoreMatrix, find_matches, matching; "
              "find_matches(ScoreMatrix(z=np.arange(8.0).reshape(4, 2), n_a=2), 1); "
              "tree = matching._kdtree()")
    steps = ["import scipy.spatial", search] if spatial_first else [search, "import scipy.spatial"]
    code = "; ".join(["import numpy as np", *steps, "print(tree is scipy.spatial.cKDTree)"])
    proc = run_python(["-c", code])
    assert proc.stdout == "True\n", proc.stderr


def test_input_error_exits_before_scipy_loads(tmp_path):
    # A CSV that lacks a covariate fails on load, without waiting on scipy.
    pa, pb = tmp_path / "a.csv", tmp_path / "b.csv"
    pa.write_text("x1,y\n0.5,1.0\n1.5,2.0\n")
    pb.write_text("x1,d\n0.5,3.0\n1.5,3.0\n")
    argv = ["estimate", "--sample-a", str(pa), "--sample-b", str(pb),
            "--covariates", "x1,x9", "--out", str(tmp_path / "o.csv")]
    code = f"import sys; from dsm.cli import main; print(main(sys.argv[1:]), {_SCIPY_LOADED})"
    proc = run_python(["-c", code, *argv])
    assert proc.stdout == "2 []\n", proc.stderr
    assert "x9" in proc.stderr
