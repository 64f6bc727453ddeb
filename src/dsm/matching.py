"""Nearest-neighbor matching in the normalized score space.

Every sample-B unit is matched, with replacement, to its M closest
sample-A donors under Euclidean distance on the two score columns, and
each sample-A unit to its J closest other sample-A units (used later for
residual-variance estimation), by an exact k-d tree search (Friedman,
Bentley & Finkel 1977).  A unit whose M-th distance ties the farthest of
its M + 1 tree candidates is settled among the donors in the tree's ball
of that radius.  Query rows are searched in blocks against one tree and
written into the preallocated results, so memory is the results plus
temporaries for one block of rows, and 1024 times the largest tie group.
Distance ties are broken by ascending donor index, which keeps results
reproducible.
"""

from __future__ import annotations

import importlib.util
import sys
from dataclasses import dataclass

import numpy as np

from .errors import JTooLarge, MTooLarge
from .scores import ScoreMatrix

__all__ = ["MatchPlan", "InnerNeighbors", "find_matches", "find_inner_neighbors", "impute"]


@dataclass(frozen=True)
class MatchPlan:
    """Matching results for one score matrix.

    j_sets[i] lists the donor indices for B-unit i, nearest first;
    distances holds the corresponding Euclidean score distances.
    k_counts[l] is the number of times donor l was used; k_weighted[l]
    accumulates the design weights of the B-units donor l serves (equal
    to k_counts under unit weights).
    """

    m: int
    j_sets: np.ndarray
    distances: np.ndarray
    k_counts: np.ndarray
    k_weighted: np.ndarray

    @property
    def n_a(self) -> int:
        return self.k_counts.shape[0]

    @property
    def n_b(self) -> int:
        return self.j_sets.shape[0]


@dataclass(frozen=True)
class InnerNeighbors:
    """For each sample-A unit, the indices of its J nearest other
    sample-A units in score space (self excluded), nearest first."""

    j: int
    l_sets: np.ndarray


# Tied rows per ball query: memory is this many times the largest tie group.
_BALL_BATCH = 1024
# Query rows per search block: the search's temporaries scale with this, not n.
_BLOCK = 16384


def _sq_distances(points, donors):
    # One column pair at a time; donors is (n_donors, 2) or (n_points, k, 2).
    return (points[:, :1] - donors[..., 0]) ** 2 + (points[:, 1:] - donors[..., 1]) ** 2


def _kdtree():
    """scipy's cKDTree class, its extension module loaded alone on first use."""
    # `import scipy.spatial` would also load qhull, scipy.linalg and the
    # rotations (about 10 MB of RSS), none of which matching uses.  The
    # module goes into sys.modules under its own name, so a later
    # `import scipy.spatial` reuses it and scipy.spatial.cKDTree is this class.
    # That import does not set the package's `_ckdtree` attribute, so the
    # expression `scipy.spatial._ckdtree` then raises AttributeError, while
    # `import scipy.spatial._ckdtree as m` still works.
    name = "scipy.spatial._ckdtree"
    if name not in sys.modules:
        import importlib.machinery

        import scipy

        spec = importlib.machinery.PathFinder.find_spec(name, [f"{scipy.__path__[0]}/spatial"])
        module = importlib.util.module_from_spec(spec)
        sys.modules[name] = module
        spec.loader.exec_module(module)
    return sys.modules[name].cKDTree


def _nearest(points, donors, m):
    """Yield (rows, indices, squared distances) of each block of points'
    m nearest donors, ordered by (distance, donor index), rows being the
    block's slice of points.  Each row's result depends on that row alone,
    so the blocking is invisible."""
    tree = _kdtree()(donors)
    k = min(m + 1, len(donors))
    for lo in range(0, len(points), _BLOCK):
        block = points[lo : lo + _BLOCK]
        cand = tree.query(block, k=k)[1].reshape(-1, k)
        cand_d2 = _sq_distances(block, donors[cand])
        # Ordered by recomputed d2, then index, whatever the tree's arithmetic.
        order = np.lexsort((cand, cand_d2))[:, :m]
        idx = np.take_along_axis(cand, order, axis=1)
        dsq = np.take_along_axis(cand_d2, order, axis=1)
        # A donor left out is no nearer than the farthest candidate, up to the
        # tree's rounding; a row whose m-th distance reaches that is settled
        # from the ball of radius sqrt(m-th d2), widened past the tree's
        # rounding so it holds every donor at or under that d2.
        last = cand_d2.max(axis=1) * (1 - 1e-12) if k < len(donors) else np.inf
        tied = np.flatnonzero(dsq[:, -1] >= last)
        for t in range(0, len(tied), _BALL_BATCH):
            rows = tied[t : t + _BALL_BATCH]
            radii = np.sqrt(dsq[rows, -1]) * (1 + 1e-9)
            balls = tree.query_ball_point(block[rows], radii, return_sorted=False)
            for r, ball in zip(rows, balls):
                ball = np.array(ball)
                d2 = _sq_distances(block[r : r + 1], donors[ball])[0]
                order = np.lexsort((ball, d2))[:m]
                idx[r] = ball[order]
                dsq[r] = d2[order]
        yield slice(lo, lo + len(block)), idx, dsq


def find_matches(scores: ScoreMatrix, m: int, d_b=None) -> MatchPlan:
    """Match every sample-B unit to its m nearest sample-A donors.

    Parameters
    ----------
    scores : ScoreMatrix
        Pooled normalized scores.
    m : int
        Matches per B-unit; must not exceed the number of donors.
    d_b : array_like, optional
        Design weights of the B-units in score-matrix order.  When given,
        k_weighted routes each B-unit's weight to its donors; when
        omitted, unit weights are assumed.

    Returns
    -------
    MatchPlan
        Conserves sum(k_counts) == m * n_b and
        sum(k_weighted) == m * sum(d_b).
    """
    if m < 1:
        raise ValueError("m must be at least 1")
    za, zb = scores.z[: scores.n_a], scores.z[scores.n_a :]
    n_a, n_b = za.shape[0], zb.shape[0]
    if m > n_a:
        raise MTooLarge(f"m={m} exceeds the {n_a} available donors")
    # Sums of unit weights are exact, so k_weighted then equals k_counts.
    d_b = np.ones(n_b) if d_b is None else np.asarray(d_b, dtype=np.float64)
    if d_b.shape != (n_b,):
        raise ValueError("d_b must have one weight per sample-B unit")

    j_sets, distances = np.empty((n_b, m), dtype=np.intp), np.empty((n_b, m))
    for rows, idx, dsq in _nearest(zb, za, m):
        j_sets[rows] = idx
        np.sqrt(dsq, out=distances[rows])
    flat = j_sets.ravel()
    k_counts = np.bincount(flat, minlength=n_a)
    # One n_b*m weight array: summing block by block would reorder k_weighted's additions.
    k_weighted = np.bincount(flat, weights=np.repeat(d_b, m), minlength=n_a)
    return MatchPlan(
        m=m,
        j_sets=j_sets,
        distances=distances,
        k_counts=k_counts,
        k_weighted=k_weighted,
    )


def find_inner_neighbors(scores: ScoreMatrix, j: int) -> InnerNeighbors:
    """Find each sample-A unit's j nearest other sample-A units."""
    if j < 1:
        raise ValueError("j must be at least 1")
    n_a = scores.n_a
    za = scores.z[:n_a]
    if j > n_a - 1:
        raise JTooLarge(f"j={j} exceeds the {n_a - 1} other donors available")
    # The j + 1 nearest by (distance, index) hold the j nearest others: drop
    # self by index (a duplicate row ties it at zero), else the last one.
    l_sets = np.empty((n_a, j), dtype=np.intp)
    for rows, idx, _ in _nearest(za, za, j + 1):
        keep = idx != np.arange(rows.start, rows.stop)[:, None]
        keep[keep.all(axis=1), -1] = False
        l_sets[rows] = idx[keep].reshape(-1, j)
    return InnerNeighbors(j=j, l_sets=l_sets)


def impute(plan: MatchPlan, y_a) -> np.ndarray:
    """Imputed outcome for each sample-B unit: the mean outcome of its
    matched donors."""
    y_a = np.asarray(y_a, dtype=np.float64)
    if y_a.shape != (plan.n_a,):
        raise ValueError("y_a must have one outcome per donor")
    return y_a[plan.j_sets].mean(axis=1)
