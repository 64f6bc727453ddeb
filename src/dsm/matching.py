"""Nearest-neighbor matching in the normalized score space.

Every sample-B unit is matched, with replacement, to its M closest
sample-A donors under Euclidean distance on the two score columns.
Distance ties are broken by ascending donor index, which keeps results
reproducible across runs and platforms.  The same machinery finds, for
each sample-A unit, its closest J other sample-A units (used later for
residual-variance estimation).
"""

from __future__ import annotations

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


def _sq_distances(points, donors):
    # One column pair at a time: no (points, donors, 2) difference array.
    return (points[:, :1] - donors[:, 0]) ** 2 + (points[:, 1:] - donors[:, 1]) ** 2


def _nearest(d2, m):
    """Indices and squared distances of the m closest columns per row
    (m at most the column count), ordered by (distance, column index)."""
    # Partition first, then order the m candidates.  Sorting candidate
    # indices before the stable distance sort makes ties resolve to the
    # lowest index.  Rows where a non-candidate ties the cutoff value are
    # redone with a full stable sort, since the partition picks arbitrary
    # members of such a tie.
    part = np.argpartition(d2, m - 1, axis=1)[:, :m]
    cutoff = np.take_along_axis(d2, part, axis=1).max(axis=1)
    ambiguous = np.flatnonzero((d2 <= cutoff[:, None]).sum(axis=1) > m)

    cand = np.sort(part, axis=1)
    cand_d2 = np.take_along_axis(d2, cand, axis=1)
    order = np.argsort(cand_d2, axis=1, kind="stable")
    idx = np.take_along_axis(cand, order, axis=1)
    dsq = np.take_along_axis(cand_d2, order, axis=1)
    for r in ambiguous:
        full = np.argsort(d2[r], kind="stable")[:m]
        idx[r] = full
        dsq[r] = d2[r, full]
    return idx, dsq


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
    za = scores.z[scores.in_a]
    zb = scores.z[~scores.in_a]
    n_a, n_b = za.shape[0], zb.shape[0]
    if m > n_a:
        raise MTooLarge(f"m={m} exceeds the {n_a} available donors")
    # Sums of unit weights are exact, so k_weighted then equals k_counts.
    d_b = np.ones(n_b) if d_b is None else np.asarray(d_b, dtype=np.float64)
    if d_b.shape != (n_b,):
        raise ValueError("d_b must have one weight per sample-B unit")

    idx, dsq = _nearest(_sq_distances(zb, za), m)
    flat = idx.ravel()
    k_counts = np.bincount(flat, minlength=n_a)
    k_weighted = np.bincount(flat, weights=np.repeat(d_b, m), minlength=n_a)
    return MatchPlan(
        m=m,
        j_sets=idx,
        distances=np.sqrt(dsq),
        k_counts=k_counts,
        k_weighted=k_weighted,
    )


def find_inner_neighbors(scores: ScoreMatrix, j: int) -> InnerNeighbors:
    """Find each sample-A unit's j nearest other sample-A units."""
    if j < 1:
        raise ValueError("j must be at least 1")
    za = scores.z[scores.in_a]
    n_a = za.shape[0]
    if j > n_a - 1:
        raise JTooLarge(f"j={j} exceeds the {n_a - 1} other donors available")
    d2 = _sq_distances(za, za)
    np.fill_diagonal(d2, np.inf)
    idx, _ = _nearest(d2, j)
    return InnerNeighbors(j=j, l_sets=idx)


def impute(plan: MatchPlan, y_a) -> np.ndarray:
    """Imputed outcome for each sample-B unit: the mean outcome of its
    matched donors."""
    y_a = np.asarray(y_a, dtype=np.float64)
    if y_a.shape != (plan.n_a,):
        raise ValueError("y_a must have one outcome per donor")
    return y_a[plan.j_sets].mean(axis=1)
