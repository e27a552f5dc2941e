"""The value space of unordered Q-tuples in R^m and its matching metric.

A QPoint is a multiset of Q points in R^m; every operation here is invariant
under permutation of the stored entries. The metric is the square-root of the
optimal assignment cost between the two tuples. Matchings are certified
optimal (exhaustive search up to Q = 6, assignment solver beyond) and ties
are broken toward the lexicographically smallest permutation so that
downstream sheet tracking is deterministic.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

EXHAUSTIVE_Q_MAX = 6
EQUALITY_TOL = 1e-12
_TIE_REL = 1e-12

_PERM_CACHE: dict = {}


class DimensionMismatchError(ValueError):
    """Two Q-points that do not share multiplicity and target dimension."""


@dataclass(frozen=True, eq=False)
class QPoint:
    """Unordered Q-tuple of points in R^m, stored as a read-only (q, m) array."""

    points: np.ndarray

    def __post_init__(self):
        pts = np.array(self.points, dtype=float, copy=True)
        if pts.ndim == 1:
            pts = pts[:, None]
        if pts.ndim != 2 or pts.size == 0:
            raise ValueError("QPoint requires a nonempty (q, m) array of entries")
        if not np.all(np.isfinite(pts)):
            raise ValueError("QPoint entries must be finite")
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)

    @property
    def q(self) -> int:
        return int(self.points.shape[0])

    @property
    def m(self) -> int:
        return int(self.points.shape[1])

    def permuted(self, perm) -> "QPoint":
        return QPoint(self.points[list(perm)])

    def __repr__(self):
        rows = ", ".join("(" + ", ".join(repr(float(v)) for v in row) + ")" for row in self.points)
        return "QPoint[%s]" % rows


@dataclass(frozen=True)
class MatchingPlan:
    """An optimal pairing p_i <-> q_{perm[i]} with its certified squared cost."""

    permutation: tuple
    cost: float


@dataclass(frozen=True)
class SepDiam:
    sep: float
    diam: float


def _check_compatible(p: QPoint, q: QPoint) -> None:
    if p.q != q.q or p.m != q.m:
        raise DimensionMismatchError(
            "incompatible Q-points: (q=%d, m=%d) vs (q=%d, m=%d)" % (p.q, p.m, q.q, q.m)
        )


def _permutations_array(q: int) -> np.ndarray:
    """All permutations of range(q) in lexicographic order, as an array."""
    if q not in _PERM_CACHE:
        _PERM_CACHE[q] = np.array(list(itertools.permutations(range(q))), dtype=np.intp)
    return _PERM_CACHE[q]


def _cost_matrix(p: QPoint, q: QPoint) -> np.ndarray:
    diff = p.points[:, None, :] - q.points[None, :, :]
    return np.einsum("ijk,ijk->ij", diff, diff)


def linear_sum_assignment(cost: np.ndarray):
    """scipy.optimize.linear_sum_assignment, imported on first use.

    Only matchings of more than EXHAUSTIVE_Q_MAX sheets need the solver, so
    every smaller run starts without loading SciPy.
    """
    from scipy.optimize import linear_sum_assignment as solve

    return solve(cost)


def _lex_min_assignment(cost: np.ndarray, best_cost: float, tol: float) -> tuple:
    """Lexicographically smallest permutation among minimum-cost assignments.

    Greedy column choice per row, accepting a column when an optimal
    completion of the remaining rows keeps the total within tol of the
    certified optimum.
    """
    q = cost.shape[0]
    remaining = list(range(q))
    perm = []
    fixed = 0.0
    for i in range(q):
        chosen = None
        for j in remaining:
            rest_cols = [c for c in remaining if c != j]
            if rest_cols:
                sub = cost[np.ix_(range(i + 1, q), rest_cols)]
                rows, cols = linear_sum_assignment(sub)
                completion = float(sub[rows, cols].sum())
            else:
                completion = 0.0
            if fixed + cost[i, j] + completion <= best_cost + tol:
                chosen = j
                break
        if chosen is None:
            chosen = remaining[0]
        perm.append(chosen)
        fixed += cost[i, chosen]
        remaining.remove(chosen)
    return tuple(perm)


def optimal_matching(p: QPoint, q: QPoint) -> MatchingPlan:
    """Minimum squared-cost pairing of the two tuples.

    Exhaustive search (lexicographic tie-break for free) for Q <= 6;
    assignment solver plus an explicit lexicographic refinement beyond.
    """
    _check_compatible(p, q)
    cost = _cost_matrix(p, q)
    n = p.q
    if n <= EXHAUSTIVE_Q_MAX:
        perm = tuple(int(v) for v in batch_match_permutations(cost[None])[0])
    else:
        rows, cols = linear_sum_assignment(cost)
        best_cost = float(cost[rows, cols].sum())
        tol = _TIE_REL * (1.0 + abs(best_cost))
        perm = _lex_min_assignment(cost, best_cost, tol)
    return MatchingPlan(perm, float(cost[np.arange(n), list(perm)].sum()))


def metric_g(p: QPoint, q: QPoint) -> float:
    """Matching distance: min over permutations of sqrt(sum |p_i - q_sigma(i)|^2)."""
    return math.sqrt(max(optimal_matching(p, q).cost, 0.0))


def batch_match_permutations(costs: np.ndarray) -> np.ndarray:
    """Optimal permutations for a stack of small cost matrices.

    costs has shape (N, q, q) with q <= EXHAUSTIVE_Q_MAX; returns (N, q)
    integer permutations, lexicographically smallest among cost ties.
    Used by sheet-continuation loops that match many consecutive samples.
    """
    nmat, q, q2 = costs.shape
    if q != q2:
        raise ValueError("cost matrices must be square")
    if q > EXHAUSTIVE_Q_MAX:
        raise ValueError("batch matching is exhaustive-only (q <= %d)" % EXHAUSTIVE_Q_MAX)
    perms = _permutations_array(q)
    totals = costs[:, np.arange(q)[None, :], perms].sum(axis=2)
    idx = np.argmin(totals, axis=1)
    return perms[idx]


def mean(p: QPoint) -> np.ndarray:
    """Average of the Q entries, a single point of R^m."""
    return p.points.mean(axis=0)


def subtract_mean(p: QPoint) -> QPoint:
    return QPoint(p.points - mean(p)[None, :])


def separation_and_diameter(p: QPoint) -> SepDiam:
    """diam = max pairwise distance; sep = min distance among distinct entries.

    sep is +inf when all entries coincide, so diam == 0 iff the tuple is a
    single point with multiplicity Q.
    """
    diff = p.points[:, None, :] - p.points[None, :, :]
    dist = np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))
    iu = np.triu_indices(p.q, k=1)
    pair = dist[iu]
    if pair.size == 0:
        return SepDiam(sep=math.inf, diam=0.0)
    diam = float(pair.max())
    positive = pair[pair > 0.0]
    sep = float(positive.min()) if positive.size else math.inf
    return SepDiam(sep=sep, diam=diam)


def multiset_equal(p: QPoint, q: QPoint, tol: float | None = None) -> bool:
    """Equality as multisets, at a tolerance scaled by the tuple diameter.

    Computed points coming out of quadrature carry roundoff, so exact-zero
    distance is the wrong test; the default tolerance is
    EQUALITY_TOL * (1 + max diameter).
    """
    _check_compatible(p, q)
    if tol is None:
        diam = max(separation_and_diameter(p).diam, separation_and_diameter(q).diam)
        tol = EQUALITY_TOL * (1.0 + diam)
    return metric_g(p, q) < tol
