"""N-diameter of finite point sets (max-min dispersion).

diam_N(A) is the largest v such that some N+1 points of A are pairwise at
distance >= v.  Small instances are solved exactly by pruned enumeration,
whose last two points are chosen in one array step: with a prefix fixed,
the running minimum and the prefix rows are folded into the remaining
block of the matrix, and the first maximum of its strict upper triangle
in row-major order is the pair a scalar scan with strict improvement
would keep.  Larger instances get certified lower/upper bounds (greedy
dispersion vs. an eccentricity order statistic).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import BudgetExceededError, ParameterError

DEFAULT_BUDGET = 2_000_000


@dataclass(frozen=True)
class NDiameterResult:
    n: int
    value_lower: float
    value_upper: float
    witness: tuple = field(default=())
    exact: bool = False

    @property
    def value(self) -> float:
        return self.value_lower

    def as_dict(self):
        return {"n": self.n, "value_lower": self.value_lower,
                "value_upper": self.value_upper,
                "witness": list(self.witness), "exact": self.exact}


def pairwise_matrix(points, dist) -> np.ndarray:
    """Symmetric distance matrix via pointwise metric calls."""
    m = len(points)
    D = np.zeros((m, m))
    for i in range(m):
        for j in range(i + 1, m):
            D[i, j] = D[j, i] = dist(points[i], points[j])
    return D


def diam_n_exact_from_matrix(D: np.ndarray, N: int,
                             budget: int = DEFAULT_BUDGET) -> NDiameterResult:
    m = D.shape[0]
    if N < 1:
        raise ParameterError("N must be a positive integer")
    k = N + 1
    if m < k:
        return NDiameterResult(N, 0.0, 0.0, (), True)
    if math.comb(m, k) > budget:
        raise BudgetExceededError(
            f"C({m},{k}) exceeds the enumeration budget {budget}; "
            "use diam_n_bounds instead")

    best = -1.0
    best_witness = ()
    on_or_below = np.tri(m, dtype=bool)

    # depth-first lexicographic enumeration; the strict improvement rule
    # makes the reported witness the lexicographically smallest optimum
    def extend(chosen, running_min, start):
        nonlocal best, best_witness
        if running_min <= best:
            return
        if len(chosen) == k - 2:
            # the last two points in one array step (module docstring);
            # fmin skips NaN as the scan's `d < rm` does
            r = np.full(m - start, running_min)
            for i in chosen:
                np.fmin(r, D[i, start:], out=r)
            S = np.fmin(np.fmin(D[start:, start:], r[:, None]), r)
            S[on_or_below[start:, start:]] = -np.inf
            j, l = divmod(int(np.argmax(S)), m - start)
            if S[j, l] > best:
                best = S[j, l]
                best_witness = (*chosen, start + j, start + l)
            return
        for j in range(start, m - (k - len(chosen)) + 1):
            rm = running_min
            for i in chosen:
                d = D[i, j]
                if d < rm:
                    rm = d
            if rm > best:
                chosen.append(j)
                extend(chosen, rm, j + 1)
                chosen.pop()

    extend([], math.inf, 0)
    v = float(best)
    return NDiameterResult(N, v, v, best_witness, True)


def diam_n_bounds_from_matrix(D: np.ndarray, N: int) -> NDiameterResult:
    m = D.shape[0]
    if N < 1:
        raise ParameterError("N must be a positive integer")
    k = N + 1
    if m < k:
        return NDiameterResult(N, 0.0, 0.0, (), True)
    if m == k:
        idx = tuple(range(m))
        v = float(D[np.triu_indices(m, 1)].min()) if m > 1 else 0.0
        return NDiameterResult(N, v, v, idx, True)

    lower, upper, chosen = diam_n_bounds_stacked(D[None], N)
    return NDiameterResult(N, float(lower[0]), float(upper[0]),
                           tuple(chosen[0].tolist()),
                           bool(upper[0] - lower[0] <= 1e-12))


def diam_n_bounds_stacked(D: np.ndarray, N: int):
    """The bounds of `diam_n_bounds_from_matrix` for a stack of B distance
    matrices of one size m >= N + 1, shape (B, m, m): the lower and upper
    bounds, each of shape (B,), and the sorted dispersion witnesses,
    (B, N + 1) indices of distinct points.  Each matrix gets the bits it
    gets alone.

    The greedy seed is the diametral pair, read off the row maxima that
    also give the eccentricities: the first row holding the maximum, then
    the first column of that row holding it.  In a symmetric matrix with a
    zero diagonal that is the first maximum of the strict upper triangle
    in row-major order, where the exact solver's N = 1 scan stops, so at
    N = 1 both bounds are the diameter and the witness is the exact one
    (a matrix of zeros is seeded with (0, 1))."""
    B, m, _ = D.shape
    k = N + 1
    at = np.arange(B)
    rowmax = D.max(axis=2)
    i = rowmax.argmax(axis=1)
    j = D[at, i].argmax(axis=1)
    flat = j == i  # the maximum is on the diagonal: a matrix of zeros
    i[flat], j[flat] = 0, 1
    # greedy farthest-point dispersion; a chosen point is never picked again
    chosen = [i, j]
    mind = np.minimum(D[at, i], D[at, j])
    mind[at, i] = mind[at, j] = -np.inf
    while len(chosen) < k:
        c = mind.argmax(axis=1)
        chosen.append(c)
        np.minimum(mind, D[at, c], out=mind)
        mind[at, c] = -np.inf
    chosen = np.sort(np.column_stack(chosen), axis=1)
    iu, ju = np.triu_indices(k, 1)
    lower = D[at[:, None], chosen[:, iu], chosen[:, ju]].min(axis=1)

    # any (N+1)-subset with min pairwise distance v has N+1 points whose
    # eccentricity is >= v, so the (N+1)-th largest eccentricity bounds diam_N
    ecc = np.sort(rowmax, axis=1)
    return lower, np.maximum(ecc[:, m - k], lower), chosen


def diam_n_exact(points, dist, N: int,
                 budget: int = DEFAULT_BUDGET) -> NDiameterResult:
    """Exact N-diameter by pruned enumeration (ties: lexicographically
    smallest witness).  Raises when C(|points|, N+1) exceeds the budget."""
    return diam_n_exact_from_matrix(pairwise_matrix(points, dist), N, budget)


def diam_n_bounds(points, dist, N: int) -> NDiameterResult:
    """Certified bounds: greedy dispersion lower bound, eccentricity-order
    upper bound."""
    return diam_n_bounds_from_matrix(pairwise_matrix(points, dist), N)
