"""R_delta sets and N-equicontinuity probes.

R_delta(x) collects the points whose orbit comes delta-close to x's orbit at
some single time.  N-equicontinuity asks for a delta keeping the N-diameter
of every f^n(R_delta(x)) under epsilon; since f^n(R_delta(x)) =
R_delta(f^n(x)) exactly, the probe sweeps base points at n = 0 and guards
the identity itself with randomized spot checks instead of re-sweeping n.

Pass/fail is certified through the N-diameter bounds: a delta level passes
only when every sampled base has a certified diameter upper bound below
epsilon, and a failure witness is only certified when a concrete N+1 subset
is pairwise separated by at least epsilon.  Levels where neither bound
resolves count as not passed, without a certified witness.  When no delta
passes, the witness is the system's own (the skew torus's shear) or else a
certified failing subset.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ParameterError, check_positive
from .kernels import _row_blocks, below_for, comoving
from .ndiameter import diam_n_bounds_stacked, diam_n_exact_from_matrix
from .points import PointCloud

DEFAULT_DELTA_GRID = (0.2, 0.1, 0.05, 0.02, 0.01)
DEFAULT_H = 200
TIE_TOL = 1e-12
EXACT_BUDGET = 20000  # most (N+1)-subsets of a return set for exact diam_N
LEVEL_BLOCK = 2 ** 16  # most elements of one gathered block of return-set
                       # distance matrices


@dataclass
class RSetEstimate:
    base: int
    delta: float
    horizon: int
    members: tuple

    def as_dict(self):
        return {"base": self.base, "delta": self.delta,
                "horizon": self.horizon, "members": list(self.members)}


def r_set(sys, x, delta: float, cloud: PointCloud,
          H: int = DEFAULT_H) -> RSetEstimate:
    """Cloud points whose orbit dips delta-close to x's within |n| <= H."""
    check_positive("delta", delta)
    b = cloud.index_of(x)
    found = comoving(sys, [cloud[b]], cloud.points, [H],
                     below=below_for(delta))
    return RSetEstimate(base=b, delta=delta, horizon=H,
                        members=tuple(found.j[found.values[H] < delta]
                                      .tolist()))


def r_set_equivariance_check(sys, x, delta: float, cloud: PointCloud,
                             H: int = DEFAULT_H, n: int = 0) -> bool:
    """Check f^n(R_delta(x)) = R_delta(f^n(x)) as index sets.

    With H' = H - |n|, the left side scans the window of radius H'
    centred at time n around (x, cloud) and the right side the window of
    radius H' centred at time 0 around (f^n(x), f^n(cloud)), both read off
    ``comoving_extremes``, the full list of the system's hook
    ``comoving_pairs``; f^n moves the states in one jump,
    ``arr_iterate``.  Both windows cover the same absolute times, so the
    identity is exact and the check compares the hook's centring with the
    composed map; values within TIE_TOL of delta are excluded from the
    comparison (floating boundary ties are not resolvable).
    """
    if abs(n) > H // 2:
        raise ParameterError("|n| must be at most H/2")
    cloud.index_of(x)
    return _equivariance_check(sys, sys.arr_state([x]),
                               sys.arr_state(list(cloud.points)), delta, H, n)


def _equivariance_check(sys, sx, sc, delta, H, n):
    """`r_set_equivariance_check` on the states of x and of the cloud."""
    H2 = H - abs(n)
    da = sys.comoving_extremes(sx, sc, {H2}, False, n)[H2][0]
    db = sys.comoving_extremes(sys.arr_iterate(sx, n), sys.arr_iterate(sc, n),
                               {H2}, False, 0)[H2][0]
    keep = (np.abs(da - delta) > TIE_TOL) & (np.abs(db - delta) > TIE_TOL)
    return bool(np.array_equal((da < delta)[keep], (db < delta)[keep]))


# ---------------------------------------------------------------------------
# the probe
# ---------------------------------------------------------------------------

@dataclass
class EquicontinuityWitness:
    base: object
    n: int
    points: tuple
    min_pairwise: float
    certified: bool
    M: Optional[int] = None
    pair_separation: Optional[float] = None

    def as_dict(self):
        d = {"base": repr(self.base), "n": self.n,
             "points": [repr(p) for p in self.points],
             "min_pairwise": self.min_pairwise, "certified": self.certified}
        if self.M is not None:
            d["M"] = self.M
            d["pair_separation"] = self.pair_separation
        return d


@dataclass
class EquicontinuityVerdict:
    N: int
    epsilon: float
    delta_grid: tuple
    passed: bool
    witness: Optional[EquicontinuityWitness]
    horizon: int
    per_delta: list
    spot_checks: list

    def as_dict(self):
        return {"N": self.N, "epsilon": self.epsilon,
                "delta_grid": list(self.delta_grid), "passed": self.passed,
                "horizon": self.horizon,
                "witness": self.witness.as_dict() if self.witness else None,
                "per_delta": self.per_delta,
                "spot_checks": self.spot_checks}


def skew_witness(N: int, delta: float, M: Optional[int] = None):
    """Smallest n >= 1 whose shear moves some first-coordinate offset
    delta/M into the separated band: n*delta/M mod 1 in [1/4, 3/4].

    Returns (M, n), the smallest n and then the smallest M, as scanning
    n = 1, 2, ... over every offset would find them.  With M fixed, only
    that offset counts.  Each offset's first n is found in closed form
    (`_first_in_band`), so delta near 0 or 1 costs no more than any
    other.
    """
    if not 0 < delta < 1 or N < 1:
        raise ParameterError("need 0 < delta < 1 and N >= 1")
    if M is not None and not 1 <= M <= N:
        raise ParameterError(f"need 1 <= M <= N={N}, got M={M!r}")
    n, m = min((_first_in_band(delta, m), m)
               for m in ([M] if M is not None else range(1, N + 1)))
    return m, n


def _first_in_band(delta, m):
    """The smallest n >= 1 with n*delta/m mod 1 in [1/4, 3/4], evaluated
    as `skew_witness` states it.

    n*delta/m is nondecreasing in n in floating point too.  With
    delta/m <= 1/2 it climbs from 0 in steps too short to jump the band,
    so every n before the first n with n*delta/m >= 1/4 lies below the
    band and that n lies in it.  With delta/m > 1/2 (so m = 1) it falls
    below each next integer n by a deficit n - n*delta, exact in floating
    point, that grows by 1 - delta < 1/2 a step: every n before the first
    deficit >= 1/4 lies above the band and that n lies in it.  Rounding
    n*delta to the nearest float keeps that n the first, as the threshold
    n - 1/4 is a float and rounding is monotone.  Either first n, near
    m / (4 delta) or 1 / (4 (1 - delta)), is bisected against the float
    test itself.
    """
    def value(n):
        return n * delta / m

    if delta / m <= 0.5:
        guess = m / (4.0 * delta)
        if not math.isfinite(guess):
            raise ParameterError(f"delta={delta!r} is too small for a "
                                 "witness time")

        def reached(n):
            return value(n) >= 0.25
    else:
        guess = 0.25 / (1.0 - delta)

        def reached(n):
            return n - value(n) >= 0.25
    lo, n = 0, max(1, math.ceil(guess))
    while not reached(n):
        lo, n = n, 2 * n
    while n - lo > 1:
        mid = (lo + n) // 2
        lo, n = (lo, mid) if reached(mid) else (mid, n)
    return n


def _dispersed_bases(D0, k):
    """Greedy farthest-point selection of k base indices.

    Index order is arbitrary in a cloud, so base points are spread by
    static distance instead; this reaches isolated points (for example a
    connecting orbit between two circles) that an index stride can skip.
    """
    chosen = [0]
    nearest = D0[0].copy()
    while len(chosen) < k:
        i = int(np.argmax(nearest))
        if nearest[i] <= 0.0:
            break
        chosen.append(i)
        np.minimum(nearest, D0[i], out=nearest)
    return sorted(chosen)


def _level_diameters(D0, inside, N):
    """The N-diameters of the sampled return sets at one delta level:
    (base position, lower bound, upper bound, witness as cloud indices)
    for each base whose row of `inside` marks more than N members, in base
    order.  Bases are grouped by member count k, and each group's k x k
    distance matrices are gathered, by one flat `np.take` of D0, as
    (B, k, k) blocks of at most LEVEL_BLOCK elements (one matrix at
    least): a block is bounded in one stacked call, or solved exactly one
    matrix at a time when N > 1 and C(k, N + 1) <= EXACT_BUDGET.  At N = 1
    the N-diameter is the diameter, which the stacked call gives exactly,
    with the exact solver's witness (`diam_n_bounds_stacked`).  Each base
    gets the values its own matrix gets alone."""
    counts = inside.sum(axis=1)
    flat, m = D0.ravel(), len(D0)
    found = {}
    for k in np.unique(counts[counts > N]).tolist():
        group = np.flatnonzero(counts == k)
        exact = N > 1 and math.comb(k, N + 1) <= EXACT_BUDGET
        for blk in _row_blocks(len(group), k * k, LEVEL_BLOCK):
            bases = group[blk]
            members = np.nonzero(inside[bases])[1].reshape(len(bases), k)
            subs = np.take(flat, members[:, :, None] * m + members[:, None, :])
            if exact:
                res = [diam_n_exact_from_matrix(sub, N, EXACT_BUDGET)
                       for sub in subs]
                lower = [r.value_lower for r in res]
                upper = [r.value_upper for r in res]
                wit = [r.witness for r in res]
            else:
                lower, upper, wit = (
                    v.tolist() for v in diam_n_bounds_stacked(subs, N))
            for j, bi in enumerate(bases.tolist()):
                found[bi] = (bi, lower[j], upper[j],
                             members[j, list(wit[j])].tolist())
    return [found[bi] for bi in sorted(found)]


def n_equicontinuity_probe(sys, cloud: PointCloud, N: int, epsilon: float,
                           delta_grid=DEFAULT_DELTA_GRID, H: int = DEFAULT_H,
                           n_bases: int = 64, n_spot_checks: int = 10,
                           seed: int = 0) -> EquicontinuityVerdict:
    """Probe N-equicontinuity at scale over a descending delta grid."""
    if len(cloud) < N + 1:
        raise ParameterError("cloud smaller than N+1 points")
    if not n_bases >= 1:
        raise ParameterError(f"n_bases must be >= 1, got {n_bases!r}")
    if n_spot_checks < 0:
        raise ParameterError(
            f"n_spot_checks must be >= 0, got {n_spot_checks!r}")
    if seed < 0:
        raise ParameterError(f"seed must be >= 0, got {seed}")
    check_positive("epsilon", epsilon)
    for delta in delta_grid:
        check_positive("delta", delta)
    grid = tuple(sorted(set(delta_grid), reverse=True))
    m = len(cloud)
    # the cloud's state, built once for D0 and the spot checks
    S = sys.arr_state(list(cloud.points))
    D0 = sys.arr_pdist(S)
    mesh = float(D0.min(where=D0 > 0.0, initial=np.inf))
    if mesh == np.inf:  # no two points apart
        mesh = 0.0
    base_idx = _dispersed_bases(D0, min(n_bases, m))
    # the levels read only rows < delta, so entries past the widest delta
    # need not be exact
    below = below_for(grid[0])
    rows = comoving(sys, [cloud[i] for i in base_idx], cloud.points, [H],
                    below=below).matrices(below)[H]

    per_delta = []
    fail_witnesses = {}
    passed = False
    for delta in grid:
        level_pass = True
        level_fail = None
        max_lower = 0.0
        max_upper = 0.0
        for bi, lower, upper, wit in _level_diameters(D0, rows < delta, N):
            max_lower = max(max_lower, lower)
            max_upper = max(max_upper, upper)
            if upper >= epsilon:
                level_pass = False
            if lower >= epsilon and level_fail is None:
                level_fail = EquicontinuityWitness(
                    base=cloud[base_idx[bi]], n=0,
                    points=tuple(cloud[i] for i in wit),
                    min_pairwise=lower, certified=True)
        # A delta below the smallest pairwise distance in the cloud makes
        # every sampled return set a singleton, so a pass at that scale
        # says nothing about the system.  Such levels never certify a pass.
        resolved = delta >= mesh
        per_delta.append({"delta": delta, "passed": level_pass,
                          "resolved": resolved,
                          "certified_fail": level_fail is not None,
                          "max_lower": max_lower, "max_upper": max_upper})
        if level_fail is not None:
            fail_witnesses[delta] = level_fail
        if level_pass and resolved:
            passed = True

    witness = None
    if not passed:
        smallest = grid[-1]
        witness = sys.equicontinuity_witness(cloud[base_idx[0]], N, epsilon,
                                             smallest)
        if witness is None and fail_witnesses:
            witness = fail_witnesses.get(smallest,
                                         fail_witnesses[min(fail_witnesses)])

    rng = np.random.default_rng(seed)
    spot = []
    mid_delta = grid[len(grid) // 2]
    for _ in range(n_spot_checks):
        n = int(rng.integers(-(H // 2), H // 2 + 1))
        sx = sys.arr_state([cloud[int(rng.integers(0, m))]])
        spot.append(_equivariance_check(sys, sx, S, mid_delta, H, n))

    return EquicontinuityVerdict(N=N, epsilon=epsilon, delta_grid=grid,
                                 passed=passed, witness=witness, horizon=H,
                                 per_delta=per_delta, spot_checks=spot)
