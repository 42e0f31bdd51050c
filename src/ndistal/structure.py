"""Periodic points, return times, minimal subsystems, transitivity,
dynamical balls and expansivity probes.

All verdicts are at scale: syndeticity and density are checked over finite
iterate windows with explicit thresholds, and audits record the scale they
ran at.  Gap measurements complete the return-time sequence with the window
boundaries, so a point whose returns die out near the edge of the window is
not mistaken for almost periodic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import ParameterError, check_positive
from .kernels import (_CHUNK, _row_blocks, below_for, comoving,
                      orbit_return_matrix, orbit_visit_matrix)
from .points import PointCloud
from .proximal import DEFAULT_EPS, distality_report

DELTA_LIST = (0.2, 0.1, 0.05)
CONFIRMATIONS = 5  # returns j = 1..CONFIRMATIONS that confirm a period
# the reason a cloud with no almost periodic point decides no minimal set
NO_MINIMAL_SET = ("no cloud point is almost periodic at this scale, while "
                  "every compact system has a minimal set")


@dataclass
class AuditRecord:
    name: str
    applicable: bool
    passed: Optional[bool]
    details: dict = field(default_factory=dict)

    def as_dict(self):
        return {"name": self.name, "applicable": self.applicable,
                "passed": self.passed, "details": self.details}


# ---------------------------------------------------------------------------
# periodic points
# ---------------------------------------------------------------------------

def _check_t_max(T_max):
    if not T_max >= 1:
        raise ParameterError(f"T_max must be >= 1, got {T_max!r}")


def periodic_points(sys, cloud: PointCloud, T_max: int, eps_per: float = 1e-6):
    """Points x with d(f^{jT}(x), x) < eps_per for j = 1..CONFIRMATIONS,
    reported with the smallest such T <= T_max.  The confirmations reject
    the near-returns of irrational rotations.  Every return is read off one
    return matrix over |n| <= CONFIRMATIONS * T_max."""
    _check_t_max(T_max)
    H = CONFIRMATIONS * T_max
    D = orbit_return_matrix(sys, cloud.points, H)
    times = np.outer(np.arange(1, CONFIRMATIONS + 1), np.arange(1, T_max + 1))
    # periodic[i, T - 1]: every confirmation of period T returns
    periodic = (D[:, H + times] < eps_per).all(axis=1)
    period = periodic.argmax(axis=1) + 1
    return [(cloud.points[i], int(period[i]))
            for i in np.nonzero(periodic.any(axis=1))[0]]


# ---------------------------------------------------------------------------
# return times and almost periodicity
# ---------------------------------------------------------------------------

@dataclass
class ReturnProfile:
    point: object
    delta: float
    horizon: int
    return_times: tuple
    max_gap: Optional[int]

    def as_dict(self):
        return {"point": repr(self.point), "delta": self.delta,
                "horizon": self.horizon,
                "n_returns": len(self.return_times),
                "max_gap": self.max_gap}


def _return_gaps(D, delta):
    """For each row of return distances D (times -H..H), the longest gap
    between its returns D < delta, the two ends of the window counting as
    virtual returns at -H-1 and H+1; -1 for a row with at most one return
    (the return at n = 0 alone).  Only the returns are read: each row is
    padded with its two virtual returns, and the flat positions of all
    returns give every row's gaps as their differences."""
    m, T = D.shape
    padded = np.ones((m, T + 2), dtype=bool)
    np.less(D, delta, out=padded[:, 1:-1])
    at = np.flatnonzero(padded)
    counts = np.count_nonzero(padded, axis=1)
    # each row's gaps start at its first position in `at`; the difference
    # from one row's last return to the next row's first is 1, never its
    # longest gap
    gaps = np.maximum.reduceat(np.diff(at), np.cumsum(counts) - counts)
    gaps[counts <= 3] = -1
    return gaps


def return_profile(sys, x, delta: float, H: int) -> ReturnProfile:
    """Visits of the orbit of x back into B_delta(x) over |n| <= H.

    max_gap spans the whole window (boundaries count as virtual returns), so
    orbits whose returns stop early get a large gap; the None marker means
    the only return is n = 0.
    """
    check_positive("delta", delta)
    D = orbit_return_matrix(sys, [x], H)
    gap = int(_return_gaps(D, delta)[0])
    times = tuple(int(t) - H for t in np.nonzero(D[0] < delta)[0])
    return ReturnProfile(point=x, delta=delta, horizon=H,
                         return_times=times,
                         max_gap=None if gap < 0 else gap)


def default_gap_bound(delta: float) -> int:
    return math.ceil(4.0 / delta)


def almost_periodic_verdict(sys, x, delta_list=DELTA_LIST, H: int = 500,
                            gap_bound=None) -> bool:
    """True iff returns to every delta-neighborhood have bounded gaps."""
    return bool(_almost_periodic_mask(sys, [x], delta_list, H, gap_bound)[0])


# ---------------------------------------------------------------------------
# minimal subsystems and transitivity
# ---------------------------------------------------------------------------

@dataclass
class MinimalSetEstimate:
    representative: object
    indices: tuple
    closeness: float

    def as_dict(self):
        return {"representative": repr(self.representative),
                "size": len(self.indices), "indices": list(self.indices),
                "closeness": self.closeness}


def _almost_periodic_mask(sys, points, delta_list, H, gap_bound=None):
    """Which points return to every delta-ball of delta_list with gaps
    within gap_bound(delta) over |n| <= H."""
    for delta in delta_list:
        check_positive("delta", delta)
    gap_bound = gap_bound or default_gap_bound
    D = orbit_return_matrix(sys, points, H)
    mask = np.ones(len(points), dtype=bool)
    for delta in delta_list:
        gaps = _return_gaps(D, delta)
        mask &= (gaps >= 0) & (gaps <= gap_bound(delta))
    return mask


def minimal_subsystems(sys, cloud: PointCloud, delta: float = 0.05,
                       H: int = 2000, delta_list=DELTA_LIST,
                       gap_bound=None, visit=None):
    """Cluster the almost periodic cloud points into minimal-set estimates.

    Two almost periodic points join a cluster iff each one's orbit comes
    delta-close to the other (symmetric closeness blocks chains through
    wandering points); clusters are connected components of that relation,
    ordered by their smallest index.
    """
    check_positive("delta", delta)
    mask = _almost_periodic_mask(sys, cloud.points, delta_list, min(H, 500),
                                 gap_bound)
    ap_idx = np.nonzero(mask)[0]
    if len(ap_idx) == 0:
        return []
    if visit is None:
        sub = PointCloud(tuple(cloud[int(i)] for i in ap_idx),
                         cloud.provenance, cloud.system_id)
        V = orbit_visit_matrix(sys, sub.points, sub.points, H)
    else:
        V = visit[np.ix_(ap_idx, ap_idx)]
    # imported here, so that importing the package loads no scipy.sparse
    from scipy.sparse import csr_array
    from scipy.sparse.csgraph import connected_components

    sym = np.maximum(V, V.T)
    # the edges as the float64 CSR graph that connected_components works
    # on, so that it validates no dense matrix and converts nothing
    close = sym < delta
    edges = np.flatnonzero(close)
    graph = csr_array((np.ones(edges.size), edges % len(sym),
                       np.r_[0, np.cumsum(np.count_nonzero(close, axis=1))]),
                      shape=sym.shape)
    _, labels = connected_components(graph, directed=False)
    # a label's first index is its smallest member
    _, first = np.unique(labels, return_index=True)
    out = []
    for label in labels[np.sort(first)]:
        local = np.nonzero(labels == label)[0]
        idx = tuple(int(ap_idx[i]) for i in local)
        score = float(sym[np.ix_(local, local)].max())
        out.append(MinimalSetEstimate(representative=cloud[idx[0]],
                                      indices=idx, closeness=score))
    return out


def transitive_check(sys, cloud: PointCloud, H: int = 2000,
                     delta: float = 0.05, visit=None):
    """First cloud point whose orbit over |n| <= H is delta-dense in the
    cloud, or None.  Without a visit matrix, the rows go in blocks of at
    most _CHUNK visits, and the search stops at the first block holding a
    dense row."""
    check_positive("delta", delta)
    for rows in _row_blocks(len(cloud), len(cloud), _CHUNK):
        V = visit[rows] if visit is not None else orbit_visit_matrix(
            sys, cloud.points[rows], cloud.points, H)
        hits = np.nonzero(V.max(axis=1) < delta)[0]
        if len(hits):
            return cloud[rows.start + int(hits[0])]
    return None


def theorem_3_5_audit(sys, N_claimed: int, cloud: PointCloud,
                      H: int = 2000, delta: float = 0.05, prox_H: int = 200,
                      delta_list=DELTA_LIST, gap_bound=None) -> AuditRecord:
    """Transitive and N-distal at scale implies at most N-1 proper minimal
    subsystems.  Preconditions failing mark the audit inapplicable."""
    if not N_claimed >= 1:
        raise ParameterError(f"N_claimed must be >= 1, got {N_claimed!r}")
    check_positive("delta", delta)
    report = distality_report(sys, cloud, prox_H, N_max=max(N_claimed, 2))
    details = {"N_claimed": N_claimed, "max_cell_size": report.max_cell_size,
               "verdict": report.verdict, "H": H, "delta": delta,
               "prox_H": prox_H, "prox_eps": DEFAULT_EPS,
               "cloud_size": len(cloud)}
    if report.max_cell_size > N_claimed:
        details["reason"] = "not N-distal at scale for the claimed N"
        return AuditRecord("theorem_3_5", False, None, details)
    visit = orbit_visit_matrix(sys, cloud.points, cloud.points, H)
    tp = transitive_check(sys, cloud, H, delta, visit=visit)
    if tp is None:
        details["reason"] = "no transitive point found at scale"
        return AuditRecord("theorem_3_5", False, None, details)
    minimal = minimal_subsystems(sys, cloud, delta, H, delta_list,
                                 gap_bound=gap_bound, visit=visit)
    details["transitive_point"] = repr(tp)
    details["n_clusters"] = len(minimal)
    if not minimal:
        # every compact system has a minimal set (Birkhoff), so a cloud
        # with no almost periodic point says nothing at this scale
        details["reason"] = NO_MINIMAL_SET
        return AuditRecord("theorem_3_5", False, None, details)
    # the theorem bounds PROPER minimal subsystems: a cluster whose orbits
    # are delta-dense in the whole cloud is the space itself, not proper
    proper = [c for c in minimal
              if visit[list(c.indices), :].min(axis=0).max() >= delta]
    details["n_minimal"] = len(proper)
    details["minimal_sizes"] = [len(c.indices) for c in proper]
    return AuditRecord("theorem_3_5", True,
                       len(proper) <= N_claimed - 1, details)


# ---------------------------------------------------------------------------
# dynamical balls and expansivity
# ---------------------------------------------------------------------------

def dynamical_ball(sys, x, delta: float, cloud: PointCloud,
                   H: int) -> tuple:
    """Indices of points staying delta-close to x's orbit at all |n| <= H
    (max over the window, dual to r_set's min)."""
    check_positive("delta", delta)
    found = comoving(sys, [cloud[cloud.index_of(x)]], cloud.points, [H],
                     use_max=True, below=below_for(delta))
    return tuple(found.j[found.values[H] < delta].tolist())


@dataclass
class ExpansivityVerdict:
    delta_grid: tuple
    horizon: int
    max_ball_sizes: dict
    expansive_at: Optional[float]

    @property
    def expansive_at_scale(self) -> bool:
        return self.expansive_at is not None

    def as_dict(self):
        return {"delta_grid": list(self.delta_grid), "horizon": self.horizon,
                "max_ball_sizes": {str(k): v
                                   for k, v in self.max_ball_sizes.items()},
                "expansive_at": self.expansive_at,
                "expansive_at_scale": self.expansive_at_scale}


def expansivity_probe(sys, cloud: PointCloud, delta_grid=(0.25, 0.1, 0.05),
                      H: int = 50) -> ExpansivityVerdict:
    """Max dynamical-ball cardinality per delta; expansive at scale when
    some delta makes every ball a singleton.  The balls are counted on
    the list of the pairs that may lie under the largest delta."""
    for delta in delta_grid:
        check_positive("delta", delta)
    widest = max(delta_grid, default=math.inf)
    found = comoving(sys, cloud.points, None, [H], use_max=True,
                     below=below_for(widest))
    M = found.values[H]
    sizes = {}
    expansive_at = None
    for delta in sorted(delta_grid, reverse=True):
        sizes[delta] = int(found.row_counts(M < delta).max())
        if sizes[delta] == 1 and expansive_at is None:
            expansive_at = delta
    return ExpansivityVerdict(delta_grid=tuple(sorted(delta_grid,
                                                      reverse=True)),
                              horizon=H, max_ball_sizes=sizes,
                              expansive_at=expansive_at)


def prop_3_2_audit(sys, cloud: PointCloud, T_max: int = 50,
                   eps_per: float = 1e-6, H: int = 200,
                   eps_prox: float = 1e-3) -> AuditRecord:
    """Periodic points of an N-distal-at-scale system are distal points:
    every detected periodic point's proximal cell must be a singleton."""
    _check_t_max(T_max)
    report = distality_report(sys, cloud, H, eps_prox)
    details = {"verdict": report.verdict,
               "max_cell_size": report.max_cell_size,
               "T_max": T_max, "eps_per": eps_per, "H": H}
    if report.verdict.startswith("not "):
        details["reason"] = "system is not N-distal at scale"
        return AuditRecord("prop_3_2", False, None, details)
    periodic = periodic_points(sys, cloud, T_max, eps_per)
    sizes = report.cell_sizes()
    violations = []
    for x, T in periodic:
        size = int(sizes[cloud.index_of(x)])
        if size > 1:
            violations.append({"point": repr(x), "period": T,
                               "cell_size": size})
    details["n_periodic"] = len(periodic)
    details["violations"] = violations
    return AuditRecord("prop_3_2", True, not violations, details)
