"""Proximal cells, distality verdicts, quotient factors, fiber cells.

All verdicts are at scale: proximality is tested over the finite iterate
window |n| <= H against a threshold eps_prox, and every result carries its
(H, eps) stamp.  An edge is additionally flagged "stable" when its traced
minimum shrinks by the stability factor as the horizon doubles; acceptance
checks rely on stable edges only, which screens out chords that happen to be
small at one scale without actually converging.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional

import numpy as np

from .errors import HomomorphismError, ParameterError, check_positive
from .kernels import (below_for, comoving, max_orbit_distance, mesh,
                      min_orbit_distance, nearest)
from .points import OrbitIndex, PointCloud

DEFAULT_H = 200
DEFAULT_EPS = 1e-3
STABLE_FACTOR = 10.0
MATCH_TOL = 1e-9  # a computed image matches a point within this distance


@dataclass
class ProximalCellEstimate:
    """A proximal cell; members ascend, and min_dist_trace and stable map
    each member."""

    base: int
    members: tuple
    horizon: int
    threshold: float
    min_dist_trace: dict
    stable: dict

    def __post_init__(self):
        assert self.base in self.members

    def size(self):
        return len(self.members)

    def as_dict(self):
        return {"base": self.base, "members": list(self.members),
                "horizon": self.horizon, "threshold": self.threshold,
                "min_dist_trace": {str(k): self.min_dist_trace[k]
                                   for k in self.members},
                "stable": {str(k): bool(self.stable[k])
                           for k in self.members}}


class _Cells(Sequence):
    """Read-only view of a report's cells: indexing builds that cell's
    ProximalCellEstimate from the report's block."""

    def __init__(self, report):
        self._report = report

    def __len__(self):
        return len(self._report.indptr) - 1

    def __getitem__(self, i):
        picked = range(len(self))[i]
        if isinstance(picked, range):
            return [self[k] for k in picked]
        r = self._report
        span = slice(r.indptr[picked], r.indptr[picked + 1])
        keys = r.members[span].tolist()
        return ProximalCellEstimate(
            base=picked, members=tuple(keys), horizon=r.horizon,
            threshold=r.threshold,
            min_dist_trace=dict(zip(keys, r.min_dist_trace[span].tolist())),
            stable=dict(zip(keys, r.stable[span].tolist())))


@dataclass
class ProximalReport:
    """Every proximal cell of a cloud as one CSR block: cell i holds
    members[indptr[i]:indptr[i + 1]] (ascending, i among them), with each
    member's minimum over |n| <= H in min_dist_trace and its stability flag
    in stable at the same positions.  `cells` is a read-only sequence view
    that builds a ProximalCellEstimate only for the cell it is asked for;
    `graph` is the proximal graph as an m x m boolean matrix with no
    loops, built from the block when first read.

    How the verdict was reached, which `as_dict` leaves out:
    pairs_evaluated counts the ordered pairs, the diagonal among them,
    that ``comoving_pairs`` listed with their exact minima (every other
    pair has a minimum of at least eps); max_edge_ratio is the largest
    M_H / eps of an edge and min_nonedge_ratio the smallest of a listed
    pair i != j that is no edge (None when there is none)."""

    indptr: np.ndarray
    members: np.ndarray
    min_dist_trace: np.ndarray
    stable: np.ndarray
    verdict: str
    horizon: int
    threshold: float
    n_max: int
    stable_only: bool
    cloud: PointCloud = field(repr=False)
    pairs_evaluated: int
    max_edge_ratio: Optional[float]
    min_nonedge_ratio: Optional[float]

    @property
    def cells(self):
        return _Cells(self)

    def cell_sizes(self):
        """Each cell's size, from the row pointers."""
        return np.diff(self.indptr)

    @property
    def max_cell_size(self):
        return int(self.cell_sizes().max())

    def _rows(self):
        """The cell index of each position of the block."""
        return np.repeat(np.arange(len(self.indptr) - 1), self.cell_sizes())

    @cached_property
    def graph(self):
        m = len(self.indptr) - 1
        A = np.zeros((m, m), dtype=bool)
        A[self._rows(), self.members] = True
        np.fill_diagonal(A, False)
        return A

    def stats(self):
        """The fields that say how the verdict was reached."""
        return {"pairs_evaluated": self.pairs_evaluated,
                "max_edge_ratio": self.max_edge_ratio,
                "min_nonedge_ratio": self.min_nonedge_ratio}

    def as_dict(self):
        # the edges j > i in row order: the upper triangle of the graph
        rows = self._rows()
        upper = self.members > rows
        edges = np.column_stack((rows[upper], self.members[upper])).tolist()
        # one tolist per array; every nontrivial cell reads slices of them
        bounds = self.indptr.tolist()
        members = self.members.tolist()
        names = np.array([str(k) for k in range(len(self.cloud))],
                         dtype=object)[self.members].tolist()
        trace = self.min_dist_trace.tolist()
        stable = self.stable.tolist()
        cells = []
        for i in np.flatnonzero(self.cell_sizes() > 1).tolist():
            lo, hi = bounds[i], bounds[i + 1]
            cells.append({"base": i, "members": members[lo:hi],
                          "horizon": self.horizon,
                          "threshold": self.threshold,
                          "min_dist_trace": dict(zip(names[lo:hi],
                                                     trace[lo:hi])),
                          "stable": dict(zip(names[lo:hi], stable[lo:hi]))})
        return {"verdict": self.verdict, "max_cell_size": self.max_cell_size,
                "horizon": self.horizon, "threshold": self.threshold,
                "n_max": self.n_max, "stable_only": self.stable_only,
                "cloud_size": len(self.cloud),
                "cloud_provenance": self.cloud.provenance,
                "edges": edges, "cells": cells}


def _check_scale(H, eps):
    if H < 1:
        raise ParameterError(f"horizon H must be >= 1, got {H}")
    check_positive("eps_prox", eps)


def _stable(M_h, M_2h, factor, floor):
    """Converged entries: the minimum shrinks by `factor` from H to 2H, or
    the 2H minimum sits at the floor, below which no shrinking shows."""
    return (M_2h <= M_h / factor) | (M_2h <= floor)


def _row_cell(base, found, H, eps, floor, index_map=None):
    """The cell of `base` from `found`, the list of its one row's minima
    over |n| <= H and 2H: the points eps-close to it, each traced at H and
    flagged stable when its minimum converges; index_map renames
    indices."""
    row_h = found.values[H]
    near = (row_h < eps) | (found.j == base)
    members = found.j[near]
    stable = _stable(row_h[near], found.values[2 * H][near], STABLE_FACTOR,
                     floor) | (members == base)
    keys = members if index_map is None else np.asarray(index_map)[members]
    keys = keys.tolist()
    return ProximalCellEstimate(
        base=base if index_map is None else index_map[base],
        members=tuple(keys), horizon=H, threshold=eps,
        min_dist_trace=dict(zip(keys, row_h[near].tolist())),
        stable=dict(zip(keys, stable.tolist())))


def proximal_cell(sys, x, cloud: PointCloud, H: int = DEFAULT_H,
                  eps_prox: float = DEFAULT_EPS) -> ProximalCellEstimate:
    """Cloud points whose orbit comes eps-close to x's within |n| <= H.

    The sweep runs to 2H so each member carries a stability flag.
    """
    _check_scale(H, eps_prox)
    b = cloud.index_of(x)
    found = comoving(sys, [cloud[b]], cloud.points, (H, 2 * H),
                     below=below_for(eps_prox))
    return _row_cell(b, found, H, eps_prox, sys.floor)


def distality_report(sys, cloud: PointCloud, H: int = DEFAULT_H,
                     eps_prox: float = DEFAULT_EPS, N_max: int = 8,
                     stable_only: bool = True) -> ProximalReport:
    """Build every proximal cell on the cloud and classify.

    verdict: "distal" when all cells are singletons, "k-distal, not
    (k-1)-distal" for max cell size k <= N_max, else "not N-distal up to
    N_max" (the cell sizes exceed N_max already at this cloud; on
    shift-like systems they keep growing strictly as the cloud is
    enlarged).
    """
    _check_scale(H, eps_prox)
    if not N_max >= 1:
        raise ParameterError(f"N_max must be >= 1, got {N_max!r}")
    if not len(cloud):
        raise ParameterError("distality_report needs a nonempty cloud")
    found = comoving(sys, cloud.points, None, (H, 2 * H),
                     below=below_for(eps_prox))
    # the list holds every pair under eps_prox, the diagonal among them,
    # and is its own transpose, so the edges it keeps are symmetric
    MH = found.values[H]
    stable = _stable(MH, found.values[2 * H], STABLE_FACTOR, sys.floor)
    use = MH < eps_prox
    if stable_only:
        use &= stable
    loop = found.i == found.j
    use |= loop
    # each row of the list holds its diagonal pair, so no row is empty
    starts = np.searchsorted(found.i, np.arange(len(cloud)))
    indptr = np.concatenate(([0], np.cumsum(
        np.add.reduceat(use, starts, dtype=np.intp))))
    members, trace = found.j[use], MH[use]

    max_size = int(np.diff(indptr).max())
    if max_size == 1:
        verdict = "distal"
    elif max_size <= N_max:
        weaker = "not distal" if max_size == 2 else \
            f"not {max_size - 1}-distal"
        verdict = f"{max_size}-distal, {weaker}"
    else:
        verdict = f"not N-distal up to N_max={N_max}"
    # x / eps is monotone in x, so the extreme ratios are those of M_H
    edges, others = use ^ loop, ~use
    return ProximalReport(
        indptr=indptr, members=members, min_dist_trace=trace,
        stable=stable[use], verdict=verdict, horizon=H,
        threshold=eps_prox, n_max=N_max, stable_only=stable_only,
        cloud=cloud, pairs_evaluated=len(MH),
        max_edge_ratio=(float(MH.max(where=edges, initial=-np.inf))
                        / eps_prox if edges.any() else None),
        min_nonedge_ratio=(float(MH.min(where=others, initial=np.inf))
                           / eps_prox if others.any() else None))


# ---------------------------------------------------------------------------
# quotient by the proximal relation
# ---------------------------------------------------------------------------

@dataclass
class QuotientResult:
    is_equivalence: bool
    classes: tuple = ()
    violating_triple: Optional[tuple] = None
    induced_map: Optional[dict] = None
    induced_consistent: bool = False
    factor_report: Optional[ProximalReport] = None

    def as_dict(self):
        d = {"is_equivalence": self.is_equivalence,
             "induced_consistent": self.induced_consistent}
        if self.is_equivalence:
            d["classes"] = [list(c) for c in self.classes]
            d["induced_map"] = {str(k): v
                                for k, v in sorted(self.induced_map.items())}
            d["factor_verdict"] = self.factor_report.verdict
            d["factor_max_cell_size"] = self.factor_report.max_cell_size
        else:
            d["violating_triple"] = list(self.violating_triple)
        return d


def _violating_triple(indptr, members):
    """The first triple (i, j, k) of a symmetric, reflexive relation in CSR
    form with i ~ j and j ~ k but not i ~ k, or None when the relation is
    an equivalence: (i, k) is the first such pair in row-major order and
    j their first common neighbour.

    Such a relation is an equivalence exactly when the two ends of every
    pair it holds have equal rows (closed neighbourhoods).  Rows are
    compared by a label: rows of one smallest member and one size share
    the first such row's label when equal to it, and any other row has a
    label of its own, so equal labels mean equal rows, and in an
    equivalence equal rows mean equal labels.  That is one pass over the
    block.  A row i has a two-step neighbour outside it only if a pair
    (i, j) has unequal rows, so only those rows are searched, in order."""
    sizes = np.diff(indptr)
    m = len(sizes)
    rows = np.repeat(np.arange(m), sizes)
    key = members[indptr[:-1]].astype(np.int64) * (m + 1) + sizes
    _, first, inv = np.unique(key, return_index=True, return_inverse=True)
    rep = first[inv]
    offset = np.arange(len(members)) - indptr[rows]
    own = np.zeros(m, dtype=bool)
    own[rows[members != members[indptr[rep[rows]] + offset]]] = True
    label = np.where(own, np.arange(m), rep)
    for i in np.unique(rows[label[rows] != label[members]]).tolist():
        near = members[indptr[i]:indptr[i + 1]].tolist()
        two = np.concatenate([members[indptr[j]:indptr[j + 1]]
                              for j in near])
        beyond = np.setdiff1d(two, near)
        if beyond.size:
            k = int(beyond[0])
            j = next(j for j in near
                     if k in members[indptr[j]:indptr[j + 1]])
            return i, j, k
    return None


def proximal_quotient(report: ProximalReport, sys) -> QuotientResult:
    """Quotient the cloud by the proximal graph, when it is an equivalence.

    Expects the report's cloud to be closed under one forward step (up to
    MATCH_TOL), so the induced map on classes is defined away from the
    cloud boundary.  A graph that is not transitively closed yields the
    concrete violating triple instead; that is a valid outcome, matching
    systems whose proximal relation is not an equivalence.
    """
    triple = _violating_triple(report.indptr, report.members)
    if triple is not None:
        return QuotientResult(is_equivalence=False, violating_triple=triple)

    # each cell is its point's class; taken at the class's smallest
    # member, which heads its own cell, classes come ordered by it
    bounds, cells = report.indptr.tolist(), report.members.tolist()
    classes = tuple(tuple(cells[bounds[i]:bounds[i + 1]])
                    for i in range(len(bounds) - 1) if cells[bounds[i]] == i)
    label_of = {}
    for ci, cls in enumerate(classes):
        for i in cls:
            label_of[i] = ci

    stepped = [sys.step(p) for p in report.cloud.points]
    near, gap = nearest(sys, stepped, report.cloud.points)
    induced = {}
    consistent = True
    for ci, members in enumerate(classes):
        images = {label_of[int(near[i])] for i in members
                  if gap[i] <= MATCH_TOL}
        if len(images) > 1:
            consistent = False
        induced[ci] = min(images) if images else None

    reps = []
    for members in classes:
        preferred = [i for i in members
                     if not isinstance(report.cloud[i], OrbitIndex)]
        reps.append(report.cloud[min(preferred) if preferred
                                 else min(members)])
    factor_cloud = PointCloud(tuple(reps), "quotient-representatives",
                              report.cloud.system_id)
    factor = distality_report(sys, factor_cloud, report.horizon,
                              report.threshold, report.n_max,
                              stable_only=report.stable_only)
    return QuotientResult(is_equivalence=True, classes=classes,
                          induced_map=induced, induced_consistent=consistent,
                          factor_report=factor)


# ---------------------------------------------------------------------------
# fiber proximal cells (extensions)
# ---------------------------------------------------------------------------

def fiber_proximal_cell(g, f, pi, y, cloud: PointCloud, H: int = DEFAULT_H,
                        eps_prox: float = DEFAULT_EPS,
                        eps_fiber: Optional[float] = None
                        ) -> ProximalCellEstimate:
    """Proximal cell of y under g restricted to the pi-fiber through y.

    pi must semiconjugate g (upstairs) to f (downstairs) on the cloud:
    f(pi(z)) = pi(g(z)) within MATCH_TOL.  Fiber membership is the finite
    stand-in d_base(pi(z), pi(y)) < eps_fiber; the default eps_fiber is the
    projected cloud's mesh, the smallest positive gap between projections.
    The check, the mesh and the membership all read f's array metric, so a
    pair at exactly the mesh stays out of the fiber.
    """
    _check_scale(H, eps_prox)
    proj = [pi(z) for z in cloud.points]
    miss = f.arr_edist(f.arr_state([f.step(pz) for pz in proj]),
                       f.arr_state([pi(g.step(z)) for z in cloud.points]))
    bad = np.nonzero(miss > MATCH_TOL)[0]
    if bad.size:
        raise HomomorphismError(
            f"pi does not semiconjugate g to f at {cloud[bad[0]]!r}")

    if eps_fiber is None:
        # mesh of the distinct projected points: exact duplicate
        # projections (whole fibers) must not shrink the fiber tolerance
        eps_fiber = mesh(f, proj)
        if not np.isfinite(eps_fiber):
            eps_fiber = 1.0

    b = cloud.index_of(y)
    gap = f.arr_cdist(f.arr_state(proj), f.arr_state([proj[b]]))[:, 0]
    fiber_idx = np.nonzero(gap < eps_fiber)[0].tolist()
    sub = [cloud[i] for i in fiber_idx]
    sub_b = fiber_idx.index(b)
    found = comoving(g, [sub[sub_b]], sub, (H, 2 * H),
                     below=below_for(eps_prox))
    return _row_cell(sub_b, found, H, eps_prox, g.floor,
                     index_map=fiber_idx)


__all__ = ["ProximalCellEstimate", "ProximalReport", "QuotientResult",
           "min_orbit_distance", "max_orbit_distance", "proximal_cell",
           "distality_report", "proximal_quotient", "fiber_proximal_cell"]
