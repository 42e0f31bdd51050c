"""Partition entropy, dynamical refinement, entropy estimates and the
geometric-partition bounds.

All entropies are in natural log units, matching the analytic bound
e/(e-1)^2 of the geometric construction.  Refinement follows itineraries on
a finite cloud: the one-step image of each cloud point is snapped to the
nearest cloud point in the system's own metric, and the snap distance is
checked against a tolerance (half the cloud mesh by default) so that
aliasing cannot silently corrupt the itineraries.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import (ConstructionError, MeasureError, ParameterError,
                     RefinementError)
from .kernels import mesh, nearest
from .points import PointCloud

KSH1_BOUND = math.e / (math.e - 1.0) ** 2


# ---------------------------------------------------------------------------
# partitions and measures
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Partition:
    """Disjoint index cells covering a cloud of the given size."""

    cells: tuple
    size: int

    def __post_init__(self):
        seen = [i for cell in self.cells for i in cell]
        if len(seen) != self.size or len(set(seen)) != self.size:
            raise ParameterError("cells must partition the cloud indices")
        if any(len(c) == 0 for c in self.cells):
            raise ParameterError("empty cells are not stored")

    def n_cells(self):
        return len(self.cells)

    def masses(self, weights):
        return np.array([weights[list(c)].sum() for c in self.cells])

    def label_array(self):
        lab = np.empty(self.size, dtype=np.int64)
        for k, cell in enumerate(self.cells):
            lab[list(cell)] = k
        return lab


def partition_from_labels(labels, size: Optional[int] = None) -> Partition:
    labels = np.asarray(labels)
    size = size if size is not None else len(labels)
    uniq, inv = np.unique(labels, return_inverse=True)
    cells = tuple(tuple(int(i) for i in np.nonzero(inv == k)[0])
                  for k in range(len(uniq)))
    return Partition(cells=cells, size=size)


def default_partition(cloud: PointCloud, k: int = 2) -> Partition:
    """Coordinate partition: each point's cell is its ``partition_label(k)``,
    read off k arcs of its cyclic coordinate; a point type with no label
    is refused."""
    if not k >= 1:
        raise ParameterError(f"k must be >= 1, got {k!r}")
    labels = []
    for p in cloud.points:
        label = getattr(p, "partition_label", None)
        if label is None:
            raise ParameterError(f"no default partition for {p!r}")
        labels.append(label(k))
    return partition_from_labels(labels, len(cloud))


@dataclass
class EmpiricalMeasure:
    weights: np.ndarray
    generator: str

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        if (w < -1e-15).any():
            raise MeasureError("negative weight")
        if abs(w.sum() - 1.0) > 1e-9:
            raise MeasureError(f"weights sum to {w.sum()!r}, not 1")
        self.weights = np.clip(w, 0.0, None)


def uniform_measure(cloud: PointCloud) -> EmpiricalMeasure:
    m = len(cloud)
    return EmpiricalMeasure(np.full(m, 1.0 / m), "uniform")


def orbit_measure(sys, cloud: PointCloud, x0, length: int = 10_000,
                  snap_tol: Optional[float] = None) -> EmpiricalMeasure:
    """Birkhoff frequencies of the orbit of x0 over the cloud cells (each
    orbit point is snapped to its nearest cloud point; RefinementError when
    a snap exceeds snap_tol, unchecked when it is None)."""
    orbit = []
    x = x0
    for _ in range(length):
        orbit.append(x)
        x = sys.step(x)
    idx, _ = _snap(sys, orbit, cloud, snap_tol)
    counts = np.bincount(idx, minlength=len(cloud)).astype(float)
    return EmpiricalMeasure(counts / counts.sum(),
                            f"orbit({x0!r},{length})")


def partition_entropy(weights) -> float:
    """-sum w log w with 0 log 0 = 0; weights must be a probability
    vector, checked as an `EmpiricalMeasure` checks its own."""
    w = EmpiricalMeasure(list(weights), "partition").weights
    w = w[w > 0]
    return float(-(w * np.log(w)).sum())


# ---------------------------------------------------------------------------
# refinement along itineraries
# ---------------------------------------------------------------------------

def _snap(sys, queries, cloud, snap_tol):
    """Index of the cloud point nearest to each query and the largest snap
    distance, which must not exceed snap_tol unless that is None."""
    idx, gaps = nearest(sys, queries, cloud.points)
    worst = float(gaps.max(initial=0.0))
    if snap_tol is not None and worst > snap_tol:
        raise RefinementError(
            f"snap distance {worst:.3g} exceeds tolerance {snap_tol:.3g}")
    return idx, worst


def step_index_map(sys, cloud: PointCloud,
                   snap_tol: Optional[float] = None):
    """Index of the cloud point nearest to f(p_i), with the largest snap
    distance; exact lookup is tried first (shift clouds close exactly)."""
    stepped = [sys.step(p) for p in cloud.points]
    lut = {p: i for i, p in enumerate(cloud.points)}
    if all(p in lut for p in stepped):
        return np.array([lut[p] for p in stepped]), 0.0
    if snap_tol is None:
        snap_tol = 0.5 * mesh(sys, cloud.points)
    return _snap(sys, stepped, cloud, snap_tol)


def _itineraries(P: Partition, nxt):
    """Codes of the length-1, 2, ... itineraries through P under the index
    map nxt, up to the first join that adds no cell: two points share a
    code iff they share the itinerary, and the codes are the ranks
    0..k-1 of the k cells.  A join P^(n+1) = P^n makes every later join
    equal to it, and its rank codes repeat exactly, so the last code
    yielded is the code of every longer itinerary too."""
    labels = P.label_array()
    K = cells = P.n_cells()
    code = labels.copy()
    idx = np.arange(len(nxt))
    while True:
        yield code
        idx = nxt[idx]
        uniq, joined = np.unique(code * K + labels[idx], return_inverse=True)
        if len(uniq) == cells:
            return
        code, cells = joined, len(uniq)


def refine_partition(P: Partition, sys, n: int, cloud: PointCloud,
                     snap_tol: Optional[float] = None) -> Partition:
    """The join P v f^-1(P) v ... v f^-(n-1)(P): points sharing the same
    length-n itinerary through P."""
    if n < 1:
        raise ParameterError("n must be >= 1")
    nxt, _ = step_index_map(sys, cloud, snap_tol)
    for code in itertools.islice(_itineraries(P, nxt), n):
        pass
    return partition_from_labels(code, len(cloud))


@dataclass
class EntropyEstimate:
    value: float
    method: str
    params: dict
    diagnostics: tuple = field(default=())

    def as_dict(self):
        return {"value": self.value, "method": self.method,
                "params": {k: repr(v) if not isinstance(
                    v, (int, float, str, bool, type(None))) else v
                    for k, v in self.params.items()},
                "diagnostics": list(self.diagnostics)}


def metric_entropy_estimate(sys, P: Partition, mu: EmpiricalMeasure,
                            n_max: int, cloud: PointCloud,
                            snap_tol: Optional[float] = None
                            ) -> EntropyEstimate:
    """(1/n) H_mu(P^n) for n = 1..n_max; the estimate is the mean of the
    last three values and the full sequence is kept as diagnostics.

    Refinement stops at the first join that adds no cell (`_itineraries`):
    every later join equals it, with the same codes, so the rest of the
    sequence is H/n for that join's entropy H, bit for bit what refining
    on would give."""
    if n_max < 4:
        raise ParameterError("n_max must be >= 4")
    nxt, snap = step_index_map(sys, cloud, snap_tol)
    H = [partition_entropy(np.bincount(code, weights=mu.weights))
         for code in itertools.islice(_itineraries(P, nxt), n_max)]
    H += H[-1:] * (n_max - len(H))
    seq = [h / n for n, h in enumerate(H, start=1)]
    value = float(np.mean(seq[-3:]))
    return EntropyEstimate(value=value, method="partition_limit",
                           params={"n_max": n_max, "cells": P.n_cells(),
                                   "cloud_size": len(cloud),
                                   "measure": mu.generator,
                                   "max_snap_distance": snap},
                           diagnostics=tuple(seq))


def word_count_entropy(sys, n: int, cloud: Optional[PointCloud] = None
                       ) -> EntropyEstimate:
    """log(#distinct length-n subwords over the sampled points)/n: the
    words of the cloud's points, or without a cloud of every sequence of
    period min(n, 13), as the system's ``word_codes`` reads them
    (`ShiftSystem.word_codes`)."""
    if not 1 <= n <= 20:
        raise ParameterError("n must be in 1..20")
    codes, cloud_size = sys.word_codes(
        n, None if cloud is None else cloud.points)
    n_words = len(np.unique(codes))
    return EntropyEstimate(value=math.log(n_words) / n,
                           method="word_count",
                           params={"n": n, "cloud_size": cloud_size,
                                   "n_words": n_words},
                           diagnostics=())


# ---------------------------------------------------------------------------
# geometric partition and the entropy bound
# ---------------------------------------------------------------------------

@dataclass
class GeometricPartitionResult:
    partition: Partition
    masses: tuple

    def entropy(self, weights):
        return partition_entropy(self.partition.masses(weights))


def geometric_partition(sys, cloud: PointCloud, mu: EmpiricalMeasure,
                        r: float, z=None,
                        radii: Optional[list] = None
                        ) -> GeometricPartitionResult:
    """Nested balls S_n around z with mu(S_n) <= r^n; cells are the
    differences E_n = S_n minus S_(n+1), with z assigned to E_0.

    Radii are found by shrinking along the empirical distance order; the
    construction stops when the largest admissible ball is the singleton
    {z}.  Explicit radii are validated against the mass condition instead.
    """
    if not 0.0 < r < 1.0 / math.e:
        raise ParameterError("r must satisfy 0 < r < 1/e")
    m = len(cloud)
    zi = 0 if z is None else cloud.index_of(z)
    z = cloud[zi]
    d = sys.arr_cdist(sys.arr_state([z]),
                      sys.arr_state(list(cloud.points)))[0]
    key = d.copy()
    key[zi] = -1.0  # z sorts first
    order = np.lexsort((np.arange(m), key))
    cum = np.cumsum(mu.weights[order])
    dist_sorted = d[order]

    prefixes = [m]
    if radii is not None:
        for lev, rad in enumerate(radii, start=1):
            k = int(np.searchsorted(dist_sorted, rad, side="right"))
            if k < 1 or cum[k - 1] > r ** lev + 1e-12:
                raise ConstructionError(
                    f"mass condition fails at level {lev}: "
                    f"mu(S_{lev}) > r^{lev}")
            prefixes.append(k)
            if k <= 1:
                break
        if prefixes[-1] > 1:
            prefixes.append(1)
    else:
        lev = 0
        while prefixes[-1] > 1:
            lev += 1
            k = int(np.searchsorted(cum, r ** lev + 1e-15, side="right"))
            if k >= prefixes[-1]:
                k = prefixes[-1] - 1
            # a ball must not split equal distances: back off to a boundary
            while 1 < k < m and dist_sorted[k - 1] == dist_sorted[k]:
                k -= 1
            k = max(k, 1)
            prefixes.append(k)

    cells = []
    masses = []
    for lev in range(len(prefixes) - 1):
        members = list(order[prefixes[lev + 1]:prefixes[lev]])
        if lev == 0:
            members.append(order[0])
        if members:
            cells.append(tuple(sorted(int(i) for i in members)))
            masses.append(float(mu.weights[members].sum()))
    part = Partition(cells=tuple(cells), size=m)
    return GeometricPartitionResult(partition=part, masses=tuple(masses))


def closing_bound(r: float) -> float:
    """log((1-r)/(1-2r)) - r log(r)/(1-r)^2, the tail of the entropy chain;
    it decreases to 0 as r does."""
    if not 0.0 < r < 0.5:
        raise ParameterError("closing bound needs 0 < r < 1/2")
    return math.log((1 - r) / (1 - 2 * r)) - r * math.log(r) / (1 - r) ** 2


def ks_bound_audit(sys, cloud: PointCloud, mu: EmpiricalMeasure,
                   r_list=(0.3, 0.2, 0.1, 0.05), z=None):
    """Per r: build the geometric partition, check H_mu(xi) against the
    uniform bound e/(e-1)^2, and check the closing bound decreases to 0."""
    from .structure import AuditRecord

    entries = []
    ok = True
    prev_close = None
    for r in sorted(set(r_list), reverse=True):
        if r >= 1.0 / math.e or r >= 0.5:
            entries.append({"r": r, "rejected": "r must be < 1/e and < 1/2"})
            continue
        try:
            gp = geometric_partition(sys, cloud, mu, r, z=z)
        except ConstructionError as exc:
            entries.append({"r": r, "construction_error": str(exc)})
            ok = False
            continue
        H = gp.entropy(mu.weights)
        cb = closing_bound(r)
        within = H <= KSH1_BOUND + 1e-9
        decreasing = prev_close is None or cb < prev_close
        prev_close = cb
        ok = ok and within and decreasing
        entries.append({"r": r, "entropy": H, "levels": len(gp.masses),
                        "closing_bound": cb, "within_uniform_bound": within,
                        "closing_bound_decreasing": decreasing})
    return AuditRecord("ks_bound", True, ok,
                       {"uniform_bound": KSH1_BOUND, "entries": entries,
                        "cloud_size": len(cloud), "measure": mu.generator})
