"""Systems built from others: products, powers and conjugates.  They take
the `DynSystem` hooks, which run the orbit engine on their array
interface.
"""

from __future__ import annotations

import numpy as np

from .base import DynSystem
from .errors import ConjugacyError, ParameterError
from .points import Pair, PointCloud


class ProductSystem(DynSystem):
    """Direct product with the max metric d((x1,y1),(x2,y2)) =
    max(d1(x1,x2), d2(y1,y2))."""

    def __init__(self, f, g):
        self.f = f
        self.g = g
        self.id = f"product[{f.id} x {g.id}]"

    def iterate(self, p, n):
        return Pair(self.f.iterate(p.a, n), self.g.iterate(p.b, n))

    def sampler(self, resolution=16, seed=None):
        ca = self.f.sampler(resolution, seed)
        cb = self.g.sampler(resolution, None if seed is None else seed + 1)
        pts = tuple(Pair(a, b) for a in ca.points for b in cb.points)
        return PointCloud(pts, "grid" if seed is None else f"random({seed})",
                          self.id)

    def cross(self, cloud_a, cloud_b):
        pts = tuple(Pair(a, b) for a in cloud_a.points for b in cloud_b.points)
        return PointCloud(pts, "grid", self.id)

    def arr_state(self, points):
        return (self.f.arr_state([p.a for p in points]),
                self.g.arr_state([p.b for p in points]))

    def arr_step(self, state, inverse=False):
        return (self.f.arr_step(state[0], inverse),
                self.g.arr_step(state[1], inverse))

    def arr_iterate(self, state, n):
        return (self.f.arr_iterate(state[0], n),
                self.g.arr_iterate(state[1], n))

    def arr_cdist(self, sa, sb):
        return np.maximum(self.f.arr_cdist(sa[0], sb[0]),
                          self.g.arr_cdist(sa[1], sb[1]))

    def arr_edist(self, sa, sb):
        return np.maximum(self.f.arr_edist(sa[0], sb[0]),
                          self.g.arr_edist(sa[1], sb[1]))


def product_system(f, g):
    return ProductSystem(f, g)


class PowerSystem(DynSystem):
    def __init__(self, f, k):
        if k == 0:
            raise ParameterError("power_system requires k != 0")
        self.f = f
        self.k = int(k)
        self.id = f"power[{f.id}^{k}]"

    def iterate(self, p, n):
        return self.f.iterate(p, self.k * n)

    def sampler(self, resolution=16, seed=None):
        c = self.f.sampler(resolution, seed)
        return PointCloud(c.points, c.provenance, self.id)

    def arr_state(self, points):
        return self.f.arr_state(points)

    def arr_iterate(self, state, n):
        return self.f.arr_iterate(state, self.k * n)

    def arr_step(self, state, inverse=False):
        fwd = (self.k > 0) != inverse
        for _ in range(abs(self.k)):
            state = self.f.arr_step(state, inverse=not fwd)
        return state

    def arr_cdist(self, sa, sb):
        return self.f.arr_cdist(sa, sb)

    def arr_edist(self, sa, sb):
        return self.f.arr_edist(sa, sb)


def power_system(f, k):
    return PowerSystem(f, k)


CONJUGACY_TOL = 1e-9  # h(h_inv(p)) and h_inv(h(p)) must lie this close to p


class ConjugateSystem(DynSystem):
    """h o f o h^-1 on f's metric: states are point lists, which f's array
    metric measures on f's states."""

    def __init__(self, f, h, h_inv, check_cloud=None):
        self.f = f
        self.h = h
        self.h_inv = h_inv
        self.id = f"conjugate[{f.id}]"
        if check_cloud is not None:
            pts = list(check_cloud.points)
            there = self.arr_edist([h(h_inv(p)) for p in pts], pts)
            back = self.arr_edist([h_inv(h(p)) for p in pts], pts)
            if (there > CONJUGACY_TOL).any() or (back > CONJUGACY_TOL).any():
                raise ConjugacyError(
                    "h and h_inv are not mutually inverse on the cloud")

    def iterate(self, p, n):
        return self.h(self.f.iterate(self.h_inv(p), n)) if n else p

    def arr_cdist(self, sa, sb):
        fa = self.f.arr_state(sa)
        return self.f.arr_cdist(fa, fa if sb is sa else self.f.arr_state(sb))

    def arr_edist(self, sa, sb):
        return self.f.arr_edist(self.f.arr_state(sa), self.f.arr_state(sb))

    def sampler(self, resolution=16, seed=None):
        c = self.f.sampler(resolution, seed)
        return PointCloud(tuple(self.h(p) for p in c.points),
                          c.provenance, self.id)


def conjugate_system(f, h, h_inv, check_cloud=None):
    return ConjugateSystem(f, h, h_inv, check_cloud=check_cloud)
