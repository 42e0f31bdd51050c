"""Systems built from others: products, powers and conjugates.  They take
the `DynSystem` hooks, which run the orbit engine on their array
interface.  A product's state is the pair of its factors' states and a
power's is its base's.  A conjugate g = h f h^-1 holds f's state of its
points, which f's metric reads, with their preimages under h, and steps
them by g^n = h f^n h^-1.  Along a walk of steps in one direction, a
point whose preimage steps onto another point's preimage (a link)
copies that point's next preimage and image, so f and h run only on
the leading end of each orbit segment and on the points of no segment;
equal points must hold identical bits, as the catalogue's point types
do.
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
    """g = h o f o h^-1, measured on f's metric.  A state is
    (f-state, preimages, images, walk): f's array state of the points,
    which f's metric reads as it is, the lists of their preimages
    u = h^-1(p) and of the points themselves, and the (n, link) of the
    walk that made it.  As g^n = h f^n h^-1, a step moves each preimage
    one f step and rebuilds the images' f-state: no h^-1 once the state
    is built, so the round trip h^-1 o h adds no rounding to the orbit.
    `arr_state` leaves images and walk None; its images, the points, are
    never read.

    A walk is a run of steps in one direction n = +-1.  Its first step
    (from `arr_state`, or after a turn) moves every preimage by
    f.iterate(u, n) and h, and records link[i], the first l whose
    preimage equals the new preimage of point i, or -1.  Each later step
    of the walk copies a linked point's preimage and image from point l
    of the state it steps, and calls f and h only on the others, so a
    segment of one orbit pays at its leading end alone.  This is exact:
    along one direction the next preimage of i is the same sequence of f
    steps as the current preimage of l, and h of equal preimages is one
    value.  A turn starts a new walk, as f^-n o f^n need not be the
    identity in floats.  Equal points must hold identical bits, which the
    catalogue's point types do: `mod1` maps -0.0 to 0.0, and `OrbitIndex`
    and `SymbolicPoint` hold integers."""

    def __init__(self, f, h, h_inv, check_cloud=None):
        self.f = f
        self.h = h
        self.h_inv = h_inv
        self.id = f"conjugate[{f.id}]"
        if check_cloud is not None:
            pts = list(check_cloud.points)
            at = f.arr_state(pts)
            for there in ([h(h_inv(p)) for p in pts],
                          [h_inv(h(p)) for p in pts]):
                if (f.arr_edist(f.arr_state(there), at)
                        > CONJUGACY_TOL).any():
                    raise ConjugacyError(
                        "h and h_inv are not mutually inverse on the cloud")

    def iterate(self, p, n):
        return self.h(self.f.iterate(self.h_inv(p), n)) if n else p

    def arr_state(self, points):
        points = list(points)
        return (self.f.arr_state(points), [self.h_inv(p) for p in points],
                None, None)

    def arr_step(self, state, inverse=False):
        _, pre, images, walk = state
        n = -1 if inverse else 1
        if walk is None or walk[0] != n:
            new = [self.f.iterate(u, n) for u in pre]
            first = {}
            for l, u in enumerate(pre):
                first.setdefault(u, l)
            walk = n, [first.get(u, -1) for u in new]
            img = [self.h(u) for u in new]
        else:
            link = walk[1]
            new = [pre[l] if l >= 0 else self.f.iterate(u, n)
                   for u, l in zip(pre, link)]
            img = [images[l] if l >= 0 else self.h(u)
                   for u, l in zip(new, link)]
        return self.f.arr_state(img), new, img, walk

    def arr_iterate(self, state, n):
        if not n:
            return state
        return self.arr_state([self.h(self.f.iterate(u, n))
                               for u in state[1]])

    def arr_cdist(self, sa, sb):
        return self.f.arr_cdist(sa[0], sb[0])

    def arr_edist(self, sa, sb):
        return self.f.arr_edist(sa[0], sb[0])

    def sampler(self, resolution=16, seed=None):
        c = self.f.sampler(resolution, seed)
        return PointCloud(tuple(self.h(p) for p in c.points),
                          c.provenance, self.id)


def conjugate_system(f, h, h_inv, check_cloud=None):
    return ConjugateSystem(f, h, h_inv, check_cloud=check_cloud)
