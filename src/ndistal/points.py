"""Point representations for the catalogue systems.

Four coordinate flavors cover every space used here: torus coordinates,
annulus coordinates, bi-infinite symbolic sequences with eventually periodic
tails, and indices into an analytically defined wandering orbit.  Products
use pairs of any of these.  All representations are immutable and reduced to
a canonical form at construction, so structural equality is semantic
equality.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Tuple

import numpy as np


def mod1(t: float) -> float:
    """Reduce to [0, 1).  -0.0 and values within 5e-16 of 1 collapse to 0."""
    t = t - math.floor(t)
    if t >= 1.0 or 1.0 - t < 5e-16:
        return 0.0
    return abs(t)


def arr_mod1(t):
    """`mod1` elementwise on an array, bit for bit."""
    t = t - np.floor(t)
    return np.where((t >= 1.0) | (1.0 - t < 5e-16), 0.0, np.abs(t))


def circ_gap(a: float, b: float) -> float:
    """Representative of a-b mod 1 in [-1/2, 1/2]."""
    d = (a - b) % 1.0
    return d - 1.0 if d > 0.5 else d


@dataclass(frozen=True)
class Torus:
    """Point on the flat 2-torus, coordinates stored in [0, 1)."""

    x: float
    y: float

    def __post_init__(self):
        object.__setattr__(self, "x", mod1(self.x))
        object.__setattr__(self, "y", mod1(self.y))

    def partition_label(self, k):
        """Its cell of the default partition: x's arc of k plus k times
        y's."""
        return int(self.x * k) % k + k * (int(self.y * k) % k)


@dataclass(frozen=True)
class Annulus:
    """Point on the annulus in polar coordinates: angle mod 1, radius in [1, 2]."""

    theta: float
    r: float

    def __post_init__(self):
        object.__setattr__(self, "theta", mod1(self.theta))
        if not (1.0 - 1e-12 <= self.r <= 2.0 + 1e-12):
            raise ValueError(f"annulus radius {self.r} outside [1, 2]")
        object.__setattr__(self, "r", min(2.0, max(1.0, self.r)))

    def partition_label(self, k):
        """Its cell of the default partition: theta's arc of k plus k times
        the rounded radius."""
        return int(self.theta * k) % k + k * int(round(self.r))


@dataclass(frozen=True)
class OrbitIndex:
    """n-th iterate of a named wandering orbit; geometry supplied by the system."""

    n: int
    orbit: int = 0


def _primitive(pat: Tuple[int, ...]) -> Tuple[int, ...]:
    """Shortest absolute-phase pattern generating the same periodic sequence."""
    L = len(pat)
    for p in range(1, L):
        if L % p == 0 and all(pat[i] == pat[i % p] for i in range(L)):
            return pat[:p]
    return pat


@dataclass(frozen=True)
class SymbolicPoint:
    """Bi-infinite sequence over {0, 1}: finite core plus periodic tails.

    s_i = core[i - offset] inside the core, left[i % len(left)] to the left of
    it and right[i % len(right)] to the right.  Tail patterns are anchored to
    absolute indices, which makes the shift map exact: shifting only moves the
    offset and rotates the patterns.  The canonical form trims core symbols
    that agree with the adjacent tail, so equality of sequences is equality of
    fields.
    """

    core: Tuple[int, ...]
    offset: int = 0
    left: Tuple[int, ...] = (0,)
    right: Tuple[int, ...] = (0,)

    def __post_init__(self):
        core = tuple(int(c) for c in self.core)
        left = _primitive(tuple(int(c) for c in self.left))
        right = _primitive(tuple(int(c) for c in self.right))
        off = int(self.offset)
        L, R = len(left), len(right)
        while core and core[0] == left[off % L]:
            core = core[1:]
            off += 1
        while core and core[-1] == right[(off + len(core) - 1) % R]:
            core = core[:-1]
        if not core:
            if left == right:
                off = 0
            else:
                # slide the tail boundary down as far as the patterns agree
                lcm = L * R // math.gcd(L, R)
                for _ in range(lcm):
                    if left[(off - 1) % L] == right[(off - 1) % R]:
                        off -= 1
                    else:
                        break
        object.__setattr__(self, "core", core)
        object.__setattr__(self, "offset", off)
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)

    # -- sequence access -------------------------------------------------
    def get(self, i: int) -> int:
        lo = self.offset
        hi = self.offset + len(self.core)
        if i < lo:
            return self.left[i % len(self.left)]
        if i >= hi:
            return self.right[i % len(self.right)]
        return self.core[i - lo]

    def partition_label(self, k):
        """Its cell of the default partition: the symbol at the origin,
        for any k."""
        return self.get(0)

    def extent(self) -> Tuple[int, int]:
        """Index range [lo, hi) occupied by the core (lo=hi=offset if empty)."""
        return (self.offset, self.offset + len(self.core))

    def shifted(self, n: int) -> "SymbolicPoint":
        """The image under the n-fold shift: s'_i = s_{i+n}."""
        if n == 0:
            return self
        L, R = len(self.left), len(self.right)
        left = tuple(self.left[(j + n) % L] for j in range(L))
        right = tuple(self.right[(j + n) % R] for j in range(R))
        return SymbolicPoint(self.core, self.offset - n, left, right)


def word_point(word, origin: int = 0, fill: int = 0) -> SymbolicPoint:
    """Finite word written at `origin`, constant `fill` on both sides."""
    return SymbolicPoint(tuple(word), origin, (fill,), (fill,))


def periodic_point(word) -> SymbolicPoint:
    """Fully periodic sequence s_i = word[i mod len(word)]."""
    w = tuple(word)
    return SymbolicPoint((), 0, w, w)


def _scan_bound(x: SymbolicPoint, y: SymbolicPoint) -> int:
    ext = [abs(x.offset), abs(x.offset + len(x.core)),
           abs(y.offset), abs(y.offset + len(y.core))]
    L = len(x.left) * len(x.right) * len(y.left) * len(y.right)
    return max(ext) + L + 2


def first_diff_radius(x: SymbolicPoint, y: SymbolicPoint):
    """min{|i| : x_i != y_i}, or None when the sequences are equal."""
    if x == y:
        return None
    B = _scan_bound(x, y)
    for m in range(B + 1):
        if x.get(m) != y.get(m) or x.get(-m) != y.get(-m):
            return m
    return None  # tails agree over a full joint period: equal


def symbolic_distance(x: SymbolicPoint, y: SymbolicPoint) -> float:
    m = first_diff_radius(x, y)
    return 0.0 if m is None else 2.0 ** (-m)


@dataclass(frozen=True)
class Pair:
    """Point of a direct product system."""

    a: object
    b: object


@dataclass(frozen=True)
class PointCloud:
    """Finite indexed sample of a system's space with provenance."""

    points: tuple
    provenance: str
    system_id: str

    def __len__(self):
        return len(self.points)

    def __getitem__(self, i):
        return self.points[i]

    def index_of(self, p) -> int:
        return self.points.index(p)
