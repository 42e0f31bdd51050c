"""The torus family: the rotation, the skew torus and the identity, each
one affine map of the 2-torus stated by `_TorusBase`, with co-moving
extremes by difference class (`_TorusBase.comoving_pairs`).
"""

from __future__ import annotations

import numpy as np

from .base import (_CLASS_BLOCK, _GAP_SLACK, GOLDEN, DynSystem, _close_pairs,
                   _finite, _pair_list)
from .equicont import EquicontinuityWitness, skew_witness
from .errors import InvalidPointError
from .kernels import PairExtremes, _row_blocks
from .points import PointCloud, Torus, arr_mod1


def _torus_dist(dx, dy):
    """The torus metric of coordinate differences: each reduced to
    [-1/2, 1/2] as d - round(d), then sqrt(dx^2 + dy^2).  Works in place
    on dx and dy, so a matrix costs one temporary beside them."""
    for d in (dx, dy):
        d -= np.round(d)
        d *= d
    dx += dy
    return np.sqrt(dx, out=dx)


def _gap_codes(A, B, budget):
    """Codes of the pairs A[i] - B[j] from each coordinate's sorted distinct
    gaps gx, gy, found in the outer difference of its distinct values (None
    when one exceeds `budget`): the number of codes gx_id * len(gy) + gy_id,
    which sort as the complex dx + i dy, a function giving a slice of rows
    its pairs' codes and one giving codes their classes dx + i dy."""
    tables = []
    for a, b in zip(A.T, B.T):
        (ua, ia), (ub, ib) = (np.unique(v, return_inverse=True)
                              for v in (a, b))
        if ua.size * ub.size > budget:
            return None
        gaps, ids = np.unique(np.subtract.outer(ua, ub), return_inverse=True)
        tables.append((gaps, ids.reshape(ua.size, ub.size), ia, ib))
    (gx, tx, ax, bx), (gy, ty, ay, by) = tables
    return (gx.size * gy.size,
            lambda rows: (tx[ax[rows, None], bx] * gy.size
                          + ty[ay[rows, None], by]),
            lambda c: np.column_stack((gx[c // gy.size], gy[c % gy.size]))
            .view(np.complex128).ravel())


def _class_groups(A, B):
    """The pair differences A[i] - B[j] as sorted complex classes, by
    groups: yields each group's classes and its row blocks of at most
    _CLASS_BLOCK pairs as (rows, each pair's class index).  A matrix of
    several blocks whose codes fit _CLASS_BLOCK is one group; otherwise each
    block is one, with gap tables of its own."""
    blocks = _row_blocks(len(A), len(B), _CLASS_BLOCK)
    budget = max(_CLASS_BLOCK, len(B))  # the pairs of one block
    whole = len(blocks) > 1 and _gap_codes(A, B, budget)
    if whole and whole[0] <= _CLASS_BLOCK:
        n, codes, classes = whole
        seen = np.zeros(n, dtype=bool)
        # each block's codes, kept from the marking pass to gather with
        kept = [codes(rows).astype(np.min_scalar_type(n - 1))
                for rows in blocks]
        for c in kept:
            seen[c] = True
        rank = np.cumsum(seen) - 1
        yield (classes(np.flatnonzero(seen)),
               ((rows, rank[c]) for rows, c in zip(blocks, kept)))
        return
    for rows in blocks:
        # never None: a block's distinct values span at most its pairs
        _, codes, classes = _gap_codes(A[rows], B, budget)
        c = codes(slice(None))
        local, inv = np.unique(c, return_inverse=True)
        yield classes(local), [(rows, inv.reshape(c.shape))]


def _folds(r, H):
    """u[k, m - 1] = ||m r_k||, the distance from m r_k to the nearest
    integer, for m = 1..H: the progression {m r_k mod 1 : |m| <= H} folded
    onto [0, 1/2], the same for -r_k."""
    u = np.multiply.outer(r, np.arange(1.0, H + 1.0))
    u -= np.round(u)
    return np.abs(u, out=u)


def _scan_gaps(r, y, horizons):
    """{h: min over |m| <= h of ||y_i + m r_i||} for classes with y_i in
    [0, 1/2], each from its own progression, with no sort.

    With u = ||m r|| the terms of m and -m are ||y - u|| = |y - u|, as
    y and u lie in [0, 1/2], and ||y + u|| = min(y + u, 1 - (y + u)),
    where y + u >= |y - u|.  So the minimum over the window is
    min(min |y - u|, 1 - (y + max u)), with u = 0 for m = 0: in floating
    point too it equals the minimum of |d - round(d)| over d = y + t for
    every t = m r - round(m r), bit for bit.  The widest window is folded
    once and the inner ones are its prefixes.
    """
    H = max(horizons)
    out = {h: np.empty(len(r)) for h in horizons}
    for rows in _row_blocks(len(r), H, _CLASS_BLOCK):
        u, yb = _folds(r[rows], H), y[rows]
        d = np.abs(yb[:, None] - u)
        near, far, done = yb, np.zeros(len(yb)), 0
        for h in sorted(horizons):
            if h > done:
                near = np.minimum(near, d[:, done:h].min(axis=1))
                far = np.maximum(far, u[:, done:h].max(axis=1))
                done = h
            out[h][rows] = np.minimum(near, 1.0 - (yb + far))
    return out


def _lookup_gaps(r, y, run, horizons):
    """`_scan_gaps` for classes that share a rise: the distinct rise r_k,
    held by the classes run[k]:run[k + 1], sorts its folded progression
    (0 and ||m r_k|| for 1 <= m <= h) once per horizon, and each class
    bisects it once for its y.  |y - u| falls up to y and rises after it,
    so its minimum lies at u[i - 1] or u[i], i the insertion point of y,
    and the largest u is the table's last: the scan's result, bit for bit.
    """
    H = max(horizons)
    out = {h: np.empty(len(y)) for h in horizons}
    for rises in _row_blocks(len(r), H + 1, _CLASS_BLOCK):
        u = _folds(r[rises], H)
        ends = run[rises.start:rises.stop + 1]
        cls = slice(ends[0], ends[-1])
        k = np.repeat(np.arange(len(u)), np.diff(ends))
        yk = y[cls]
        # one complex table of every row sorts by row, then value, so one
        # bisection finds each class's place in its own row
        query = np.empty(len(yk), dtype=complex)
        query.real, query.imag = k, yk
        for h in horizons:
            table = np.sort(np.concatenate(
                (np.zeros((len(u), 1)), u[:, :h]), axis=1), axis=1)
            keyed = np.empty(table.shape, dtype=complex)
            keyed.real = np.arange(len(u))[:, None]
            keyed.imag = table
            at = k * (h + 1)
            i = np.searchsorted(keyed.ravel(), query) - at
            table = table.ravel()
            near = np.minimum(
                np.abs(yk - table[at + np.maximum(i - 1, 0)]),
                np.abs(yk - table[at + np.minimum(i, h)]))
            out[h][cls] = np.minimum(near, 1.0 - (yk + table[at + h]))
    return out


def _progression_gaps(rise, y0, horizons, use_max):
    """{h: the min (max when use_max) over |m| <= h of ||y0 + m rise||},
    the y-gaps of classes whose gap at the window's centre is y0.

    The min is the circular distance from -y0 to the progression
    {m rise mod 1 : |m| <= h}, and the max 1/2 minus that from
    -y0 - 1/2.  The progression is the same set for -rise, and the
    distance the same from y0, so a class's extreme depends only on |rise|
    and |y0| (on 1/2 - |y0| for the max): a class and its negative get
    the same bits.  Classes are deduplicated on that pair.  A rise that
    several of them hold is sorted and bisected (`_lookup_gaps`), a rise
    held by one is scanned (`_scan_gaps`); both read the same folded
    values, so a class's extreme does not depend on the other classes of
    the call.
    """
    keys = np.empty(len(y0), dtype=complex)
    keys.real = np.abs(rise)
    keys.imag = np.abs(y0)
    if use_max:
        keys.imag = 0.5 - keys.imag
    keys, inv = np.unique(keys, return_inverse=True)
    r, y = keys.real, keys.imag
    # each distinct rise's run of keys, in order
    run = np.r_[np.flatnonzero(np.r_[True, r[1:] != r[:-1]]), len(r)]
    size = np.diff(run)
    held = size > 1
    many = np.repeat(held, size)
    gaps = {h: np.empty(len(keys)) for h in horizons}
    for at, part in (
            (~many, _scan_gaps(r[~many], y[~many], horizons)),
            (many, _lookup_gaps(r[run[:-1][held]], y[many],
                                np.r_[0, np.cumsum(size[held])], horizons))):
        for h, g in part.items():
            gaps[h][at] = g
    return {h: (0.5 - g if use_max else g)[inv] for h, g in gaps.items()}


# ---------------------------------------------------------------------------
# torus-based systems
# ---------------------------------------------------------------------------

class _TorusBase(DynSystem):
    """The map (x, y) -> (x + alpha, y + shear * x) on the 2-torus, stated
    once from (alpha, shear) as ``iterate`` and ``arr_step``; subclasses
    set the two numbers.  The metric is stated once too, as the array
    metric `_torus_dist`, from which ``dist`` derives.

    F^n p - F^n q = (dx, dy + n * shear * dx) mod 1 with (dx, dy) = p - q:
    the maps are affine and their differences evolve on their own.
    """

    alpha = 0.0
    shear = 0

    def iterate(self, p, n):
        # F^n(x, y) = (x + n alpha, y + shear (n x + alpha n(n-1)/2)), mod 1;
        # n(n-1)/2 is an exact integer for n < 0 as well
        if not n:
            return p
        s = self.shear
        return Torus(p.x + n * self.alpha,
                     p.y + s * n * p.x + self.alpha * (s * (n * (n - 1) // 2)))

    def arr_state(self, points):
        if not set(map(type, points)) <= {Torus}:
            raise InvalidPointError(f"{self.id}: expected torus points")
        return np.array([[p.x, p.y] for p in points],
                        dtype=float).reshape(-1, 2)

    def arr_iterate(self, state, n):
        """``iterate`` on every row, in the same operations and with
        `mod1`'s reduction, so a row is bit for bit the iterated point's."""
        s = self.shear
        x, y = state[:, 0], state[:, 1]
        return np.column_stack((
            arr_mod1(x + n * self.alpha),
            arr_mod1(y + s * n * x + self.alpha * (s * (n * (n - 1) // 2)))))

    def arr_step(self, state, inverse=False):
        s = state.copy()
        if inverse:
            s[:, 0] = np.mod(s[:, 0] - self.alpha, 1.0)
            s[:, 1] = np.mod(s[:, 1] - self.shear * s[:, 0], 1.0)
        else:
            s[:, 1] = np.mod(s[:, 1] + self.shear * s[:, 0], 1.0)
            s[:, 0] = np.mod(s[:, 0] + self.alpha, 1.0)
        return s

    def arr_cdist(self, sa, sb):
        return _torus_dist(sa[:, None, 0] - sb[None, :, 0],
                           sa[:, None, 1] - sb[None, :, 1])

    def arr_edist(self, sa, sb):
        return _torus_dist(sa[:, 0] - sb[:, 0], sa[:, 1] - sb[:, 1])

    def comoving_pairs(self, A, B, horizons, use_max, centre, below):
        """Closed form by difference class.

        d(F^n p, F^n q) depends on the pair only through its raw difference
        (dx, dy), so each distinct difference is swept once
        (`_sweep_classes`).  A full list goes by the groups of
        `_class_groups` and gathers each group's extremes back into its
        row blocks; under `below` the pairs that `_near_pairs` keeps are
        swept as a list of their distinct differences, each class's
        extremes independent of the other classes of the call, so the
        two agree bit for bit (a full list when it keeps too many).  The
        differences are not reduced before deduplication, so (i, j) and
        (j, i) are exact negatives and a cloud against itself is exactly
        symmetric.

        An isometry (shear 0: the rotation, the identity) keeps every
        pair's distance, so each horizon gets the time-0 distances, at any
        centre: the same raw differences through the same `_torus_dist`,
        bit for bit what the classes would give.
        """
        other = A if B is None else B
        near = None if below is None else self._near_pairs(A, other, below)
        if near is None:
            if not self.shear:
                D, H = self.arr_cdist(A, other), max(horizons)
                out = {h: D if h == H else D.copy() for h in horizons}
                return PairExtremes.of_matrices(out)
            out = {h: np.empty((len(A), len(other))) for h in horizons}
            for classes, blocks in _class_groups(A, other):
                ext = self._sweep_classes(classes, horizons, use_max, centre)
                for rows, at in blocks:
                    for h in horizons:
                        out[h][rows] = ext[h][at]
            return PairExtremes.of_matrices(out)

        def extremes(i, j):
            if not self.shear:
                d = self.arr_edist(A[i], other[j])
                return {h: d for h in horizons}
            diff = (A[i] - other[j]).view(np.complex128).ravel()
            classes, inv = np.unique(diff, return_inverse=True)
            ext = self._sweep_classes(classes, horizons, use_max, centre)
            return {h: e[inv] for h, e in ext.items()}

        return _pair_list(near, (len(A), len(other)), B is None, extremes)

    def _sweep_classes(self, classes, horizons, use_max, centre):
        """{h: extremes over |n - centre| <= h} for each difference class
        dx + i dy.  The x-gap stays fixed; at time centre + m the y-gap is
        y0 + m rise reduced to [-1/2, 1/2], with rise = shear * dx and
        y0 = dy + centre * rise.  Its extreme |y| over |m| <= h is read
        off the progression {m rise mod 1 : |m| <= h} with no step loop
        (`_progression_gaps`): one sorted table per distinct rise, shared
        by its classes, one bisection per class, and a direct scan for a
        rise no other class holds.  The distance `_torus_dist(dx, |y|)`
        is taken once per horizon: it is monotone in |y| in floating
        point too, so the extremes are those of the distance.  The result
        is within about 1e-14 of stepping the y-gap one time step at a
        time, not bit-identical to it.  The isometries (shear 0) never
        come here: their extremes are the time-0 distances.
        """
        rise = self.shear * classes.real
        y0 = classes.imag + centre * rise
        y0 -= np.round(y0)
        cps = _progression_gaps(rise, y0, horizons, use_max)
        return {h: _torus_dist(classes.real.copy(), Y) for h, Y in cps.items()}

    def _near_pairs(self, A, B, below):
        """The flat positions of the pairs whose extremes may lie under
        `below`, or None to sweep them all.  The x-gap never changes, so a
        pair is at least ||dx|| apart at every time, and a pair with no
        rise (shear dx = 0) keeps its time-0 distance: a pair is dropped
        only where one of these bounds is at least 2 below, which leaves
        room for every rounding of the bound and of the distance.  Either
        bound holds at every time, so it bounds the maximum too."""
        gap = 2.0 * below + _GAP_SLACK
        near = None if gap >= 0.25 else _close_pairs(A[:, 0], B[:, 0], gap)
        if near is None:
            return None
        i, j = np.divmod(near, len(B))
        dx = A[i, 0] - B[j, 0]
        keep = self.shear * dx != 0.0
        keep |= _torus_dist(dx, A[i, 1] - B[j, 1]) < 2.0 * below
        return near[keep]


class Rotation(_TorusBase):
    """Rigid circle rotation; lives on the y=0 circle of the torus."""

    cloud_size = 256

    def __init__(self, alpha=GOLDEN):
        self.alpha = _finite("alpha", alpha)
        self.id = f"rotation(alpha={self.alpha!r})"

    def sampler(self, resolution=256, seed=None):
        if seed is None:
            pts = tuple(Torus(j / resolution, 0.0) for j in range(resolution))
            return PointCloud(pts, "grid", self.id)
        rng = np.random.default_rng(seed)
        pts = tuple(Torus(float(t), 0.0) for t in rng.random(resolution))
        return PointCloud(pts, f"random({seed})", self.id)


class SkewTorus(_TorusBase):
    """Skew product (x, y) -> (x + alpha mod 1, y + x mod 1)."""

    shear = 1

    def __init__(self, alpha=GOLDEN):
        self.alpha = _finite("alpha", alpha)
        self.id = f"skew_torus(alpha={self.alpha!r})"

    def sampler(self, resolution=32, seed=None):
        if seed is None:
            pts = tuple(Torus(i / resolution, j / resolution)
                        for i in range(resolution) for j in range(resolution))
            return PointCloud(pts, "grid", self.id)
        rng = np.random.default_rng(seed)
        xy = rng.random((resolution * resolution, 2))
        pts = tuple(Torus(float(a), float(b)) for a, b in xy)
        return PointCloud(pts, f"random({seed})", self.id)

    def equicontinuity_witness(self, base, N, epsilon, delta):
        """The shear construction: N+1 points spread in the first
        coordinate inside B_delta(base), pushed forward until the pair
        (base, base + delta/M e_1) separates by at least 1/4."""
        d = delta * (1.0 - 1e-9)
        pts = [base] + [Torus(base.x + d / k, base.y)
                        for k in range(1, N + 1)]
        M, n = skew_witness(N, d)
        D = self.arr_pdist(self.arr_state([self.iterate(p, n) for p in pts]))
        mp = float(D[np.triu_indices(len(pts), 1)].min())
        return EquicontinuityWitness(base=base, n=n, points=tuple(pts),
                                     min_pairwise=mp,
                                     certified=mp >= epsilon,
                                     M=M, pair_separation=float(D[0, M]))


class IdentityTorus(_TorusBase):
    """The identity: alpha and shear 0."""

    id = "identity"

    def sampler(self, resolution=16, seed=None):
        c = SkewTorus().sampler(resolution, seed)
        return PointCloud(c.points, c.provenance, self.id)
