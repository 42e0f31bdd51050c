"""The annulus family: boundary circles and wandering orbits between them
(`annulus3`, `annulusN`, `annulus2`), one `AnnulusSystem` each.  Its
hooks are closed forms, each described at its method.
"""

from __future__ import annotations

import math

import numpy as np

from .base import (_CLASS_BLOCK, _GAP_SLACK, GOLDEN, DynSystem, _close_pairs,
                   _finite, _pair_list)
from .errors import InvalidPointError, ParameterError
from .kernels import PairExtremes, _row_blocks
from .points import Annulus, OrbitIndex, PointCloud, arr_mod1


# ---------------------------------------------------------------------------
# rotating circles: exact angles, the nearest-angle lookup, chords
# ---------------------------------------------------------------------------

def _turns(n, k):
    """n * k mod 1 in [0, 1) for integers n, to about an ulp: k splits into
    a 26-bit head, whose multiples are exact for |n| < 2^27, and a tail.
    One product n * k would lose |n| ulps."""
    m, e = math.frexp(k)
    head = math.ldexp(round(math.ldexp(m, 26)), e - 26)
    n = np.asarray(n, dtype=float)
    t = n * head
    t -= np.floor(t)
    t += n * (k - head)
    t -= np.floor(t)
    return np.where(t < 1.0, t, 0.0)


def _angle_table(lo, hi, k):
    """The angles n * k mod 1 for lo <= n <= hi, sorted, between the
    wrapped neighbours of both ends."""
    s = np.sort(_turns(np.arange(lo, hi + 1), k))
    return np.concatenate(([s[-1] - 1.0], s, [s[0] + 1.0]))


def _nearest_gap(table, q):
    """Circular distance from each angle q in [0, 1] to the nearest angle
    of an `_angle_table`, from its two neighbours table[i - 1] < q <=
    table[i]: the table starts below 0 and ends at 1 or above.

    The index i is read off a bucket index over [0, 1] with 2^b >=
    2 len(table) buckets: bucket j holds the angles t with
    floor(t 2^b) = j, and its entry is the number of angles below it, one
    `bincount` and one `cumsum`.  Scaling by a power of two is exact, so
    every angle below q's bucket is below q and every angle above it is
    above q, and i lies in q's bucket or just after it.  Each query moves
    forward from its bucket's entry at most two steps while table[i] < q.
    By the three-distance theorem (Sos 1958) the gaps of n k mod 1 take
    at most three lengths; for a badly approximable k, as the golden mean
    is, the shortest is a fixed fraction of the mean gap, and a bucket
    half the mean gap wide holds one angle or two.  A query still short
    of its place after two steps, in a crowded bucket (k rational or close
    to an integer, or angles repeated), is placed by bisection.  Either way
    i is the index `np.searchsorted` gives, so every gap is its gap bit
    for bit."""
    scale = float(1 << (2 * len(table) - 1).bit_length())
    first = np.clip(np.floor(table * scale), -1.0, scale).astype(np.intp)
    entry = np.cumsum(np.bincount(first + 1, minlength=int(scale) + 2))
    i = entry[(q * scale).astype(np.intp)]
    for _ in range(2):
        i += table[i] < q
    hi = table[i]
    short = hi < q
    if short.any():
        i[short] = np.searchsorted(table, q[short])
        hi = table[i]
    lo = table[i - 1]
    # |q - lo| and |hi - q|, in place
    np.abs(np.subtract(q, lo, out=lo), out=lo)
    np.abs(np.subtract(hi, q, out=hi), out=hi)
    return np.minimum(lo, hi, out=lo)


def _sin2(d):
    """sin^2(pi d), reduced to |d| <= 1/2 first so that small gaps keep
    their relative precision and whole turns give exactly 0."""
    g = np.round(d)
    np.subtract(d, g, out=g)
    np.abs(g, out=g)
    g *= np.pi
    np.sin(g, out=g)
    return np.square(g, out=g)


def _chord(r1, r2, s2):
    """Distance between points at radii r1 and r2 whose angles differ by g
    turns, s2 = sin^2(pi g); unlike the cos form it keeps small distances
    to full relative precision, and it is exactly symmetric.  Computed in
    place, so a call holds one temporary beside its result."""
    out = 4.0 * r1 * r2
    out *= s2
    sq = r1 - r2
    out += np.square(sq, out=sq)
    return np.sqrt(out, out=out)


def _pair_runs(lo_a, hi_a, lo_b, hi_b, d):
    """The runs of indices u where the distance of an orbit pair moves:
    a's block [lo_a - d - 1, hi_a - d + 1] and b's block
    [lo_b - 1, hi_b + 1], as a lower run [x0, x1] and an upper run
    [y0, y1].  Blocks that overlap or touch make one run, and the upper run
    is then empty (y0 = x1 + 1, y1 = x1)."""
    a0, a1, b0, b1 = lo_a - d - 1, hi_a - d + 1, lo_b - 1, hi_b + 1
    x0, y1 = np.minimum(a0, b0), np.maximum(a1, b1)
    low_end, high_start = np.minimum(a1, b1), np.maximum(a0, b0)
    apart = high_start > low_end + 1
    return (x0, np.where(apart, low_end, y1),
            np.where(apart, high_start, y1 + 1), y1)


def _run_span(w0, w1, x0, x1, y0, y1):
    """The samples of the runs (`_pair_runs`) that a window of indices
    [w0, w1] reads, as positions (k0, k1) in the runs' samples in order:
    from the first sample at or after w0 to the last at or before w1.  A
    window that holds no sample lies where the distance is constant, and
    reads the sample just after it, or the last one."""
    n1 = x1 - x0 + 1
    k0 = np.minimum(np.where(w0 <= x1, np.maximum(w0, x0) - x0,
                             n1 + np.maximum(w0, y0) - y0), n1 + y1 - y0)
    k1 = np.where(w1 < y0, np.minimum(w1, x1) - x0,
                  n1 + np.minimum(w1, y1) - y0)
    return k0, np.maximum(k1, k0)


def _size_blocks(sizes, budget):
    """Slices of consecutive items whose sizes sum to at most `budget`
    (at least one item each)."""
    total, blocks, at = np.cumsum(sizes), [], 0
    while at < len(total):
        base = total[at - 1] if at else 0
        stop = max(at + 1, int(np.searchsorted(total, base + budget, "right")))
        blocks.append(slice(at, stop))
        at = stop
    return blocks


def _sparse_table(v, red, levels):
    """T[j, i] = red over v[i:i + 2^j] for j < levels; entries whose run
    passes the end of v hold a shorter run's value."""
    T = np.empty((levels, len(v)))
    T[0] = v
    for j in range(1, levels):
        s = 1 << (j - 1)
        T[j] = T[j - 1]
        red(T[j - 1, :-s], T[j - 1, s:], out=T[j, :-s])
    return T


def _range_extreme(T, a, b, red):
    """red over v[a_i..b_i] for each i, from a `_sparse_table` of v: the
    extreme of the two runs of 2^j values that start at a_i and end at b_i,
    2^j <= b_i - a_i + 1 < 2^(j + 1).  Min and max are exact, so the runs'
    overlap does not matter."""
    j = np.frexp(b - a + 1)[1] - 1
    return red(T[j, a], T[j, b + 1 - (1 << j)])


# ---------------------------------------------------------------------------
# annulus systems
# ---------------------------------------------------------------------------

SQ = "sq"    # radius gap squares each step:  r_n = 1 + b**(2**n)
ABS = "abs"  # gap halves away from n=0:      r_n = 1 + 2**(-|n|)
REACH = 1081  # every radius form is constant beyond |n| = REACH
# the sorted radii next to a chord's vertex that the orbit-circle extremes
# read, as offsets from the vertex's insertion point: two on each side,
# where one on each side already gave the extremes of every time in every
# fuzzed case
_NEAR_VERTEX = (-2, -1, 0, 1)
# the longest run of indices whose nearest angles `_tail_gaps` reads index
# by index; a longer run is sorted into one table, which costs less per
# target
_TAIL_RUN = 16


def _radius_form(kind, base, n):
    """The radii of an orbit of kind SQ or ABS at the float indices n."""
    with np.errstate(over="ignore", under="ignore"):
        if kind == SQ:
            return 1.0 + np.power(base, np.exp2(n))
        return 1.0 + np.exp2(-np.abs(n))


class AnnulusSystem(DynSystem):
    """Boundary circles plus analytically defined wandering orbits.

    The angle advances by the irrational k every step on every component.
    Wandering orbits are stored as ``OrbitIndex`` points; their radii follow
    the closed forms above rather than floating iteration of (r-1)^2 + 1,
    which underflows after ~10 steps.  Each orbit's form is evaluated once,
    into one row of a radius table over |n| <= REACH, and every radius is
    read off that table.  The hooks measure in chord form, from the two
    radii and the angle gap, where ``arr_cdist`` measures in the plane,
    so they agree with it to about 1e-12, not bit for bit.
    """

    cloud_size = 256

    def __init__(self, sys_id, k, circles, orbits):
        self.id = sys_id
        self.k = _finite("k", k)
        self.circles = tuple(circles)
        self.orbits = dict(orbits)  # label -> (kind, base)
        self._rows = {lab: i for i, lab in enumerate(self.orbits)}
        n = np.arange(-REACH, REACH + 1.0)
        self._table = np.array([_radius_form(kind, base, n) for kind, base
                                in self.orbits.values()]).reshape(-1, n.size)
        # per row (lo, hi, r_lo, r_hi): the radius is r_lo at every index
        # below lo and r_hi at every index above hi; the row's peak, the
        # first index of its largest radius; its distinct radii, sorted,
        # those up to the peak first, and each index's position among them
        self._limits, self._peaks, self._runs = [], [], []
        # the least radius any point takes, which bounds every chord
        self._r0 = float(np.min(np.r_[self.circles, self._table.ravel()]))
        self._rank = np.empty(self._table.shape, dtype=np.int32)
        for row, r in enumerate(self._table):
            below, above = np.nonzero(r != r[0])[0], np.nonzero(r != r[-1])[0]
            self._limits.append(
                (int(below[0]) - REACH if below.size else 0,
                 int(above[-1]) - REACH if above.size else -1,
                 float(r[0]), float(r[-1])))
            p = int(np.argmax(r))
            if (np.diff(r[:p + 1]) < 0).any() or (np.diff(r[p:]) > 0).any():
                raise ParameterError(f"{sys_id}: an orbit's radii must rise "
                                     "to one peak and fall after it")
            rise, fall = np.unique(r[:p + 1]), np.unique(r[p + 1:])
            self._peaks.append(p - REACH)
            self._runs.append((np.concatenate((rise, fall)), rise.size))
            self._rank[row, :p + 1] = np.searchsorted(rise, r[:p + 1])
            self._rank[row, p + 1:] = rise.size + np.searchsorted(fall,
                                                                  r[p + 1:])

    # -- geometry ----------------------------------------------------------
    def _radius(self, row, n):
        """Radii of table row `row` at indices n, clamped to the table."""
        n = np.clip(np.asarray(n, dtype=float), -REACH, REACH)
        return self._table[row, n.astype(int) + REACH]

    def orbit_radius(self, label, n):
        return float(self._radius(self._rows[label], n))

    def embed(self, p):
        return tuple(float(c) for c in self._plane(self.arr_state([p]))[0])

    # -- dynamics ------------------------------------------------------------
    def iterate(self, p, n):
        if n == 0:
            return p
        if isinstance(p, OrbitIndex):
            return OrbitIndex(p.n + n, p.orbit)
        return Annulus(p.theta + n * self.k, p.r)

    # -- sampling --------------------------------------------------------
    def sampler(self, resolution=256, seed=None, orbit_span=40):
        if seed is None:
            pts = [Annulus(j / resolution, c)
                   for c in self.circles for j in range(resolution)]
            pts += [OrbitIndex(n, lab)
                    for lab in sorted(self.orbits)
                    for n in range(-orbit_span, orbit_span + 1)]
            return PointCloud(tuple(pts), "grid", self.id)
        rng = np.random.default_rng(seed)
        pts = [Annulus(float(t), c)
               for c in self.circles for t in rng.random(resolution)]
        pts += [OrbitIndex(int(n), lab)
                for lab in sorted(self.orbits)
                for n in rng.integers(-orbit_span, orbit_span + 1,
                                      size=min(resolution, 2 * orbit_span + 1))]
        return PointCloud(tuple(dict.fromkeys(pts)), f"random({seed})", self.id)

    def aligned_cloud(self, n_lo, n_hi):
        """Orbit points n in [n_lo, n_hi] plus circle points at the matching
        angles n*k (one step further, to n_hi + 1), closed under one step
        except at the top boundary.  Used by the quotient construction."""
        pts = [OrbitIndex(n, lab) for lab in sorted(self.orbits)
               for n in range(n_lo, n_hi + 1)]
        pts += [Annulus(float(_turns(n, self.k)), c) for c in self.circles
                for n in range(n_lo, n_hi + 2)]
        return PointCloud(tuple(pts), "grid", self.id)

    def circles_cloud(self, resolution=256):
        """Only the nonwandering boundary circles (grid angles)."""
        pts = tuple(Annulus(j / resolution, c)
                    for c in self.circles for j in range(resolution))
        return PointCloud(pts, "grid", self.id)

    # -- array interface ----------------------------------------------------
    def arr_state(self, points):
        """theta; the table row of an orbit point (-1 for a circle point);
        a circle point's radius r; an orbit point's index."""
        m = len(points)
        theta, r, idx = np.empty(m), np.zeros(m), np.zeros(m)
        row = np.full(m, -1)
        for i, p in enumerate(points):
            if isinstance(p, Annulus):
                theta[i], r[i] = p.theta, p.r
            elif isinstance(p, OrbitIndex) and p.orbit in self._rows:
                row[i], idx[i] = self._rows[p.orbit], p.n
            else:
                raise InvalidPointError(f"{self.id}: invalid point {p!r}")
        orbit = row >= 0
        # a circle point off the circles, or an orbit point between two
        # indices, is in no orbit of the system
        bad = np.where(orbit, ~np.isfinite(idx) | (idx != np.floor(idx)),
                       ~np.isin(r, self.circles))
        if bad.any():
            raise InvalidPointError(
                f"{self.id}: invalid point {points[int(np.argmax(bad))]!r}")
        theta[orbit] = _turns(idx[orbit], self.k)
        return {"theta": theta, "row": row, "r": r, "idx": idx}

    def arr_iterate(self, state, n):
        """An index and angle shift: an orbit point's index moves by n and
        its angle is read off `_turns`, a circle point's angle moves by
        n k and is reduced as `Annulus` reduces it, so the state is bit for
        bit that of the iterated points."""
        orbit = state["row"] >= 0
        idx = state["idx"] + n * orbit
        theta = arr_mod1(state["theta"] + n * self.k)
        theta[orbit] = _turns(idx[orbit], self.k)
        return {**state, "theta": theta, "idx": idx}

    def arr_step(self, state, inverse=False):
        d = -1 if inverse else 1
        return {**state, "theta": np.mod(state["theta"] + d * self.k, 1.0),
                "idx": state["idx"] + d * (state["row"] >= 0)}

    def _radii(self, state):
        r = state["r"].copy()
        orbit = state["row"] >= 0
        r[orbit] = self._radius(state["row"][orbit], state["idx"][orbit])
        return r

    def _plane(self, state):
        """The states as points of the plane, where dist is Euclidean."""
        r = self._radii(state)
        a = 2.0 * np.pi * state["theta"]
        return np.stack([r * np.cos(a), r * np.sin(a)], axis=1)

    def arr_cdist(self, sa, sb):
        """In row blocks of at most _CLASS_BLOCK distances, whose
        temporaries stay in cache."""
        pa, pb = self._plane(sa), self._plane(sb)
        xb, yb = pb[:, 0].copy(), pb[:, 1].copy()
        D = np.empty((len(pa), len(pb)))
        for rows in _row_blocks(len(pa), len(pb), _CLASS_BLOCK):
            _euclid(np.subtract(pa[rows, None, 0], xb, out=D[rows]),
                    pa[rows, None, 1] - yb)
        return D

    def arr_edist(self, sa, sb):
        pa, pb = self._plane(sa), self._plane(sb)
        return _euclid(pa[:, 0] - pb[:, 0], pa[:, 1] - pb[:, 1])

    # -- closed forms ------------------------------------------------------
    def visit_minima(self, P, T, H):
        """Closed form, no iteration.

        A circle point keeps its radius, so its nearest visit to t has the
        smallest circular gap between theta_t - theta_p and the sorted
        angles {n k mod 1 : |n| <= H}.  An orbit point at index m reads
        the indices of its window off one table per orbit, the distance
        from each window index lo..hi to each target, built once: its
        visits inside the window are the minimum over the rows
        max(lo, m - H)..min(hi, m + H), taken once per distinct range.
        Below and above the window its radius is constant, and each of
        those two tails is a nearest-angle lookup over its index range
        (`_tail_gaps`): the tails of one orbit and side that end at the
        window's edge nest, and share the lookups of the runs between their
        far ends.  Each orbit and side turns its tails' gaps into chords
        one call per block of points.  Orbit angles come from `_turns` on
        both sides, so a visit to a point of the same orbit within reach is
        exactly 0, where the engine's stepped angles drift by an ulp a step.
        """
        rt, tt = self._radii(T), T["theta"]
        V = np.empty((len(P["row"]), len(tt)))
        # points per block of at most _CLASS_BLOCK visits, so that a block's
        # temporaries stay in cache
        per = max(1, _CLASS_BLOCK // max(1, len(tt)))
        circ = P["row"] < 0
        table = _angle_table(-H, H, self.k)
        on_circles = np.flatnonzero(circ)
        for at in range(0, len(on_circles), per):
            blk = on_circles[at:at + per]
            g = _nearest_gap(table, np.mod(tt - P["theta"][blk, None], 1.0))
            V[blk] = _chord(P["r"][blk, None], rt, _sin2(g))
        for row in np.unique(P["row"][~circ]):
            sel = np.flatnonzero(P["row"] == row)
            m = P["idx"][sel].astype(np.int64)
            lo, hi, r_lo, r_hi = self._limits[row]
            n = np.arange(lo, hi + 1)
            window = _chord(self._radius(row, n)[:, None], rt,
                            _sin2(tt - _turns(n, self.k)[:, None]))
            # the window rows w0..w1 each point reads, one minimum per range
            w0, w1 = np.maximum(lo, m - H) - lo, np.minimum(hi, m + H) - lo
            V[sel] = np.inf
            for a, b in set(zip(w0.tolist(), w1.tolist())):
                if a <= b:
                    V[sel[(w0 == a) & (w1 == b)]] = window[a:b + 1].min(0)
            for a, b, edge, step, r in (
                    (m - H, np.minimum(lo - 1, m + H), lo - 1, -1, r_lo),
                    (np.maximum(hi + 1, m - H), m + H, hi + 1, 1, r_hi)):
                ids, run, G = self._tail_gaps(a, b, edge, step, tt)
                for at in range(0, len(ids), per):
                    j, rows = run[at:at + per], sel[ids[at:at + per]]
                    C = _chord(np.full((len(j), 1), r), rt, _sin2(G[j]))
                    V[rows] = np.minimum(V[rows], C, out=C)
        return V

    def _tail_gaps(self, a, b, edge, step, tt):
        """(ids, run, G) over the index ranges a_i <= n <= b_i that are not
        empty, i in ids: row run[j] of G is the circular gap from each
        target angle tt to the nearest angle n k mod 1 of range ids[j], as
        `_nearest_gap` reads it off the range's `_angle_table`, bit for
        bit.

        A range with one end at `edge` runs from there in the direction
        `step` (-1 or 1), and such ranges nest: their distinct far ends cut
        the longest into runs, the first from `edge`, and each is the union
        of the runs up to its far end.  A run of more than _TAIL_RUN
        indices is one table lookup; a shorter one takes the least of its
        indices' gaps min(|q - a|, |q - (a - 1)|, |q - (a + 1)|), the
        lookup's own expressions for an angle a and its wrapped copies in
        the table, with no sort.  Float subtraction is monotone, so a
        lookup gives the least of those gaps over its table, and the least
        over a union of runs is the least of their leasts: a running
        minimum over the runs gives every nested range.  A range whose far
        end is not at `edge` reads a table of its own.
        """
        full = a <= b
        nested = full & ((a == edge) | (b == edge))
        ids, own = np.flatnonzero(nested), np.flatnonzero(full & ~nested)
        # the far ends' distances from edge; run j holds the distances
        # first[j]..ends[j]
        ends, run = np.unique(np.abs(a[ids] + b[ids] - 2 * edge),
                              return_inverse=True)
        first = np.r_[0, ends[:-1] + 1]
        size = ends - first + 1
        G = np.empty((len(ends) + len(own), len(tt)))
        for j in np.flatnonzero(size > _TAIL_RUN):
            G[j] = _nearest_gap(_angle_table(
                *sorted((edge + step * first[j], edge + step * ends[j])),
                self.k), tt)
        short = np.flatnonzero(size <= _TAIL_RUN)
        for blk in _size_blocks(size[short],
                                max(1, _CLASS_BLOCK // max(1, len(tt)))):
            j, at = short[blk], np.r_[0, np.cumsum(size[short[blk]])]
            n = edge + step * (np.arange(at[-1]) + np.repeat(
                first[j] - at[:-1], size[j]))
            t = _turns(n, self.k)[:, None]
            g = np.abs(tt - t)
            np.minimum(g, np.abs(tt - (t - 1.0)), out=g)
            np.minimum(g, np.abs(tt - (t + 1.0)), out=g)
            G[j] = np.minimum.reduceat(g, at[:-1], axis=0)
        np.minimum.accumulate(G[:len(ends)], axis=0, out=G[:len(ends)])
        for j, i in enumerate(own, len(ends)):
            G[j] = _nearest_gap(_angle_table(a[i], b[i], self.k), tt)
        return (np.r_[ids, own], np.r_[run, np.arange(len(ends), len(G))],
                G)

    def return_distances(self, S, H):
        """Closed form, no iteration.

        Every angle advances by k, so at time n a circle point's angle gap
        to itself is n k mod 1 and an orbit point's, at index m, is
        (m + n) k mod 1 - theta; its radius is the orbit's radius at index
        m + n, a circle's never moves.  So a row depends only on the key
        (row, m) of an orbit point, whose theta is its index's `_turns`,
        and on the radius of a circle point: one row is computed per
        distinct key, in blocks of at most _CLASS_BLOCK distances, and
        gathered back.  D stays float32, as the return masks compare it
        with each delta in float32.
        """
        keys = np.empty(len(S["row"]), dtype=complex)
        keys.real = S["row"]
        keys.imag = np.where(S["row"] >= 0, S["idx"], S["r"])
        _, first, inv = np.unique(keys, return_index=True,
                                  return_inverse=True)
        S = _take(S, first)
        n = np.arange(-H, H + 1)
        r0 = self._radii(S)
        # a circle point's turns at time n are those of index 0 + n
        theta = np.where(S["row"] >= 0, S["theta"], 0.0)
        D = np.empty((len(r0), n.size), dtype=np.float32)
        for rows in _row_blocks(len(r0), n.size, _CLASS_BLOCK):
            blk = {key: np.repeat(S[key][rows], n.size)
                   for key in ("r", "row")}
            blk["idx"] = (S["idx"][rows, None] + n).ravel()
            r = self._radii(blk).reshape(-1, n.size)
            gap = _turns(blk["idx"], self.k).reshape(-1, n.size)
            gap -= theta[rows, None]
            D[rows] = _chord(r, r0[rows, None], _sin2(gap))
        return D[inv]

    def comoving_pairs(self, sa, sb, horizons, use_max, centre, below):
        """Closed form, no iteration.

        Every angle advances by k, so a pair's angle gap never changes and
        d(f^n a, f^n b) is the chord at that gap between the radii at time
        n.  Each pair is evaluated on its own by `_pair_extremes`, so its
        value does not depend on the other pairs of its call: a full list
        goes in row blocks of at most _CLASS_BLOCK pairs, and under
        `below` only the pairs that `_near_pairs` keeps are evaluated (a
        full list when it keeps too many).  `_chord` and `_sin2` are
        exactly symmetric, so against itself each unordered pair is
        evaluated once and mirrored, bit for bit.
        """
        A, B = sa, sa if sb is None else sb
        shape = (len(A["row"]), len(B["row"]))
        near = None if below is None else self._near_pairs(A, B, below)

        def extremes(i, j):
            ext = {h: np.empty(len(i)) for h in horizons}
            for blk in _row_blocks(len(i), 1, _CLASS_BLOCK):
                part = self._pair_extremes(A, B, i[blk], j[blk], horizons,
                                           use_max, centre)
                for h in horizons:
                    ext[h][blk] = part[h]
            return ext

        if near is not None:
            return _pair_list(near, shape, sb is None, extremes)
        out = {h: np.empty(shape) for h in horizons}
        for rows in _row_blocks(*shape, _CLASS_BLOCK):
            i = np.arange(shape[0])[rows]
            # against itself, the columns before the block are the mirror
            # of rows already evaluated
            cols = np.arange(rows.start if sb is None else 0, shape[1])
            part = extremes(np.repeat(i, cols.size), np.tile(cols, i.size))
            for h in horizons:
                out[h][rows, shape[1] - cols.size:] = part[h].reshape(
                    i.size, cols.size)
                if sb is None:
                    out[h][rows, :rows.start] = out[h][:rows.start, rows].T
        return PairExtremes.of_matrices(out)

    def _near_pairs(self, A, B, below):
        """The flat positions of the pairs whose extremes may lie under
        `below`, or None to evaluate them all.  A pair's angle gap g never
        changes and every radius is at least R0, the least of the circles
        and the radius table, so the pair is at least 2 R0 |sin pi g|
        apart at every time; two circle points are also at least their
        radii's difference apart.  A pair is dropped only where one of
        these bounds is at least 2 below, which leaves room for every
        rounding of the bound and of the chord.  Either bound holds at
        every time, so it bounds the maximum too."""
        s = below / self._r0
        gap = math.asin(s) / math.pi + _GAP_SLACK if s < 1.0 else 1.0
        near = None if gap >= 0.25 else _close_pairs(A["theta"], B["theta"],
                                                     gap)
        if near is None:
            return None
        i, j = np.divmod(near, len(B["row"]))
        far = (A["row"][i] < 0) & (B["row"][j] < 0)
        far &= np.abs(A["r"][i] - B["r"][j]) >= 2.0 * below
        return near[~far]

    def _pair_extremes(self, A, B, i, j, horizons, use_max, centre):
        """{h: e_h}, e_h[k] the min (max when use_max) over
        |n - centre| <= h of d(f^n a_{i_k}, f^n b_{j_k}): the pairs
        (i_k, j_k) split by kind, each kind evaluated as a list of pairs.
        Two circle points keep their chord (`_circle_chords`).  An orbit
        point against a circle point goes to `_orbit_circle`, whichever
        side holds the orbit point, one table row at a time, and two orbit
        points to `_orbit_pairs`."""
        ext = {h: np.empty(len(i)) for h in horizons}
        oa, ob = A["row"][i] >= 0, B["row"][j] >= 0
        cc = ~(oa | ob)
        if cc.any():
            d = _circle_chords(A, B, i[cc], j[cc])
            for h in horizons:
                ext[h][cc] = d
        for X, x, Y, y, kind in ((A, i, B, j, oa & ~ob),
                                 (B, j, A, i, ob & ~oa)):
            for row in np.unique(X["row"][x[kind]]):
                k = np.flatnonzero(kind & (X["row"][x] == row))
                o, c = x[k], y[k]
                part = self._orbit_circle(
                    row, X["idx"][o].astype(int), Y["r"][c],
                    _sin2(X["theta"][o] - Y["theta"][c]), horizons, use_max,
                    centre)
                for h in horizons:
                    ext[h][k] = part[h]
        k = np.flatnonzero(oa & ob)
        if k.size:
            part = self._orbit_pairs(_take(A, i[k]), _take(B, j[k]),
                                     horizons, use_max, centre)
            for h in horizons:
                ext[h][k] = part[h]
        return ext

    def _orbit_circle(self, row, m, c, s2, horizons, use_max, centre):
        """{h: E_h}, the min (max when use_max) over |n - centre| <= h of
        the distance between the orbit point at index m of table row `row`
        and a circle point of radius c whose angle gap g to it has
        s2 = sin^2(pi g), elementwise over the broadcast of m, c and s2.

        With s2 fixed by the angle gap, chord^2 = (r - c)^2 + 4 r c s2 is a
        convex quadratic in the orbit's radius r, with its vertex at
        r* = c (1 - 2 s2).  The window's radii are the orbit's radii at the
        indices m + centre - h .. m + centre + h, clamped to the table.  A
        row rises up to its peak and falls after it, so on each side of
        the peak the window's radii are a run of that side's sorted
        distinct radii, from the radius at one end of the window part to
        the radius at the other.  Rounding can only reorder chords whose
        exact values lie within a few ulps of each other, which happens
        next to r*: the minimum lies among the radii next to r*, found by
        one bisection, and the maximum at the run's ends or among those.
        Each candidate's chord is computed as the dense fold computes it,
        so the extremes are bit for bit those of every time.
        """
        red = np.maximum if use_max else np.minimum
        vals, split = self._runs[row]
        rank, p = self._rank[row], self._peaks[row]
        vertex = c * (1.0 - 2.0 * s2)
        hits = (np.searchsorted(vals[:split], vertex),
                split + np.searchsorted(vals[split:], vertex))
        out = {}
        for h in horizons:
            a = np.clip(m + (centre - h), -REACH, REACH)
            b = np.clip(m + (centre + h), -REACH, REACH)
            # the window's indices up to the peak and after it; a window
            # that misses one side reads its own end nearest that side
            # there, a radius it holds
            rise, fall = a <= p, b > p
            parts = ((a, np.where(rise, np.minimum(b, p), a), hits[0], rise),
                     (np.where(fall, np.maximum(a, p + 1), b), b, hits[1],
                      fall))
            E = None
            for x, y, hit, meets in parts:
                if not meets.any():
                    continue
                x, y = rank[x + REACH], rank[y + REACH]
                lo, hi = np.minimum(x, y), np.maximum(x, y)
                ends = (lo, hi) if use_max else ()
                for at in (*ends, *(hit + k for k in _NEAR_VERTEX)):
                    d = _chord(vals[np.clip(at, lo, hi)], c, s2)
                    E = d if E is None else red(E, d, out=E)
            out[h] = E
        return out

    def _orbit_pairs(self, A, B, horizons, use_max, centre):
        """{h: e_h} for orbit points a_k and b_k paired one to one, one
        chord sequence per class of pairs.

        In b's index u = m_b + n, a pair's distance at time n is
        f(u) = chord(R_a(u + d), R_b(u), s2), d = m_a - m_b.  R_a moves
        only on a's block of indices u in [lo_a - d - 1, hi_a - d + 1] and
        R_b on b's block [lo_b - 1, hi_b + 1], each with a limit radius at
        both ends, so f is constant before, between and after the blocks:
        the blocks' samples in order (`_pair_runs`) hold every value f
        takes, in the order it takes them.  The pairs of one class share
        that sequence: a class is one int64 code of (row_a, row_b, d, the
        rank of s2 among the pairs' distinct s2), sorted once, and a d
        beyond which the blocks lie apart stands for every d beyond it, as
        the gap between the blocks is dropped.  A class evaluates its
        sequence once, over the samples its pairs' windows u in
        [m_b + centre - h, m_b + centre + h] reach (`_run_span`), and each
        pair reads its window's extreme off a sparse table.  Min and max
        are exact, so each extreme is the dense fold over every time, bit
        for bit, whatever other pairs share the call.  Classes go in
        blocks whose sparse tables hold at most _CLASS_BLOCK values.
        """
        red = np.maximum if use_max else np.minimum
        ra, rb = A["row"], B["row"]
        res = {h: np.empty(len(ra)) for h in horizons}
        if not len(ra):
            return res
        lo, hi = (np.array([lim[j] for lim in self._limits]) for j in (0, 1))
        nr = len(lo)
        # the clipped d (dk) below stays within dmin..dmin + nd - 1
        dmin = int(lo.min() - hi.max()) - 4
        nd = int(hi.max() - lo.min()) + 5 - dmin
        mb = B["idx"].astype(np.int64)
        d = A["idx"].astype(np.int64) - mb
        s2 = _sin2(A["theta"] - B["theta"])
        # beyond the clip the two blocks lie apart: one class key
        dk = np.clip(d, lo[ra] - hi[rb] - 4, hi[ra] - lo[rb] + 4)
        _, code = np.unique(s2, return_inverse=True)
        # codes below 2^63 for fewer than 2^31 pairs: nr is at most 1,022
        # and nd at most 4 REACH + 9
        code = ((code * nr + ra) * nr + rb) * nd + (dk - dmin)
        order = np.argsort(code)
        code = code[order]
        first = np.r_[True, code[1:] != code[:-1]]
        starts = np.flatnonzero(first)
        cls = np.cumsum(first) - 1
        ra, rb, mb, d, dk, s2 = (v[order] for v in (ra, rb, mb, d, dk, s2))
        runs = _pair_runs(lo[ra], hi[ra], lo[rb], hi[rb], d)
        reach = {h: _run_span(mb + (centre - h), mb + (centre + h), *runs)
                 for h in horizons}
        # a window in a constant stretch reads a sample beside it, which a
        # wider window need not read: each horizon adds its own
        k0 = np.min([np.minimum.reduceat(k[0], starts)
                     for k in reach.values()], axis=0)
        count = np.max([np.maximum.reduceat(k[1], starts)
                        for k in reach.values()], axis=0) - k0 + 1
        # each class's sequence, from its first pair's key
        rc, rd, sc, dc = ra[starts], rb[starts], s2[starts], dk[starts]
        x0, x1, y0, _ = _pair_runs(lo[rc], hi[rc], lo[rd], hi[rd], dc)
        bounds = np.r_[starts, len(ra)]
        budget = max(1, _CLASS_BLOCK // int(count.max()).bit_length())
        for blk in _size_blocks(count, budget):
            at = np.r_[0, np.cumsum(count[blk])]
            of = np.repeat(np.arange(blk.start, blk.stop), count[blk])
            k = np.arange(at[-1]) - at[:-1][of - blk.start] + k0[of]
            n1 = x1[of] - x0[of] + 1
            u = np.where(k < n1, x0[of] + k, y0[of] + (k - n1))
            table = _sparse_table(
                _chord(self._radius(rc[of], u + dc[of]),
                       self._radius(rd[of], u), sc[of]),
                red, int(count[blk].max()).bit_length())
            pairs = slice(bounds[blk.start], bounds[blk.stop])
            c = cls[pairs]
            shift = at[:-1][c - blk.start] - k0[c]
            for h in horizons:
                a, b = (e[pairs] + shift for e in reach[h])
                res[h][order[pairs]] = _range_extreme(table, a, b, red)
        return res


def _euclid(dx, dy):
    """sqrt(dx^2 + dy^2), the distance of points of the plane, in place
    on dx and dy."""
    dx *= dx
    dy *= dy
    dx += dy
    return np.sqrt(dx, out=dx)


def _circle_chords(A, B, i, j):
    """The distances of circle points a_i and b_j, which never change."""
    return _chord(A["r"][i], B["r"][j], _sin2(A["theta"][i] - B["theta"][j]))


def _take(state, idx):
    """The points idx of an annulus state."""
    return {key: v[idx] for key, v in state.items()}


def annulus3(k=GOLDEN):
    """Two circles plus one wandering orbit: 3-distal, not 2-distal."""
    return AnnulusSystem(f"annulus3(k={k!r})", k, (1.0, 2.0), {0: (SQ, 0.5)})


ANNULUS_N_MAX = 1024  # annulusN's largest N: N-2 radius table rows


def annulusN(k=GOLDEN, N=5):
    """Boundary circles plus orbits p_m = (0, 1/m + 1), 2 <= m <= N-1."""
    if not float(N).is_integer():
        raise ParameterError(f"annulusN requires an integral N, got {N!r}")
    N = int(N)
    if not 4 <= N <= ANNULUS_N_MAX:
        raise ParameterError(
            f"annulusN requires 4 <= N <= {ANNULUS_N_MAX}, got {N}")
    orbits = {m: (SQ, 1.0 / m) for m in range(2, N)}
    return AnnulusSystem(f"annulusN(k={k!r},N={N})", k, (1.0, 2.0), orbits)


def annulus2(k=GOLDEN):
    """One circle plus an orbit approaching it both ways: 2-distal, not distal."""
    return AnnulusSystem(f"annulus2(k={k!r})", k, (1.0,), {0: (ABS, 0.5)})
