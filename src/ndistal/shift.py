"""The full shift on two symbols, the non-distal contrast.  Its hooks and
its metric are closed forms on packed bits, each described at its method
of `ShiftSystem`.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .base import _CLASS_BLOCK, DynSystem
from .errors import InvalidPointError, ParameterError
from .kernels import _CHUNK, PairExtremes, _row_blocks
from .points import (PointCloud, SymbolicPoint, periodic_point,
                     symbolic_distance, word_point)


GCAP = 64  # the shift's closed forms resolve distances down to 2^-GCAP
GRID_BITS = 20  # the shift's grid sampler enumerates at most 2^GRID_BITS words


def _shift_bits(points, lo, hi):
    """Symbols s_lo..s_hi of each point, one uint8 row per point: each
    distinct tail pattern is laid over the window once, each point takes
    its right tail's row (and its left tail's, left of its core, when the
    two differ), and every core symbol in the window is written at once."""
    idx = np.arange(lo, hi + 1)
    ids = {}
    left, right = (np.array([ids.setdefault(getattr(p, side), len(ids))
                             for p in points], dtype=np.intp)
                   for side in ("left", "right"))
    tails = np.array([np.array(t, dtype=np.uint8)[idx % len(t)] for t in ids],
                     dtype=np.uint8).reshape(len(ids), idx.size)
    start = np.array([p.offset for p in points], dtype=np.int64)
    B = tails[right]
    two = np.flatnonzero(left != right)
    B[two] = np.where(idx < start[two, None], tails[left[two]], B[two])
    C = np.array([len(p.core) for p in points], dtype=np.int64)
    core = np.fromiter(itertools.chain.from_iterable(p.core for p in points),
                       dtype=np.uint8, count=C.sum())
    row = np.repeat(np.arange(len(points)), C)
    col = np.arange(C.sum()) + np.repeat(start - lo - np.cumsum(C) + C, C)
    keep = (col >= 0) & (col < idx.size)
    B[row[keep], col[keep]] = core[keep]
    return B


def _segment_extremes(keys, cls, lo, hi, W, horizons, use_max):
    """{h: values} for difference masks over 2W+1 positions around a
    centre: the max (min when use_max) over |n| <= h of 2^-gap from the
    centre + n to the nearest difference, clamped at 2^-GCAP.

    The positions are cut into segments, segment t holding positions
    lo[t]..hi[t], and each mask is constant on every segment: a mask is
    a row of uint8 `keys`, bit cls[t] of which (little-endian) is its
    difference on segment t.  Each row's difference runs [s, e] are read
    once, by one `np.nonzero` over its bit changes between segments, in
    positions, and serve every horizon; a row with no difference gets the
    clamp.  On the window [a, b] = [W - h, W + h] the smallest gap is
    where the window comes nearest a run: max(s - b, a - e, 0), minimised
    over the runs.  The largest lies in an agreement run: at a before the
    first run (s - a), at b after the last (b - e), or between runs ending
    at e' and starting at s at their midpoint clipped into [a, b], as
    min(j - e', s - j) rises up to the midpoint and falls after it.  A
    candidate outside its agreement run reads negative and never wins."""
    S = len(cls)
    byte, shift = cls >> 3, (cls & 7).astype(np.uint8)
    vals = {h: np.empty(len(keys)) for h in horizons}
    for rows in _row_blocks(len(keys), S, _CHUNK):
        bits = keys[rows][:, byte]
        bits >>= shift
        bits &= 1
        bits = bits.view(bool)
        # edge[:, t]: segments t - 1 and t differ, outside the window 0
        edge = np.empty((len(bits), S + 1), dtype=bool)
        edge[:, 0], edge[:, S] = bits[:, 0], bits[:, S - 1]
        np.not_equal(bits[:, 1:], bits[:, :-1], out=edge[:, 1:S])
        row, at = np.nonzero(edge)
        row, s, e = row[0::2], lo[at[0::2]], hi[at[1::2] - 1]
        first = np.flatnonzero(np.diff(row, prepend=-1))
        last = np.flatnonzero(np.diff(row, append=len(bits)))
        # the previous run's end; a row's first run reads s - a instead
        before = np.roll(e, 1)
        for h in horizons:
            a, b = W - h, W + h
            if use_max:
                g = np.minimum.reduceat(np.maximum(s - b, a - e), first)
            else:
                j = np.clip((before + s) // 2, a, b)
                far = np.minimum(j - before, s - j)
                far[first] = s[first] - a
                g = np.maximum(np.maximum.reduceat(far, first), b - e[last])
            gap = np.full(len(bits), GCAP)
            gap[row[first]] = np.clip(g, 0, GCAP)
            vals[h][rows] = np.exp2(-gap.astype(float))
    return vals


def _class_codes(*bit_rows):
    """Per array of symbol rows, each row's symbols at one position per
    column class, packed little-endian into w uint64 words, and each
    position's class.  Two positions share a class when their columns
    agree over every row of every array, so the XOR of two rows' codes
    fixes their whole difference mask: bit c is their difference at the
    positions of class c."""
    cols = np.packbits(np.concatenate(bit_rows), axis=0).T.copy()
    _, reps, cls = np.unique(cols.view(f"V{cols.shape[1]}").ravel(),
                             return_index=True, return_inverse=True)
    w = -(-len(reps) // 64)
    codes = []
    for bits in bit_rows:
        packed = np.packbits(bits[:, reps], axis=1, bitorder="little")
        words = np.zeros((len(bits), 8 * w), dtype=np.uint8)
        words[:, :packed.shape[1]] = packed
        codes.append(words.view("<u8"))
    return codes, cls


def _window_classes(lists, W, centre):
    """The symbols of each list of points over [centre - W, centre + W],
    one uint8 row a point, the lists' `_class_codes`, and the window cut
    into its maximal runs of one column class: (bits, codes, segments),
    segments = (cls, lo, hi) with run t holding window positions
    lo[t]..hi[t], all of class cls[t]."""
    bits = [_shift_bits(pts, centre - W, centre + W) for pts in lists]
    codes, cls = _class_codes(*bits)
    lo = np.flatnonzero(np.diff(cls, prepend=-1))
    hi = np.append(lo[1:], len(cls)) - 1
    return bits, codes, (cls[lo], lo, hi)


def _key_reader(ca, cb, segments, W, horizons, use_max, count):
    """read(i, j, out): writes into out[h] the extremes at horizon h of
    the pairs (a_i, b_j), for index arrays i and j that broadcast to
    out[h]'s shape, by `_segment_extremes` of their keys ca[i] ^ cb[j],
    for a call that reads `count` pairs.  Keys of one word below 2^b, b
    the bit length of the largest code (at most the number of column
    classes), are read off a table over all 2^b of them, computed once,
    when it fits `_CLASS_BLOCK` and reading 2^b keys over every segment
    costs no more than the `count` pairs; otherwise each read evaluates
    its distinct keys, sorted by `np.unique`.  Every index taken is in
    range, and mode "clip" lets `np.take` write to out unbuffered."""
    w = ca.shape[1]
    if w == 1:
        top = max(ca.max(initial=0), cb.max(initial=0))
        space = 1 << int(top).bit_length()
        if space <= _CLASS_BLOCK and space * len(segments[0]) <= count:
            every = np.arange(space, dtype="<u8").view(np.uint8)
            table = _segment_extremes(every.reshape(space, 8), *segments, W,
                                      horizons, use_max)
            a, b = ca[:, 0].astype(np.intp), cb[:, 0].astype(np.intp)

            def look_up(i, j, out):
                at = a[i] ^ b[j]
                for h, t in table.items():
                    np.take(t, at, out=out[h], mode="clip")
            return look_up
    key = np.uint64 if w == 1 else f"V{8 * w}"

    def read(i, j, out):
        keys = ca[i] ^ cb[j]
        distinct, inv = np.unique(keys.view(key).ravel(), return_inverse=True)
        vals = _segment_extremes(
            distinct.view(np.uint8).reshape(len(distinct), 8 * w), *segments,
            W, horizons, use_max)
        for h, v in vals.items():
            np.take(v, inv.reshape(keys.shape[:-1]), out=out[h], mode="clip")
    return read


def _agreement_radius(below):
    """The least integer r with 2^-r < below, for below > 0: a distance
    2^-g lies under `below` iff g >= r."""
    m, e = math.frexp(below)
    return 1 - e + (m == 0.5)


def _window_words(points, H):
    """Two uint64 words per point and centre n in [-H, H]: bit k holds
    s_{n+k} in the first and s_{n-k} in the second, k < GCAP.  Each symbol
    row is packed once, little-endian, and a centre's first word is one
    unaligned 64-bit read at the byte of s_n, shifted down by s_n's bit in
    that byte and topped up from the next byte; the second word reads the
    reversed row the same way."""
    bits = _shift_bits(points, -H - GCAP + 1, H + GCAP - 1)
    # where s_n sits, in the row and in the reversed row
    at = np.arange(2 * H + 1) + GCAP - 1
    words = []
    for row, at in ((bits, at), (bits[:, ::-1], at[::-1])):
        packed = np.packbits(row, axis=1, bitorder="little")
        m, width = packed.shape
        # the word at every byte; the row runs GCAP - 1 symbols past the
        # last centre, so no read leaves it
        word = np.ndarray((m, width - 7), dtype="<u8", buffer=packed,
                          strides=(width, 1))
        byte, shift = at >> 3, (at & 7).astype(np.uint64)
        w = np.take(word, byte, axis=1)
        w >>= shift
        top = np.take(packed, byte + 8, axis=1).astype(np.uint64)
        top <<= np.uint64(1)
        top <<= np.uint64(63) - shift
        w |= top
        words.append(w)
    return tuple(words)


def _centre_words(sa, sb):
    """The two words at centre 0 of the points of two states, read in one
    pass: ((fwd, bwd) of sa, (fwd, bwd) of sb)."""
    f, b = (w[:, 0] for w in _window_words(list(sa) + list(sb), 0))
    m = len(sa)
    return (f[:m], b[:m]), (f[m:], b[m:])


def _radius_dist(z):
    """2^-r with 2^r the lowest set bit of z, the XOR of two pairs of
    words: r is the radius on which the words' symbols agree, and z == 0
    (agreement on every |i| < GCAP) gives the floor 2^-GCAP."""
    low = (z & (~z + np.uint64(1))).astype(float)
    return 1.0 / np.where(low == 0.0, 2.0 ** GCAP, low)


# _RING[f << 8 | b]: the 16 bits f_0 b_0 f_1 b_1 ... f_7 b_7 of two bytes,
# f_0 highest, stored big-endian
_SPREAD = (((np.arange(256)[:, None] >> np.arange(8)) & 1)
           << (14 - 2 * np.arange(8))).sum(axis=1)
_RING = ((_SPREAD[:, None] << 1) | _SPREAD).astype(">u2").ravel()


def _ring_keys(fwd, bwd):
    """The ring key of each pair of words: the 128 bits s_n, s_n, s_{n+1},
    s_{n-1}, ..., s_{n+63}, s_{n-63} (bit k of fwd, then of bwd) from the
    top, as two uint64 (hi, lo).  Two windows agree on radius r iff their
    keys share the top 2r bits, so sorted keys put the windows that agree
    longest with any key next to it."""
    idx = fwd.astype("<u8", copy=False).view(np.uint8).astype(np.uint16)
    idx <<= 8
    idx |= bwd.astype("<u8", copy=False).view(np.uint8)
    key = _RING[idx].view(">u8").reshape(-1, 2).astype(np.uint64)
    return key[:, 0], key[:, 1]


def _ring_visits(fwd, bwd, tf, tb):
    """V[i, j]: the min over the windows w of row i of (fwd, bwd) of their
    distance 2^-r to the target words (tf[j], tb[j]), r the radius on
    which they agree.  The windows and targets are ranked by ring key in
    one sort, and each row's window ranks sorted once; a target's best
    window in row i is one of the two next to its rank there."""
    m, W = fwd.shape
    f = np.concatenate([fwd.ravel(), tf])
    b = np.concatenate([bwd.ravel(), tb])
    hi, lo = _ring_keys(f, b)
    order = np.lexsort((lo, hi))
    hi, lo = hi[order], lo[order]
    new = np.ones(len(order), dtype=bool)
    new[1:] = (hi[1:] != hi[:-1]) | (lo[1:] != lo[:-1])
    rank = np.empty(len(order), dtype=np.int64)
    rank[order] = np.cumsum(new) - 1
    # one pair of words per distinct key, and each row's ranks sorted
    # after the rows before it
    f, b = f[order[new]], b[order[new]]
    base = np.arange(m, dtype=np.int64)[:, None] * np.count_nonzero(new)
    codes = rank[:m * W].reshape(m, W) + base
    codes.sort(axis=1)
    codes = codes.ravel()
    at = np.searchsorted(codes, base + rank[m * W:])
    start = np.arange(0, m * W, W)[:, None]
    # the ranks of the windows before and after each target in its row
    below = codes[np.maximum(at - 1, start)] - base
    above = codes[np.minimum(at, start + W - 1)] - base
    return np.minimum(*(_radius_dist((f[k] ^ tf) | (b[k] ^ tb))
                        for k in (below, above)))


def _rotated(pattern, n):
    """A tail pattern as the shift by n leaves it: pattern[(j + n) % len]."""
    n %= len(pattern)
    return pattern[n:] + pattern[:n]


def _orbit_keys(points):
    """Per point, (r, s, P) with r the fields (core, left, right) of
    sigma^s p, the canonical representative of p's orbit, read off p's
    own fields: a shift moves the offset, rotates the tails and keeps the
    form canonical.  P is the period of a purely periodic point, whose
    shifts repeat and whose representative takes the least rotation of
    its period, and 0 for every other point, whose shifts are all
    distinct and whose representative has offset 0."""
    keys = []
    for p in points:
        if p.core or p.left != p.right:
            s, P = p.offset, 0
        else:
            P = len(p.left)
            s = min(range(P), key=lambda r: _rotated(p.left, r))
        keys.append(((p.core, _rotated(p.left, s), _rotated(p.right, s)),
                     s, P))
    return keys


def _point_ids(xs, ys):
    """One integer per point of two lists, equal exactly for equal
    points: canonical forms make that equality of sequences.  ys None
    pairs xs with itself."""
    ids = {}
    a = np.array([ids.setdefault(p, len(ids)) for p in xs], dtype=int)
    return a, a if ys is None else np.array(
        [ids.setdefault(p, len(ids)) for p in ys], dtype=int)


def _group_pairs(ga, gb):
    """The pairs (i, j) with ga[i] == gb[j], in CSR order: each row's
    columns are those of its group, in column order."""
    order = np.argsort(gb, kind="stable")
    lo = np.searchsorted(gb[order], ga)
    n = np.searchsorted(gb[order], ga, "right") - lo
    at = np.arange(n.sum()) + np.repeat(lo - (np.cumsum(n) - n), n)
    return np.repeat(np.arange(len(ga)), n), order[at]


def _orbit_hits(points, targets, H):
    """hit[i, j]: sigma^n p_i == t_j for some |n| <= H.  That holds iff
    p_i and t_j share their representative and n = s_i - s_j: one
    candidate n per pair, or one per period for periodic points.  Targets
    that are the points themselves reuse the points' keys."""
    same = targets == points
    kp = _orbit_keys(points)
    kt = kp if same else _orbit_keys(targets)
    sp = np.array([s for _, s, _ in kp], dtype=int)
    st = np.array([s for _, s, _ in kt], dtype=int)
    P = np.array([per for _, _, per in kp], dtype=int)[:, None]
    n = sp[:, None] - st[None, :]
    r = np.mod(n, np.maximum(P, 1))
    n = np.where(P > 0, np.minimum(r, P - r), np.abs(n))
    a, b = _point_ids([k[0] for k in kp],
                      None if same else [k[0] for k in kt])
    return (a[:, None] == b[None, :]) & (n <= H)


class ShiftSystem(DynSystem):
    """Full shift on bi-infinite binary sequences, d(s, s') = 2^-min|i: differ|."""

    id = "shift2"
    floor = 2.0 ** -GCAP
    cloud_size = 4

    def comoving_pairs(self, pts_a, pts_b, horizons, use_max, centre, below):
        """Closed form, no iteration.

        d(sigma^n x, sigma^n y) = 2^-g(n) with g(n) the gap from n to the
        nearest difference position of (x, y); the extreme over
        |n - centre| <= h is read off where the runs of differences begin
        and end in one window of positions around the centre, and one
        read of the runs serves every horizon.
        Window positions whose symbol columns agree over every point of
        both lists carry the same difference bit in every pair, so a
        pair's difference mask is fixed by its bits at one position per
        column class: bit c of the XOR of the two points' `_class_codes`,
        the pair's key, is its difference on class c.  The window is cut
        into its maximal runs of one column class (`_window_classes`),
        so a key gives its difference on every run with no mask unpacked,
        and its runs of differences are read off in positions, in
        O(runs of classes) per key (`_segment_extremes`).  Each distinct
        key is read once (`_key_reader`): keys of one word come from a
        table over the whole key space when that fits the call; wider
        keys are sorted by `np.unique` in each block of rows.
        Values below 2^-GCAP, and pairs that agree on the whole window, are
        clamped to it; equal points get 0.

        Minima, and maxima with no `below` or one above 1, are a full
        list.  For maxima under `below`: a value 2^-g lies under it iff
        g >= r, r the least integer with 2^-r < below
        (`_agreement_radius`), and at most GCAP + 1, past which only equal
        points, at 0, lie under it.  So a pair's maximum over
        |n - centre| <= h lies under `below` only if the two points agree
        on [centre - h - r + 1, centre + h + r - 1]: one `np.unique` over
        the points' symbols there groups them, the pairs of each group are
        listed, and their keys are read as the full list reads them, bit
        for bit its values.
        """
        r = 0 if below is None else _agreement_radius(below)
        W = max(horizons) + GCAP
        lists = [pts_a] if pts_b is None else [pts_a, pts_b]
        bits, codes, segments = _window_classes(lists, W, centre)
        ca, cb = codes[0], codes[-1]
        ma, mb = len(ca), len(cb)
        if not use_max or r <= 0:
            read = _key_reader(ca, cb, segments, W, horizons, use_max,
                               ma * mb)
            rows_of = np.arange(ma)[:, None]
            out = {h: np.empty((ma, mb)) for h in horizons}
            for rows in _row_blocks(ma, mb * ca.shape[1], _CHUNK):
                read(rows_of[rows], np.arange(mb),
                     {h: M[rows] for h, M in out.items()})
            equal = _group_pairs(*_point_ids(pts_a, pts_b))
            for h in horizons:
                out[h][equal] = 0.0
            return PairExtremes.of_matrices(out)
        h, r = min(horizons), min(r, GCAP + 1)
        near = np.packbits(np.concatenate(bits)[:, W - h - r + 1:W + h + r],
                           axis=1)
        _, group = np.unique(near.view(f"V{near.shape[1]}").ravel(),
                             return_inverse=True)
        i, j = _group_pairs(group[:ma], group[len(group) - mb:])
        vals = {k: np.empty(len(i)) for k in horizons}
        _key_reader(ca, cb, segments, W, horizons, True, len(i))(i, j, vals)
        ida, idb = _point_ids(pts_a, pts_b)
        equal = ida[i] == idb[j]
        for v in vals.values():
            v[equal] = 0.0
        return PairExtremes((ma, mb), i, j, vals)

    def visit_minima(self, points, targets, H):
        """Closed form, no iteration.

        d(sigma^n p, t) = 2^-r with r the radius on which p agrees with t
        around n.  Two words per centre n hold the GCAP symbols on each
        side (`_window_words`), so r is the trailing-zero count of their
        XOR with t's words, capped at GCAP, and the minimum over |n| <= H
        keeps the largest radius.  Interleaved from the centre out, a
        window's words are its ring key (`_ring_keys`), and r is half the
        keys' common leading bits, so of a point's windows sorted by key
        the one agreeing longest with t is next to t's key: each block of
        points ranks its window keys and the target keys in one sort and
        places every target by one `searchsorted` per point
        (`_ring_visits`), O((mW + mT) log) for W = 2H + 1 windows and T
        targets where an XOR of every window with every target is O(mWT).
        Blocks keep each temporary within `_CHUNK` elements.  Exact orbit
        hits sigma^n p == t get 0.
        """
        tf, tb = (w[:, 0] for w in _window_words(targets, 0))
        V = np.empty((len(points), len(targets)))
        # a ring key is read as 8 byte pairs (`_ring_keys`)
        for rows in _row_blocks(len(points), 8 * (2 * H + 1 + len(targets)),
                                _CHUNK):
            V[rows] = _ring_visits(*_window_words(points[rows], H), tf, tb)
        V[_orbit_hits(points, targets, H)] = 0.0
        return V

    def return_distances(self, points, H):
        """Closed form, no iteration.

        d(sigma^n x, x) = 2^-r with r the radius on which x agrees with
        itself moved by n: the trailing-zero count of the XOR of x's words
        at centres n and 0, capped at GCAP, so a return below 2^-GCAP
        reads as the floor.  Exact 0 only where sigma^n x == x: at n = 0,
        and at multiples of the period of a purely periodic point.
        """
        fwd, bwd = _window_words(points, H)
        z = (fwd ^ fwd[:, H, None]) | (bwd ^ bwd[:, H, None])
        D = _radius_dist(z).astype(np.float32)
        # a point that is not purely periodic returns only at n = 0
        P = np.array([per or 2 * H + 1 for _, _, per in _orbit_keys(points)],
                     dtype=int)
        D[np.arange(-H, H + 1) % P[:, None] == 0] = 0.0
        return D

    def iterate(self, p, n):
        return p.shifted(n)

    def arr_state(self, points):
        if not set(map(type, points)) <= {SymbolicPoint}:
            raise InvalidPointError("shift2: expected symbolic points")
        return list(points)

    def arr_cdist(self, sa, sb):
        """The symbolic distance 2^-min{|i| : a_i != b_i} of every pair,
        read off the words of both points at centre 0 (`_window_words`)
        as 2^-r, r the trailing-zero count of their XOR.  Pairs that agree
        on every |i| < GCAP, equal points among them, are measured by
        `symbolic_distance`, so values below 2^-GCAP stay exact."""
        (fa, ba), (fb, bb) = _centre_words(sa, sb)
        z = (fa[:, None] ^ fb) | (ba[:, None] ^ bb)
        D = _radius_dist(z)
        for i, j in zip(*np.nonzero(z == 0)):
            D[i, j] = symbolic_distance(sa[i], sb[j])
        return D

    def arr_edist(self, sa, sb):
        """`arr_cdist` of the pairs (a_i, b_i)."""
        (fa, ba), (fb, bb) = _centre_words(sa, sb)
        z = (fa ^ fb) | (ba ^ bb)
        D = _radius_dist(z)
        for i in np.flatnonzero(z == 0):
            D[i] = symbolic_distance(sa[i], sb[i])
        return D

    def sampler(self, resolution=3, seed=None):
        """All words of length 2W+1 (W = resolution) with zero fill, plus the
        two constant sequences; random sampling draws seeded cores."""
        W = resolution
        if W < 0:
            raise ParameterError(f"shift2: resolution must be >= 0, got {W}")
        if seed is None:
            if 2 * W + 1 > GRID_BITS:
                raise ParameterError(
                    f"shift2: the grid of resolution {W} has 2^{2 * W + 1} "
                    f"words, more than 2^{GRID_BITS}")
            pts = [word_point(bits, -W)
                   for bits in itertools.product((0, 1), repeat=2 * W + 1)]
            pts.append(periodic_point((1,)))
            return PointCloud(tuple(dict.fromkeys(pts)), "grid", self.id)
        rng = np.random.default_rng(seed)
        pts = [word_point(tuple(int(b) for b in rng.integers(0, 2, 2 * W + 1)), -W)
               for _ in range(256)]
        return PointCloud(tuple(dict.fromkeys(pts)), f"random({seed})", self.id)

    def periodic_cloud(self, length):
        """All fully periodic sequences of (not necessarily primitive) period
        `length`; exactly shift-invariant, used by the entropy estimators."""
        pts = tuple(periodic_point(bits)
                    for bits in itertools.product((0, 1), repeat=length))
        return PointCloud(pts, "grid", self.id)

    def word_codes(self, n, points=None):
        """The codes of the length-n words that occur in the points, bit i
        of a code the word's i-th symbol, in one array that may repeat a
        code, and the number of points sampled.

        Without points the sample is ``periodic_cloud(L)``, every sequence
        of period L = min(n, 13), and its words are read from a bit table
        instead of its points: row w holds s_i = bit (i mod L) of w for
        0 <= i < L + n - 1, so the row's words start at every position of
        one period.  A point's words start in [lo - n - span, hi + span]:
        past its core and one period of each tail, every word repeats an
        earlier one.  Points are read in groups that share that range, one
        row per point."""
        weights = np.left_shift(1, np.arange(n, dtype=np.int64))
        if points is None:
            L = min(n, 13)
            rows = [(np.arange(1 << L)[:, None]
                     >> (np.arange(L + n - 1) % L)) & 1]
            size = 1 << L
        else:
            ranges = {}
            for p in points:
                lo, hi = p.extent()
                span = max(len(p.left), len(p.right), 1)
                ranges.setdefault((lo - n - span, hi + span + n - 1),
                                  []).append(p)
            rows = [_shift_bits(pts, a, b) for (a, b), pts in ranges.items()]
            size = len(points)
        return np.concatenate([(sliding_window_view(r, n, axis=1)
                                @ weights).ravel() for r in rows]), size


def shift2():
    return ShiftSystem()
