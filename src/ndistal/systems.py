"""The system abstraction and the catalogue of example systems.

Every system is an invertible map on a compact metric space together with an
exact metric and a canonical sampler.  A system states its map once, as
``iterate(p, n)`` = f^n(p) for any integer n, and its metric once, as the
array metric: ``arr_cdist`` (the distance matrix between two states) and
``arr_edist`` (elementwise distances between two equal-length states).
``DynSystem`` derives the rest: ``dist`` as ``arr_edist`` on one-point
states, so a pointwise distance equals the ``arr_cdist`` entry bit for
bit; ``step`` and ``step_inv`` as
``iterate(p, 1)`` and ``iterate(p, -1)``; and ``arr_pdist(state)`` as
``arr_cdist(state, state)``.  Analysis modules talk to systems through
``iterate``/``step``/``dist`` and through the array interface (``arr_state``
and friends) that the orbit-sweep kernels run on.  A state is by default the
plain list of the points, which ``arr_step`` moves one at a time by
``iterate``: the shift measures such lists on packed words of their
symbols, and a conjugate h o f o h^-1 with f's array metric on f's
states.  The torus and annulus systems, products and powers hold numpy
states.  No system has an embedding, as snapping runs on ``arr_cdist``
too.  The torus systems state their map once, from (alpha, shear), and
their metric once, in `_torus_dist`; the annulus family reads every orbit
radius off one table, evaluated when the system is built.
``arr_iterate(state, n)`` moves a whole state by f^n in one jump, and the
result is bit for bit the state of the points ``iterate`` gives.  By
default it maps a point-list state through ``iterate``; the torus systems
state the closed form of ``iterate`` on arrays, reduced by `mod1`'s rule
(`arr_mod1`); the annulus family shifts orbit indices and circle angles;
a product applies each factor's, and a power its base's at k n.
``iterate`` stays pointwise, not derived from one-point states: on the
skew torus that costs 16 us a call against 1.2 us (2-vCPU Xeon, one
loop of 20,000 calls).  ``arr_step`` stays too: the orbit engine steps
with it, and |n| steps, each reduced by a plain mod 1, round differently
from one jump, so jumping in the engine would move its values.
The kernels reach orbits through three hooks, ``comoving_pairs`` (the
extremes over a window |n - centre| <= h, of every pair or of the pairs
that may lie under a threshold; ``DynSystem.comoving_pairs`` states its
contract, and ``comoving_extremes`` reshapes its full list),
``visit_minima`` and ``return_distances`` (each point's distance to its
own iterates), so the analysis modules step no orbit themselves.  The
hooks take states, which the kernels build from point lists once.  The
shift overrides every hook with closed forms on packed bits that resolve
distances down to its ``floor`` 2^-GCAP.  Two uint64 words per point and
centre n hold the GCAP symbols on each side of n, each read off the point's
packed row at once, so the radius on which two windows agree is the
trailing-zero count of their XOR; its array metric reads the words at
centre 0 the same way and falls back to the exact scan only for pairs that
agree on every |i| < GCAP.  Its visits interleave a window's two words from
the centre out into a 128-bit ring key, on which two windows agree on
radius r iff they share the top 2r bits: sorted by key, a point's window
closest to a target is next to the target's key, so each block of points
ranks its windows and the targets in one sort and places each target by
one search per point, with no XOR of every window with every target.  Its
co-moving extremes key each
pair's difference mask by symbol-column class: window positions whose
columns agree over every point carry the same difference bit in every
pair, so a pair's XOR over one position per class, a word or a few, fixes
its whole mask: bit c of the key is the pair's difference on class c.
The window is cut into its maximal runs of positions of one class, so a
key gives its runs of differences, in positions, with no mask unpacked,
and every horizon is read off the same runs.  Keys of one word whose
code space fits ``_CLASS_BLOCK`` and the call are read off a table over
the whole space, with no sort; other keys are sorted, and each distinct
key is read once.  Its list of maxima under ``below`` holds the pairs
that agree on the narrowest window widened by the radius r with
2^-r < below, found by one sort of the points' symbols there.  The torus
systems override ``comoving_pairs`` by difference class: F^n p - F^n q
depends only on p - q (through the class attribute ``shear``), so each
distinct difference is evaluated once; with shear 0 (the isometries) each
pair keeps its time-0 distance, which is returned as is.  The differences are deduplicated
per coordinate: the distinct gaps of each coordinate come from the outer
difference of its distinct values, and a pair's class is the integer code
of its x-gap and y-gap.  When that code space fits ``_CLASS_BLOCK``, as a
grid's does, one table marks the codes that occur and the whole matrix is
evaluated once; otherwise each row block evaluates its own classes.  No
time is stepped: on the skew torus a class's y-gap at time centre + m is
y0 + m rise mod 1, so its extreme over a window is the circular distance
from one query point to the arithmetic progression {m rise mod 1 :
|m| <= h}, and every class of the same x-gap shares that progression.
Folded onto [0, 1/2] it is the same for the rise and its negative; each
rise shared by several classes is sorted into one table per horizon and
each class bisects it once; a rise of one class is scanned.  Both read
the same table values, so a class gets the same bits either way, within
about 1e-14 of the time-stepped fold but not bit-identical to it.  Under
a threshold ``below`` the torus lists its minima or maxima from the pairs
whose x-gap ||dx||, which never changes, is under 2 below, and of those
with no rise (shear dx = 0) only the ones whose time-0 distance, which
they keep, is under 2 below; one sort of x and two searches find them,
and their distinct differences are swept as one list.  The annulus
family computes each of its three hooks once per class of points that
share the value.  It overrides ``visit_minima``: every angle advances by
the same k, so a visit at fixed radius is the nearest of the sorted
angles {n k mod 1} (`_nearest_gap` says how it is found), and the short
window of indices where a wandering orbit's radius moves is one table of
distances per orbit, which each orbit point reads over its own range.
The tails before and after the window that end at its edge nest, so each
orbit and side sorts one table for the shortest and adds the longer
tails' indices by a running minimum.  It also overrides
``comoving_pairs``: a pair's angle gap never changes.  Between an orbit
point and a circle point the distance is then a convex
function of the orbit's radius, and each orbit's radii rise to one peak
and fall after it, so the extremes over a window are read off that side's
sorted radii, at the ends of the window's run and next to the vertex, by
one bisection.  Two orbit points with the same rows, index gap and angle
gap see one sequence of chords shifted in time: each class evaluates it
once, over the indices where a radius moves, and each pair reads its
window off a sparse table.  Its ``return_distances`` needs no iteration
either: a point's angle gap to itself at time n is n k mod 1 and its
radius is read off at index m + n, so one row serves every circle point
of a radius.  Min and max are exact, so the classes give each point's
values bit for bit.  Every pair is evaluated on its own, and under a
threshold ``below`` only the pairs whose angle gap g, which never
changes, keeps 2 R0 |sin pi g| under 2 below, R0 the least radius of any
circle or table row, and of two circle points only those whose radii
differ by less than 2 below; one sort of the angles and two searches
find them.  These hooks measure in chord form, from the two radii and
the angle gap, where ``arr_cdist`` measures in the plane, so they agree
with it to about 1e-12, not bit for bit.
Angles n k mod 1 of orbit indices are exact to about an ulp (`_turns`),
which makes a visit to a point of the same orbit exactly 0.
The skew torus also overrides ``equicontinuity_witness`` with its shear.

Catalogue (ids):
    rotation       circle rotation by alpha, embedded at y=0 on the torus
    skew_torus     (x, y) -> (x + alpha, y + x) on the 2-torus
    annulus3       two boundary circles plus one wandering orbit between them
    annulusN       boundary circles plus N-2 wandering orbits (4 <= N <= 1024)
    annulus2       one circle plus an orbit approaching it in both directions
    shift2         full shift on two symbols
    identity       identity map on the torus

The default irrational angle is (sqrt(5)-1)/2.
"""

from __future__ import annotations

import itertools
import math
import re

import numpy as np

from .equicont import EquicontinuityWitness, skew_witness
from .errors import ConjugacyError, InvalidPointError, ParameterError
from .kernels import (_CHUNK, PairExtremes, _row_blocks, sweep_extremes,
                      sweep_returns, sweep_visits)
from .points import (Annulus, OrbitIndex, Pair, PointCloud, SymbolicPoint,
                     Torus, arr_mod1, periodic_point, symbolic_distance,
                     word_point)

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def _finite(name, value):
    value = float(value)
    if not math.isfinite(value):
        raise ParameterError(f"{name} must be finite, got {value!r}")
    return value


# ---------------------------------------------------------------------------
# vectorized torus helpers
# ---------------------------------------------------------------------------

_CLASS_BLOCK = 65_536  # pairs per block of the torus and annulus closed forms
                       # and of the annulus distance matrix, and the most
                       # codes of a torus or shift code table
_GAP_SLACK = 2.0 ** -50  # room, in turns, for the rounding of a gap that
                         # `_close_pairs` searches: a few ulps of 1


def _torus_dist(dx, dy):
    """The torus metric of coordinate differences: each reduced to
    [-1/2, 1/2] as d - round(d), then sqrt(dx^2 + dy^2).  Works in place
    on dx and dy, so a matrix costs one temporary beside them."""
    for d in (dx, dy):
        d -= np.round(d)
        d *= d
    dx += dy
    return np.sqrt(dx, out=dx)


def _close_pairs(a, b, gap):
    """The flat positions i * len(b) + j of every pair whose circular
    distance ||a_i - b_j|| is at most `gap` (< 1/4), with perhaps a few
    pairs that lie within `_GAP_SLACK` beyond it; None when they are more
    than an eighth of the pairs: on the 24^2 skew grid a list of a sixth
    of the pairs already costs as much as the full sweep.
    One sort of b mod 1 and two searchsorted calls over its copies shifted
    by -1, 0 and 1 find each row's pairs, so a window that wraps round 0
    or 1 finds the points past it, and each pair at most once."""
    a, b = np.mod(a, 1.0), np.mod(b, 1.0)
    order = np.argsort(b, kind="stable")
    ring = np.concatenate((b[order] - 1.0, b[order], b[order] + 1.0))
    lo = np.searchsorted(ring, a - gap)
    n = np.searchsorted(ring, a + gap, "right") - lo
    total = int(n.sum())
    if 8 * total > len(a) * len(b):
        return None
    at = np.arange(total) + np.repeat(lo - (np.cumsum(n) - n), n)
    return np.repeat(np.arange(len(a)) * len(b), n) + order[at % len(b)]


def _pair_list(near, shape, mirror, extremes):
    """The `PairExtremes` of an override of ``comoving_pairs`` on an
    (m, n) matrix, from the flat positions i * n + j of the pairs it
    keeps; extremes(i, j) evaluates {h: extremes} over paired index lists.
    With mirror (a cloud against itself) only the pairs i <= j are
    evaluated and each value is copied to (j, i): a pair found in one
    order only lies at the edge of a search with twice the room it needs,
    so its extremes are at least below."""
    n = shape[1]
    i, j = np.divmod(near, n)
    if mirror:
        half = i <= j
        i, j = i[half], j[half]
    ext = extremes(i, j)
    if mirror:
        off = i != j
        i, j = np.concatenate((i, j[off])), np.concatenate((j, i[off]))
        ext = {h: np.concatenate((e, e[off])) for h, e in ext.items()}
    order = np.argsort(i * n + j)
    return PairExtremes(shape, i[order], j[order],
                        {h: e[order] for h, e in ext.items()})


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


class DynSystem:
    """Invertible dynamical system on a compact metric space."""

    id: str = "?"
    # the kernels resolve distances down to floor (0.0: all the way)
    floor: float = 0.0
    # sampler resolution of the conventional report cloud
    cloud_size: int = 32

    # -- pointwise interface ---------------------------------------------
    def iterate(self, p, n: int):
        """f^n(p) for any integer n; n < 0 iterates the inverse."""
        raise NotImplementedError

    def step(self, p):
        return self.iterate(p, 1)

    def step_inv(self, p):
        return self.iterate(p, -1)

    def dist(self, x, y) -> float:
        """d(x, y): ``arr_edist`` on one-point states."""
        S, T = self.arr_state([x]), self.arr_state([y])
        return float(self.arr_edist(S, T)[0])

    def sampler(self, resolution: int, seed=None) -> PointCloud:
        raise NotImplementedError

    # -- array interface: by default, states are point lists ---------------
    def arr_state(self, points):
        return list(points)

    def arr_step(self, state, inverse=False):
        n = -1 if inverse else 1
        return [self.iterate(p, n) for p in state]

    def arr_iterate(self, state, n):
        """f^n of every point of a state, for any integer n: the state of
        the points ``iterate`` gives, bit for bit."""
        return [self.iterate(p, n) for p in state]

    def arr_pdist(self, state):
        return self.arr_cdist(state, state)

    def arr_cdist(self, sa, sb):
        """The distance matrix between two states."""
        raise NotImplementedError

    def arr_edist(self, sa, sb):
        """Elementwise distances between two equal-length states."""
        raise NotImplementedError

    # no caller; kept so every system resolves the same arr_* names
    def arr_embed(self, state):
        raise NotImplementedError

    def arr_take(self, state, idx):
        raise NotImplementedError

    # -- the kernels' hooks, on states --------------------------------------
    def comoving_pairs(self, sa, sb, horizons, use_max, centre, below):
        """The co-moving extremes, the one hook a system overrides for them:
        a `PairExtremes` of pairs (i, j) in CSR order, by row and then by
        column, each with the min (max when use_max) over |n - centre| <= h
        of d(f^n a_i, f^n b_j) at every horizon h, a_i and b_j the points
        of the states sa and sb; sb None pairs sa with itself, and its
        minima are exactly symmetric, (i, j) and (j, i) bit for bit.

        `below` None lists every pair: a full list, its values the
        row-major matrices with no i/j grids, which ``comoving_extremes``
        reshapes.  A finite positive `below` lists at least every pair
        whose extreme lies under it at some horizon of the call: the
        widest for minima, which fall as the window grows, and the
        narrowest for maxima, which rise.  Every pair left out has a
        certified extreme at or above `below` at every horizon; a listed
        pair may lie above it too, its values bit for bit the full list's.
        Against itself (sb None) the list is its own transpose, (j, i)
        listed with (i, j) and holding the same values: an override
        evaluates each unordered pair once and mirrors it, or keys it
        symmetrically.  This default runs the engine (`sweep_extremes`)
        and lists every pair at any `below`."""
        return PairExtremes.of_matrices(
            sweep_extremes(self, sa, sb, horizons, use_max, centre))

    def comoving_extremes(self, sa, sb, horizons, use_max, centre):
        """{h: M_h}, the full list of ``comoving_pairs`` as matrices:
        M_h[i, j] the min (max when use_max) over |n - centre| <= h of
        d(f^n a_i, f^n b_j).  Derived, never overridden."""
        return self.comoving_pairs(sa, sb, horizons, use_max, centre,
                                   None).matrices()

    def visit_minima(self, sp, st, H):
        """V[i, j] = min over |n| <= H of d(f^n p_i, t_j), p_i and t_j the
        points of the states sp and st."""
        return sweep_visits(self, sp, st, H)

    def return_distances(self, state, H):
        """The float32 D[i, t] = d(f^(t-H) p_i, p_i) for t = 0..2H, p_i
        the points of the state."""
        return sweep_returns(self, state, H)

    def equicontinuity_witness(self, base, N, epsilon, delta):
        """N+1 points of B_delta(base) whose images separate, built from
        the system's structure; None when the system knows no such
        construction."""
        return None

    def __repr__(self):
        return f"<{type(self).__name__} {self.id}>"


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
    read off that table.
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
        exactly 0.
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


# ---------------------------------------------------------------------------
# symbolic shift
# ---------------------------------------------------------------------------

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


def shift2():
    return ShiftSystem()


# ---------------------------------------------------------------------------
# constructors: product, power, conjugate
# ---------------------------------------------------------------------------

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


# ---------------------------------------------------------------------------
# catalogue
# ---------------------------------------------------------------------------

CATALOGUE_FACTS = {
    "rotation": "distal (isometry), minimal, equicontinuous; Omega=AP=X; "
                "0 proper minimal subsystems",
    "skew_torus": "distal, minimal, not N-equicontinuous for any N; "
                  "Omega=AP=X; zero entropy",
    "annulus3": "3-distal, not 2-distal; transitive; 2 minimal subsystems "
                "(the two circles); Omega = circles = AP",
    "annulusN": "N-distal, not (N-1)-distal; 2 minimal subsystems; "
                "Omega = circles = AP",
    "annulus2": "2-distal, not distal; 1 minimal subsystem; Omega = circle = AP",
    "shift2": "expansive, not N-distal for any N; transitive; "
              "positive entropy log 2",
    "identity": "distal (1-distal), every point periodic with period 1",
}

_BUILDERS = {
    "rotation": lambda alpha=GOLDEN: Rotation(alpha),
    "skew_torus": lambda alpha=GOLDEN: SkewTorus(alpha),
    "annulus3": lambda k=GOLDEN: annulus3(k),
    "annulusN": lambda k=GOLDEN, N=5: annulusN(k, N),
    "annulus2": lambda k=GOLDEN: annulus2(k),
    "shift2": lambda: shift2(),
    "identity": lambda: IdentityTorus(),
}


def catalogue():
    """One instance of every example system with default parameters."""
    return [b() for b in _BUILDERS.values()]


_SPEC_RE = re.compile(r"^(\w+)(?:\{(.*)\})?$")


def _number(text, spec):
    for cast in (int, float):
        try:
            return cast(text)
        except ValueError:
            pass
    raise ParameterError(f"bad number {text!r} in {spec!r}")


def get_system(spec: str) -> DynSystem:
    """Build a catalogue system from 'name' or 'name{key=value,...}'."""
    m = _SPEC_RE.match(spec.strip())
    if not m or m.group(1) not in _BUILDERS:
        raise ParameterError(f"unknown system spec {spec!r}")
    name, args = m.group(1), {}
    if m.group(2):
        for kv in m.group(2).split(","):
            k, _, v = kv.partition("=")
            if not _:
                raise ParameterError(f"bad parameter {kv!r} in {spec!r}")
            args[k.strip()] = _number(v, spec)
    try:
        return _BUILDERS[name](**args)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ParameterError(f"bad parameters for {name}: {exc}") from exc
