"""Orbit-sweep kernels shared by the analysis modules.

Everything here reduces a distance matrix over an iterate window: running
minima over |n| <= H for proximality and R_delta sets, running maxima for
dynamical balls, orbit-visit minima against fixed targets for transitivity
and minimal-set clustering, and minima over a window |n - c| <= H centred
at a time c.

No kernel calls ``step`` or ``iterate``.  The co-moving kernels ask the
system's hook ``comoving_pairs`` (the extremes over a centred window, of
every pair or of the pairs that may lie under a threshold), the visit
kernel asks ``visit_minima``, and the self-return kernel
`orbit_return_matrix` asks ``return_distances`` (each point's distance
to its own iterates over |n| <= H, the input of the periods and the
return-gap verdicts in ``structure``, which steps no orbit itself).
The hooks take states, not point lists: each public kernel converts its
point lists once, by ``arr_state``, and passes the states on.

``below``: a caller that only asks which extremes lie under a threshold
reads them as the hook's list of candidate pairs
(``DynSystem.comoving_pairs`` states its contract, for minima and for
maxima): `orbit_min_list` and `orbit_max_list` hand the list on, and
`orbit_min_matrix` and `orbit_min_rows` with ``below`` scatter it into a
matrix whose unlisted entries hold ``below``.  ``below`` must be finite
and positive; with none, the hook lists every pair and the matrix
kernels reshape that full list.
The default of each hook, and `orbit_min_pairs`, run one engine on the
system's array interface (``arr_state``, ``arr_step`` and the
``arr_*dist`` methods), which every system has.  The shift, the torus
systems and the annulus family override hooks with closed forms, each
described at its method (``ndistal.systems`` names them); the engine
still serves the torus systems' visits and self-returns, and every hook
of conjugates, powers and products.

`nearest` (snapping) and `mesh` run on ``arr_cdist`` too, in row blocks of
at most `_CHUNK` distances.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ParameterError

_CHUNK = 4_000_000  # elements per temporary array of the blocked helpers


def _check_horizon(H):
    if H < 0:
        raise ParameterError(f"horizon H must be >= 0, got {H}")


def _sweep(step, sa, sb, H, dist, red=np.minimum, move_b=True,
           checkpoints=()):
    """Fold dist(a_n, b_n) with `red` over |n| <= H.

    step(state, inverse) moves a state one step; b stays where it is unless
    move_b.  Returns M and, for each h in checkpoints, a copy of M once the
    steps up to |n| = h are folded in.
    """
    _check_horizon(H)
    M = dist(sa, sb)
    walks = [(sa, sb), (sa, sb)]
    cps = {0: M.copy()} if 0 in checkpoints else {}
    for n in range(1, H + 1):
        for k, inverse in enumerate((False, True)):
            a, b = walks[k]
            a = step(a, inverse)
            if move_b:
                b = step(b, inverse)
            walks[k] = (a, b)
            red(M, dist(a, b), out=M)
        if n in checkpoints:
            cps[n] = M.copy()
    return M, cps


def sweep_extremes(sys, sa, sb, horizons, use_max, centre):
    """The engine behind ``DynSystem.comoving_pairs``: {h: M_h} with
    M_h[i, j] the min (max when use_max) over |n - centre| <= h of
    d(f^n a_i, f^n b_j), for the points of the states sa and sb; sb None
    pairs sa with itself.  Every entry is exact."""
    H = max(horizons)
    red = np.maximum if use_max else np.minimum
    if sb is None:
        dist, move_b = lambda a, _: sys.arr_pdist(a), False
    else:
        dist, move_b = sys.arr_cdist, True
    for _ in range(abs(centre)):
        sa = sys.arr_step(sa, centre < 0)
        if move_b:
            sb = sys.arr_step(sb, centre < 0)
    M, cps = _sweep(sys.arr_step, sa, sb, H, dist, red, move_b,
                    horizons)
    cps[H] = M
    return cps


class PairExtremes:
    """The extremes of an (n_a, n_b) co-moving matrix at a few pairs, as
    ``comoving_pairs`` lists them: pair k is (i[k], j[k]), in CSR order
    (by row, then by column), and values[h][k] its minimum (maximum, for
    a list of maxima) at horizon h.  i and j are integer arrays of any
    width.  A list of every pair is built with i and j None (`full`),
    and makes them, as int32 grids, when first read."""

    def __init__(self, shape, i, j, values):
        self.shape, self._i, self._j, self.values = shape, i, j, values
        self.full = i is None

    @property
    def i(self):
        if self._i is None:
            m, n = self.shape
            self._i = np.repeat(np.arange(m, dtype=np.int32), n)
        return self._i

    @property
    def j(self):
        if self._j is None:
            m, n = self.shape
            self._j = np.tile(np.arange(n, dtype=np.int32), m)
        return self._j

    def row_counts(self, keep):
        """Per row, how many of its listed pairs the boolean `keep`, one
        entry a pair, holds; a full list counts rows of its matrix, with
        no grid."""
        if self.full:
            return keep.reshape(self.shape).sum(axis=1)
        return np.bincount(self.i[keep], minlength=self.shape[0])

    @classmethod
    def of_matrices(cls, out):
        """The full list of the matrices {h: M_h}, which are themselves
        its values, with no copy."""
        shape = next(iter(out.values())).shape
        return cls(shape, None, None,
                   {h: M.reshape(-1) for h, M in out.items()})

    def matrices(self, below=None):
        """{h: M_h}: a full list reshaped, with no copy, or a partial one
        scattered into matrices whose unlisted entries hold `below`."""
        if self.full:
            return {h: e.reshape(self.shape) for h, e in self.values.items()}
        out = {}
        for h, e in self.values.items():
            out[h] = np.full(self.shape, float(below))
            out[h][self.i, self.j] = e
        return out


def sweep_visits(sys, sp, st, H):
    """The engine behind ``DynSystem.visit_minima``: V[i, j] the min over
    |n| <= H of d(f^n p_i, t_j), the targets held fixed."""
    return _sweep(sys.arr_step, sp, st, H, sys.arr_cdist, move_b=False)[0]


def sweep_returns(sys, s0, H):
    """The engine behind ``DynSystem.return_distances``: the float32
    D[i, t] = d(f^(t-H) x_i, x_i) for t = 0..2H, x_i the points of the
    state s0."""
    s = s0
    for _ in range(H):
        s = sys.arr_step(s, inverse=True)
    cols = []
    for t in range(2 * H + 1):
        cols.append(sys.arr_edist(s, s0).astype(np.float32))
        if t < 2 * H:
            s = sys.arr_step(s)
    return np.stack(cols, axis=1)


def _row_blocks(m, width, budget):
    """Slices of m rows of `width` elements, each block holding at most
    `budget` elements (at least one row)."""
    step = max(1, budget // max(1, width))
    return [slice(s, s + step) for s in range(0, m, step)]


def nearest(sys, queries, points):
    """For each query, the index of its nearest point under the system's
    metric (the lowest index on ties) and the distance to it."""
    queries = list(queries)
    sp = sys.arr_state(list(points))
    idx = np.empty(len(queries), dtype=np.int64)
    gap = np.empty(len(queries))
    for rows in _row_blocks(len(queries), len(points), _CHUNK):
        D = sys.arr_cdist(sys.arr_state(queries[rows]), sp)
        idx[rows] = D.argmin(axis=1)
        gap[rows] = D[np.arange(len(D)), idx[rows]]
    return idx, gap


def mesh(sys, points):
    """Smallest positive distance between two of the points (inf when no
    two are apart)."""
    points = list(points)
    best = np.inf
    for rows in _row_blocks(len(points), len(points), _CHUNK):
        # the upper triangle: each block against itself and later points
        D = sys.arr_cdist(sys.arr_state(points[rows]),
                          sys.arr_state(points[rows.start:]))
        pos = D[D > 0.0]
        if pos.size:
            best = min(best, float(pos.min()))
    return best


# ---------------------------------------------------------------------------
# public kernels
# ---------------------------------------------------------------------------

def orbit_min_matrix(sys, points, H, checkpoints=(), below=None):
    """M[i,j] = min over |n|<=H of d(f^n p_i, f^n p_j); optional snapshot
    copies at intermediate horizons.  Returns (M, {h: snapshot}).  With
    `below`, only the entries under it are exact: every other entry holds
    `below`, a certified lower bound on it (see ``below`` above)."""
    return _comoving(sys, points, None, H, checkpoints, use_max=False,
                     below=below)


def orbit_max_matrix(sys, points, H):
    """M[i,j] = max over |n|<=H of d(f^n p_i, f^n p_j)."""
    return _comoving(sys, points, None, H, (), use_max=True)[0]


def orbit_min_rows(sys, points, base_idx, H, checkpoints=(), below=None):
    """Rows of orbit_min_matrix for the given base indices only."""
    bases = [points[i] for i in base_idx]
    return _comoving(sys, bases, list(points), H, checkpoints, use_max=False,
                     below=below)


def orbit_max_rows(sys, points, base_idx, H):
    """Rows of orbit_max_matrix for the given base indices only."""
    bases = [points[i] for i in base_idx]
    return _comoving(sys, bases, list(points), H, (), use_max=True)[0]


def orbit_min_list(sys, points, H, checkpoints=(), below=None):
    """The pairs (i, j) of orbit_min_matrix that may lie under `below`, as
    a `PairExtremes` holding their minima at H and at each checkpoint, bit
    for bit the matrix's entries: every pair left out has a minimum at or
    above `below`.  The list is in CSR order and is its own transpose.
    `below` None lists every pair."""
    _check_horizon(H)
    return _comoving_list(sys, sys.arr_state(list(points)), None,
                          {H, *checkpoints}, False, 0, below)


def orbit_max_list(sys, points, H, below=None):
    """The pairs (i, j) of orbit_max_matrix that may lie under `below`, as
    a `PairExtremes` holding their maxima at H, bit for bit the matrix's
    entries: every pair left out has a maximum at or above `below`.  The
    list is in CSR order and is its own transpose.  `below` None lists
    every pair."""
    _check_horizon(H)
    return _comoving_list(sys, sys.arr_state(list(points)), None, {H}, True,
                          0, below)


def below_for(threshold):
    """The ``below`` of a caller that reads only entries under
    `threshold`: the threshold itself, or None (every entry exact) when it
    is infinite, as ``below`` must be finite."""
    return threshold if math.isfinite(threshold) else None


def _comoving(sys, pts_a, pts_b, H, checkpoints, use_max, centre=0,
              below=None):
    sb = None if pts_b is None else sys.arr_state(list(pts_b))
    return _comoving_states(sys, sys.arr_state(list(pts_a)), sb, H,
                            checkpoints, use_max, centre, below)


def _comoving_states(sys, sa, sb, H, checkpoints, use_max, centre=0,
                     below=None):
    """`_comoving` on states already built, for callers that reuse one:
    the list of `_comoving_list` as matrices, a full list reshaped and a
    partial one scattered into `below`."""
    _check_horizon(H)
    out = _comoving_list(sys, sa, sb, {H, *checkpoints}, use_max, centre,
                         below).matrices(below)
    return out[H], {h: out[h] for h in checkpoints}


def _comoving_list(sys, sa, sb, horizons, use_max, centre, below):
    """The list kernel: the hook ``comoving_pairs`` under a checked
    `below`; None lists every pair."""
    if below is not None:
        below = float(below)
        if not 0.0 < below < math.inf:
            raise ParameterError(
                f"below must be finite and positive, got {below!r}")
    return sys.comoving_pairs(sa, sb, horizons, use_max, centre, below)


def orbit_visit_matrix(sys, points, targets, H):
    """V[i,j] = min over |n|<=H of d(f^n p_i, t_j) with the targets fixed."""
    _check_horizon(H)
    return sys.visit_minima(sys.arr_state(list(points)),
                            sys.arr_state(list(targets)), H)


def orbit_return_matrix(sys, points, H):
    """D[i, t] = d(f^(t-H) p_i, p_i) for t = 0..2H, as float32."""
    _check_horizon(H)
    return sys.return_distances(sys.arr_state(list(points)), H)


def orbit_min_pairs(sys, xs, ys, H):
    """Elementwise min over |n|<=H of d(f^n x_i, f^n y_i) over paired
    point lists."""
    return _sweep(sys.arr_step, sys.arr_state(list(xs)),
                  sys.arr_state(list(ys)), H, sys.arr_edist)[0]


def orbit_window_min_row(sys, x, points, centre, H):
    """min over |k - centre| <= H of d(f^k x, f^k p) for each point p."""
    return _comoving(sys, [x], list(points), H, (), False, centre)[0][0]


def min_orbit_distance(sys, x, y, H: int) -> float:
    """min over |n| <= H of d(f^n x, f^n y)."""
    return float(_comoving(sys, [x], [y], H, (), use_max=False)[0][0, 0])


def max_orbit_distance(sys, x, y, H: int) -> float:
    """max over |n| <= H of d(f^n x, f^n y)."""
    return float(_comoving(sys, [x], [y], H, (), use_max=True)[0][0, 0])
