"""Orbit-sweep kernels shared by the analysis modules.

Everything here reduces a distance matrix over an iterate window: running
minima over |n| <= H for proximality and R_delta sets, running maxima for
dynamical balls, orbit-visit minima against fixed targets for transitivity
and minimal-set clustering, and minima over a window |n - c| <= H centred
at a time c.

No kernel calls ``step`` or ``iterate``.  The co-moving kernel
`comoving` asks the system's hook ``comoving_pairs`` (the extremes over a
centred window, of every pair or of the pairs that may lie under a
threshold), the visit kernel asks ``visit_minima``, and the self-return
kernel `orbit_return_matrix` asks ``return_distances`` (each point's
distance to its own iterates over |n| <= H, the input of the periods and
the return-gap verdicts in ``structure``, which steps no orbit itself).
The hooks take states, not point lists: each public kernel converts its
point lists once, by ``arr_state``, and passes the states on.  Every
horizon a kernel takes is an integer >= 0.

``below``: a caller that only asks which extremes lie under a threshold
passes it to `comoving`, which returns the hook's list of candidate pairs
unchanged (``DynSystem.comoving_pairs`` states its contract, for minima
and for maxima); the caller reads its rows off the list as
``j[values[h] < threshold]``, and ``PairExtremes.matrices(below)``
scatters it into matrices whose unlisted entries hold ``below``.
``below`` must be finite and positive; with none, the hook lists every
pair and `matrices` reshapes that full list.
The default of each hook, and `orbit_min_pairs`, run one engine on the
system's array interface (``arr_state``, ``arr_step``, ``arr_iterate``
and the ``arr_*dist`` methods), which every system has.  The shift, the
torus systems and the annulus family override hooks with closed forms,
each described at its method (``ndistal.systems`` names them); the engine
still serves the torus systems' visits and self-returns, and every hook
of conjugates, powers and products.

`nearest` (snapping) and `mesh` run on ``arr_cdist`` too, in row blocks of
at most `_CHUNK` distances.
"""

from __future__ import annotations

import math
import operator

import numpy as np

from .errors import ParameterError

_CHUNK = 4_000_000  # elements per temporary array of the blocked helpers


def _check_horizon(H):
    """H as an int, when it is an integer >= 0."""
    try:
        h = operator.index(H)
    except TypeError:
        h = -1
    if h < 0:
        raise ParameterError(f"horizon H must be an integer >= 0, got {H!r}")
    return h


def _sweep(step, sa, sb, H, dist, red=np.minimum, move_b=True,
           checkpoints=()):
    """Fold dist(a_n, b_n) with `red` over |n| <= H.

    step(state, inverse) moves a state one step; b stays where it is unless
    move_b.  Returns M and, for each h in checkpoints, a copy of M once the
    steps up to |n| = h are folded in.
    """
    H = _check_horizon(H)
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
    H = max(_check_horizon(h) for h in horizons)
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
    state s0: one ``arr_iterate`` jump to f^-H, then 2H steps."""
    H = _check_horizon(H)
    s = sys.arr_iterate(s0, -H)
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
        best = min(best, float(D.min(where=D > 0.0, initial=np.inf)))
    return best


# ---------------------------------------------------------------------------
# public kernels
# ---------------------------------------------------------------------------

def comoving(sys, points, others, horizons, use_max=False, centre=0,
             below=None):
    """The co-moving kernel: the hook ``comoving_pairs``'s `PairExtremes`
    of the points against the others (None: against themselves), pair
    (i, j) holding the min (max when use_max) over |n - centre| <= h of
    d(f^n p_i, f^n q_j) at each horizon h, with every pair that may lie
    under `below` listed (see ``below`` above)."""
    horizons = {_check_horizon(h) for h in horizons}
    if below is not None:
        below = float(below)
        if not 0.0 < below < math.inf:
            raise ParameterError(
                f"below must be finite and positive, got {below!r}")
    sb = None if others is None else sys.arr_state(list(others))
    return sys.comoving_pairs(sys.arr_state(list(points)), sb, horizons,
                              use_max, centre, below)


def below_for(threshold):
    """The ``below`` of a caller that reads only entries under
    `threshold`: the threshold itself, or None (every entry exact) when it
    is infinite, as ``below`` must be finite."""
    return threshold if math.isfinite(threshold) else None


def orbit_visit_matrix(sys, points, targets, H):
    """V[i,j] = min over |n|<=H of d(f^n p_i, t_j) with the targets fixed."""
    return sys.visit_minima(sys.arr_state(list(points)),
                            sys.arr_state(list(targets)), _check_horizon(H))


def orbit_return_matrix(sys, points, H):
    """D[i, t] = d(f^(t-H) p_i, p_i) for t = 0..2H, as float32."""
    return sys.return_distances(sys.arr_state(list(points)),
                                _check_horizon(H))


def orbit_min_pairs(sys, xs, ys, H):
    """Elementwise min over |n|<=H of d(f^n x_i, f^n y_i) over paired
    point lists."""
    return _sweep(sys.arr_step, sys.arr_state(list(xs)),
                  sys.arr_state(list(ys)), H, sys.arr_edist)[0]


def min_orbit_distance(sys, x, y, H: int) -> float:
    """min over |n| <= H of d(f^n x, f^n y)."""
    return float(comoving(sys, [x], [y], [H]).values[H][0])


def max_orbit_distance(sys, x, y, H: int) -> float:
    """max over |n| <= H of d(f^n x, f^n y)."""
    return float(comoving(sys, [x], [y], [H], use_max=True).values[H][0])
