"""`DynSystem`, the base class of every system, and the helpers that two
system families share.  The contracts every system keeps (states, the
three hooks, ``below`` and the two metric forms) are stated in
``ndistal.systems``.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ParameterError
from .kernels import PairExtremes, sweep_extremes, sweep_returns, sweep_visits
from .points import PointCloud

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def _finite(name, value):
    value = float(value)
    if not math.isfinite(value):
        raise ParameterError(f"{name} must be finite, got {value!r}")
    return value


_CLASS_BLOCK = 65_536  # pairs per block of the torus and annulus closed forms
                       # and of the annulus distance matrix, and the most
                       # codes of a torus or shift code table
_GAP_SLACK = 2.0 ** -50  # room, in turns, for the rounding of a gap that
                         # `_close_pairs` searches: a few ulps of 1


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
        the points ``iterate`` gives, bit for bit.  ``iterate`` stays
        pointwise, as deriving it from one-point states costs 16 us a
        call against 1.2 us on the skew torus (2-vCPU Xeon, one loop of
        20,000 calls); ``arr_step`` stays too, as |n| steps, each reduced
        by a plain mod 1, round differently from one jump, and the orbit
        engine steps with it."""
        return [self.iterate(p, n) for p in state]

    def arr_pdist(self, state):
        return self.arr_cdist(state, state)

    def arr_cdist(self, sa, sb):
        """The distance matrix between two states."""
        raise NotImplementedError

    def arr_edist(self, sa, sb):
        """Elementwise distances between two equal-length states."""
        raise NotImplementedError

    # no caller in the library; the benchmark's tracer instruments every
    # arr_* name, these two included, so they stay while it lists them
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

    def word_codes(self, n, points=None):
        """The codes of the length-n words of a symbolic system's points
        (`ShiftSystem.word_codes`); other systems have no words."""
        raise ParameterError(f"{self.id}: word counts need a symbolic "
                             "system")

    def equicontinuity_witness(self, base, N, epsilon, delta):
        """N+1 points of B_delta(base) whose images separate, built from
        the system's structure; None when the system knows no such
        construction."""
        return None

    def __repr__(self):
        return f"<{type(self).__name__} {self.id}>"
