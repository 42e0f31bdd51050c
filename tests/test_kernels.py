"""Orbit sweep kernels: the native array states, the default point-list
interface and the shift's closed form must agree with plain pointwise
iteration."""

import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ndistal.kernels import (comoving, max_orbit_distance, mesh,
                             min_orbit_distance, nearest, orbit_min_pairs,
                             orbit_return_matrix, orbit_visit_matrix)
from ndistal import (annulus, base, equicont, kernels, shift, systems,
                     torus, wrappers)
from ndistal.errors import ParameterError
from ndistal.points import (Annulus, OrbitIndex, PointCloud, SymbolicPoint,
                            Torus, circ_gap, periodic_point,
                            symbolic_distance, word_point)
from ndistal.structure import DELTA_LIST
from ndistal.systems import (GCAP, IdentityTorus, Rotation, SkewTorus,
                             annulus2, annulus3, annulusN, conjugate_system,
                             shift2)

FLOOR = 2.0 ** -GCAP


def clamped(a):
    """Values below the shift's floor raised to it; exact zeros kept."""
    return np.where(a == 0.0, 0.0, np.maximum(a, FLOOR))


def states(sys, pts_a, pts_b):
    """The hooks' arguments for two point lists: their states, with None
    (pair pts_a with itself) kept."""
    return sys.arr_state(pts_a), None if pts_b is None else \
        sys.arr_state(pts_b)


def row_block_spy(monkeypatch, module):
    """Records (budget, number of blocks) for each call of the module's
    `_row_blocks`, so a test that patches a block budget can check that
    the patched value cut the work."""
    real, seen = module._row_blocks, []

    def spy(m, width, budget):
        blocks = real(m, width, budget)
        seen.append((budget, len(blocks)))
        return blocks

    monkeypatch.setattr(module, "_row_blocks", spy)
    return seen


def split_by(seen, budget):
    """Whether some recorded call took `budget` and cut several blocks."""
    return any(b == budget and n > 1 for b, n in seen)


def brute_min_matrix(sys, points, H):
    m = len(points)
    D = np.full((m, m), np.inf)
    for n in range(-H, H + 1):
        imgs = [sys.iterate(p, n) for p in points]
        for i in range(m):
            for j in range(m):
                D[i, j] = min(D[i, j], sys.dist(imgs[i], imgs[j]))
    return D


def brute_max_matrix(sys, points, H):
    m = len(points)
    D = np.zeros((m, m))
    for n in range(-H, H + 1):
        imgs = [sys.iterate(p, n) for p in points]
        for i in range(m):
            for j in range(m):
                D[i, j] = max(D[i, j], sys.dist(imgs[i], imgs[j]))
    return D


@pytest.mark.parametrize("make", [Rotation, SkewTorus, annulus3, shift2])
def test_orbit_min_matrix_matches_brute_force(make):
    sys = make()
    cloud = sys.sampler(3)
    pts = cloud.points[:8]
    got = comoving(sys, pts, None, [12]).matrices()[12]
    want = brute_min_matrix(sys, pts, 12)
    assert np.allclose(got, want, atol=1e-9)


@pytest.mark.parametrize("make", [Rotation, annulus3, shift2])
def test_orbit_max_matrix_matches_brute_force(make):
    sys = make()
    pts = sys.sampler(3).points[:8]
    got = comoving(sys, pts, None, [12], use_max=True).matrices()[12]
    want = brute_max_matrix(sys, pts, 12)
    assert np.allclose(got, want, atol=1e-9)


def test_pointwise_fallback_path():
    # a conjugate steps the preimages of its points one at a time
    base = Rotation(0.3)
    h = lambda p: Torus(p.x + 0.1, p.y)
    h_inv = lambda p: Torus(p.x - 0.1, p.y)
    sys = conjugate_system(base, h, h_inv)
    pts = [Torus(i / 7.0, 0.0) for i in range(7)]
    got = comoving(sys, pts, None, [10]).matrices()[10]
    want = brute_min_matrix(sys, pts, 10)
    assert np.allclose(got, want, atol=1e-9)


def test_checkpoints_are_prefix_minima():
    sys = annulus3()
    pts = sys.sampler(3).points[:10]
    snaps = comoving(sys, pts, None, (40, 10, 20)).matrices()
    assert set(snaps) == {10, 20, 40}
    assert np.all(snaps[10] >= snaps[20] - 1e-15)
    assert np.all(snaps[20] >= snaps[40] - 1e-15)
    assert np.allclose(snaps[10], brute_min_matrix(sys, pts, 10), atol=1e-9)


def test_orbit_min_rows_match_matrix():
    sys = SkewTorus()
    pts = sys.sampler(3).points[:9]
    M = comoving(sys, pts, None, [15]).matrices()[15]
    rows = comoving(sys, [pts[2], pts[5]], pts, [15]).matrices()[15]
    assert np.allclose(rows[0], M[2], atol=1e-12)
    assert np.allclose(rows[1], M[5], atol=1e-12)


def test_orbit_min_pairs_elementwise():
    sys = Rotation()
    xs = [Torus(i / 5.0, 0.0) for i in range(5)]
    ys = [Torus((i + 1) / 7.0, 0.0) for i in range(5)]
    got = orbit_min_pairs(sys, xs, ys, 20)
    for i in range(5):
        assert got[i] == pytest.approx(
            min_orbit_distance(sys, xs[i], ys[i], 20), abs=1e-12)


def test_min_orbit_distance_examples():
    # equal first coordinates keep skew distance constant
    s = SkewTorus()
    assert min_orbit_distance(s, Torus(0, 0), Torus(0, 0.3), 50) == \
        pytest.approx(0.3)
    # wandering orbit point approaches the inner circle
    a = annulus3()
    assert min_orbit_distance(a, OrbitIndex(0), Annulus(0, 1), 5) <= 2.4e-10
    assert min_orbit_distance(a, OrbitIndex(0), OrbitIndex(0), 10) == 0.0


def test_min_orbit_distance_monotone_in_horizon():
    s = SkewTorus()
    x, y = Torus(0.1, 0.2), Torus(0.4, 0.9)
    vals = [min_orbit_distance(s, x, y, H) for H in (0, 5, 20, 80)]
    for a, b in zip(vals, vals[1:]):
        assert b <= a + 1e-15


def test_shift_analytic_distances():
    s = shift2()
    zero = word_point(())
    spike = word_point((1,), origin=6)
    # at time n the difference sits at index 6 - n, so d = 2^-|6-n|;
    # the max hits 2^0 = 1 at n = 6, the min drifts out backward
    assert max_orbit_distance(s, zero, spike, 10) == pytest.approx(1.0)
    assert min_orbit_distance(s, zero, spike, 10) == pytest.approx(2.0 ** -16)
    assert max_orbit_distance(s, zero, spike, 4) == pytest.approx(2.0 ** -2)
    assert min_orbit_distance(s, zero, spike, 4) == pytest.approx(2.0 ** -10)


def test_orbit_visit_matrix_matches_brute():
    sys = annulus3()
    pts = sys.sampler(4).points[:6]
    tgt = pts[:4]
    H = 15
    got = orbit_visit_matrix(sys, pts, tgt, H)
    m, t = len(pts), len(tgt)
    want = np.full((m, t), np.inf)
    for n in range(-H, H + 1):
        imgs = [sys.iterate(p, n) for p in pts]
        for i in range(m):
            for j in range(t):
                want[i, j] = min(want[i, j], sys.dist(imgs[i], tgt[j]))
    assert np.allclose(got, want, atol=1e-9)


# ---------------------------------------------------------------------------
# one engine: native, default and closed-form paths agree
# ---------------------------------------------------------------------------

def random_points(name, rng, m):
    if name == "rotation":
        return [Torus(float(t), 0.0) for t in rng.random(m)]
    if name in ("skew_torus", "identity"):
        return [Torus(float(a), float(b)) for a, b in rng.random((m, 2))]
    if name == "annulus3":
        return [OrbitIndex(int(n)) if n % 3 == 0
                else Annulus(float(t), 1.0 + n % 2)
                for n, t in zip(rng.integers(-20, 21, m), rng.random(m))]
    return [random_symbolic(rng) for _ in range(m)]


def random_symbolic(rng):
    """A finite word on a constant fill of 0 or 1, a purely periodic point,
    or a word between two periodic tails."""
    def bits(lo, hi):
        n = int(rng.integers(lo, hi))
        return tuple(int(b) for b in rng.integers(0, 2, n))

    kind = int(rng.integers(0, 3))
    origin = int(rng.integers(-90, 91))
    if kind == 0:
        return word_point(bits(1, 5), origin, fill=int(rng.integers(0, 2)))
    if kind == 1:
        return periodic_point(bits(1, 5))
    return SymbolicPoint(bits(0, 5), origin, bits(1, 4), bits(1, 4))


MAKERS = {"rotation": Rotation, "skew_torus": SkewTorus,
          "annulus3": annulus3, "shift2": shift2}


def identity_conjugate(sys):
    """The same system seen through a conjugate, which runs the engine on
    every hook: every point is stepped on its own by iterate, and measured
    with the system's array metric."""
    return conjugate_system(sys, lambda p: p, lambda p: p)


def conjugacy(kind, sys):
    """(h, h_inv): the identity, the system's own map, or a translation of
    the torus (along the rotation's circle for a rotation)."""
    if kind == "identity":
        return (lambda p: p), (lambda p: p)
    if kind == "step":
        return sys.step, sys.step_inv
    b = 0.0 if isinstance(sys, Rotation) else 0.7
    return (lambda p: Torus(p.x + 0.3, p.y + b),
            lambda p: Torus(p.x - 0.3, p.y - b))


CONJUGACIES = [(name, kind) for name in sorted(MAKERS)
               for kind in ("identity", "step", "translation")
               if kind != "translation" or name in ("rotation", "skew_torus")]


def folded(sys, base, xs, ys, ns, red=np.minimum, move_ys=True):
    """red over n in ns of the distance matrix between sys^n(xs) and
    sys^n(ys) (ys itself unless move_ys), every point iterated on its own
    by ``iterate`` and measured on base's metric."""
    out = None
    for n in ns:
        a = base.arr_state([sys.iterate(p, n) for p in xs])
        b = base.arr_state([sys.iterate(q, n) if move_ys else q for q in ys])
        D = base.arr_cdist(a, b)
        out = D if out is None else red(out, D)
    return out


@given(st.sampled_from(CONJUGACIES), st.integers(0, 10_000))
@settings(max_examples=30, deadline=None)
def test_conjugate_measures_with_its_base(case, seed):
    # a conjugate steps the preimages of its points and measures their
    # images with the base's array metric: its co-moving extremes (at
    # centre 0 and off it), visit minima and self-returns are the fold of
    # its pointwise iterates, and with the identity h they are the base's
    rng = np.random.default_rng(seed)
    name, kind = case
    native = MAKERS[name]()
    conj = conjugate_system(native, *conjugacy(kind, native))
    x, *pts = random_points(name, rng, int(rng.integers(2, 7)))
    H = int(rng.integers(0, 13))
    cps = tuple(sorted({int(h) for h in rng.integers(0, H + 1, 2)}))
    centre = int(rng.integers(1, 11)) * int(rng.choice([-1, 1]))
    tgt = pts[:2]

    def close(a, b):
        return np.allclose(a, b, rtol=0.0, atol=1e-12)

    snaps_c = comoving(conj, pts, None, [H, *cps]).matrices()
    assert all(close(snaps_c[h], folded(conj, native, pts, pts,
                                        range(-h, h + 1)))
               for h in (H, *cps))
    window = range(centre - H, centre + H + 1)
    assert close(comoving(conj, [x], pts, [H], centre=centre).values[H],
                 folded(conj, native, [x], pts, window)[0])
    assert close(comoving(conj, pts, None, [H], True, centre).matrices()[H],
                 folded(conj, native, pts, pts, window, np.maximum))
    assert close(orbit_visit_matrix(conj, pts, tgt, H),
                 folded(conj, native, pts, tgt, range(-H, H + 1),
                        move_ys=False))
    # float32 self-returns: within half an ulp of float32 of the fold
    S0 = native.arr_state(pts)
    returns = np.stack([native.arr_edist(native.arr_state(
        [conj.iterate(p, t - H) for p in pts]), S0)
        for t in range(2 * H + 1)], axis=1)
    assert np.allclose(kernels.orbit_return_matrix(conj, pts, H), returns,
                       rtol=2.0 ** -24, atol=1e-12)
    if kind == "identity":
        snaps = comoving(native, pts, None, [H, *cps]).matrices()
        assert all(close(snaps[h], snaps_c[h]) for h in (H, *cps))
        assert close(orbit_visit_matrix(native, pts, tgt, H),
                     orbit_visit_matrix(conj, pts, tgt, H))
        assert close(comoving(native, [x], pts, [H], centre=centre).values[H],
                     comoving(conj, [x], pts, [H], centre=centre).values[H])


def counted_conjugate():
    """An annulus3 conjugate by its own map, and the dict that counts its
    calls of h, h_inv and f's iterate."""
    f, maps = annulus3(), annulus3()
    calls = {"h": 0, "h_inv": 0, "iterate": 0}

    def counted(name, fn):
        def call(*args):
            calls[name] += 1
            return fn(*args)
        return call

    f.iterate = counted("iterate", f.iterate)
    return conjugate_system(f, counted("h", maps.step),
                            counted("h_inv", maps.step_inv)), calls


def test_conjugate_steps_its_preimages():
    # the state holds the preimages u = h^-1(p): the co-moving kernel
    # applies h_inv once a point, when it builds the state, and each step
    # one f iterate and one h a point
    conj, calls = counted_conjugate()
    pts = list(conj.f.sampler(8).points[::5])
    m, H = len(pts), 6
    comoving(conj, pts, None, [H])
    assert calls == {"h": 2 * H * m, "h_inv": m, "iterate": 2 * H * m}
    S = conj.arr_state(pts)
    for inverse in (False, True, True):
        calls.update(h=0, h_inv=0, iterate=0)
        S = conj.arr_step(S, inverse)
        assert calls == {"h": m, "h_inv": 0, "iterate": m}


def test_conjugate_walks_copy_along_links():
    # on a contiguous orbit segment plus c circle points, the first step
    # of a walk moves every preimage, and each later step in the same
    # direction copies all but the segment's leading end and the circle
    # points: c + 1 calls of f and of h
    conj, calls = counted_conjugate()
    c = 5
    pts = [OrbitIndex(n) for n in range(-12, 13)]
    pts += [Annulus(j / c, 1.0 + j % 2) for j in range(c)]
    m, H = len(pts), 6
    comoving(conj, pts, None, [H])
    later = 2 * (H - 1) * (c + 1)
    assert calls == {"h": 2 * m + later, "h_inv": m,
                     "iterate": 2 * m + later}
    S = conj.arr_state(pts)
    for inverse, first in ((False, True), (False, False), (True, True),
                           (True, False), (True, False), (False, True)):
        calls.update(h=0, h_inv=0, iterate=0)
        S = conj.arr_step(S, inverse)
        k = m if first else c + 1
        assert calls == {"h": k, "h_inv": 0, "iterate": k}


class StepEveryPoint(wrappers.ConjugateSystem):
    """A conjugate with no links, the reference for its walks: its state
    is f's state of the points and their preimages, and each step moves
    every preimage by f and h."""

    def arr_state(self, points):
        points = list(points)
        return self.f.arr_state(points), [self.h_inv(p) for p in points]

    def arr_step(self, state, inverse=False):
        n = -1 if inverse else 1
        pre = [self.f.iterate(u, n) for u in state[1]]
        return self.f.arr_state([self.h(u) for u in pre]), pre


def orbit_segment(sys, x, length):
    """x and its iterates, each one step of the last."""
    pts = [x]
    for _ in range(length - 1):
        pts.append(sys.step(pts[-1]))
    return pts


def linked_clouds():
    """(name, f, h, h_inv, points): conjugates on clouds that hold orbit
    segments of their preimages, as point types with exact steps or the
    identity h keep them."""
    ann, skew, sh = annulus3(), SkewTorus(), shift2()
    ident = lambda p: p
    yield ("annulus3", ann, ann.step, ann.step_inv,
           [ann.step(p) for p in ann.sampler(16).points])
    yield ("skew_torus", skew, ident, ident,
           orbit_segment(skew, Torus(0.1, 0.2), 25)
           + [Torus(0.5, 0.25), Torus(0.9, 0.4)])
    yield ("shift2", sh, sh.step, sh.step_inv,
           orbit_segment(sh, word_point((1, 0, 1, 1), -2), 12)
           + [word_point((1, 1)), periodic_point((0, 1))])


@pytest.mark.parametrize("case", list(linked_clouds()), ids=lambda c: c[0])
def test_conjugate_links_keep_every_bit(case):
    # copying along links gives the bits of stepping every point by f and
    # h: co-moving extremes (minima and maxima, at centres off 0, against
    # itself and a cross list), visit minima and self-returns
    _, f, h, h_inv, pts = case
    conj, ref = conjugate_system(f, h, h_inv), StepEveryPoint(f, h, h_inv)
    walk = conj.arr_step(conj.arr_state(pts))[3]
    assert max(walk[1]) >= 0
    H = 9

    def same(a, b):
        return a.shape == b.shape and np.array_equal(
            a.view(np.uint8), b.view(np.uint8))

    for centre in (-7, 0, 5):
        for use_max in (False, True):
            for others in (None, pts[::3]):
                got = comoving(conj, pts, others, [3, H], use_max, centre)
                want = comoving(ref, pts, others, [3, H], use_max, centre)
                assert all(same(got.values[k], want.values[k])
                           for k in (3, H))
    assert same(orbit_visit_matrix(conj, pts, pts[::4], H),
                orbit_visit_matrix(ref, pts, pts[::4], H))
    assert same(orbit_return_matrix(conj, pts, H),
                orbit_return_matrix(ref, pts, H))


@given(st.sampled_from(["rotation", "skew_torus", "annulus3"]),
       st.integers(0, 10_000))
@settings(max_examples=30, deadline=None)
def test_native_and_default_paths_agree(name, seed):
    rng = np.random.default_rng(seed)
    native = MAKERS[name]()
    default = identity_conjugate(native)
    pts = random_points(name, rng, int(rng.integers(2, 7)))
    H = int(rng.integers(0, 13))
    cps = tuple(sorted({int(h) for h in rng.integers(1, H + 1, 2)})) \
        if H else ()

    def close(a, b):
        return np.allclose(a, b, rtol=0.0, atol=1e-12)

    snaps = comoving(native, pts, None, [H, *cps]).matrices()
    snaps_d = comoving(default, pts, None, [H, *cps]).matrices()
    assert close(snaps[H], snaps_d[H])
    assert set(snaps) == set(snaps_d) == {H, *cps}
    assert all(close(snaps[h], snaps_d[h]) for h in cps)
    assert close(comoving(native, pts, None, [H], use_max=True).values[H],
                 comoving(default, pts, None, [H], use_max=True).values[H])
    tgt = pts[:2]
    assert close(orbit_visit_matrix(native, pts, tgt, H),
                 orbit_visit_matrix(default, pts, tgt, H))
    ys = pts[::-1]
    assert close(orbit_min_pairs(native, pts, ys, H),
                 orbit_min_pairs(default, pts, ys, H))


TORUS = {"rotation": Rotation, "skew_torus": SkewTorus,
         "identity": IdentityTorus}


@given(st.sampled_from(sorted(TORUS)), st.booleans(), st.integers(0, 10_000))
@settings(max_examples=60, deadline=None)
def test_torus_difference_classes_match_default(name, grid, seed):
    rng = np.random.default_rng(seed)
    sys = TORUS[name]()
    default = identity_conjugate(sys)
    if grid:
        # a permuted grid, where many pairs share their difference
        cloud = sys.sampler(int(rng.integers(2, 17 if name == "rotation"
                                             else 5)))
        pts = [cloud.points[i] for i in rng.permutation(len(cloud))]
    else:
        pts = random_points(name, rng, int(rng.integers(2, 9)))
    H = int(rng.integers(0, 13))
    cps = tuple(sorted({int(h) for h in rng.integers(0, H + 1, 2)}))

    def close(a, b):
        return np.allclose(a, b, rtol=0.0, atol=1e-12)

    snaps = comoving(sys, pts, None, [H, *cps]).matrices()
    snaps_d = comoving(default, pts, None, [H, *cps]).matrices()
    M = snaps[H]
    assert np.array_equal(M, M.T)
    assert close(M, snaps_d[H])
    assert all(close(snaps[h], snaps_d[h]) for h in cps)
    X = comoving(sys, pts, None, [H], use_max=True).matrices()[H]
    assert np.array_equal(X, X.T)
    assert close(X, comoving(default, pts, None, [H], use_max=True)
                 .matrices()[H])
    base = [pts[i] for i in sorted({int(i)
                                    for i in rng.integers(0, len(pts), 2)})]
    rsnaps = comoving(sys, base, pts, [H, *cps]).matrices()
    rsnaps_d = comoving(default, base, pts, [H, *cps]).matrices()
    assert all(close(rsnaps[h], rsnaps_d[h]) for h in (H, *cps))
    x, y = pts[0], pts[-1]
    assert min_orbit_distance(sys, x, y, H) == pytest.approx(
        min_orbit_distance(default, x, y, H), rel=0.0, abs=1e-12)


@pytest.mark.parametrize("make", list(TORUS.values()))
def test_torus_shear_contract(make):
    # F^n p - F^n q = (dx, dy + n * shear * dx) mod 1
    sys = make()
    p, q = Torus(0.3, 0.8), Torus(0.65, 0.1)
    for n in range(-6, 7):
        a, b = sys.iterate(p, n), sys.iterate(q, n)
        want = Torus(p.x - q.x, p.y - q.y + n * sys.shear * (p.x - q.x))
        assert sys.dist(Torus(a.x - b.x, a.y - b.y), want) < 1e-12


def shear0_class_extremes(sys, A, B, horizons, centre):
    """The extremes of a shear-0 torus swept by difference class: each
    class's y-gap dy + centre * rise (rise = 0 * dx) reduced to
    [-1/2, 1/2], and the distance of (dx, |y|), gathered back into the
    rows of every group of `torus._class_groups`."""
    B = A if B is None else B
    out = {h: np.empty((len(A), len(B))) for h in horizons}
    for classes, blocks in torus._class_groups(A, B):
        y0 = classes.imag + centre * (sys.shear * classes.real)
        y0 -= np.round(y0)
        d = torus._torus_dist(classes.real.copy(), np.abs(y0))
        for rows, at in blocks:
            for h in horizons:
                out[h][rows] = d[at]
    return out


@pytest.mark.parametrize("make", [Rotation, IdentityTorus])
@pytest.mark.parametrize("centre", [-40, 0, 7])
@pytest.mark.parametrize("use_max", [False, True])
@pytest.mark.parametrize("cross", [False, True])
def test_isometry_extremes_are_time0_distances(make, centre, use_max, cross):
    # an isometry keeps every distance: each horizon holds the time-0
    # arr_cdist matrix, bit for bit what its difference classes give
    sys = make()
    rng = np.random.default_rng(centre + 50)
    grid = [Torus(i / 8, j / 4) for i in range(8) for j in range(4)]
    pts = ([grid[i] for i in rng.permutation(len(grid))]
           + [Torus(float(a), float(b)) for a, b in rng.random((9, 2))])
    A = sys.arr_state(pts)
    B = sys.arr_state(pts[::3] + [Torus(0.5, 0.75)]) if cross else None
    horizons = {0, 5, 200}
    got = sys.comoving_extremes(A, B, horizons, use_max, centre)
    D = sys.arr_cdist(A, A if B is None else B)
    classes = shear0_class_extremes(sys, A, B, horizons, centre)
    for h in horizons:
        assert got[h].tobytes() == D.tobytes() == classes[h].tobytes()
    if not cross:
        assert np.array_equal(D, D.T)
    # one matrix per horizon, so a caller may write to one of them
    assert len({id(M) for M in got.values()}) == len(horizons)


@pytest.mark.parametrize("use_max", [False, True])
def test_torus_class_blocks(monkeypatch, use_max):
    sys = SkewTorus()
    # a grid, then one point off it: only the last block holds its
    # differences
    pts = list(sys.sampler(3).points) + [Torus(0.05, 0.7)]
    ys = pts[::2]
    horizons = {0, 3, 9}
    A, Y = sys.arr_state(pts), sys.arr_state(ys)
    whole = sys.comoving_extremes(A, None, horizons, use_max, 0)
    whole_rows = sys.comoving_extremes(A, Y, horizons, use_max, 0)
    budget = 2 * len(pts)   # two rows a block
    D = A[:, None, :] - A[None, :, :]
    blocks = [{tuple(d) for d in D[rows].reshape(-1, 2)}
              for rows in kernels._row_blocks(len(pts), len(pts), budget)]
    assert len(blocks) > 2
    assert blocks[-1] - set().union(*blocks[:-1])
    monkeypatch.setattr(torus, "_CLASS_BLOCK", budget)
    seen = row_block_spy(monkeypatch, torus)
    blocked = sys.comoving_extremes(A, None, horizons, use_max, 0)
    blocked_rows = sys.comoving_extremes(A, Y, horizons, use_max, 0)
    assert split_by(seen, budget)
    for h in horizons:
        assert np.array_equal(blocked[h], whole[h])
        assert np.array_equal(blocked_rows[h], whole_rows[h])


def per_block_reference(sys, A, B, horizons, use_max, centre, sweep=None):
    """The torus hook before classes were grouped across row blocks: each
    block of at most _CLASS_BLOCK pairs evaluates only its own distinct
    differences, by `sweep` (by default the system's class function)."""
    sweep = sweep or sys._sweep_classes
    B = A if B is None else B
    out = {h: np.empty((len(A), len(B))) for h in horizons}
    for rows in kernels._row_blocks(len(A), len(B), torus._CLASS_BLOCK):
        D = A[rows, None, :] - B[None, :, :]
        classes, inv = np.unique(
            D.reshape(-1, 2).view(np.complex128).ravel(),
            return_inverse=True)
        ext = sweep(classes, horizons, use_max, centre)
        for h in horizons:
            out[h][rows] = ext[h][inv].reshape(D.shape[:2])
    return out


def stepped_sweep(sys):
    """The class function before progression tables: each class's y-gap
    stepped one time step at a time, the distance taken at every step."""
    def sweep(classes, horizons, use_max, centre):
        gx = np.abs(classes.real)
        gx2 = np.square(np.minimum(gx, 1.0 - gx))
        rise = sys.shear * classes.real
        red = np.maximum if use_max else np.minimum

        def dist(y, _):
            return np.sqrt(gx2 + y * y)

        def step(y, inverse):
            y = y - rise if inverse else y + rise
            return np.subtract(y, np.round(y), out=y)

        y0 = classes.imag + centre * rise
        y0 -= np.round(y0)
        if not sys.shear:
            return dict.fromkeys(horizons, dist(y0, None))
        M, cps = kernels._sweep(step, y0, None, max(horizons), dist, red,
                                move_b=False, checkpoints=horizons)
        cps[max(horizons)] = M
        return cps
    return sweep


def permuted_grid(sys, resolution, seed):
    pts = sys.sampler(resolution).points
    return [pts[i] for i in np.random.default_rng(seed).permutation(len(pts))]


def random_torus(seed, m):
    return random_points("skew_torus", np.random.default_rng(seed), m)


def skew_grid():
    # the torus benchmark's skew cloud: a permuted 24^2 grid
    return permuted_grid(SkewTorus(), 24, 31)


# (system, pts_a, pts_b, horizons, use_max, centre, module overrides)
GROUPED_HOOK_CASES = {
    "skew-grid-576": lambda: (SkewTorus(), skew_grid(), None, {200, 400},
                              False, 0, {}),
    "64-rows": lambda: (SkewTorus(), skew_grid()[:64], skew_grid(), {60},
                        False, 0, {}),
    "row-centre+37": lambda: (SkewTorus(), skew_grid()[7:8], skew_grid(),
                              {0, 50}, False, 37, {}),
    "row-centre-37": lambda: (SkewTorus(), skew_grid()[7:8], skew_grid(),
                              {0, 50}, False, -37, {}),
    "use-max": lambda: (SkewTorus(), skew_grid(), None, {0, 40}, True, 0,
                        {}),
    "centre-5": lambda: (SkewTorus(), permuted_grid(SkewTorus(), 8, 2),
                         random_torus(3, 20), {0, 3, 10}, False, 5, {}),
    "random": lambda: (SkewTorus(), random_torus(4, 300), None, {0, 25},
                       False, 0, {}),
    "random-rows-max": lambda: (SkewTorus(), random_torus(5, 90),
                                random_torus(6, 700), {7, 30}, True, -3, {}),
    "rotation": lambda: (Rotation(), permuted_grid(Rotation(), 256, 8),
                         None, {0, 40}, False, 0, {}),
    "identity": lambda: (IdentityTorus(), permuted_grid(IdentityTorus(), 16,
                                                        9),
                         random_torus(10, 50), {0, 5}, True, 2, {}),
    "empty": lambda: (SkewTorus(), [], skew_grid(), {0, 10}, False, 0, {}),
    # many groups, split by the class budget, which is also the most
    # pairs of a row block
    "small-class-budget": lambda: (SkewTorus(), permuted_grid(SkewTorus(),
                                                              8, 12),
                                   None, {0, 9}, False, 1,
                                   {"_CLASS_BLOCK": 200}),
    "small-pair-budget": lambda: (SkewTorus(), permuted_grid(SkewTorus(),
                                                             8, 13),
                                  None, {4, 9}, True, 0,
                                  {"_CLASS_BLOCK": 128}),
}


@pytest.mark.parametrize("case", sorted(GROUPED_HOOK_CASES))
def test_grouped_torus_classes_match_per_block(case, monkeypatch):
    sys, pts_a, pts_b, horizons, use_max, centre, patch = \
        GROUPED_HOOK_CASES[case]()
    for name, value in patch.items():
        monkeypatch.setattr(torus, name, value)
    sa, sb = states(sys, pts_a, pts_b)
    want = per_block_reference(sys, sa, sb, horizons, use_max, centre)
    stepped = per_block_reference(sys, sa, sb, horizons, use_max, centre,
                                  stepped_sweep(sys))
    seen = row_block_spy(monkeypatch, torus)
    got = sys.comoving_extremes(sa, sb, horizons, use_max, centre)
    if patch:
        assert split_by(seen, patch["_CLASS_BLOCK"])
    assert set(got) == set(horizons)
    for h in horizons:
        assert got[h].shape == want[h].shape
        assert np.array_equal(got[h], want[h])
        # the progression tables agree with the stepped fold to rounding
        assert np.all(np.abs(got[h] - stepped[h]) <= 1e-13)


def test_skew_grid_is_swept_in_one_group(monkeypatch):
    # six row blocks, 16,129 distinct differences over the whole matrix
    sys, pts = SkewTorus(), skew_grid()
    assert len(kernels._row_blocks(len(pts), len(pts),
                                   torus._CLASS_BLOCK)) == 6
    sizes = []
    sweep = SkewTorus._sweep_classes

    def spy(self, classes, *args):
        sizes.append(len(classes))
        return sweep(self, classes, *args)

    monkeypatch.setattr(SkewTorus, "_sweep_classes", spy)
    sys.comoving_extremes(sys.arr_state(pts), None, {200, 400}, False, 0)
    assert sizes == [127 * 127]


def test_grouped_torus_classes_memory_stays_bounded():
    # a random cloud repeats no difference, so a design that held a whole
    # matrix's classes at once would show here
    sys = SkewTorus()
    S = sys.arr_state(random_torus(21, 512))
    peaks = []
    for hook in (per_block_reference, SkewTorus.comoving_extremes):
        tracemalloc.start()
        try:
            hook(sys, S, None, {0, 20}, False, 0)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.25 * peaks[0]


# (pts_a, pts_b, module overrides); pts_b None pairs pts_a with itself
CLASS_TABLE_CASES = {
    "skew-grid-576": lambda: (skew_grid(), None, {}),
    "skew-grid-4096": lambda: (SkewTorus().sampler(64).points, None, {}),
    "rotation-256": lambda: (permuted_grid(Rotation(), 256, 8), None, {}),
    "rows": lambda: (skew_grid()[:64], skew_grid(), {}),
    # the point sets of the hook case "centre-5"
    "centre-5": lambda: (permuted_grid(SkewTorus(), 8, 2), random_torus(3, 20),
                         {}),
    "small-class-block": lambda: (skew_grid(), None, {"_CLASS_BLOCK": 4096}),
}


@pytest.mark.parametrize("case", sorted(CLASS_TABLE_CASES))
def test_torus_class_table_matches_complex_unique(case, monkeypatch):
    # each group's classes are np.unique of its pairs' complex differences
    # dx + i dy, bit for bit and in its order, and each pair's index is
    # that unique's inverse
    pts_a, pts_b, patch = CLASS_TABLE_CASES[case]()
    for name, value in patch.items():
        monkeypatch.setattr(torus, name, value)
    sys = SkewTorus()
    A = sys.arr_state(pts_a)
    B = A if pts_b is None else sys.arr_state(pts_b)
    groups = list(torus._class_groups(A, B))
    assert len(groups) == (1 if not patch else len(
        kernels._row_blocks(len(A), len(B), torus._CLASS_BLOCK)))
    for classes, blocks in groups:
        blocks = list(blocks)
        diffs = [(A[rows, None, :] - B[None, :, :]).reshape(-1, 2)
                 .view(np.complex128).ravel() for rows, _ in blocks]
        if sum(d.size for d in diffs) <= 400_000:
            want, inv = np.unique(np.concatenate(diffs), return_inverse=True)
            at = np.concatenate([at.ravel() for _, at in blocks])
            assert np.array_equal(classes.view(np.uint64),
                                  want.view(np.uint64))
            assert np.array_equal(at, inv.ravel())
        else:
            # one unique per block, and the classes sorted, distinct and
            # each held by a pair
            assert np.array_equal(classes.view(np.uint64),
                                  np.unique(classes).view(np.uint64))
            used = np.zeros(len(classes), dtype=bool)
            for d, (_, at) in zip(diffs, blocks):
                want, inv = np.unique(d, return_inverse=True)
                held, local = np.unique(at, return_inverse=True)
                assert np.array_equal(classes[held].view(np.uint64),
                                      want.view(np.uint64))
                assert np.array_equal(local.ravel(), inv.ravel())
                used[held] = True
            assert used.all()


def test_skew_orbit_min_exact_oracle():
    sys = SkewTorus()
    pts = sys.sampler(8).points
    rng = np.random.default_rng(11)
    pairs = [(pts[i], pts[j]) for i, j in rng.integers(0, len(pts), (12, 2))]
    pairs.append((pts[9], pts[9]))

    def gap(t):
        t = t % 1
        return min(t, 1 - t)

    H = 50
    for p, q in pairs:
        dx = Fraction(p.x) - Fraction(q.x)
        dy = Fraction(p.y) - Fraction(q.y)
        sq = min(gap(dx) ** 2 + gap(dy + n * dx) ** 2
                 for n in range(-H, H + 1))
        got = min_orbit_distance(sys, p, q, H)
        assert abs(got - float(sq) ** 0.5) <= 1e-15
    M = comoving(sys, [p for p, _ in pairs], None, [H]).matrices()[H]
    for i, (p, _) in enumerate(pairs):
        for j, (q, _) in enumerate(pairs):
            assert M[i, j] == min_orbit_distance(sys, p, q, H)


def exact_skew_extremes(p, q, centre, horizons, use_max):
    """{h: min (max) over |n - centre| <= h of the skew distance of the
    exact pair, in integers scaled by 2^64: every coordinate here is a
    multiple of 2^-64."""
    one = 1 << 64

    def scaled(v):
        f = Fraction(v) * one
        assert f.denominator == 1
        return int(f)

    def gap(t):
        t %= one
        return min(t, one - t)

    dx = scaled(p.x) - scaled(q.x)
    dy = scaled(p.y) - scaled(q.y)
    H = max(horizons)
    gy = [gap(dy + n * dx) for n in range(centre - H, centre + H + 1)]
    red = max if use_max else min
    return {h: math.sqrt(float(Fraction(gap(dx) ** 2
                                        + red(gy[H - h:H + h + 1]) ** 2,
                                        one * one)))
            for h in horizons}


@pytest.mark.parametrize("use_max", [False, True])
@pytest.mark.parametrize("centre", [0, 37, -37])
def test_skew_extremes_exact_oracle_off_dyadic_points(centre, use_max):
    # grid points i/24 and random points are not dyadic with a short
    # denominator, so every table value m * dx mod 1 is rounded
    sys = SkewTorus()
    grid = skew_grid()
    rng = np.random.default_rng(17)
    rows = grid[7:9] + random_torus(18, 2)
    cols = ([grid[i] for i in rng.choice(len(grid), 10, replace=False)]
            + random_torus(19, 6))
    horizons = {0, 1, 50, 400}
    got = sys.comoving_extremes(sys.arr_state(rows), sys.arr_state(cols),
                                horizons, use_max, centre)
    for i, p in enumerate(rows):
        for j, q in enumerate(cols):
            want = exact_skew_extremes(p, q, centre, horizons, use_max)
            for h in horizons:
                assert abs(got[h][i, j] - want[h]) <= 1e-13


def skew_classes(pts_a, pts_b, centre, use_max):
    """(|rise|, y) of each class of the skew hook, as its class function
    keys them: y = |y0|, or 1/2 - |y0| for the max."""
    sys = SkewTorus()
    A, B = sys.arr_state(pts_a), sys.arr_state(pts_b)
    classes = np.concatenate([c for c, _ in torus._class_groups(A, B)])
    y0 = classes.imag + centre * classes.real
    y0 -= np.round(y0)
    y = np.abs(y0)
    return np.abs(classes.real), 0.5 - y if use_max else y


def direct_gaps(r, y, h):
    """min over |m| <= h of |d - round(d)|, d = t_m + y, t_m = m r - round(m
    r), each term written out over the whole table."""
    m = np.arange(-h, h + 1.0)
    t = np.multiply.outer(r, m)
    t -= np.round(t)
    d = t + y[:, None]
    return np.abs(d - np.round(d)).min(axis=1)


@pytest.mark.parametrize("use_max", [False, True])
@pytest.mark.parametrize("centre", [0, 37])
def test_progression_lookup_matches_scan_bit_for_bit(centre, use_max):
    # the same classes read once by bisection in their shared sorted
    # tables and once by scanning, one class a table; both equal the
    # distance written out over every table value
    grid = skew_grid()
    r, y = skew_classes(grid[:40], grid + random_torus(22, 30), centre,
                        use_max)
    order = np.lexsort((y, r))
    r, y = r[order], y[order]
    run = np.r_[np.flatnonzero(np.r_[True, r[1:] != r[:-1]]), len(r)]
    assert len(run) - 1 < len(r) / 4   # most rises are shared
    horizons = {0, 1, 7, 200}
    lookup = torus._lookup_gaps(r[run[:-1]], y, run, horizons)
    scan = torus._scan_gaps(r, y, horizons)
    for h in horizons:
        assert np.array_equal(lookup[h].view(np.uint64),
                              scan[h].view(np.uint64))
        assert np.array_equal(scan[h], direct_gaps(r, y, h))


def one_row_clouds():
    """(rows, B) of the one-row cases: the permuted 24^2 skew grid against
    itself, and a seeded cloud whose B repeats some of its points."""
    grid = skew_grid()
    cloud = random_torus(41, 200)
    rng = np.random.default_rng(42)
    repeated = cloud + [cloud[int(i)] for i in rng.integers(0, 200, 30)]
    return {"skew-grid-576": (grid[:48], grid),
            "repeats": (cloud[:30] + repeated[-5:], repeated)}


@pytest.mark.parametrize("cloud", ["skew-grid-576", "repeats"])
@pytest.mark.parametrize("centre", [-7, 0, 37])
@pytest.mark.parametrize("use_max", [False, True])
def test_one_row_sweep_matches_class_tables(cloud, centre, use_max,
                                            monkeypatch):
    # a one-row call sweeps its raw differences with no class table; each
    # row gets the bits its row of a multi-row call gets from the tables
    rows, cols = one_row_clouds()[cloud]
    sys, horizons = SkewTorus(), {0, 1, 50, 200}
    A, B = sys.arr_state(rows), sys.arr_state(cols)
    want = sys.comoving_extremes(A, B, horizons, use_max, centre)
    calls = []
    groups = torus._class_groups
    monkeypatch.setattr(torus, "_class_groups",
                        lambda *a: calls.append(1) or groups(*a))
    for i in range(len(A)):
        got = sys.comoving_extremes(A[i:i + 1], B, horizons, use_max, centre)
        assert set(got) == horizons
        for h in horizons:
            assert got[h].shape == (1, len(B))
            assert np.array_equal(got[h][0].view(np.uint64),
                                  want[h][i].view(np.uint64))
    assert not calls


def test_probe_spot_checks_build_no_class_tables(monkeypatch):
    # the skew probe's spot checks are one-row calls: only its base rows
    # build class tables
    sys, cloud = SkewTorus(), SkewTorus().sampler(24)
    calls = []
    groups = torus._class_groups
    monkeypatch.setattr(torus, "_class_groups",
                        lambda *a: calls.append(1) or groups(*a))
    checks = equicont.n_equicontinuity_probe(sys, cloud, 2, 0.2).spot_checks
    with_checks = len(calls)
    calls.clear()
    equicont.n_equicontinuity_probe(sys, cloud, 2, 0.2, n_spot_checks=0)
    assert len(checks) == 10 and all(checks)
    assert with_checks == len(calls) == 1


def test_torus_hook_runs_no_step_loop(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the torus hook stepped an orbit")

    monkeypatch.setattr(kernels, "_sweep", refuse)
    assert not hasattr(torus, "_sweep")
    grid = skew_grid()
    for sys in (SkewTorus(), Rotation(), IdentityTorus()):
        sys.comoving_extremes(sys.arr_state(grid), None, {0, 30}, False, 0)
        sys.comoving_extremes(*states(sys, grid[:3], random_torus(23, 50)),
                              {5}, True, -4)
        comoving(sys, grid[5:6], grid, [20], centre=37)


@given(st.integers(0, 10_000))
@settings(max_examples=30, deadline=None)
def test_shift_closed_form_matches_default_above_floor(seed):
    rng = np.random.default_rng(seed)
    sys = shift2()
    default = identity_conjugate(sys)
    pts = random_points("shift2", rng, int(rng.integers(2, 7)))
    H = int(rng.integers(0, 13))
    h = int(rng.integers(0, H + 1))

    snaps = comoving(sys, pts, None, (H, h)).matrices()
    snaps_d = comoving(default, pts, None, (H, h)).matrices()
    assert np.array_equal(clamped(snaps[H]), clamped(snaps_d[H]))
    assert np.array_equal(clamped(snaps[h]), clamped(snaps_d[h]))
    X = comoving(sys, pts, None, [H], use_max=True).matrices()[H]
    X_d = comoving(default, pts, None, [H], use_max=True).matrices()[H]
    assert np.array_equal(clamped(X), clamped(X_d))


@given(st.sampled_from(sorted(MAKERS)), st.integers(0, 10_000))
@settings(max_examples=30, deadline=None)
def test_orbit_min_non_increasing_in_horizon(name, seed):
    rng = np.random.default_rng(seed)
    sys = MAKERS[name]()
    pts = random_points(name, rng, int(rng.integers(2, 7)))
    h1, h2 = sorted(int(h) for h in rng.integers(0, 30, 2))
    # the shift's closed form only resolves distances down to its floor
    M1 = np.maximum(comoving(sys, pts, None, [h1]).matrices()[h1], FLOOR)
    M2 = np.maximum(comoving(sys, pts, None, [h2]).matrices()[h2], FLOOR)
    assert np.all(M2 <= M1)


@given(st.sampled_from(sorted(MAKERS)), st.integers(0, 10_000))
@settings(max_examples=30, deadline=None)
def test_window_min_row_matches_brute_force(name, seed):
    rng = np.random.default_rng(seed)
    sys = MAKERS[name]()
    x, *pts = random_points(name, rng, int(rng.integers(2, 7)))
    centre = int(rng.integers(-15, 16))
    H = int(rng.integers(0, 9))
    got = comoving(sys, [x], pts, [H], centre=centre).matrices()[H][0]
    want = [min(sys.dist(sys.iterate(x, k), sys.iterate(p, k))
                for k in range(centre - H, centre + H + 1)) for p in pts]
    assert np.allclose(got, want, rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("name", ["skew_torus", "rotation", "shift2"])
@pytest.mark.parametrize("centre", [-9, 5])
def test_centred_hook_matches_engine(name, centre):
    sys = MAKERS[name]()
    rng = np.random.default_rng(centre + 20)
    xs = random_points(name, rng, 6)
    ys = random_points(name, rng, 4)
    horizons = {0, 3, 7}
    for use_max in (False, True):
        for other in (None, ys):
            sa, sb = states(sys, xs, other)
            got = sys.comoving_extremes(sa, sb, horizons, use_max, centre)
            want = kernels.sweep_extremes(sys, sa, sb, horizons, use_max,
                                          centre)
            for h in horizons:
                assert np.allclose(clamped(got[h]), clamped(want[h]),
                                   rtol=0.0, atol=1e-12)


def test_window_kernel_never_iterates(monkeypatch):
    # the window runs on the hooks alone, for every catalogue system
    for sys in systems.catalogue():
        cloud = sys.sampler(3)
        pts = cloud.points[::max(1, len(cloud) // 8)]
        x, centre, H = pts[1], -6, 4
        want = [min(sys.dist(sys.iterate(x, k), sys.iterate(p, k))
                    for k in range(centre - H, centre + H + 1)) for p in pts]

        def refuse(*args):
            raise AssertionError("a kernel stepped a point")

        for name in ("iterate", "step", "step_inv"):
            monkeypatch.setattr(sys, name, refuse)
        got = comoving(sys, [x], pts, [H], centre=centre).matrices()[H][0]
        assert np.allclose(got, clamped(np.array(want)), rtol=0.0, atol=1e-12)


@given(st.sampled_from(sorted(MAKERS)), st.integers(0, 10_000))
@settings(max_examples=30, deadline=None)
def test_nearest_and_mesh_match_brute_force(name, seed):
    rng = np.random.default_rng(seed)
    sys = MAKERS[name]()
    pts = random_points(name, rng, int(rng.integers(1, 7)))
    # repeated points tie exactly, and the lowest index must win
    pts += [pts[int(i)] for i in rng.integers(0, len(pts), 2)]
    queries = random_points(name, rng, int(rng.integers(1, 5))) + pts
    idx, gap = nearest(sys, queries, pts)
    for q, i, g in zip(queries, idx, gap):
        d = [sys.dist(q, p) for p in pts]
        assert i == d.index(min(d))
        assert g == pytest.approx(d[i], rel=0.0, abs=1e-12)
    pos = [d for d in (sys.dist(p, q) for p in pts for q in pts) if d > 0]
    assert mesh(sys, pts) == pytest.approx(min(pos, default=np.inf),
                                           rel=0.0, abs=1e-12)


def test_nearest_and_mesh_in_small_blocks(monkeypatch):
    sys = Rotation()
    # the closest pair is the last two points, so only the last block
    # sees the mesh
    pts = [Torus(i / 10, 0.0) for i in range(10)] + [Torus(0.93, 0.0)]
    queries = [Torus(float(t), 0.0)
               for t in np.random.default_rng(3).random(9)]
    whole = nearest(sys, queries, pts)
    monkeypatch.setattr(kernels, "_CHUNK", 2 * len(pts))  # 2 rows a block
    idx, gap = nearest(sys, queries, pts)
    assert np.array_equal(idx, whole[0]) and np.array_equal(gap, whole[1])
    assert idx.tolist() == [
        min(range(len(pts)), key=lambda j: sys.dist(q, pts[j]))
        for q in queries]
    assert mesh(sys, pts) == pytest.approx(0.03, abs=1e-12)


@given(st.integers(0, 10_000))
@settings(max_examples=30, deadline=None)
def test_shift_visit_minima_match_default(seed):
    rng = np.random.default_rng(seed)
    sys = shift2()
    default = identity_conjugate(sys)
    pts = random_points("shift2", rng, int(rng.integers(1, 7)))
    H = int(rng.integers(0, 13))
    # shifts of cloud points, some reachable within |n| <= H, give exact 0
    tgt = [sys.iterate(p, int(rng.integers(-H - 3, H + 4))) for p in pts]
    tgt += random_points("shift2", rng, int(rng.integers(0, 3)))
    got = orbit_visit_matrix(sys, pts, tgt, H)
    want = orbit_visit_matrix(default, pts, tgt, H)
    assert np.array_equal(clamped(got), clamped(want))


def test_shift_visits_with_targets_that_are_the_points(monkeypatch):
    # targets that are the points and targets that differ from them give
    # the same bits in one block of rows and in blocks of three, and the
    # engine's values
    sys = shift2()
    default = identity_conjugate(sys)
    pts = list(sys.sampler(2, seed=3).points[:14])
    pts += [periodic_point((0, 1)), SymbolicPoint((1, 1), -4, (0, 1), (1,))]
    tgt = [sys.iterate(p, 3) for p in pts[::2]] + pts[:4]
    H = 9
    same = orbit_visit_matrix(sys, pts, pts, H)
    apart = orbit_visit_matrix(sys, pts, tgt, H)
    monkeypatch.setattr(shift, "_CHUNK", 3 * 8 * (2 * H + 1 + len(pts)))
    rows, real = [], shift._ring_visits

    def spy(fwd, *args):
        rows.append(len(fwd))
        return real(fwd, *args)

    monkeypatch.setattr(shift, "_ring_visits", spy)
    assert orbit_visit_matrix(sys, pts, pts, H).tobytes() == same.tobytes()
    assert rows == [3] * (len(pts) // 3) + [len(pts) % 3] * (len(pts) % 3 > 0)
    assert orbit_visit_matrix(sys, pts, tgt, H).tobytes() == apart.tobytes()
    for t, V in ((pts, same), (tgt, apart)):
        assert np.array_equal(clamped(V),
                              clamped(orbit_visit_matrix(default, pts, t, H)))


def orbit_keys_reference(points):
    """The orbit keys from shifted points: (sigma^s p, s, P)."""
    keys = []
    for p in points:
        if p.core or p.left != p.right:
            keys.append((p.shifted(p.offset), p.offset, 0))
            continue
        P = len(p.left)
        s = min(range(P), key=lambda r: p.shifted(r).left)
        keys.append((p.shifted(s), s, P))
    return keys


def test_shift_orbit_keys_read_off_the_fields():
    # the keys read off each point's fields are the fields, shift and
    # period of its shifted representative, so two points get equal keys
    # exactly when they lie on one orbit: a point and its shifts do
    rng = np.random.default_rng(23)
    sys = shift2()
    base = [tailed_symbolic(rng, int(rng.integers(0, 6)), (-9, 9))
            for _ in range(40)]
    base += [periodic_point((0, 1, 1)), periodic_point((1,)),
             periodic_point((1, 0, 1, 0, 0)), word_point(()),
             word_point((1, 0, 1), -5), SymbolicPoint((), 3, (0, 1), (1,))]
    pts = base + [sys.iterate(p, int(rng.integers(-7, 8))) for p in base]
    got = shift._orbit_keys(pts)
    want = orbit_keys_reference(pts)
    for (r, s, P), (q, s_ref, P_ref) in zip(got, want):
        assert r == (q.core, q.left, q.right)
        assert (s, P) == (s_ref, P_ref)
    keys = [k for k, _, _ in got]
    reps = [q for q, _, _ in want]
    assert np.array_equal(
        np.array([[a == b for b in keys] for a in keys]),
        np.array([[a == b for b in reps] for a in reps]))
    assert all(keys[i] == keys[i + len(base)] for i in range(len(base)))


@pytest.mark.parametrize("use_max", [False, True])
def test_shift_chunked_dedup_with_distinct_masks(monkeypatch, use_max):
    rng = np.random.default_rng(7)
    sys = shift2()
    xs = [word_point(tuple(int(b) for b in rng.integers(0, 2, 12)),
                     int(rng.integers(-30, 31))) for _ in range(9)]
    ys = [word_point(tuple(int(b) for b in rng.integers(0, 2, 12)),
                     int(rng.integers(-30, 31)), fill=1) for _ in range(7)]
    horizons = {4, 12}
    W = max(horizons) + GCAP
    rows = [tuple(p.get(t) for t in range(-W, W + 1)) for p in xs + ys]
    masks = {tuple(a ^ b for a, b in zip(x, y))
             for x in rows[:len(xs)] for y in rows[len(xs):]}
    assert len(masks) == len(xs) * len(ys)
    sx, sy = sys.arr_state(xs), sys.arr_state(ys)
    whole = sys.comoving_extremes(sx, sy, horizons, use_max, 0)
    # blocks of a few rows, and a few masks per nearest-difference pass
    monkeypatch.setattr(shift, "_CHUNK", 200)
    seen = row_block_spy(monkeypatch, shift)
    chunked = sys.comoving_extremes(sx, sy, horizons, use_max, 0)
    assert split_by(seen, 200)
    conj = identity_conjugate(sys)
    swept = conj.comoving_extremes(conj.arr_state(xs), conj.arr_state(ys),
                                   horizons, use_max, 0)
    for h in horizons:
        assert np.array_equal(chunked[h], whole[h])
        assert np.array_equal(clamped(chunked[h]), clamped(swept[h]))


@pytest.mark.parametrize("use_max", [False, True])
def test_shift_key_blocks_share_mask_classes(monkeypatch, use_max):
    # rows split into blocks of one, with the mask of (a, b) also held by
    # (b, a) in another block: each block keys its own classes
    rng = np.random.default_rng(11)
    sys = shift2()
    pts = [word_point(tuple(int(b) for b in rng.integers(0, 2, 10)),
                      int(rng.integers(-20, 21))) for _ in range(6)]
    pts += [periodic_point((0, 1)), SymbolicPoint((1,), 3, (0, 1), (1,))]
    horizons = {3, 15}
    S = sys.arr_state(pts)
    whole = sys.comoving_extremes(S, S, horizons, use_max, 4)
    keys = []
    real = shift._segment_extremes

    def spy(k, *args):
        keys.append({bytes(row) for row in k})
        return real(k, *args)

    monkeypatch.setattr(shift, "_segment_extremes", spy)
    monkeypatch.setattr(shift, "_CHUNK", len(pts))
    split = sys.comoving_extremes(S, S, horizons, use_max, 4)
    # the keys span more than a table: each block reads its own
    assert len(keys) == len(pts)
    zero = bytes(len(next(iter(keys[0]))))
    assert any((keys[i] & keys[j]) - {zero}
               for i in range(len(keys)) for j in range(i))
    want = full_mask_reference(pts, pts, horizons, use_max, 4)
    for h in horizons:
        assert np.array_equal(split[h], whole[h])
        assert np.array_equal(whole[h], want[h])


def tailed_symbolic(rng, core_len, origins):
    """A random core between periodic tails of period 1-3, the left and
    the right one drawn independently."""
    def bits(n):
        return tuple(int(b) for b in rng.integers(0, 2, n))

    return SymbolicPoint(bits(core_len), int(rng.integers(*origins)),
                         bits(int(rng.integers(1, 4))),
                         bits(int(rng.integers(1, 4))))


def shift_bits_reference(points, lo, hi):
    """Symbols s_lo..s_hi of each point, one row at a time."""
    idx = np.arange(lo, hi + 1)
    B = np.empty((len(points), len(idx)), dtype=np.uint8)
    for i, p in enumerate(points):
        start, end = p.extent()
        row = np.where(idx < start,
                       np.array(p.left, dtype=np.uint8)[idx % len(p.left)],
                       np.array(p.right, dtype=np.uint8)[idx % len(p.right)])
        a, b = max(start, lo), min(end, hi + 1)
        if a < b:
            row[a - lo:b - lo] = p.core[a - start:b - start]
        B[i] = row
    return B


def test_shift_bits_match_per_point_rows():
    rng = np.random.default_rng(17)
    pts = [word_point((1, 0, 1, 1), 3), word_point((1,), -7, 1),
           word_point(()), periodic_point((1, 1, 0)), periodic_point((0, 1)),
           SymbolicPoint((1, 0, 0, 1, 1), -4, (0, 1), (1, 1, 0))]
    pts += [tailed_symbolic(rng, int(rng.integers(0, 9)), (-12, 12))
            for _ in range(40)]
    pts += list(shift2().sampler(3).points)
    # windows inside a core, across its ends, in either tail alone, one
    # symbol wide and empty
    for lo, hi in [(-2, 2), (0, 5), (-10, 10), (-40, -6), (6, 30), (4, 4),
                   (-300, 280), (3, 2)]:
        got = shift._shift_bits(pts, lo, hi)
        assert got.dtype == np.uint8
        assert np.array_equal(got, shift_bits_reference(pts, lo, hi))
    assert shift._shift_bits([], -3, 3).shape == (0, 7)


def window_oracle(xs, ys, centre, h, use_max):
    red = max if use_max else min
    return np.array([[red(symbolic_distance(x.shifted(n), y.shifted(n))
                          for n in range(centre - h, centre + h + 1))
                      for y in ys] for x in xs])


@given(st.integers(0, 10_000), st.booleans(), st.booleans(), st.booleans())
@settings(max_examples=40, deadline=None)
def test_shift_column_class_keys_match_oracle(seed, wide, use_max, other):
    # wide clouds hold more than 64 column classes: keys of two words
    rng = np.random.default_rng(seed)
    sys = shift2()
    if wide:
        xs = [tailed_symbolic(rng, int(rng.integers(90, 130)), (-70, -40))
              for _ in range(8)]
    else:
        xs = [tailed_symbolic(rng, int(rng.integers(0, 6)), (-8, 8))
              for _ in range(int(rng.integers(2, 7)))]
        xs += [periodic_point((0, 1, 1)), word_point((1, 0, 1), 2)]
    xs = list(dict.fromkeys(xs))
    ys = xs[::2] + [tailed_symbolic(rng, 4, (-8, 8))] if other else None
    H = int(rng.integers(0, 11))
    h = int(rng.integers(0, H + 1))
    centre = int(rng.choice([-1, 1])) * int(rng.integers(1, 31))
    if wide:
        W = H + GCAP
        bits = [shift._shift_bits(pts, centre - W, centre + W)
                for pts in (xs, ys or xs)]
        assert shift._class_codes(*bits)[0][0].shape[1] >= 2
    got = sys.comoving_extremes(*states(sys, xs, ys), {h, H}, use_max,
                                centre)
    for k in (h, H):
        want = window_oracle(xs, ys or xs, centre, k, use_max)
        assert np.array_equal(clamped(got[k]), clamped(want))
        if ys is None:
            assert np.array_equal(got[k], got[k].T)


def nearest_true_reference(mask):
    """Per row, distance from each column to the nearest True (large value
    when the row has none)."""
    m, L = mask.shape
    big = L + GCAP + 1
    idx = np.arange(L)
    last = np.where(mask, idx, -big)
    np.maximum.accumulate(last, axis=1, out=last)
    left = idx - last
    nxt = np.where(mask[:, ::-1], idx, -big)
    np.maximum.accumulate(nxt, axis=1, out=nxt)
    right = (idx - nxt)[:, ::-1]
    return np.minimum(left, right)


def profile_mask_extremes(masks, W, horizons, use_max):
    """The shift's previous `_mask_extremes`, kept as the oracle: a full
    nearest-difference profile over the 2W+1 positions of each packed
    mask, reduced over each window |n| <= h."""
    L = 2 * W + 1
    nd = nearest_true_reference(
        np.unpackbits(masks, axis=1, count=L).view(bool))
    vals = {}
    for h in horizons:
        win = nd[:, W - h:W + h + 1]
        g = win.min(axis=1) if use_max else win.max(axis=1)
        vals[h] = np.exp2(-np.minimum(g, GCAP).astype(float))
    return vals


@st.composite
def difference_masks(draw):
    """(masks, W, horizons): rows over 2W+1 positions that are empty,
    all-different, one bit, or a few runs whose ends are drawn mostly
    from the mask's ends and the windows' ends and their neighbours."""
    W = draw(st.integers(0, 90))
    L = 2 * W + 1
    horizons = draw(st.sets(st.integers(0, W), max_size=3)) | {0, W}
    ends = sorted({min(max(x, 0), L - 1) for h in horizons
                   for x in (W - h - 1, W - h, W + h, W + h + 1)} | {0, L - 1})
    pos = st.one_of(st.sampled_from(ends), st.integers(0, L - 1))
    rows = []
    for kind in draw(st.lists(st.sampled_from(["empty", "full", "one",
                                               "runs"]),
                              min_size=1, max_size=12)):
        row = np.zeros(L, dtype=bool)
        if kind == "full":
            row[:] = True
        elif kind == "one":
            row[draw(pos)] = True
        elif kind == "runs":
            for a, b in draw(st.lists(st.tuples(pos, pos), min_size=1,
                                      max_size=6)):
                row[min(a, b):max(a, b) + 1] = True
        rows.append(row)
    return np.packbits(np.array(rows), axis=1), W, horizons


@given(difference_masks(), st.data())
@settings(max_examples=300, deadline=None)
def test_shift_mask_runs_match_profile(case, data):
    # the segment form against the profile, bit for bit, for both
    # reductions and every horizon of one call, in one block and one row
    # a block: on one segment per position, and on the masks cut into
    # random segments on each of which every mask is constant, with the
    # segments of equal columns sharing one class in a random bit order
    masks, W, horizons = case
    L = 2 * W + 1
    rows = np.unpackbits(masks, axis=1, count=L).view(bool)
    must = np.flatnonzero((rows[:, 1:] != rows[:, :-1]).any(axis=0)) + 1
    extra = data.draw(st.sets(st.integers(0, L - 1), max_size=8)) - {0}
    cuts = np.union1d(must, np.array(sorted(extra), dtype=np.intp))
    for lo in (np.arange(L), np.concatenate(([0], cuts)).astype(np.intp)):
        hi = np.append(lo[1:], L) - 1
        seg = rows[:, lo]
        _, first, cls = np.unique(seg.T, axis=0, return_index=True,
                                  return_inverse=True)
        perm = np.array(data.draw(st.permutations(range(len(first)))),
                        dtype=np.intp)
        by_class = np.empty((len(seg), len(first)), dtype=bool)
        by_class[:, perm] = seg[:, first]
        keys = np.packbits(by_class, axis=1, bitorder="little")
        args = (keys, perm[cls.ravel()], lo, hi, W, horizons)
        for use_max in (False, True):
            want = profile_mask_extremes(masks, W, horizons, use_max)
            got = shift._segment_extremes(*args, use_max)
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(shift, "_CHUNK", len(lo))
                seen = row_block_spy(mp, shift)
                one = shift._segment_extremes(*args, use_max)
            # one row a block
            assert seen == [(len(lo), len(keys))]
            assert set(got) == set(one) == horizons
            for h in horizons:
                assert np.array_equal(got[h], want[h])
                assert np.array_equal(one[h], want[h])


def test_shift_comoving_memory_stays_bounded():
    # a nearest-difference profile per mask held about 46 MB here; the
    # runs of the 1,024 distinct masks take a small part of that
    sys = shift2()
    S = sys.arr_state(list(sys.sampler(4).points))
    tracemalloc.start()
    try:
        sys.comoving_extremes(S, None, {200, 400}, False, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20e6


def full_mask_reference(pts_a, pts_b, horizons, use_max, centre):
    """The shift's co-moving extremes on each pair's whole packed
    difference mask, one row of pairs at a time, through the profile
    oracle."""
    W = max(horizons) + GCAP
    A, B = (np.packbits(shift._shift_bits(pts, centre - W, centre + W),
                        axis=1) for pts in (pts_a, pts_b))
    out = {h: np.empty((len(A), len(B))) for h in horizons}
    for i, a in enumerate(A):
        vals = profile_mask_extremes(a ^ B, W, horizons, use_max)
        for h in horizons:
            out[h][i] = vals[h]
    equal = np.array([[x == y for y in pts_b] for x in pts_a])
    for h in horizons:
        out[h][equal] = 0.0
    return out


@pytest.mark.parametrize("use_max", [False, True])
def test_shift_wide_keys_match_full_masks(use_max):
    # one word and its 90 single flips: each flip is a column class of its
    # own, so the keys take two words, and pairs of flips agree on every
    # class but two
    rng = np.random.default_rng(3)
    base = tuple(int(b) for b in rng.integers(0, 2, 100))
    pts = [word_point(base, -50)]
    pts += [word_point(base[:k] + (1 - base[k],) + base[k + 1:], -50)
            for k in range(5, 95)]
    horizons, centre = {2, 9}, -6
    W = max(horizons) + GCAP
    bits = shift._shift_bits(pts, centre - W, centre + W)
    assert shift._class_codes(bits)[0][0].shape[1] == 2
    sys = shift2()
    got = sys.comoving_extremes(sys.arr_state(pts), None, horizons, use_max,
                                centre)
    rows = sys.comoving_extremes(sys.arr_state(pts[::9]), sys.arr_state(pts),
                                 horizons, use_max, centre)
    want = full_mask_reference(pts, pts, horizons, use_max, centre)
    for h in horizons:
        assert np.array_equal(got[h], want[h])
        assert np.array_equal(rows[h], want[h][::9])


def random_words(seed, m, core_len, origins):
    rng = np.random.default_rng(seed)
    return [word_point(tuple(int(b) for b in rng.integers(0, 2, core_len)),
                       int(rng.integers(*origins))) for _ in range(m)]


# (pts_a, pts_b, horizons, use_max, centre, rows per key block or None)
KEY_TABLE_CASES = {
    "grid-3": lambda: (shift2().sampler(3).points, None, {200, 400}, False,
                       0, None),
    "grid-4": lambda: (shift2().sampler(4).points, None, {5, 20}, True, 0,
                       None),
    "cross-min": lambda: (shift2().sampler(3).points[::5],
                          shift2().sampler(4).points[::7], {3, 12}, False, 7,
                          None),
    "cross-max": lambda: (shift2().sampler(4).points[::9],
                          shift2().sampler(3).points, {3, 12}, True, -5,
                          None),
    "few-rows": lambda: (shift2().sampler(3).points, None, {4, 9}, False, 3,
                         3),
    # 21 column classes: keys beyond the table, sorted by np.unique
    "classes-21": lambda: (random_words(0, 8, 12, (-10, 11)), None, {2, 10},
                           True, 0, None),
}


@pytest.mark.parametrize("case", sorted(KEY_TABLE_CASES))
def test_shift_key_table_matches_sorted_keys(monkeypatch, case):
    # keys of one word are read once: off one table over the whole key
    # space 2^b (b the bit length of the largest code) when it fits and
    # costs no more than the pairs, also when the rows come in several
    # blocks, and otherwise as the sorted distinct keys np.unique finds;
    # either way every value is the full masks' value
    pts_a, pts_b, horizons, use_max, centre, rows = KEY_TABLE_CASES[case]()
    pts_b = pts_a if pts_b is None else pts_b
    W = max(horizons) + GCAP
    bits = [shift._shift_bits(pts, centre - W, centre + W)
            for pts in (pts_a, pts_b)]
    classes = np.unique(np.concatenate(bits), axis=1).shape[1]
    assert (16 < classes <= 64) == (case == "classes-21")
    (ca, cb), cls = shift._class_codes(*bits)
    space = 1 << int(max(ca.max(), cb.max())).bit_length()
    assert (space > shift._CLASS_BLOCK) == (classes > 16)
    runs = 1 + np.count_nonzero(np.diff(cls))
    table = classes <= 16 and space * runs <= len(pts_a) * len(pts_b)
    assert table == (case in ("grid-3", "grid-4", "few-rows"))
    if rows:
        monkeypatch.setattr(shift, "_CHUNK", rows * len(pts_b))
    seen = row_block_spy(monkeypatch, shift)
    read = []
    real = shift._segment_extremes

    def spy(keys, *args):
        read.append(keys.copy())
        return real(keys, *args)

    monkeypatch.setattr(shift, "_segment_extremes", spy)
    sys = shift2()
    got = sys.comoving_extremes(*states(sys, pts_a, pts_b), horizons,
                                use_max, centre)
    if table:
        want_keys = np.arange(space, dtype=np.uint64)
    else:
        want_keys = np.unique(ca[:, None, 0] ^ cb[None, :, 0])
    assert len(read) == 1
    assert read[0].tobytes() == want_keys.astype("<u8").tobytes()
    if rows:
        assert split_by(seen, rows * len(pts_b))
    want = full_mask_reference(pts_a, pts_b, horizons, use_max, centre)
    for h in horizons:
        assert np.array_equal(got[h], want[h])


def test_shift_zero_only_for_equal_points():
    sys = shift2()
    zero, far = word_point(()), word_point((1,), origin=200)
    # equal on the whole closed-form window, yet distinct
    assert min_orbit_distance(sys, zero, far, 10) == FLOOR
    assert max_orbit_distance(sys, zero, far, 10) == FLOOR
    assert comoving(sys, [far, far], None, [10]).matrices()[10].tolist() == \
        [[0.0] * 2] * 2


def test_shift_visit_exact_hits():
    sys = shift2()
    word = word_point((1, 1, 0, 1), origin=-2)
    cycle = periodic_point((0, 0, 0, 1, 0))
    far = word_point((1,), origin=GCAP + 5)     # agrees with 0^Z near 0
    pts = [word, cycle, word_point(())]
    tgt = [sys.iterate(word, 3), sys.iterate(word, 4),
           sys.iterate(cycle, -1), far]
    V = orbit_visit_matrix(sys, pts, tgt, 3)
    assert V[0, 0] == 0.0 and V[0, 1] > 0.0    # reached at n = 3, not 4
    assert V[1, 2] == 0.0                      # reached at n = -1
    assert V[2, 3] == FLOOR                    # equal on 2 GCAP symbols


@given(st.integers(0, 10_000))
@settings(max_examples=30, deadline=None)
def test_shift_return_closed_form_matches_default(seed):
    # word points, purely periodic points and tails that differ
    rng = np.random.default_rng(seed)
    sys = shift2()
    pts = random_points("shift2", rng, int(rng.integers(1, 8)))
    pts += [periodic_point((0, 1, 1)), SymbolicPoint((), 2, (0, 1), (1,))]
    H = int(rng.integers(0, 100))
    conj = identity_conjugate(sys)
    got = sys.return_distances(sys.arr_state(pts), H)
    want = conj.return_distances(conj.arr_state(pts), H)
    assert got.dtype == want.dtype == np.float32
    assert got.shape == want.shape == (len(pts), 2 * H + 1)
    assert np.array_equal(clamped(got), clamped(want))
    assert np.array_equal(got == 0.0, want == 0.0)


def test_shift_returns_exactly_at_periods():
    sys = shift2()
    pts = [periodic_point((0, 1, 1)), periodic_point((1, 0, 1, 0)),
           word_point((1, 1)), SymbolicPoint((), 0, (0, 1), (0, 1, 1))]
    n = np.arange(-9, 10)
    zero = sys.return_distances(sys.arr_state(pts), 9) == 0.0
    assert np.array_equal(zero[0], n % 3 == 0)
    assert np.array_equal(zero[1], n % 2 == 0)
    assert np.array_equal(zero[2], n == 0) and np.array_equal(zero[3], n == 0)


def window_words_reference(points, H):
    """The shift's two words per point and centre n in [-H, H], bit k
    s_{n+k} in the first and s_{n-k} in the second, one bit at a time."""
    bits = shift_bits_reference(points, -H - GCAP + 1,
                                H + GCAP - 1).astype(np.uint64)
    n = 2 * H + 1
    fwd = np.zeros((len(points), n), dtype=np.uint64)
    bwd = np.zeros((len(points), n), dtype=np.uint64)
    for k in range(GCAP):
        fwd |= bits[:, GCAP - 1 + k:GCAP - 1 + k + n] << np.uint64(k)
        bwd |= bits[:, GCAP - 1 - k:GCAP - 1 - k + n] << np.uint64(k)
    return fwd, bwd


def visit_xor_reference(points, targets, H):
    """The shift's visit minima by one XOR of every distinct window of a
    point with every target, a point at a time."""
    words = np.stack(window_words_reference(points, H), axis=2)
    tf, tb = (w[:, 0] for w in window_words_reference(targets, 0))
    one = np.uint64(1)
    # the lowest set bit of z is 2^r; z == 0 means r >= GCAP
    reach = np.empty((len(points), len(targets)))
    for i, w in enumerate(words):
        w = np.unique(w.view("V16").ravel()).view(np.uint64)
        z = (w[0::2, None] ^ tf) | (w[1::2, None] ^ tb)
        low = (z & (~z + one)).astype(float)
        reach[i] = np.where(low == 0.0, 2.0 ** GCAP, low).max(axis=0)
    V = 1.0 / reach
    V[shift._orbit_hits(points, targets, H)] = 0.0
    return V


def test_shift_window_words_match_reference():
    rng = np.random.default_rng(23)
    pts = [tailed_symbolic(rng, int(rng.integers(0, 9)), (-12, 12))
           for _ in range(30)]
    pts += list(shift2().sampler(3).points)
    pts += [word_point((1, 0, 1), -5, fill=1), word_point((1,), GCAP + 70),
            periodic_point((0, 1, 1)), periodic_point((1, 0, 0, 1, 0))]
    for H in (0, 1, 7, 50):
        got = shift._window_words(pts, H)
        for g, w in zip(got, window_words_reference(pts, H)):
            assert g.dtype == np.uint64 and np.array_equal(g, w)
    assert [w.shape for w in shift._window_words([], 3)] == [(0, 7)] * 2


# (points, targets or None for the points themselves, H)
VISIT_CASES = {
    "grid-0": lambda: (shift2().sampler(3).points, None, 0),
    "grid-50": lambda: (shift2().sampler(3).points, None, 50),
    "seeded-cross": lambda: (
        shift2().sampler(3, seed=8).points,
        [tailed_symbolic(np.random.default_rng(5), 6, (-20, 20))
         for _ in range(9)] + list(shift2().sampler(1).points), 23),
    # exact zeros at multiples of each period
    "periodic-10": lambda: (shift2().periodic_cloud(5).points, None, 10),
}


@pytest.mark.parametrize("case", sorted(VISIT_CASES))
def test_shift_visit_minima_match_xor_fold(case):
    pts, tgt, H = VISIT_CASES[case]()
    pts, tgt = list(pts), list(pts if tgt is None else tgt)
    sys = shift2()
    got = sys.visit_minima(sys.arr_state(pts), sys.arr_state(tgt), H)
    want = visit_xor_reference(pts, tgt, H)
    assert got.shape == want.shape and np.array_equal(got, want)
    if case == "periodic-10":
        assert (got[~np.eye(len(pts), dtype=bool)] == 0.0).any()


def test_shift_visit_ring_edges():
    sys = shift2()
    zero, ones = word_point(()), periodic_point((1,))
    # agrees with 0^Z on all 2 GCAP - 1 symbols of the ring: the clamp
    far = word_point((1,), origin=GCAP)
    # 1^Z but for s_5: its key sorts after every window of 0^Z, so the
    # next key in sorted order is a window of 1^Z, which reads 2^-5
    dent = word_point((0,), 5, fill=1)
    P, T = [zero, ones], [far, dent]
    V = sys.visit_minima(P, T, 2)
    assert V.tolist() == [[FLOOR, 1.0], [1.0, 2.0 ** -5]]
    assert np.array_equal(V, visit_xor_reference(P, T, 2))


def test_shift_visit_minima_one_point_per_block(monkeypatch):
    sys = shift2()
    pts = list(sys.sampler(3, seed=8).points)[:20]
    tgt = list(sys.sampler(2).points)
    H = 9
    whole = sys.visit_minima(pts, tgt, H)
    rows = []
    real = shift._ring_visits

    def spy(fwd, *args):
        rows.append(len(fwd))
        return real(fwd, *args)

    monkeypatch.setattr(shift, "_ring_visits", spy)
    monkeypatch.setattr(shift, "_CHUNK", 8 * (2 * H + 1 + len(tgt)))
    split = sys.visit_minima(pts, tgt, H)
    assert rows == [1] * len(pts)
    assert np.array_equal(split, whole)
    assert np.array_equal(split, visit_xor_reference(pts, tgt, H))


def test_shift_visit_memory_stays_bounded():
    # one XOR of every window with every target would hold
    # m (2H + 1) m = 1.05e9 words here
    sys = shift2()
    S = sys.arr_state(list(sys.sampler(4).points))
    tracemalloc.start()
    try:
        sys.visit_minima(S, S, 2000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 80e6


def test_shift_array_metric_matches_symbolic_distance():
    rng = np.random.default_rng(41)
    sys = shift2()
    pts = [tailed_symbolic(rng, int(rng.integers(0, 9)), (-12, 12))
           for _ in range(12)]
    pts += list(sys.sampler(2).points) + list(sys.periodic_cloud(3).points)
    # fill=1 words, and far words that agree with their fill on the whole
    # ring |i| < GCAP, so their distances fall below 2^-GCAP
    pts += [word_point((1, 0, 1), 3, fill=1), word_point((0,), -GCAP - 4,
                                                         fill=1),
            word_point((1,), GCAP + 9), word_point((1, 1), -GCAP - 30)]
    pts += pts[:3]
    S = sys.arr_state(pts)
    D = sys.arr_cdist(S, S)
    assert np.array_equal(D, [[symbolic_distance(a, b) for b in pts]
                              for a in pts])
    assert (np.diag(D) == 0.0).all() and ((D > 0.0) & (D < FLOOR)).any()
    E = sys.arr_edist(S, S[::-1])
    assert np.array_equal(E, [symbolic_distance(a, b)
                              for a, b in zip(pts, pts[::-1])])
    assert sys.arr_cdist(S[:0], S).shape == (0, len(pts))


# ---------------------------------------------------------------------------
# annulus closed forms against the engine
# ---------------------------------------------------------------------------

CLOSED = {"annulus3": annulus3, "annulus2": annulus2, "annulusN": annulusN}

# per orbit label, the indices whose radius differs from the limit on its
# side, as the closed forms derive them from the radius formula
WINDOWS = {"annulus3": {0: (-51, 5)}, "annulus2": {0: (-52, 52)},
           "annulusN": {2: (-51, 5), 3: (-52, 5), 4: (-52, 4)}}


# per orbit label, the first index of its largest radius: an SQ orbit's
# radius falls from 2 everywhere, an ABS orbit's rises up to index 0
PEAKS = {"annulus3": {0: -systems.REACH}, "annulus2": {0: 0},
         "annulusN": {m: -systems.REACH for m in (2, 3, 4)}}

# angle offsets, in turns, of circle points from an orbit point's angle:
# at small gaps a chord's vertex c (1 - 2 s2) lies among the orbit radii
# next to the circle, where the chords of neighbouring radii differ by a
# few ulps
FLAT_GAPS = (0.0, 1e-15, -1e-15, 1e-9, -1e-9, 1e-6, -1e-6, 1e-4, -1e-4)


def closed_form_points(name, sys, rng, m, H):
    """Random points; orbit indices favour the window edges and the
    indices whose reach |n| <= H just meets them.  Some circle points
    come one on every circle, at the angle of such an orbit index or a
    FLAT_GAPS offset from it."""
    pts = []
    for _ in range(m):
        lab = list(sys.orbits)[int(rng.integers(len(sys.orbits)))]
        lo, hi = WINDOWS[name][lab]
        edges = [lo - 1, lo, lo + 1, hi - 1, hi, hi + 1, lo + H, lo + H + 1,
                 hi - H, hi - H - 1, lo - 60, hi + 60,
                 int(rng.integers(-70, 71))]
        u = rng.random()
        if u < 0.5:
            pts.append(OrbitIndex(int(rng.choice(edges)), lab))
        elif u < 0.75:
            r = sys.circles[int(rng.integers(len(sys.circles)))]
            pts.append(Annulus(float(rng.random()), r))
        else:
            theta = float(annulus._turns(int(rng.choice(edges)), sys.k))
            theta += float(rng.choice(FLAT_GAPS))
            pts += [Annulus(theta, r) for r in sys.circles]
    return list(dict.fromkeys(pts))


@pytest.mark.parametrize("name", sorted(WINDOWS))
def test_annulus_windows(name):
    sys = CLOSED[name]()
    for lab, (lo, hi) in WINDOWS[name].items():
        row = sys.arr_state([OrbitIndex(0, lab)])["row"][0]
        assert sys._limits[row][:2] == (lo, hi)
        p = sys._peaks[row]
        assert p == PEAKS[name][lab]
        r = sys._table[row]
        assert r[p + systems.REACH] == r.max()
        # the sorted radii of each side of the peak give back the row
        vals, split = sys._runs[row]
        rank = sys._rank[row]
        assert np.array_equal(vals[rank], r)
        up, down = rank[:p + systems.REACH + 1], rank[p + systems.REACH + 1:]
        assert (up < split).all() and (down >= split).all()
        assert (np.diff(vals[:split]) > 0).all()
        assert (np.diff(vals[split:]) > 0).all()


def bisect_gap(table, q):
    """The nearest-angle gap with the table index found by bisection
    alone: the reference for the bucket index of `_nearest_gap`."""
    i = np.searchsorted(table, q)
    return np.minimum(np.abs(q - table[i - 1]), np.abs(table[i] - q))


def per_point_tail_visits(sys, P, T, H):
    """The annulus visit minima with one sorted angle table per orbit
    point and tail, each bisected, and one window table per orbit: the
    reference for the nested tails of `_tail_gaps`."""
    rt, tt = sys._radii(T), T["theta"]
    V = np.empty((len(P["row"]), len(tt)))
    circ = P["row"] < 0
    g = bisect_gap(annulus._angle_table(-H, H, sys.k),
                   np.mod(tt - P["theta"][circ, None], 1.0))
    V[circ] = annulus._chord(P["r"][circ, None], rt, annulus._sin2(g))
    window = {}
    for i in np.nonzero(~circ)[0]:
        row, m = P["row"][i], int(P["idx"][i])
        lo, hi, r_lo, r_hi = sys._limits[row]
        if row not in window:
            n = np.arange(lo, hi + 1)
            window[row] = annulus._chord(
                sys._radius(row, n)[:, None], rt,
                annulus._sin2(tt - annulus._turns(n, sys.k)[:, None]))
        a, b = max(lo, m - H), min(hi, m + H)
        best = (window[row][a - lo:b - lo + 1].min(0) if a <= b
                else np.full(len(tt), np.inf))
        for a, b, r in ((m - H, min(lo - 1, m + H), r_lo),
                        (max(hi + 1, m - H), m + H, r_hi)):
            if a <= b:
                g = bisect_gap(annulus._angle_table(a, b, sys.k), tt)
                np.minimum(best, annulus._chord(r, rt, annulus._sin2(g)),
                           out=best)
        V[i] = best
    return V


def per_point_loop_visits(sys, P, T, H):
    """The annulus visit minima with each orbit point's window minimum and
    tail chords taken point by point: the reference for the distinct
    ranges and the one chord call per orbit and side of `visit_minima`."""
    rt, tt = sys._radii(T), T["theta"]
    V = np.empty((len(P["row"]), len(tt)))
    circ = P["row"] < 0
    g = bisect_gap(annulus._angle_table(-H, H, sys.k),
                   np.mod(tt - P["theta"][circ, None], 1.0))
    V[circ] = annulus._chord(P["r"][circ, None], rt, annulus._sin2(g))
    for row in np.unique(P["row"][~circ]):
        sel = np.flatnonzero(P["row"] == row)
        m = P["idx"][sel].astype(np.int64)
        lo, hi, r_lo, r_hi = sys._limits[row]
        n = np.arange(lo, hi + 1)
        window = annulus._chord(
            sys._radius(row, n)[:, None], rt,
            annulus._sin2(tt - annulus._turns(n, sys.k)[:, None]))
        for i, mi in zip(sel, m):
            a, b = max(lo, mi - H), min(hi, mi + H)
            V[i] = window[a - lo:b - lo + 1].min(0) if a <= b else np.inf
        for a, b, edge, step, r in (
                (m - H, np.minimum(lo - 1, m + H), lo - 1, -1, r_lo),
                (np.maximum(hi + 1, m - H), m + H, hi + 1, 1, r_hi)):
            ids, run, G = sys._tail_gaps(a, b, edge, step, tt)
            for i, j in zip(ids, run):
                np.minimum(V[sel[i]], annulus._chord(r, rt,
                                                     annulus._sin2(G[j])),
                           out=V[sel[i]])
    return V


def event_time_extremes(sys, A, B, horizons, use_max, centre):
    """The annulus orbit x orbit extremes folded over event times, the
    reference for the pair classes of `_orbit_pairs`.  An orbit
    point's radius moves only while its index is inside its window, so the
    times of each window, with the step before it, and the ends
    centre + h sample every value.  The fold runs over those times in order
    of |n - centre|, each horizon taking its snapshot on the way."""
    H = max(horizons)
    times = {centre + h for h in horizons}
    for S in (A, B):
        for row, m in set(zip(S["row"], S["idx"].astype(int))):
            lo, hi, _, _ = sys._limits[row]
            times.update(range(max(lo - m - 1, centre - H),
                               min(hi - m, centre + H) + 1))
    times = sorted(times, key=lambda n: abs(n - centre))
    s2 = annulus._sin2(A["theta"][:, None] - B["theta"])
    red = np.maximum if use_max else np.minimum
    out, M, t = {}, None, 0
    for h in sorted(horizons):
        for n in times[t:]:
            if abs(n - centre) > h:
                break
            d = annulus._chord(sys._radius(A["row"], A["idx"] + n)[:, None],
                               sys._radius(B["row"], B["idx"] + n), s2)
            M = d if M is None else red(M, d, out=M)
            t += 1
        out[h] = M if h == H else M.copy()
    return out


def per_row_returns(sys, S, H):
    """The annulus self-return distances with one row per point, the
    reference for the one row per distinct key of `return_distances`."""
    n = np.arange(-H, H + 1)
    r0 = sys._radii(S)
    theta = np.where(S["row"] >= 0, S["theta"], 0.0)
    D = np.empty((len(r0), n.size), dtype=np.float32)
    for rows in kernels._row_blocks(len(r0), n.size, annulus._CLASS_BLOCK):
        blk = {key: np.repeat(S[key][rows], n.size) for key in ("r", "row")}
        blk["idx"] = (S["idx"][rows, None] + n).ravel()
        r = sys._radii(blk).reshape(-1, n.size)
        gap = annulus._turns(blk["idx"], sys.k).reshape(-1, n.size)
        gap -= theta[rows, None]
        D[rows] = annulus._chord(r, r0[rows, None], annulus._sin2(gap))
    return D


def dense_fold(sys, pts_a, pts_b, h, use_max, centre):
    """The annulus co-moving extremes in the closed form's own arithmetic,
    folded over every time |n - centre| <= h."""
    A = sys.arr_state(pts_a)
    B = A if pts_b is None else sys.arr_state(pts_b)
    s2 = annulus._sin2(A["theta"][:, None] - B["theta"][None, :])
    red = np.maximum if use_max else np.minimum
    M = None
    for n in range(centre - h, centre + h + 1):
        ra = sys._radii({**A, "idx": A["idx"] + n})
        rb = sys._radii({**B, "idx": B["idx"] + n})
        D = annulus._chord(ra[:, None], rb, s2)
        M = D if M is None else red(M, D)
    return M


@given(st.sampled_from(sorted(CLOSED)), st.sampled_from([0, 2000, None]),
       st.integers(0, 10_000))
@settings(max_examples=30, deadline=None)
def test_closed_forms_match_engine(name, H, seed):
    rng = np.random.default_rng(seed)
    sys = CLOSED[name]()
    H = int(rng.integers(1, 60)) if H is None else H
    pts = closed_form_points(name, sys, rng, int(rng.integers(2, 9)), H)
    tgt = closed_form_points(name, sys, rng, int(rng.integers(1, 4)), H)
    tgt += pts[:2]

    def close(a, b):
        return np.allclose(a, b, rtol=0.0, atol=1e-12)

    P, T = sys.arr_state(pts), sys.arr_state(tgt)
    V = sys.visit_minima(P, T, H)
    W = kernels.sweep_visits(sys, P, T, H)
    assert close(V, W)
    assert np.array_equal(V < 0.05, W < 0.05)
    assert np.array_equal(V, per_point_tail_visits(sys, P, T, H))
    centre = int(rng.choice([-1, 1])) * int(rng.integers(1, 61))
    horizons = {int(rng.integers(0, H + 1)), H}
    use_max = bool(rng.integers(2))
    other = None if rng.random() < 0.5 else tgt
    sb = None if other is None else T
    got = sys.comoving_extremes(P, sb, horizons, use_max, centre)
    want = kernels.sweep_extremes(sys, P, sb, horizons, use_max, centre)
    own = sys.comoving_extremes(P, None, horizons, use_max, centre)
    for h in horizons:
        assert close(got[h], want[h])
        assert np.array_equal(got[h] < 1e-3, want[h] < 1e-3)
        assert np.array_equal(own[h], own[h].T)
        # the event times alone give every time's extreme, bit for bit
        assert np.array_equal(
            got[h], dense_fold(sys, pts, other, h, use_max, centre))


@given(st.sampled_from(sorted(CLOSED)), st.sampled_from([0, 1, 2000, None]),
       st.integers(0, 10_000))
@settings(max_examples=30, deadline=None)
def test_return_closed_form_matches_engine(name, H, seed):
    rng = np.random.default_rng(seed)
    sys = CLOSED[name]()
    H = int(rng.integers(2, 120)) if H is None else H
    pts = closed_form_points(name, sys, rng, int(rng.integers(1, 9)), H)
    S = sys.arr_state(pts)
    got = sys.return_distances(S, H)
    want = kernels.sweep_returns(sys, S, H)
    assert got.dtype == want.dtype == np.float32
    assert got.shape == want.shape == (len(pts), 2 * H + 1)
    assert np.abs(got.astype(float) - want).max() <= 1e-7
    for delta in DELTA_LIST:
        assert np.array_equal(got < delta, want < delta)
    # at n = 0 every point is its own return, exactly
    assert not got[:, H].any()


def bit_equal(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.uint64),
                                                 b.view(np.uint64))


@pytest.mark.parametrize("window", [(-2000, 2000), (-3, 3), (5, 40), (0, 0)])
@pytest.mark.parametrize("k", [systems.GOLDEN, 0.5, 1 / 3, 0.0, 1e-9,
                               0.2718281828459045, 0.8414709848078965])
def test_nearest_gap_is_bisection_bit_for_bit(k, window, monkeypatch):
    # the bucket index places every query where bisection does: at the
    # ends of [0, 1], on and next to every angle and bucket edge, at
    # random, and in 2-D blocks
    lo, hi = window
    table = annulus._angle_table(lo, hi, k)
    angles = table[1:-1]
    scale = 1 << (2 * len(table) - 1).bit_length()
    rng = np.random.default_rng(hi - lo)
    q = np.concatenate((
        [0.0, 1.0, np.nextafter(1.0, 0.0), np.nextafter(0.0, 1.0)],
        angles, np.nextafter(angles, 0.0), np.nextafter(angles, 1.0),
        np.arange(scale + 1) / scale, rng.random(600)))
    q = np.clip(q, 0.0, 1.0)
    block = rng.random((6, 50))
    want, want_block = bisect_gap(table, q), bisect_gap(table, block)
    searched = []
    bisect = np.searchsorted
    monkeypatch.setattr(np, "searchsorted", lambda a, v, *args, **kw: (
        searched.append(np.size(v)), bisect(a, v, *args, **kw))[1])
    assert bit_equal(annulus._nearest_gap(table, q), want)
    assert bit_equal(annulus._nearest_gap(table, block), want_block)
    if k in (0.5, 1 / 3, 0.0) and hi > lo:
        # repeated angles crowd a bucket: bisection places the remainder
        assert searched
    if k == systems.GOLDEN:
        # the three gap lengths of the golden angles leave no bucket
        # crowded
        assert not searched


@pytest.mark.parametrize("case", ["annulus3-128", "annulus2-16",
                                  "annulusN6-16", "aligned", "random"])
def test_visits_match_per_point_loops(case):
    # orbit_visit_matrix, with one window minimum per distinct range and
    # one chord call per orbit and side, gives the per-point loops' values
    # bit for bit
    a3 = annulus3()
    sys, cloud, horizons = {
        "annulus3-128": (a3, a3.sampler(128), (14, 200, 2000)),
        "annulus2-16": (annulus2(), annulus2().sampler(16), (14, 2000)),
        "annulusN6-16": (annulusN(N=6), annulusN(N=6).sampler(16),
                         (14, 2000)),
        "aligned": (a3, a3.aligned_cloud(-300, 300), (14,)),
        "random": (a3, a3.sampler(64, seed=29), (0, 14, 200)),
    }[case]
    pts = list(cloud.points)
    S = sys.arr_state(pts)
    for H in horizons:
        assert bit_equal(orbit_visit_matrix(sys, pts, pts, H),
                         per_point_loop_visits(sys, S, S, H))


@pytest.mark.parametrize("use_max", [False, True])
def test_annulus_comoving_between_disjoint_windows(use_max):
    # 130 indices apart, one orbit point has left its window before the
    # other reaches its own: between the two windows the pair sits at the
    # two limit radii, and with a small angle gap that is the maximum
    sys = annulus3()
    pts = [OrbitIndex(-70), OrbitIndex(60), Annulus(0.25, 2.0)]
    S = sys.arr_state(pts)
    got = sys.comoving_extremes(S, None, {40, 200}, use_max, 0)
    want = kernels.sweep_extremes(sys, S, None, {40, 200}, use_max, 0)
    for h in (40, 200):
        assert np.allclose(got[h], want[h], rtol=0.0, atol=1e-12)
        assert np.array_equal(got[h], dense_fold(sys, pts, None, h, use_max,
                                                 0))


@pytest.mark.parametrize("budget", [1, 7, 64])
def test_annulus_class_blocks(monkeypatch, budget):
    # the co-moving pairs and the distance matrix go in blocks of at most
    # _CLASS_BLOCK pairs (at least one row); every block gives the dense
    # fold's extremes and the pointwise distances, bit for bit
    monkeypatch.setattr(annulus, "_CLASS_BLOCK", budget)
    seen = row_block_spy(monkeypatch, annulus)
    rng = np.random.default_rng(budget)
    for name in sorted(CLOSED):
        sys = CLOSED[name]()
        pts = closed_form_points(name, sys, rng, 12, 40)
        tgt = closed_form_points(name, sys, rng, 6, 40)
        D = sys.arr_cdist(sys.arr_state(pts), sys.arr_state(tgt))
        assert np.array_equal(D, [[sys.dist(p, q) for q in tgt] for p in pts])
        for use_max in (False, True):
            for other in (None, tgt):
                got = sys.comoving_extremes(*states(sys, pts, other),
                                            {5, 40}, use_max, 3)
                for h in (5, 40):
                    assert np.array_equal(
                        got[h], dense_fold(sys, pts, other, h, use_max, 3))
    assert split_by(seen, budget)


def counted(monkeypatch, name, size):
    """Counts what passes through annulus.<name>: size(*args) a call."""
    f, count = getattr(annulus, name), [0]

    def wrapper(*args):
        count[0] += size(*args)
        return f(*args)

    monkeypatch.setattr(annulus, name, wrapper)
    return count


def test_annulus_orbit_circle_work(monkeypatch):
    # an orbit-circle pair is read off the sorted radii, not folded over
    # its event times: one co-moving matrix of the default cloud at H = 200
    # passes about 0.44M elements through _chord, where a fold of every
    # pair over every event time passes about 13M
    sys = annulus3()
    pts = list(sys.sampler(256).points)
    count = counted(monkeypatch, "_chord",
                    lambda *args: np.broadcast(*args).size)
    comoving(sys, pts, None, [200])
    assert 0 < count[0] < 2_500_000


def oracle_points(sys, cloud, rng):
    """40 points of a grid, a random or an aligned cloud, in random
    order."""
    pts = {"grid": sys.sampler(16), "random": sys.sampler(16, seed=5),
           "aligned": sys.aligned_cloud(-70, 70)}[cloud].points
    return [pts[i] for i in rng.permutation(len(pts))[:40]]


def orbit_part(S):
    return annulus._take(S, np.flatnonzero(S["row"] >= 0))


@pytest.mark.parametrize("block", [None, 5])
@pytest.mark.parametrize("cloud", ["grid", "random", "aligned"])
@pytest.mark.parametrize("name", sorted(CLOSED))
def test_annulus_classes_match_references(name, cloud, block, monkeypatch):
    # each closed form computes once per class (orbit pairs by index gap,
    # nested tails, distinct return keys) and gives its per-point
    # reference's values bit for bit, in blocks of any size
    if block:
        monkeypatch.setattr(annulus, "_CLASS_BLOCK", block)
        seen = row_block_spy(monkeypatch, annulus)
    rng = np.random.default_rng(len(name) * 7 + len(cloud))
    sys = CLOSED[name]()
    P = sys.arr_state(oracle_points(sys, cloud, rng))
    T = sys.arr_state(oracle_points(sys, cloud, rng))
    for H in (0, 1, 14, 200, 2000):
        assert np.array_equal(sys.visit_minima(P, T, H),
                              per_point_tail_visits(sys, P, T, H))
        assert np.array_equal(sys.return_distances(P, H),
                              per_row_returns(sys, P, H))
        centre = int(rng.integers(-300, 301))
        horizons = {H, int(rng.integers(0, H + 1))}
        for B in (P, T):
            for use_max in (False, True):
                args = (orbit_part(P), orbit_part(B), horizons, use_max,
                        centre)
                got = sys.comoving_extremes(*args)
                want = event_time_extremes(sys, *args)
                for h in horizons:
                    assert np.array_equal(got[h], want[h])
    assert not block or split_by(seen, block)


def return_clouds(sys):
    """Clouds whose orbit points read windows of the index tables in
    every way: overlapping runs, an aligned segment, one beyond REACH,
    two indices far apart that need tables of their own, and none."""
    lab = min(sys.orbits)
    return {"grid": sys.sampler(16).points,
            "seeded": sys.sampler(24, seed=5).points,
            "aligned": sys.aligned_cloud(-300, 300).points,
            "beyond_reach": sys.aligned_cloud(1500, 1600).points,
            "far_apart": (OrbitIndex(-5000, lab), OrbitIndex(5000, lab),
                          Annulus(0.25, sys.circles[0])),
            "empty": ()}


@pytest.mark.parametrize("name", sorted(CLOSED))
def test_annulus_returns_read_orbit_windows(name):
    # each row of `return_distances` is a window of one table of turns
    # and one of radii per run of overlapping windows, which gives the
    # per-entry evaluation's float32 bits
    sys = CLOSED[name]()
    for cloud, pts in return_clouds(sys).items():
        S = sys.arr_state(list(pts))
        for H in (0, 1, 14, 500, 2000):
            got, want = sys.return_distances(S, H), per_row_returns(sys, S, H)
            assert got.dtype == want.dtype == np.float32, cloud
            assert got.shape == want.shape == (len(pts), 2 * H + 1), cloud
            assert np.array_equal(got.view(np.uint32), want.view(np.uint32)), \
                (cloud, H)


def test_annulus_return_tables_serve_their_rows():
    # indices whose windows do not overlap read separate tables: here
    # the runs {-5000}, {0, 3}, {40} and {5000}, the tables of the
    # indices -5014..-4986, -14..17, 26..54 and 4986..5014
    m, H = np.array([5000, -5000, 3, 0, 40]), 14
    W, at = annulus._windows(np.zeros_like(m), m, H, lambda _, j: j)
    assert len(W) + 2 * H == 3 * (2 * H + 1) + 3 + 2 * H + 1
    for i, x in enumerate(m):
        assert np.array_equal(W[at[i]], np.arange(x - H, x + H + 1))


@pytest.mark.parametrize("use_max", [False, True])
def test_annulus_classes_far_apart(use_max):
    # indices far beyond the windows and horizons far beyond the indices:
    # a pair class samples only the runs where a radius moves, not the
    # indices between them, and nested tails far apart are cut into runs
    # both longer and shorter than _TAIL_RUN
    sys = annulusN(N=5)
    pts = [OrbitIndex(n, lab) for n in (-10 ** 9, -4000, -2040, -1990, -60,
                                        -41, 0, 3, 58, 1950, 1958, 2500,
                                        10 ** 12) for lab in (2, 4)]
    S = sys.arr_state(pts)
    T = sys.arr_state(pts[::3] + [Annulus(0.3, 1.0), Annulus(0.7, 2.0)])
    for H in (0, 60, 2000):
        assert np.array_equal(sys.visit_minima(S, T, H),
                              per_point_tail_visits(sys, S, T, H))
    for horizons, centre in (({0, 3, 60}, 0), ({100, 4000}, -2000),
                             ({10 ** 9, 10 ** 12}, 7)):
        got = sys.comoving_extremes(S, S, horizons, use_max, centre)
        want = event_time_extremes(sys, S, S, horizons, use_max, centre)
        for h in horizons:
            assert np.array_equal(got[h], want[h])


def test_annulus_orbit_pair_work(monkeypatch):
    # the orbit pairs of one class share one chord sequence: the default
    # cloud's 81 orbit points (6,561 pairs, 161 classes) at H = 200 pass
    # about 15,500 elements through _chord, where a fold over the 139
    # event times passes about 912,000
    sys = annulus3()
    orbit = [p for p in sys.sampler(256).points if isinstance(p, OrbitIndex)]
    count = counted(monkeypatch, "_chord",
                    lambda *args: np.broadcast(*args).size)
    comoving(sys, orbit, None, [200])
    assert 0 < count[0] < 50_000


def test_annulus_tails_share_tables(monkeypatch):
    # at H = 2000 every tail of the default cloud ends at its orbit's
    # window, so a visit matrix sorts three angle tables (the circles' and
    # one per side) where one per orbit point and side made 163
    sys = annulus3()
    pts = list(sys.sampler(256).points)
    count = counted(monkeypatch, "_angle_table", lambda *args: 1)
    orbit_visit_matrix(sys, pts, pts, 2000)
    assert count[0] == 3


def test_annulus_return_rows_per_distinct_point(monkeypatch):
    # the default cloud's 512 circle points share one row per radius: 83
    # rows are computed for its 593 points
    sys, H = annulus3(), 50
    count = counted(monkeypatch, "_chord",
                    lambda *args: np.broadcast(*args).size)
    D = orbit_return_matrix(sys, sys.sampler(256).points, H)
    assert D.shape == (593, 2 * H + 1)
    assert count[0] == 83 * (2 * H + 1)


@pytest.mark.parametrize("make", [annulus3, annulus2, annulusN])
def test_same_orbit_visit_is_exactly_zero(make):
    # the visit from OrbitIndex(m) to OrbitIndex(m + d) is 0 exactly when
    # the orbit reaches it, |d| <= H, and positive otherwise
    sys = make()
    for lab in sys.orbits:
        for m in (-60, -52, -51, 0, 5, 6, 52, 53):
            for H in (0, 3, 80, 2000):
                ds = np.unique(np.r_[-H - 3:-H + 4, -60:61, H - 3:H + 4])
                tgt = [OrbitIndex(m + int(d), lab) for d in ds]
                V = orbit_visit_matrix(sys, [OrbitIndex(m, lab)], tgt, H)[0]
                assert np.array_equal(V == 0.0, np.abs(ds) <= H)


def test_closed_form_hooks_never_step(monkeypatch):
    # the annulus hooks run on arr_state alone
    for sys in (annulus3(), annulus2(), annulusN()):
        cloud = sys.sampler(4)
        pts = list(cloud.points[::max(1, len(cloud) // 12)])
        tgt, horizons = pts[:3], {3, 9}
        P, T = sys.arr_state(pts), sys.arr_state(tgt)
        want_v = kernels.sweep_visits(sys, P, T, 30)
        want_c = kernels.sweep_extremes(sys, P, None, horizons, False, -4)
        want_r = kernels.sweep_returns(sys, P, 30)

        def refuse(*args, **kwargs):
            raise AssertionError("a closed form stepped a point")

        for name in ("arr_step", "step", "step_inv", "iterate"):
            monkeypatch.setattr(sys, name, refuse)
        assert np.allclose(sys.visit_minima(P, T, 30), want_v,
                           rtol=0.0, atol=1e-12)
        got = sys.comoving_extremes(P, None, horizons, False, -4)
        assert all(np.allclose(got[h], want_c[h], rtol=0.0, atol=1e-12)
                   for h in horizons)
        assert np.allclose(sys.return_distances(P, 30), want_r,
                           rtol=0.0, atol=1e-7)


# ---------------------------------------------------------------------------
# empty point lists
# ---------------------------------------------------------------------------

EMPTY_CASES = {
    **{name: systems.get_system(name) for name in systems.CATALOGUE_FACTS},
    "product": systems.product_system(Rotation(), annulus3()),
    "power": systems.power_system(SkewTorus(), 2),
    "conjugate": conjugate_system(annulus3(), lambda p: p, lambda p: p),
    "conjugate_metric": identity_conjugate(shift2()),
}


@pytest.mark.parametrize("name", sorted(EMPTY_CASES))
def test_empty_point_lists_keep_their_shapes(name):
    sys = EMPTY_CASES[name]
    pts = list(sys.sampler(2).points[:3])
    m, H = len(pts), 4
    assert comoving(sys, [], None, [H]).matrices()[H].shape == (0, 0)
    assert comoving(sys, [], None, [H], use_max=True).matrices()[H].shape \
        == (0, 0)
    assert comoving(sys, [], pts, [H]).matrices()[H].shape == (0, m)
    assert comoving(sys, [], pts, [H], use_max=True).matrices()[H].shape \
        == (0, m)
    for below in (1e-3, 0.25):
        assert comoving(sys, [], None, [H], below=below).matrices(
            below)[H].shape == (0, 0)
        found = comoving(sys, [], None, [H], use_max=True, below=below)
        assert found.shape == (0, 0) and len(found.i) == 0
    for use_max in (False, True):
        out = sys.comoving_extremes(*states(sys, pts, []), {0, H}, use_max,
                                    -2)
        assert all(out[h].shape == (m, 0) for h in (0, H))
    assert comoving(sys, pts[:1], [], [H], centre=3).matrices()[H][0].shape \
        == (0,)
    assert orbit_visit_matrix(sys, [], pts, H).shape == (0, m)
    assert orbit_visit_matrix(sys, pts, [], H).shape == (m, 0)
    assert kernels.orbit_return_matrix(sys, [], H).shape == (0, 2 * H + 1)
    assert orbit_min_pairs(sys, [], [], H).shape == (0,)
    assert all(a.shape == (0,) for a in nearest(sys, [], pts))
    assert mesh(sys, []) == np.inf
    empty, full = sys.arr_state([]), sys.arr_state(pts)
    assert sys.arr_cdist(empty, full).shape == (0, m)
    assert sys.arr_cdist(full, empty).shape == (m, 0)
    assert sys.arr_pdist(empty).shape == (0, 0)


HORIZON_CASES = {"skew_torus": SkewTorus, "annulus3": annulus3,
                 "shift2": shift2,
                 "conjugate": lambda: identity_conjugate(annulus3())}


@pytest.mark.parametrize("name", sorted(HORIZON_CASES))
@pytest.mark.parametrize("H", [-1, 2.5])
def test_horizons_must_be_whole_and_nonnegative(name, H):
    # every kernel, and the engine behind every hook, refuses a negative
    # or fractional horizon instead of returning numbers or failing
    # inside numpy
    sys = HORIZON_CASES[name]()
    pts = list(sys.sampler(2).points[:4])
    S = sys.arr_state(pts)
    calls = (lambda: comoving(sys, pts, None, [H]),
             lambda: comoving(sys, pts, None, (3, H), use_max=True),
             lambda: comoving(sys, pts[:1], pts, (H, 3), below=0.1),
             lambda: comoving(sys, pts[:1], pts, [H], centre=2),
             lambda: min_orbit_distance(sys, pts[0], pts[1], H),
             lambda: max_orbit_distance(sys, pts[0], pts[1], H),
             lambda: orbit_visit_matrix(sys, pts, pts[:2], H),
             lambda: orbit_return_matrix(sys, pts, H),
             lambda: orbit_min_pairs(sys, pts, pts[::-1], H),
             lambda: kernels.sweep_extremes(sys, S, None, (3, H), False, 0),
             lambda: kernels.sweep_visits(sys, S, S, H),
             lambda: kernels.sweep_returns(sys, S, H))
    for call in calls:
        with pytest.raises(ParameterError, match="horizon"):
            call()


# ---------------------------------------------------------------------------
# the system contract: a map stated once, as iterate
# ---------------------------------------------------------------------------

class BareSkew(systems.DynSystem):
    """A skew product that states only iterate, its metric on point lists
    as arr_cdist and arr_edist, and sampler; everything else comes from
    DynSystem."""

    id = "bare_skew"

    def iterate(self, p, n):
        # (x + n a, y + n x + a n(n-1)/2), for every integer n
        return Torus(p.x + n * 0.3, p.y + n * p.x + 0.3 * (n * (n - 1) // 2))

    def arr_cdist(self, sa, sb):
        return np.array([self.arr_edist([a] * len(sb), sb) for a in sa],
                        dtype=float).reshape(len(sa), len(sb))

    def arr_edist(self, sa, sb):
        return np.array([math.hypot(circ_gap(x.x, y.x), circ_gap(x.y, y.y))
                         for x, y in zip(sa, sb)], dtype=float)

    def sampler(self, resolution=3, seed=None):
        pts = tuple(Torus(i / resolution, j / (resolution + 1))
                    for i in range(resolution) for j in range(resolution))
        return PointCloud(pts, "grid", self.id)


def test_iterate_alone_makes_a_working_system():
    sys = BareSkew()
    pts = list(sys.sampler().points)
    for p in pts:
        assert sys.step(p) == sys.iterate(p, 1)
        assert sys.step_inv(p) == sys.iterate(p, -1)
        assert sys.dist(sys.step_inv(sys.step(p)), p) < 1e-12
    H = 6
    want = np.array([[min(sys.dist(sys.iterate(p, n), sys.iterate(q, n))
                          for n in range(-H, H + 1)) for q in pts]
                     for p in pts])
    assert np.allclose(comoving(sys, pts, None, [H]).matrices()[H], want,
                       rtol=0.0, atol=1e-9)
    want = np.array([[sys.dist(sys.iterate(p, n), p)
                      for n in range(-H, H + 1)] for p in pts])
    assert np.allclose(kernels.orbit_return_matrix(sys, pts, H), want,
                       rtol=0.0, atol=1e-6)


# ---------------------------------------------------------------------------
# below: exact under the threshold, a certified lower bound elsewhere
# ---------------------------------------------------------------------------

def _ann_conjugate():
    ann = annulus3()
    return conjugate_system(ann, ann.step, ann.step_inv)


BELOW_SYSTEMS = {
    "annulus3": annulus3, "annulus2": annulus2,
    "annulusN": lambda: annulusN(N=6), "skew_torus": SkewTorus,
    "rotation": Rotation, "identity": IdentityTorus, "shift2": shift2,
    "conjugate": _ann_conjugate,
    "power": lambda: systems.power_system(SkewTorus(), 2),
    "product": lambda: systems.product_system(Rotation(), annulus2()),
}

BELOW_TORUS = ("skew_torus", "rotation", "identity")

# angles or x coordinates at and next to 0 and 1
EDGE_TURNS = (0.0, 2.0 ** -52, 0.5, 1.0 - 2.0 ** -53, 1.0 - 2.0 ** -50)


def below_points(name, sys, rng, m):
    """Points of the system's space: at most m of its sampler's on the
    shift and the wrappers; at least m on the torus and annulus systems,
    some at angles or x next to 0 and 1 and some in pairs one rounding
    error apart, in angle or x, and annulus circle points also at an
    orbit point's angle and one rounding error beside it."""
    if name in ("shift2", "conjugate", "power", "product"):
        pts = list(sys.sampler(2).points)
        return [pts[i] for i in rng.permutation(len(pts))[:m]]
    turns = list(EDGE_TURNS) + [float(t) for t in rng.random(m)]
    turns += [float(np.nextafter(t, 1.0)) for t in turns[::3]]
    if name in BELOW_TORUS:
        ys = [0.0] * len(turns) if name == "rotation" else \
            [float(y) for y in rng.choice([0.0, 0.25, 1.0 - 2.0 ** -53,
                                           *rng.random(3)], len(turns))]
        pts = [Torus(x, y) for x, y in zip(turns, ys)]
    else:
        labels = sorted(sys.orbits)
        orbit = [OrbitIndex(int(n), labels[int(rng.integers(len(labels)))])
                 for n in rng.integers(-60, 61, m)]
        at = [float(sys.arr_state([p])["theta"][0]) for p in orbit[:3]]
        turns += at + [float(np.nextafter(t, 2.0)) for t in at]
        pts = orbit + [Annulus(t, float(rng.choice(sys.circles)))
                       for t in turns]
    return [pts[i] for i in rng.permutation(len(pts))]


def assert_below_contract(got, want, below):
    """Entries whose exact minimum is under `below` are exact; the rest
    lie between `below` and the exact minimum."""
    exact = want < below
    assert np.array_equal(got[exact], want[exact])
    rest, bound = got[~exact], want[~exact]
    assert np.all((rest >= below) & (rest <= bound))


def assert_list_contract(found, exact, below, mirror, use_max=False):
    """The list of ``comoving_pairs`` against the exact matrices {h: M_h}:
    in CSR order, each pair once; every entry under `below` at some
    horizon (the widest for minima, the narrowest for maxima) listed,
    with the matrix's bits at every horizon; every other entry at or
    above `below`; against itself its own transpose, on extremes that
    are symmetric."""
    M = exact[min(exact) if use_max else max(exact)]
    assert found.shape == M.shape
    flat = found.i.astype(np.int64) * M.shape[1] + found.j
    assert np.all(np.diff(flat) > 0)
    listed = np.zeros(M.shape, dtype=bool)
    listed[found.i, found.j] = True
    assert np.all(listed[M < below])
    for h, Mh in exact.items():
        assert found.values[h].tobytes() == Mh[found.i, found.j].tobytes()
        assert np.all(Mh[~listed] >= below)
        if mirror:
            assert Mh.tobytes() == Mh.T.copy().tobytes()
    if mirror:
        assert np.array_equal(listed, listed.T)


@given(st.sampled_from(sorted(BELOW_SYSTEMS)), st.integers(0, 10_000),
       st.sampled_from([1e-300, 1e-15, 1e-9, 1e-3, 0.02, 0.2, None]),
       st.booleans())
@settings(max_examples=60, deadline=None)
def test_below_keeps_minima_under_it_exact(name, seed, below, cross):
    # every system meets the contract, on its own cloud and against a
    # second one, at H and 2H and at any centre, in the list form and in
    # the matrices scattered from it; None draws the threshold from the
    # exact entries, so some entries sit exactly on it
    rng = np.random.default_rng(seed)
    sys = BELOW_SYSTEMS[name]()
    pts = below_points(name, sys, rng, 12)
    other = below_points(name, sys, rng, 6) if cross else None
    engine = name in ("shift2", "conjugate", "power", "product")
    H = int(rng.choice([0, 1, 5, 12] if engine else [0, 1, 5, 40, 200]))
    centre = int(rng.integers(-40, 41))
    want = comoving(sys, pts, other, (H, 2 * H), centre=centre).matrices()
    if below is None:
        pos = want[2 * H][want[2 * H] > 0.0]
        below = float(rng.choice(pos)) if pos.size else 0.5
    found = comoving(sys, pts, other, (H, 2 * H), centre=centre, below=below)
    got = found.matrices(below)
    assert_below_contract(got[2 * H], want[2 * H], below)
    assert_below_contract(got[H], want[H], below)
    assert_list_contract(found, want, below, other is None)
    rows = [pts[int(i)] for i in rng.permutation(len(pts))[:3]]
    got = comoving(sys, rows, pts, (H, 2 * H), below=below).matrices(below)
    want = comoving(sys, rows, pts, (H, 2 * H)).matrices()
    assert_below_contract(got[2 * H], want[2 * H], below)
    assert_below_contract(got[H], want[H], below)


@pytest.mark.parametrize("below", [float("nan"), float("inf"),
                                   -float("inf"), 0.0, -1e-3])
def test_below_must_be_finite_and_positive(below):
    sys = annulus3()
    pts = list(sys.sampler(4).points[:6])
    with pytest.raises(ParameterError):
        comoving(sys, pts, None, [5], below=below)
    with pytest.raises(ParameterError):
        comoving(sys, pts[:1], pts, [5], below=below)


@given(st.sampled_from(sorted(BELOW_SYSTEMS)), st.integers(0, 10_000),
       st.sampled_from([1e-300, 2.0 ** -GCAP, 2.0 ** -9, 0.02, 0.25, 0.5,
                        1.0, 1.5, None]),
       st.booleans())
@settings(max_examples=60, deadline=None)
def test_below_keeps_maxima_under_it_exact(name, seed, below, cross):
    # the max side of the contract, for every system, on its own cloud and
    # against a second one, at H and 2H and at any centre: every pair
    # whose maximum is under below at H is listed with its exact maxima,
    # and every other pair lies at or above below at both horizons; None
    # draws the threshold from the exact entries at H, so some sit exactly
    # on it (on the shift every distance is 0 or 2^-k)
    rng = np.random.default_rng(seed)
    sys = BELOW_SYSTEMS[name]()
    pts = below_points(name, sys, rng, 12)
    other = below_points(name, sys, rng, 6) if cross else None
    engine = name in ("shift2", "conjugate", "power", "product")
    H = int(rng.choice([0, 1, 5, 12] if engine else [0, 1, 5, 40, 200]))
    centre = int(rng.integers(-40, 41))
    want = comoving(sys, pts, other, (H, 2 * H), True, centre).matrices()
    if below is None:
        pos = want[H][want[H] > 0.0]
        below = float(rng.choice(pos)) if pos.size else 0.5
    found = comoving(sys, pts, other, (H, 2 * H), True, centre, below)
    assert_list_contract(found, want, below, other is None, use_max=True)


@pytest.mark.parametrize("k", [1, 2, 5, GCAP - 1, GCAP, GCAP + 1])
def test_shift_max_list_holds_the_pairs_that_agree(k):
    # below = 2^-k: a pair is listed iff it agrees on the k symbols on each
    # side of every time of the narrowest window, by a direct read of the
    # symbols; at 2^-GCAP and below only equal points lie under below, and
    # the list holds the pairs that agree on the whole closed-form window
    sys = shift2()
    pts = list(sys.sampler(3).points) + [word_point((1,), GCAP + 3),
                                         word_point((1,), -GCAP - 30)]
    h, centre = 4, -2
    r = min(k + 1, GCAP + 1)
    found = comoving(sys, pts, None, {h, 9}, True, centre, 2.0 ** -k)
    near = [tuple(p.get(t) for t in range(centre - h - r + 1,
                                          centre + h + r)) for p in pts]
    listed = {(int(i), int(j)) for i, j in zip(found.i, found.j)}
    assert listed == {(i, j) for i in range(len(pts))
                      for j in range(len(pts)) if near[i] == near[j]}
    # the grid of radius 4 against H = 20 and 0.25: the diagonal alone
    grid = list(sys.sampler(4).points)
    found = comoving(sys, grid, None, [20], use_max=True, below=0.25)
    assert np.array_equal(found.i, np.arange(len(grid)))
    assert np.array_equal(found.j, found.i)
    assert not found.values[20].any()


def test_below_evaluates_only_the_pairs_that_can_be_edges(monkeypatch):
    # on annulus3's default cloud at eps = 1e-3 the angle-gap bound leaves
    # the 593 diagonal pairs and 52 of the 351,056 others; on the 24^2
    # skew grid only the diagonal, one difference class
    sys = annulus3()
    pts = list(sys.sampler(256).points)
    seen = []
    real = systems.AnnulusSystem._pair_extremes

    def spy(self, A, B, i, j, *args):
        seen.append(len(i))
        return real(self, A, B, i, j, *args)

    monkeypatch.setattr(systems.AnnulusSystem, "_pair_extremes", spy)
    M = comoving(sys, pts, None, (200, 400), below=1e-3).matrices(1e-3)[400]
    # each unordered pair is evaluated once and mirrored
    assert sum(seen) == len(pts) + 52 // 2
    assert np.count_nonzero(M != 1e-3) == len(pts) + 52
    skew = SkewTorus()
    grid = list(skew.sampler(24).points)
    classes, sweep = [], SkewTorus._sweep_classes

    def count(self, c, *args):
        classes.append(len(c))
        return sweep(self, c, *args)

    monkeypatch.setattr(SkewTorus, "_sweep_classes", count)
    comoving(skew, grid, None, (200, 400), below=1e-3)
    assert classes == [1]


def test_full_list_counts_rows_with_no_grid():
    # a list of every pair builds no row or column grid until one is read;
    # its row counts are those of the matrix, and the grids, once read,
    # are the CSR order of every pair.  Full lists: the torus maxima under
    # a threshold too wide to prune, the shift's minima under any, and
    # every hook with no threshold
    for sys, res, use_max, below in ((SkewTorus(), 6, True, 0.2),
                                     (SkewTorus(), 6, False, None),
                                     (Rotation(), 16, True, None),
                                     (annulus3(), 4, True, None),
                                     (annulus3(), 4, False, None),
                                     (shift2(), 2, False, 1e-3)):
        pts = list(sys.sampler(res).points)
        M = comoving(sys, pts, None, [30], use_max).matrices()[30]
        found = comoving(sys, pts, None, [30], use_max, below=below)
        assert found.full and found._i is None and found._j is None
        assert found.values[30].tobytes() == M.tobytes()
        keep = found.values[30] < 0.2
        assert np.array_equal(found.row_counts(keep), (M < 0.2).sum(axis=1))
        m = len(pts)
        assert np.array_equal(found.i, np.repeat(np.arange(m), m))
        assert np.array_equal(found.j, np.tile(np.arange(m), m))
        assert np.array_equal(found.row_counts(keep),
                              np.bincount(found.i[keep], minlength=m))


@pytest.mark.parametrize("name", ["annulus3", "skew_torus"])
def test_below_falls_back_to_the_full_matrix(name, monkeypatch):
    # a threshold so wide that most pairs stay goes the unpruned way, for
    # minima and maxima: every pair is listed with its exact extreme, so
    # the matrix scattered from the list is the exact matrix; with no
    # threshold the hook lists every pair too, bit for bit a reference
    # that shares none of its grouping (a fold over every time on the
    # annulus, per-block classes on the torus)
    sys = BELOW_SYSTEMS[name]()
    pts = list(sys.sampler(8).points)
    want = comoving(sys, pts, None, [30]).matrices()[30]
    S = sys.arr_state(pts)

    def check(below):
        found = sys.comoving_pairs(S, None, {30}, False, 0, below)
        assert len(found.i) == want.size
        assert found.values[30].tobytes() == \
            want[found.i, found.j].tobytes()
        assert np.array_equal(comoving(sys, pts, None, [30], below=below)
                              .matrices(below)[30], want)
        peak = comoving(sys, pts, None, [30], use_max=True).matrices()[30]
        found = sys.comoving_pairs(S, None, {30}, True, 0, below)
        assert len(found.i) == peak.size
        assert found.values[30].tobytes() == \
            peak[found.i, found.j].tobytes()

    for use_max in (False, True):
        if name == "annulus3":
            ref = dense_fold(sys, pts, None, 30, use_max, 0)
        else:
            ref = per_block_reference(sys, S, None, {30}, use_max, 0)[30]
        found = sys.comoving_pairs(S, None, {30}, use_max, 0, None)
        assert found.full
        assert found.values[30].tobytes() == ref.tobytes()
    check(0.9)
    calls = []
    monkeypatch.setattr(annulus if name == "annulus3" else torus,
                        "_close_pairs", lambda *args: calls.append(args))
    check(1e-3)
    assert calls


@pytest.mark.parametrize("name", ["annulus3", "skew_torus"])
def test_max_list_is_pruned_by_the_fixed_gap(name):
    # the fixed gap that bounds a pair's distance at every time bounds its
    # maximum too, so a narrow threshold lists fewer than every pair, on
    # a cloud against itself and for rows against it
    sys = BELOW_SYSTEMS[name]()
    pts = list(sys.sampler(16).points)
    for a, b in ((pts, None), (pts[::5], pts)):
        found = comoving(sys, a, b, {4, 30}, True, 3, 0.02)
        exact = sys.comoving_extremes(*states(sys, a, b), {4, 30}, True, 3)
        assert not found.full
        assert len(found.i) < exact[30].size
        assert_list_contract(found, exact, 0.02, b is None, use_max=True)


def test_only_the_base_class_defines_comoving_extremes():
    # comoving_pairs is the one co-moving hook a system overrides;
    # comoving_extremes reshapes its full list and is overridden nowhere
    owners = [name for module in (base, torus, annulus, shift, wrappers)
              for name, cls in vars(module).items()
              if isinstance(cls, type) and cls.__module__ == module.__name__
              and "comoving_extremes" in vars(cls)]
    assert owners == ["DynSystem"]
