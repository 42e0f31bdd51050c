"""Periodic points, return profiles, almost periodicity, minimal subsystem
clustering, transitivity, dynamical balls and expansivity."""

import bisect
import itertools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ndistal import structure, systems
from ndistal.kernels import comoving
from ndistal.equicont import r_set
from ndistal.errors import ParameterError
from ndistal.points import (OrbitIndex, PointCloud, Torus, periodic_point,
                            word_point)
from ndistal.structure import (DELTA_LIST, almost_periodic_verdict,
                               default_gap_bound,
                               dynamical_ball, expansivity_probe,
                               minimal_subsystems, periodic_points,
                               prop_3_2_audit, return_profile,
                               theorem_3_5_audit, transitive_check)
from ndistal.systems import (IdentityTorus, Rotation, SkewTorus, annulus3,
                             annulusN, conjugate_system, product_system,
                             shift2)

ANNULUS_GAP = lambda d: int(np.ceil(16.0 / d))


# ---------------------------------------------------------------------------
# periodic points
# ---------------------------------------------------------------------------

def test_identity_everything_period_one():
    s = IdentityTorus()
    cloud = s.sampler(8)
    found = periodic_points(s, cloud, T_max=5)
    assert len(found) == len(cloud)
    assert all(T == 1 for _, T in found)


def smallest_period(bits):
    n = len(bits)
    for T in range(1, n + 1):
        if n % T == 0 and bits == bits[T:] + bits[:T]:
            return T
    return n


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 12])
def test_shift_periodic_counts_match_word_enumeration(n):
    s = shift2()
    cloud = s.periodic_cloud(n)
    found = periodic_points(s, cloud, T_max=n)
    assert len(found) == 2 ** n
    got = sorted(T for _, T in found)
    want = sorted(smallest_period(list(bits))
                  for bits in itertools.product((0, 1), repeat=n))
    assert got == want


def test_irrational_rotation_has_no_periodic_points():
    s = Rotation()
    cloud = s.sampler(32)
    assert periodic_points(s, cloud, T_max=50) == []
    # cross-check the direct scan the claim rests on
    alpha = s.alpha
    worst = min(min((T * alpha) % 1.0, 1.0 - (T * alpha) % 1.0)
                for T in range(1, 51))
    assert worst > 1e-2


def test_periodic_detection_conjugacy_stable():
    s = Rotation()
    cloud = s.sampler(16)
    conj = conjugate_system(s, s.step, s.step_inv)
    image = PointCloud(tuple(s.step(p) for p in cloud.points),
                       cloud.provenance, conj.id)
    a = sorted(T for _, T in periodic_points(s, cloud, T_max=20))
    b = sorted(T for _, T in periodic_points(conj, image, T_max=20))
    assert a == b


def periodic_points_by_iterate(sys, cloud, T_max, eps_per=1e-6):
    """The stepping oracle: each T moves the points still without a period
    by iterate, one confirmation j at a time."""
    pts, period = cloud.points, {}
    for T in range(1, T_max + 1):
        left = [i for i in range(len(pts)) if i not in period]
        for j in range(1, structure.CONFIRMATIONS + 1):
            if not left:
                break
            d = sys.arr_edist(
                sys.arr_state([sys.iterate(pts[i], j * T) for i in left]),
                sys.arr_state([pts[i] for i in left]))
            left = [i for i, ok in zip(left, d < eps_per) if ok]
        period.update(dict.fromkeys(left, T))
    return [(pts[i], period[i]) for i in sorted(period)]


PERIODIC_CASES = {
    "identity": (IdentityTorus, 8, 3),
    "rotation": (lambda: Rotation(0.25), 64, 12),
    "golden rotation": (Rotation, 64, 30),
    "skew": (lambda: SkewTorus(0.5), 8, 12),
    "shift2": (shift2, 3, 12),
    "annulus3": (annulus3, 32, 12),
    "product": (lambda: product_system(Rotation(1 / 3), Rotation(0.25)),
                6, 12),
    "conjugate": (lambda: conjugate_system(SkewTorus(0.5), lambda p: p,
                                           lambda p: p), 4, 6),
}


@pytest.mark.parametrize("case", sorted(PERIODIC_CASES))
def test_periodic_points_match_stepping(case):
    make, resolution, T_max = PERIODIC_CASES[case]
    s = make()
    clouds = [s.sampler(resolution)]
    if case == "shift2":
        clouds.append(s.periodic_cloud(6))
    for cloud in clouds:
        assert periodic_points(s, cloud, T_max) == \
            periodic_points_by_iterate(s, cloud, T_max)


def test_periodic_points_step_no_orbit():
    # periods come off the return matrix, so a system whose iterate
    # raises still gets them
    class ArrayOnly(Rotation):
        def iterate(self, p, n):
            raise AssertionError("iterate called")

    s = ArrayOnly(0.25)
    found = periodic_points(s, s.sampler(16), T_max=6)
    assert len(found) == 16 and {T for _, T in found} == {4}


# ---------------------------------------------------------------------------
# return profiles and almost periodicity
# ---------------------------------------------------------------------------

def test_rotation_returns_are_syndetic():
    s = Rotation()
    prof = return_profile(s, Torus(0.3, 0.7), delta=0.1, H=500)
    assert prof.max_gap is not None
    assert prof.max_gap <= 10
    assert all(-500 <= t <= 500 for t in prof.return_times)
    assert 0 in prof.return_times


def test_identity_returns_every_step():
    s = IdentityTorus()
    prof = return_profile(s, Torus(0.1, 0.2), delta=0.05, H=50)
    assert len(prof.return_times) == 101
    assert prof.max_gap == 1


def test_wandering_annulus_point_stops_returning():
    s = annulus3()
    prof = return_profile(s, OrbitIndex(0, 0), delta=0.1, H=500)
    assert prof.max_gap is None or prof.max_gap > default_gap_bound(0.1)


def test_almost_periodic_verdicts():
    s = annulus3()
    assert almost_periodic_verdict(s, s.sampler(8)[0], gap_bound=ANNULUS_GAP)
    assert not almost_periodic_verdict(s, OrbitIndex(0, 0),
                                       gap_bound=ANNULUS_GAP)
    r = Rotation()
    assert almost_periodic_verdict(r, Torus(0.4, 0.9))
    assert almost_periodic_verdict(shift2(), word_point(()))


def test_almost_periodic_verdict_sweeps_returns_once(monkeypatch):
    s = annulus3()
    points = [*s.sampler(8).points[:4], OrbitIndex(0, 0), OrbitIndex(3)]
    # the verdict as one return profile per delta
    def one_by_one(x):
        gaps = {d: return_profile(s, x, d, 500).max_gap for d in DELTA_LIST}
        return all(g is not None and g <= ANNULUS_GAP(d)
                   for d, g in gaps.items())

    want = [one_by_one(x) for x in points]
    calls = []
    sweep = structure.orbit_return_matrix
    monkeypatch.setattr(structure, "orbit_return_matrix",
                        lambda *a: calls.append(a) or sweep(*a))
    got = [almost_periodic_verdict(s, x, gap_bound=ANNULUS_GAP)
           for x in points]
    assert got == want and True in got and False in got
    assert len(calls) == len(points)


def reference_gap(row, delta, H):
    """The per-row return gap the verdicts used before they ran on whole
    arrays: (return times, longest gap or None for at most one return)."""
    times = np.nonzero(row < delta)[0] - H
    if len(times) <= 1:
        return tuple(int(t) for t in times), None
    padded = np.concatenate([[-H - 1], times, [H + 1]])
    return tuple(int(t) for t in times), int(np.diff(padded).max())


def reference_clusters(close):
    """Union-find with index-ordered merges: the components of `close`,
    each as its sorted local indices, ordered by their smallest one."""
    parent = list(range(len(close)))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for i in range(len(close)):
        for j in np.nonzero(close[i])[0]:
            ri, rj = find(i), find(int(j))
            if ri != rj:
                parent[max(ri, rj)] = min(ri, rj)
    clusters = {}
    for i in range(len(close)):
        clusters.setdefault(find(i), []).append(i)
    return [clusters[root] for root in sorted(clusters)]


class GivenReturns:
    """A system whose return distances are a given matrix."""

    def __init__(self, D):
        self.D = D

    def arr_state(self, points):
        return list(points)

    def return_distances(self, state, H):
        return self.D


def accumulate_gaps(D, delta):
    """The longest return gaps by a running maximum of the last return
    over every time: the reference for `_return_gaps`, which reads the
    returns alone."""
    returns = D < delta
    t = np.arange(returns.shape[1])
    last = np.where(returns, t, -1)
    np.maximum.accumulate(last, axis=1, out=last)
    np.subtract(t + 1, last, out=last)
    gaps = last.max(axis=1)
    gaps[returns.sum(axis=1) <= 1] = -1
    return gaps


def random_returns(rng, H):
    """Float32 return distances over |n| <= H: rows with no return, with
    the return at n = 0 only, with every return, with returns at one or
    both window ends, with one or two returns anywhere, and random rows of
    every density."""
    T = 2 * H + 1
    rows = [np.ones(T), np.ones(T), np.zeros(T), np.ones(T)]
    rows[1][H] = 0.0
    rows[3][[0, H, T - 1]] = 0.0
    for at in ([0, T - 1], [0], [T - 1],
               *(rng.choice(T, size=min(c, T), replace=False)
                 for c in (1, 2, 2))):
        rows.append(np.ones(T))
        rows[-1][at] = 0.0
    for _ in range(int(rng.integers(1, 12))):
        row = rng.random(T) * rng.choice([0.06, 0.15, 0.3, 1.0])
        if rng.random() < 0.5:
            row[rng.choice([0, T - 1])] = 0.0
        row[H] = 0.0
        rows.append(row)
    return np.array(rows, dtype=np.float32)


@given(st.sampled_from([0, 1, 2, None]), st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_array_gaps_match_row_loop(H, seed):
    rng = np.random.default_rng(seed)
    H = int(rng.integers(3, 300)) if H is None else H
    D = random_returns(rng, H)
    for delta in DELTA_LIST:
        gaps = structure._return_gaps(D, delta)
        want = [reference_gap(row, delta, H)[1] for row in D]
        assert [None if g < 0 else int(g) for g in gaps] == want
        running = accumulate_gaps(D, delta)
        assert gaps.dtype == running.dtype
        assert np.array_equal(gaps, running)
    assert structure._return_gaps(D[:0], 0.1).shape == (0,)
    # the mask over every delta, as the old loop skipped failed rows
    bound = ANNULUS_GAP if rng.random() < 0.5 else default_gap_bound
    want = np.ones(len(D), dtype=bool)
    for delta in DELTA_LIST:
        for i in np.nonzero(want)[0]:
            gap = reference_gap(D[i], delta, H)[1]
            want[i] = gap is not None and gap <= bound(delta)
    got = structure._almost_periodic_mask(GivenReturns(D), [None] * len(D),
                                          DELTA_LIST, H, bound)
    assert np.array_equal(got, want)


@given(st.integers(1, 40), st.sampled_from([0.0, 0.02, 0.1, 0.4, 1.0]),
       st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_csgraph_clusters_match_union_find(m, p, seed):
    # identity points return at every time, so every one is almost
    # periodic and the clusters come from the visit matrix alone
    rng = np.random.default_rng(seed)
    s = IdentityTorus()
    cloud = PointCloud(tuple(Torus(i / m, 0.0) for i in range(m)), "grid",
                       s.id)
    delta = 0.05
    V = np.where(rng.random((m, m)) < p, rng.random((m, m)) * delta,
                 delta + rng.random((m, m)))
    got = minimal_subsystems(s, cloud, delta, H=3, visit=V)
    sym = np.maximum(V, V.T)
    close = sym < delta
    np.fill_diagonal(close, True)
    want = reference_clusters(close)
    assert [c.indices for c in got] == [tuple(c) for c in want]
    assert [c.closeness for c in got] == \
        [float(sym[np.ix_(c, c)].max()) for c in want]
    assert [c.representative for c in got] == [cloud[c[0]] for c in want]


def test_return_profile_matches_row_loop():
    s = annulus3()
    for x in [*s.sampler(8).points[::5], OrbitIndex(0), OrbitIndex(-50)]:
        row = structure.orbit_return_matrix(s, [x], 300)[0]
        for delta in (*DELTA_LIST, 0.5, 1.5):
            prof = return_profile(s, x, delta, 300)
            assert (prof.return_times, prof.max_gap) == \
                reference_gap(row, delta, 300)


@pytest.mark.parametrize("bad", [-1.0, 0.0, float("nan")])
def test_almost_periodic_rejects_bad_delta_list(bad):
    s = annulus3()
    cloud = s.sampler(16)
    with pytest.raises(ParameterError):
        minimal_subsystems(s, cloud, H=2000, delta_list=(bad,))
    with pytest.raises(ParameterError):
        minimal_subsystems(s, cloud, H=2000, delta_list=(0.1, bad))
    with pytest.raises(ParameterError):
        almost_periodic_verdict(s, cloud[0], delta_list=(bad,))


# ---------------------------------------------------------------------------
# minimal subsystems and transitivity
# ---------------------------------------------------------------------------

def test_annulus3_two_minimal_circles():
    s = annulus3()
    cloud = s.sampler(128)
    clusters = minimal_subsystems(s, cloud, gap_bound=ANNULUS_GAP)
    assert len(clusters) == 2
    sizes = sorted(len(c.indices) for c in clusters)
    assert sizes == [128, 128]
    # the clusters are exactly the two circles, no orbit points
    radii = [{round(math.hypot(*s.embed(cloud[i])), 6) for i in c.indices}
             for c in clusters]
    assert sorted(radii) == [{1.0}, {2.0}]


PI = Fraction("3.14159265358979323846264338327950288419716939937510582097")


def exact_sin(x):
    """sin x for a small Fraction x, by its Taylor series to ~1e-40."""
    term, total, k = x, Fraction(0), 1
    while abs(term) > Fraction(1, 10 ** 40):
        total += term
        term = -term * x * x / ((k + 1) * (k + 2))
        k += 2
    return total


def test_annulus3_cluster_closeness_exact():
    # the annulus3_audit scenario's clusters: each circle of sampler(64)
    # at H=2000.  Its closeness is the largest over member pairs of the
    # chord 2 r sin(pi g), g the circular gap from theta_j - theta_i to the
    # nearest n k mod 1, |n| <= 2000, all in exact rationals
    s = annulus3()
    cloud = s.sampler(64)
    clusters = minimal_subsystems(s, cloud, H=2000, gap_bound=ANNULUS_GAP)
    k = Fraction(s.k)
    turns = sorted((n * k) % 1 for n in range(-2000, 2001))
    turns = [turns[-1] - 1] + turns + [turns[0] + 1]

    def gap(q):
        i = bisect.bisect_left(turns, q)
        return min(q - turns[i - 1], turns[i] - q)

    assert len(clusters) == 2
    for c in clusters:
        pts = [cloud[i] for i in c.indices]
        r = Fraction(pts[0].r)
        assert all(p.r == pts[0].r for p in pts)
        g = max(gap((Fraction(b.theta) - Fraction(a.theta)) % 1)
                for a in pts for b in pts)
        want = float(2 * r * exact_sin(PI * g))
        assert abs(c.closeness - want) <= math.ulp(want)


def test_annulusN_still_two_minimal_circles():
    s = annulusN(N=5)
    cloud = s.sampler(64)
    clusters = minimal_subsystems(s, cloud, gap_bound=ANNULUS_GAP)
    assert len(clusters) == 2


def test_rotation_single_cluster_is_whole_cloud():
    s = Rotation()
    cloud = s.sampler(64)
    clusters = minimal_subsystems(s, cloud)
    assert len(clusters) == 1
    assert len(clusters[0].indices) == len(cloud)


def test_cluster_invariance_under_step():
    s = annulus3()
    cloud = s.sampler(64)
    clusters = minimal_subsystems(s, cloud, gap_bound=ANNULUS_GAP)
    for c in clusters:
        members = [cloud[i] for i in c.indices]
        # tolerance: the grid chord spacing on the outer circle
        spacing = 2.0 * math.pi * 2.0 / 64
        for p in members[::8]:
            q = s.step(p)
            assert min(s.dist(q, m) for m in members) < spacing


def test_transitive_points():
    s = annulus3()
    cloud = s.sampler(128)
    tp = transitive_check(s, cloud)
    assert isinstance(tp, OrbitIndex)
    r = Rotation()
    rc = r.sampler(64)
    assert transitive_check(r, rc) == rc[0]


def test_disjoint_circles_have_no_transitive_point():
    s = annulus3()
    full = s.sampler(64)
    circles = tuple(p for p in full.points if not isinstance(p, OrbitIndex))
    cloud = PointCloud(circles, "circles-only", s.id)
    assert transitive_check(s, cloud) is None


@pytest.mark.parametrize("budget", [1, 500, 4000])
def test_transitive_check_row_blocks(monkeypatch, budget):
    # the visit rows go in blocks of at most _CHUNK visits (at least one
    # row), and the search stops at the first block holding a dense row;
    # the answer is the full matrix's first dense row
    s = annulus3()
    full_cloud = s.sampler(16)
    circles = PointCloud(tuple(p for p in full_cloud.points
                               if not isinstance(p, OrbitIndex)),
                         "circles-only", s.id)
    real, shapes = structure.orbit_visit_matrix, []

    def recorded(sys, points, targets, H):
        shapes.append((len(points), len(targets)))
        return real(sys, points, targets, H)

    for cloud in (full_cloud, circles):
        m = len(cloud)
        V = real(s, cloud.points, cloud.points, 300)
        dense = np.nonzero(V.max(axis=1) < 0.05)[0]
        monkeypatch.setattr(structure, "orbit_visit_matrix", recorded)
        monkeypatch.setattr(structure, "_CHUNK", budget)
        shapes.clear()
        got = transitive_check(s, cloud, H=300)
        monkeypatch.undo()
        step = max(1, budget // m)
        assert got == (cloud[int(dense[0])] if len(dense) else None)
        assert all(r * w <= max(budget, w) for r, w in shapes)
        seen = m if not len(dense) else min(m, (dense[0] // step + 1) * step)
        assert sum(r for r, _ in shapes) == seen


def test_theorem_3_5_audits():
    a = annulus3()
    rec = theorem_3_5_audit(a, 3, a.sampler(128), gap_bound=ANNULUS_GAP)
    assert rec.applicable and rec.passed
    assert rec.details["n_minimal"] == 2

    r = Rotation()
    rec = theorem_3_5_audit(r, 1, r.sampler(64))
    assert rec.applicable and rec.passed
    assert rec.details["n_minimal"] == 0

    sh = shift2()
    rec = theorem_3_5_audit(sh, 2, sh.sampler(4), H=50, prox_H=50)
    assert not rec.applicable
    assert rec.passed is None


def test_theorem_3_5_needs_a_minimal_set():
    # at the default gap bound no point of this cloud is almost periodic,
    # but every compact system has a minimal set (Birkhoff): zero clusters
    # leave the bound untested, not passed
    a = annulus3()
    rec = theorem_3_5_audit(a, 3, a.sampler(64))
    assert rec.details["n_clusters"] == 0
    assert not rec.applicable
    assert rec.passed is None
    assert "almost periodic" in rec.details["reason"]


# ---------------------------------------------------------------------------
# dynamical balls and expansivity
# ---------------------------------------------------------------------------

def test_dynamical_ball_inside_r_set():
    s = SkewTorus()
    rng = np.random.default_rng(11)
    pts = tuple(Torus(float(x), float(y)) for x, y in rng.random((150, 2)))
    cloud = PointCloud(pts, "random(11)", s.id)
    ball = set(dynamical_ball(s, cloud[0], 0.2, cloud, H=100))
    rs = set(r_set(s, cloud[0], 0.2, cloud, H=100).members)
    assert ball <= rs


def test_shift_ball_at_zero_is_singleton():
    s = shift2()
    cloud = s.sampler(3)
    ball = dynamical_ball(s, word_point(()), 0.25, cloud, H=10)
    assert [cloud[i] for i in ball] == [word_point(())]


def test_rotation_ball_is_metric_ball():
    s = Rotation()
    cloud = s.sampler(32)
    x = cloud[5]
    ball = set(dynamical_ball(s, x, 0.13, cloud, H=50))
    want = {i for i, p in enumerate(cloud.points) if s.dist(x, p) < 0.13}
    assert ball == want


def test_expansivity_verdicts():
    sh = shift2()
    v = expansivity_probe(sh, sh.sampler(3), delta_grid=(0.25,), H=20)
    assert v.expansive_at == 0.25
    # an isometry keeps mesh neighbors inside every ball, so it is never
    # expansive at deltas above twice the cloud mesh
    r = Rotation()
    cloud = r.sampler(32)
    mesh = min(r.dist(cloud[i], cloud[j])
               for i in range(0, len(cloud), 7)
               for j in range(len(cloud)) if i != j)
    v = expansivity_probe(r, cloud, delta_grid=(0.25, 2.5 * mesh))
    assert v.expansive_at is None
    assert all(size > 1 for size in v.max_ball_sizes.values())
    # equal-x pairs keep constant distance under the skew map, so any
    # cloud containing such pairs closer than delta defeats expansivity
    sk = SkewTorus()
    rng = np.random.default_rng(12)
    pts = []
    for x, y in rng.random((50, 2)):
        pts.append(Torus(float(x), float(y)))
        pts.append(Torus(float(x), float(y) + 0.02))
    v = expansivity_probe(sk, PointCloud(tuple(pts), "pairs(12)", sk.id))
    assert v.expansive_at is None
    assert all(size > 1 for size in v.max_ball_sizes.values())


@pytest.mark.parametrize("name", sorted(systems.CATALOGUE_FACTS))
def test_probe_and_balls_from_lists_match_the_max_matrix(name):
    # at the CLI defaults (the default cloud, delta_grid (0.25, 0.1, 0.05),
    # H = 50) the probe, read from the pair list under the largest delta,
    # counts what the full max matrix counts, and the balls are the rows'
    # entries under delta
    sys = systems.get_system(name)
    cloud = sys.sampler(sys.cloud_size)
    grid, H = (0.25, 0.1, 0.05), 50
    M = comoving(sys, cloud.points, None, [H], use_max=True).matrices()[H]
    sizes = {d: int((M < d).sum(axis=1).max()) for d in grid}
    v = expansivity_probe(sys, cloud, delta_grid=grid, H=H)
    assert v.max_ball_sizes == sizes
    assert v.expansive_at == next((d for d in grid if sizes[d] == 1), None)
    for k in range(0, len(cloud), -(-len(cloud) // 4)):
        row = comoving(sys, [cloud[k]], cloud.points, [H],
                       use_max=True).matrices()[H][0]
        for d in grid:
            assert dynamical_ball(sys, cloud[k], d, cloud, H) == \
                tuple(int(i) for i in np.flatnonzero(row < d))


def test_probe_memory_stays_small():
    # the skew torus takes the default full list for maxima: its 1,024^2
    # max matrix (8.4 MB) is counted by rows, with no int32 row and column
    # grids beside it (8.4 MB more); the shift's list under 0.25 holds
    # only its 513 diagonal pairs
    peaks = []
    for name in ("skew_torus", "shift2"):
        sys = systems.get_system(name)
        cloud = sys.sampler(sys.cloud_size)
        tracemalloc.start()
        try:
            expansivity_probe(sys, cloud)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[0] < 14e6
    assert peaks[1] < 2e6


# ---------------------------------------------------------------------------
# Prop. 3.2 style audit
# ---------------------------------------------------------------------------

def test_prop_3_2_rational_rotation_passes():
    s = Rotation(alpha=2.0 / 7.0)
    cloud = s.sampler(16)
    rec = prop_3_2_audit(s, cloud)
    assert rec.applicable
    assert rec.passed
    assert rec.details["n_periodic"] == len(cloud)


def test_prop_3_2_shift_inapplicable():
    s = shift2()
    rec = prop_3_2_audit(s, s.sampler(4), H=50)
    assert not rec.applicable
    assert rec.passed is None
