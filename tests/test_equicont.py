"""R_delta sets, equivariance, the N-equicontinuity probe, and the skew
product witness construction."""

import math
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ndistal import equicont, kernels, proximal, structure
from ndistal.equicont import (n_equicontinuity_probe, r_set,
                              r_set_equivariance_check, skew_witness)
from ndistal.errors import ParameterError
from ndistal.ndiameter import (diam_n_bounds_from_matrix,
                               diam_n_exact_from_matrix)
from ndistal.points import PointCloud, Torus, word_point
from ndistal.systems import (IdentityTorus, Rotation, SkewTorus, annulus3,
                             shift2)


def random_torus_cloud(sys, m, seed):
    rng = np.random.default_rng(seed)
    pts = tuple(Torus(float(x), float(y)) for x, y in rng.random((m, 2)))
    return PointCloud(pts, f"random({seed})", sys.id)


# ---------------------------------------------------------------------------
# r_set
# ---------------------------------------------------------------------------

def test_r_set_contains_metric_ball():
    s = SkewTorus()
    cloud = random_torus_cloud(s, 300, 1)
    x = cloud[0]
    delta = 0.15
    est = r_set(s, x, delta, cloud, H=100)
    ball = {i for i, p in enumerate(cloud.points) if s.dist(x, p) < delta}
    assert ball <= set(est.members)
    assert cloud.index_of(x) in est.members


def test_r_set_monotone_in_delta():
    s = SkewTorus()
    cloud = random_torus_cloud(s, 200, 2)
    x = cloud[5]
    small = r_set(s, x, 0.05, cloud, H=50)
    large = r_set(s, x, 0.2, cloud, H=50)
    assert set(small.members) <= set(large.members)


def test_r_set_whole_cloud_for_huge_delta():
    s = Rotation()
    cloud = s.sampler(64)
    est = r_set(s, cloud[0], 10.0, cloud, H=5)
    assert len(est.members) == len(cloud)


def test_r_set_identity_is_metric_ball():
    s = IdentityTorus()
    cloud = s.sampler(16)
    x = cloud[0]
    est = r_set(s, x, 0.11, cloud, H=50)
    ball = {i for i, p in enumerate(cloud.points) if s.dist(x, p) < 0.11}
    assert set(est.members) == ball


def test_r_set_shift_words_with_a_zero():
    s = shift2()
    cloud = s.sampler(2)
    zero = word_point(())
    est = r_set(s, zero, 0.5, cloud, H=10)
    got = {cloud[i] for i in est.members}
    want = {p for p in cloud.points
            if any(p.get(i) == 0 for i in range(-6, 7))}
    assert got == want


# ---------------------------------------------------------------------------
# equivariance f^n(R_delta(x)) = R_delta(f^n(x))
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("make", [Rotation, SkewTorus])
def test_equivariance_on_torus_systems(make):
    s = make()
    cloud = random_torus_cloud(s, 200, 3)
    for n in (0, 1, 10, -25, 50):
        assert r_set_equivariance_check(s, cloud[3], 0.1, cloud, H=100, n=n)


@given(st.integers(-40, 40))
@settings(max_examples=20, deadline=None)
def test_equivariance_random_n(n):
    s = SkewTorus()
    cloud = random_torus_cloud(s, 120, 4)
    assert r_set_equivariance_check(s, cloud[7], 0.12, cloud, H=90, n=n)


@pytest.mark.parametrize("make", [Rotation, SkewTorus])
def test_torus_spot_checks_never_iterate(make, monkeypatch):
    # the mapped cloud is one arr_iterate jump of its state
    s = make()
    cloud = s.sampler(12 if make is SkewTorus else 144)

    def refuse(*args):
        raise AssertionError("a spot check iterated a point")

    monkeypatch.setattr(s, "iterate", refuse)
    for n in (0, 1, -7, 50, -100):
        assert r_set_equivariance_check(s, cloud[5], 0.1, cloud, H=200, n=n)


def test_equivariance_rejects_large_n():
    s = Rotation()
    cloud = random_torus_cloud(s, 50, 5)
    with pytest.raises(ParameterError):
        r_set_equivariance_check(s, cloud[0], 0.1, cloud, H=100, n=80)


# ---------------------------------------------------------------------------
# skew witness arithmetic
# ---------------------------------------------------------------------------

def test_skew_witness_contract_examples():
    assert skew_witness(1, 0.1) == (1, 3)       # 3*0.1 = 0.3 in [1/4, 3/4]
    assert skew_witness(1, 0.5) == (1, 1)       # 0.5 itself
    assert skew_witness(2, 0.01, M=2) == (2, 50)  # 50*0.005 = 0.25


@given(st.floats(0.001, 0.999), st.integers(1, 6))
@settings(max_examples=60)
def test_skew_witness_lands_in_window(delta, N):
    M, n = skew_witness(N, delta)
    assert 1 <= M <= N
    assert n >= 1
    frac = (n * delta / M) % 1.0
    assert 0.25 <= frac <= 0.75


def skew_witness_loop(N, delta, M=None):
    """The step-by-step scan `skew_witness` answers in closed form."""
    ms = [M] if M is not None else list(range(1, N + 1))
    n = 0
    while True:
        n += 1
        for m in ms:
            if 0.25 <= (n * delta / m) % 1.0 <= 0.75:
                return m, n


def test_skew_witness_matches_the_loop():
    rng = np.random.default_rng(3)
    deltas = ([0.5, 0.25, 0.75, 0.1, 0.2, 1 / 3, 2 / 3, 0.01, 0.49, 0.51,
               0.26, 0.24, 0.9, 0.99, 1e-4]
              + list(rng.random(30)) + list(10.0 ** rng.uniform(-4, 0, 30)))
    for delta in deltas:
        for N in (1, 2, 3, 5, 8):
            for M in [None, *range(1, N + 1)]:
                assert skew_witness(N, delta, M) == \
                    skew_witness_loop(N, delta, M), (N, delta, M)
    # m / (4 delta) rounds up past the first n here, which the bisection
    # against the float test corrects
    for N, delta, M in ((5, 1.3172550932985437e-06, 5),
                        (3, 7.655498485232033e-07, 3)):
        assert skew_witness(N, delta, M) == skew_witness_loop(N, delta, M)
        assert skew_witness(N, delta, M)[1] < math.ceil(M / (4 * delta))


class CountedDelta(float):
    """A delta that counts the products n * delta taken with it, and stops
    a search that takes more than `limit` of them."""

    def __new__(cls, value, limit):
        self = super().__new__(cls, value)
        self.calls, self.limit = 0, limit
        return self

    def __rmul__(self, n):
        self.calls += 1
        if self.calls > self.limit:
            raise AssertionError(f"more than {self.limit} evaluations")
        return float.__rmul__(self, n)


def in_band(n, delta):
    return 0.25 <= (n * delta) % 1.0 <= 0.75


def test_skew_witness_near_one_is_bisected():
    # delta > 1/2 with M = 1 falls through the band from above; its first
    # n, near 1 / (4 (1 - delta)), is bisected like every other offset's
    delta = 1 - 1e-9
    counted = CountedDelta(delta, 200)
    M, n = skew_witness(1, counted)
    assert M == 1 and counted.calls > 0
    assert in_band(n, delta) and not in_band(n - 1, delta)
    assert abs(n - 0.25 / (1 - delta)) < 100
    # the stepped scan agrees where it is short enough to run
    for delta in (1 - 1e-5, 1 - 1e-6):
        for N in (1, 2):
            assert skew_witness(N, delta) == skew_witness_loop(N, delta)
        assert skew_witness(1, CountedDelta(delta, 200)) == \
            skew_witness_loop(1, delta)


@given(st.floats(0.5, 1.0, exclude_min=True, exclude_max=True),
       st.integers(1, 3))
@settings(max_examples=60, deadline=None)
def test_skew_witness_above_one_half_matches_the_loop(delta, N):
    if 0.25 / (1 - delta) > 1e5:   # keep the stepped scan short
        delta = 1 - 1e-5
    assert skew_witness(N, delta) == skew_witness_loop(N, delta)
    assert skew_witness(N, delta, M=1) == skew_witness_loop(N, delta, M=1)


def test_skew_witness_small_delta_is_immediate():
    t0 = time.perf_counter()
    assert skew_witness(1, 1e-12) == (1, 250_000_000_000)
    assert skew_witness(3, 1e-12, M=2) == (2, 500_000_000_000)
    assert skew_witness(4, 1e-9) == (1, 250_000_000)
    assert time.perf_counter() - t0 < 1.0
    with pytest.raises(ParameterError):   # M / (4 delta) overflows
        skew_witness(1, 1e-310)


# ---------------------------------------------------------------------------
# the probe
# ---------------------------------------------------------------------------

def test_rotation_passes_n1():
    s = Rotation()
    cloud = random_torus_cloud(s, 400, 6)
    verdict = n_equicontinuity_probe(s, cloud, N=1, epsilon=0.1)
    assert verdict.passed


def test_skew_fails_all_small_N_with_witness():
    s = SkewTorus()
    cloud = random_torus_cloud(s, 500, 7)
    for N in (1, 2, 3):
        verdict = n_equicontinuity_probe(s, cloud, N=N, epsilon=0.2)
        assert not verdict.passed
        w = verdict.witness
        assert w is not None
        assert len(w.points) == N + 1
        frac = (w.n * verdict.delta_grid[-1] / w.M) % 1.0
        assert 0.25 <= frac <= 0.75
        # the witness pair separation obeys the skew product inequality
        assert w.pair_separation >= 0.2


def test_rotation_gets_no_shear_witness():
    # the shear construction belongs to the skew torus; a rotation probe
    # that passes no delta has no witness to report
    s = Rotation()
    verdict = n_equicontinuity_probe(s, s.sampler(64), N=1, epsilon=0.2,
                                     delta_grid=(0.001,), n_spot_checks=0)
    assert not verdict.passed
    assert verdict.witness is None


def test_annulus3_passes_n3_fails_n2():
    s = annulus3()
    cloud = s.sampler(128)
    ok = n_equicontinuity_probe(s, cloud, N=3, epsilon=0.2,
                                delta_grid=(0.2, 0.1, 0.05))
    assert ok.passed
    bad = n_equicontinuity_probe(s, cloud, N=2, epsilon=0.2,
                                 delta_grid=(0.2, 0.1, 0.05))
    assert not bad.passed


def test_probe_requires_enough_points():
    s = Rotation()
    pts = tuple(Torus(i / 3.0, 0.0) for i in range(3))
    cloud = PointCloud(pts, "test", s.id)
    with pytest.raises(ParameterError):
        n_equicontinuity_probe(s, cloud, N=3, epsilon=0.1)


@pytest.mark.parametrize("n_spot_checks", [-1, -3])
def test_probe_rejects_a_negative_spot_check_count(n_spot_checks):
    s = Rotation()
    with pytest.raises(ParameterError, match="n_spot_checks"):
        n_equicontinuity_probe(s, s.sampler(16), N=1, epsilon=0.2,
                               n_spot_checks=n_spot_checks)


def test_probe_spot_checks_pass():
    s = SkewTorus()
    cloud = random_torus_cloud(s, 300, 8)
    verdict = n_equicontinuity_probe(s, cloud, N=2, epsilon=0.2)
    assert len(verdict.spot_checks) == 10
    assert all(verdict.spot_checks)


@pytest.mark.parametrize("make", [SkewTorus, annulus3, shift2])
def test_probe_builds_the_cloud_state_once(make, monkeypatch):
    # D0 and every spot check share one state of the cloud, and the base
    # rows' co-moving kernel builds one more from the cloud's points; the
    # spot checks still answer as the public check does
    s = make()
    cloud = s.sampler(3 if make is shift2 else 16)
    H, seed = 40, 5
    sizes = []
    real = s.arr_state

    def spy(points):
        sizes.append(len(points))
        return real(points)

    monkeypatch.setattr(s, "arr_state", spy)
    verdict = n_equicontinuity_probe(s, cloud, N=2, epsilon=0.2, H=H,
                                     seed=seed)
    assert sizes.count(len(cloud)) == 2
    rng = np.random.default_rng(seed)
    mid_delta = verdict.delta_grid[len(verdict.delta_grid) // 2]
    want = []
    for _ in verdict.spot_checks:
        n = int(rng.integers(-(H // 2), H // 2 + 1))
        x = cloud[int(rng.integers(0, len(cloud)))]
        want.append(r_set_equivariance_check(s, x, mid_delta, cloud, H, n))
    assert verdict.spot_checks == want


def test_probe_memory_is_about_its_static_matrix():
    # the skew 48^2 probe: D0 built in row blocks, its mesh read with no
    # copy of the positive entries and the level blocks at LEVEL_BLOCK;
    # with one-shot temporaries the peak was 3.0 times D0
    s = SkewTorus()
    cloud = s.sampler(48)
    tracemalloc.start()
    try:
        n_equicontinuity_probe(s, cloud, N=2, epsilon=0.2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.75 * len(cloud) ** 2 * 8


# ---------------------------------------------------------------------------
# the level loop: return-set diameters in member-count blocks
# ---------------------------------------------------------------------------

def per_base_levels(D0, inside, N):
    """The level loop one base at a time: each return set's matrix
    gathered and passed to the public N-diameter functions."""
    out = []
    for bi, row in enumerate(inside):
        members = np.flatnonzero(row)
        if len(members) <= N:
            continue
        sub = D0[np.ix_(members, members)]
        if math.comb(len(members), N + 1) <= equicont.EXACT_BUDGET:
            res = diam_n_exact_from_matrix(sub, N, equicont.EXACT_BUDGET)
        else:
            res = diam_n_bounds_from_matrix(sub, N)
        out.append((bi, res.value_lower, res.value_upper,
                    [int(members[i]) for i in res.witness]))
    return out


@pytest.mark.parametrize("block", ["one-slice", "one-block"])
@pytest.mark.parametrize("N", [1, 2, 3])
def test_level_blocks_match_per_base_diameters(N, block, monkeypatch):
    # grid distances tie everywhere, so every argmax and every exact
    # witness is decided by the lowest-index rule; member counts repeat,
    # so groups hold several bases, and a small exact budget sends some
    # of them to the bounds
    s = SkewTorus()
    pts = list(s.sampler(7).points)
    D0 = s.arr_pdist(s.arr_state(pts))
    rng = np.random.default_rng(N)
    counts = rng.choice([0, N, N + 1, 5, 9, 9, 14, 14, 14, 30, 49], 60)
    inside = np.zeros((60, len(pts)), dtype=bool)
    for row, k in zip(inside, counts):
        row[rng.choice(len(pts), k, replace=False)] = True
    monkeypatch.setattr(equicont, "EXACT_BUDGET", 400)
    monkeypatch.setattr(equicont, "LEVEL_BLOCK",
                        1 if block == "one-slice" else 10 ** 9)
    got = equicont._level_diameters(D0, inside, N)
    want = per_base_levels(D0, inside, N)
    assert [g[0] for g in got] == [w[0] for w in want]
    assert len({int(inside[g[0]].sum()) for g in got}) < len(got)
    for g, w in zip(got, want):
        assert g[0] == w[0] and g[3] == w[3]
        assert float(g[1]).hex() == float(w[1]).hex()
        assert float(g[2]).hex() == float(w[2]).hex()
    sizes = {k for k in counts if k > N}
    assert any(math.comb(k, N + 1) > 400 for k in sizes)
    assert any(math.comb(k, N + 1) <= 400 for k in sizes)


@st.composite
def lattice_return_sets(draw):
    """Integer-valued distances: 2 to 12 points on a 4 x 4 lattice under
    the L1 metric, so distances tie and points repeat, and up to 8 return
    sets of any size, 2 included."""
    m = draw(st.integers(2, 12))
    pts = np.array(draw(st.lists(st.tuples(st.integers(0, 3),
                                           st.integers(0, 3)),
                                 min_size=m, max_size=m)), dtype=float)
    D0 = np.abs(pts[:, None, :] - pts[None, :, :]).sum(axis=2)
    inside = np.zeros((draw(st.integers(1, 8)), m), dtype=bool)
    for row in inside:
        k = draw(st.sampled_from([2, 2, *range(m + 1)]))
        row[draw(st.permutations(range(m)))[:k]] = True
    return D0, inside


@given(lattice_return_sets())
@settings(max_examples=200, deadline=None)
def test_n1_levels_are_the_exact_diameters(case):
    # at N = 1 every return set goes to the stacked bounds, which must give
    # the exact solver's diameter and witness, base by base
    D0, inside = case
    got = equicont._level_diameters(D0, inside, 1)
    want = []
    for bi, row in enumerate(inside):
        members = np.flatnonzero(row)
        if len(members) > 1:
            res = diam_n_exact_from_matrix(D0[np.ix_(members, members)], 1,
                                           math.comb(len(members), 2))
            want.append((bi, res.value_lower, res.value_upper,
                         [int(members[i]) for i in res.witness]))
    assert got == want


@pytest.mark.parametrize("make,size", [(Rotation, 256), (SkewTorus, 24),
                                       (annulus3, 64)])
def test_probe_and_r_set_give_the_exact_path_with_below(make, size,
                                                        monkeypatch):
    # r_set passes below=delta and the probe's base rows below = the widest
    # delta: both read only rows < delta, so every output is that of the
    # exact rows, bit for bit
    s = make()
    cloud = s.sampler(size)
    grid = (0.02, 0.01, 0.004)

    def run():
        v = n_equicontinuity_probe(s, cloud, N=1, epsilon=0.05,
                                   delta_grid=grid, H=60, n_spot_checks=2)
        sets = [r_set(s, cloud[i], d, cloud, H=60).as_dict()
                for i in range(0, len(cloud), 37) for d in grid]
        return v.as_dict(), sets

    pruned = run()
    real, dropped = kernels.comoving, []

    def exact(sys, points, others, horizons, use_max=False, centre=0,
              below=None):
        dropped.append(below)
        return real(sys, points, others, horizons, use_max, centre)

    for module in (kernels, proximal, equicont, structure):
        monkeypatch.setattr(module, "comoving", exact)
    assert run() == pruned
    # the probe's rows and every r_set ran the patched kernel
    assert dropped.count(grid[0]) == 1 + len(range(0, len(cloud), 37))


def test_r_set_with_infinite_delta_holds_the_whole_cloud():
    s = SkewTorus()
    cloud = s.sampler(4)
    est = r_set(s, cloud[0], float("inf"), cloud, H=10)
    assert est.members == tuple(range(len(cloud)))
