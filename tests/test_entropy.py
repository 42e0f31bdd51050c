"""Partition entropy, dynamical refinement, entropy estimators and the
geometric-partition entropy bound."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ndistal import entropy
from ndistal.entropy import (KSH1_BOUND, EmpiricalMeasure, Partition,
                             closing_bound, default_partition,
                             geometric_partition, ks_bound_audit,
                             metric_entropy_estimate, orbit_measure,
                             partition_entropy,
                             partition_from_labels, refine_partition,
                             step_index_map, uniform_measure,
                             word_count_entropy)
from ndistal.errors import (ConstructionError, MeasureError, ParameterError,
                            RefinementError)
from ndistal.points import (OrbitIndex, PointCloud, SymbolicPoint, Torus,
                            periodic_point, word_point)
from ndistal.systems import (IdentityTorus, Rotation, SkewTorus, annulus3,
                             conjugate_system, shift2)

LOG2 = math.log(2.0)


def torus_grid(sys, k):
    pts = tuple(Torus(i / k, j / k) for i in range(k) for j in range(k))
    return PointCloud(pts, "grid", sys.id)


# ---------------------------------------------------------------------------
# partition entropy
# ---------------------------------------------------------------------------

def test_partition_entropy_values():
    assert partition_entropy((0.5, 0.5)) == pytest.approx(LOG2, abs=1e-12)
    assert partition_entropy((0.25, 0.75)) == pytest.approx(0.5623, abs=1e-4)
    assert partition_entropy((1.0,)) == 0.0
    assert partition_entropy((0.3, 0.0, 0.7)) == pytest.approx(
        partition_entropy((0.3, 0.7)), abs=1e-12)


def test_partition_entropy_rejects_bad_weights():
    with pytest.raises(MeasureError):
        partition_entropy((-0.1, 1.1))
    with pytest.raises(MeasureError):
        partition_entropy((0.5, 0.4))


@given(st.lists(st.floats(1e-6, 1.0), min_size=2, max_size=8))
@settings(max_examples=60)
def test_partition_entropy_maximal_for_uniform(raw):
    # log k - H(w) = KL(w || uniform) <= log(1 + chi2) <= chi2, with
    # chi2 = k sum (w_i - 1/k)^2, so the gap closes as w nears uniform on
    # every draw; equal raw weights give log k itself
    w = np.array(raw) / sum(raw)
    k = len(w)
    h = partition_entropy(w)
    assert h <= math.log(k) + 1e-12
    chi2 = k * float(((w - 1.0 / k) ** 2).sum())
    assert math.log(k) - h <= chi2 + 1e-12
    if len(set(raw)) == 1:
        assert h == pytest.approx(math.log(k), abs=1e-12)


# ---------------------------------------------------------------------------
# refinement
# ---------------------------------------------------------------------------

def _join_by_loop(P, nxt, n, K):
    """Itinerary codes of lengths 1..n, joined step by step with base K."""
    labels = P.label_array()
    code = labels.copy()
    idx = np.arange(len(nxt))
    codes = [code]
    for _ in range(n - 1):
        idx = nxt[idx]
        code = code * K + labels[idx]
        _, code = np.unique(code, return_inverse=True)
        codes.append(code)
    return codes


@pytest.mark.parametrize("k", [1, 2, 3])
def test_itinerary_join_matches_loop(k):
    s = Rotation()
    cloud = s.sampler(64)
    P = default_partition(cloud, k=k)
    nxt, _ = step_index_map(s, cloud)
    mu = uniform_measure(cloud)
    # the estimate joined with base max(cells, 2), the refinement with
    # base cells; any base >= cells ranks the itineraries alike
    codes = _join_by_loop(P, nxt, 12, max(P.n_cells(), 2))
    est = metric_entropy_estimate(s, P, mu, 12, cloud)
    assert est.diagnostics == tuple(
        partition_entropy(np.bincount(c, weights=mu.weights)) / n
        for n, c in enumerate(codes, start=1))
    codes = _join_by_loop(P, nxt, 12, P.n_cells())
    for n in (1, 2, 5, 12):
        assert refine_partition(P, s, n, cloud) == \
            partition_from_labels(codes[n - 1], len(cloud))


def test_identity_refinement_is_constant():
    s = IdentityTorus()
    cloud = torus_grid(s, 8)
    P = default_partition(cloud, k=2)
    for n in (1, 2, 5):
        Q = refine_partition(P, s, n, cloud)
        assert sorted(Q.cells) == sorted(P.cells)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 6])
def test_shift_refinement_counts_cylinders(n):
    s = shift2()
    cloud = s.periodic_cloud(8)
    P = default_partition(cloud)
    assert P.n_cells() == 2
    Q = refine_partition(P, s, n, cloud)
    assert Q.n_cells() == 2 ** n


def test_rotation_refinement_arc_count():
    s = Rotation()
    cloud = s.sampler(256)
    P = default_partition(cloud, k=2)
    for n in range(1, 11):
        Q = refine_partition(P, s, n, cloud)
        assert Q.n_cells() <= 2 * n


def test_refinement_entropy_monotone_and_subadditive():
    s = shift2()
    cloud = s.periodic_cloud(8)
    P = default_partition(cloud)
    rng = np.random.default_rng(3)
    w = rng.random(len(cloud))
    mu = EmpiricalMeasure(w / w.sum(), "supplied")
    a = {n: partition_entropy(refine_partition(P, s, n, cloud)
                              .masses(mu.weights))
         for n in range(1, 7)}
    for n in range(1, 6):
        assert a[n + 1] >= a[n] - 1e-9
    for n in range(1, 4):
        for m in range(1, 3):
            assert a[n + m] <= a[n] + a[m] + 1e-9


# ---------------------------------------------------------------------------
# entropy estimators
# ---------------------------------------------------------------------------

def test_shift_estimate_is_log2_exactly():
    s = shift2()
    cloud = s.periodic_cloud(13)
    P = default_partition(cloud)
    est = metric_entropy_estimate(s, P, uniform_measure(cloud), 10, cloud)
    assert est.value == pytest.approx(LOG2, abs=1e-12)
    assert all(v == pytest.approx(LOG2, abs=1e-12) for v in est.diagnostics)


def test_orbit_measure_honours_snap_tol():
    sys = annulus3()
    cloud = sys.circles_cloud(16)
    # the wandering orbit sits up to 0.5 from every circle point
    x0 = OrbitIndex(-5)
    with pytest.raises(RefinementError, match="snap distance"):
        orbit_measure(sys, cloud, x0, length=10, snap_tol=1e-9)
    loose = orbit_measure(sys, cloud, x0, length=10, snap_tol=1.0)
    unchecked = orbit_measure(sys, cloud, x0, length=10)
    assert np.array_equal(loose.weights, unchecked.weights)
    # a circle orbit on the grid angles never leaves the cloud
    grid = Rotation(1 / 16)
    mu = orbit_measure(grid, grid.sampler(16), Torus(0.0, 0.0), length=32,
                       snap_tol=1e-12)
    assert np.array_equal(mu.weights, np.full(16, 1 / 16))


def test_rotation_estimate_small():
    s = Rotation()
    cloud = s.sampler(256)
    P = default_partition(cloud, k=2)
    mu = orbit_measure(s, cloud, cloud[0], length=10_000)
    est = metric_entropy_estimate(s, P, mu, 12, cloud)
    # an n-fold refinement of a 2-arc partition has at most 2n cells, so
    # every diagnostic is capped by log(2n)/n and the estimate by the mean
    # of the last three caps (about 0.282 at n_max = 12)
    assert est.diagnostics[-1] <= est.diagnostics[0] + 1e-12
    for n, v in enumerate(est.diagnostics, start=1):
        assert v <= math.log(2 * n) / n + 1e-9
    caps = [math.log(2 * n) / n for n in (10, 11, 12)]
    assert est.value <= sum(caps) / 3 + 1e-9
    deep = metric_entropy_estimate(s, P, mu, 200, cloud)
    assert deep.value <= 0.05


def test_conjugate_estimate_matches_base():
    # snapping runs on the metric alone, so a conjugate (no array states
    # of its own) refines exactly as its base system does
    s = Rotation()
    conj = conjugate_system(s, lambda p: p, lambda p: p)
    cloud = s.sampler(64)
    P = default_partition(cloud, k=2)
    mu = uniform_measure(cloud)
    want = metric_entropy_estimate(s, P, mu, 20, cloud)
    got = metric_entropy_estimate(conj, P, mu, 20, cloud)
    assert got.value == want.value
    assert got.diagnostics == want.diagnostics


@pytest.mark.parametrize("case,n_max,stable_from", [
    ("identity", 200, 1), ("rotation", 200, 64), ("rotation", 40, None),
    ("skew", 200, 9), ("annulus3", 200, 4)])
def test_estimate_stops_refining_at_a_stable_join(case, n_max, stable_from,
                                                  monkeypatch):
    # once a join adds no cell every later join equals it, so the
    # sequence after it is H/n, bit for bit what refining on gives, and
    # a longer refinement is that join
    s, cloud, tol = {
        "identity": lambda: (IdentityTorus(), IdentityTorus().sampler(),
                             None),
        "rotation": lambda: (Rotation(), Rotation().sampler(256), None),
        "skew": lambda: (SkewTorus(), SkewTorus().sampler(16), None),
        "annulus3": lambda: (annulus3(), annulus3().circles_cloud(64), 0.1),
    }[case]()
    P, mu = default_partition(cloud, 2), uniform_measure(cloud)
    nxt, _ = step_index_map(s, cloud, tol)
    codes = _join_by_loop(P, nxt, n_max, P.n_cells())
    want = [partition_entropy(np.bincount(c, weights=mu.weights)) / n
            for n, c in enumerate(codes, start=1)]
    for n in {1, stable_from or 1, n_max}:
        assert refine_partition(P, s, n, cloud, tol) == \
            partition_from_labels(codes[n - 1], len(cloud))
    calls = []

    def counted(w):
        calls.append(1)
        return partition_entropy(w)

    monkeypatch.setattr(entropy, "partition_entropy", counted)
    est = metric_entropy_estimate(s, P, mu, n_max, cloud, tol)
    assert [v.hex() for v in est.diagnostics] == [v.hex() for v in want]
    assert est.value == float(np.mean(want[-3:]))
    # one entropy for each join up to the first stable one
    assert len(calls) == (n_max if stable_from is None else stable_from)


def test_estimate_needs_four_levels():
    s = shift2()
    cloud = s.periodic_cloud(4)
    P = default_partition(cloud)
    with pytest.raises(ParameterError):
        metric_entropy_estimate(s, P, uniform_measure(cloud), 3, cloud)


def test_word_count_entropy():
    s = shift2()
    for n in (1, 4, 8):
        est = word_count_entropy(s, n)
        assert est.value == pytest.approx(LOG2, abs=1e-12)
    with pytest.raises(ParameterError):
        word_count_entropy(s, 21)
    fixed = PointCloud((word_point(()),), "fixed", s.id)
    assert word_count_entropy(s, 6, cloud=fixed).value == 0.0
    two = PointCloud((periodic_point((0, 1)), periodic_point((1, 0))),
                     "period2", s.id)
    for n in (2, 5, 10):
        assert word_count_entropy(s, n, cloud=two).value == pytest.approx(
            LOG2 / n, abs=1e-12)


def test_default_word_table_matches_periodic_cloud():
    # the bit table reads the same words as the cloud it stands for
    s = shift2()
    clouds = {}
    for n in range(1, 21):
        L = min(n, 13)
        cloud = clouds.setdefault(L, s.periodic_cloud(L))
        got = word_count_entropy(s, n)
        want = word_count_entropy(s, n, cloud=cloud)
        assert got.value.hex() == want.value.hex()
        assert got.params == want.params


def test_default_word_count_builds_no_points(monkeypatch):
    def refuse(*args):
        raise AssertionError("a SymbolicPoint was built")

    monkeypatch.setattr(SymbolicPoint, "__post_init__", refuse)
    est = word_count_entropy(shift2(), 12)
    assert est.params == {"n": 12, "cloud_size": 4096, "n_words": 4096}


# ---------------------------------------------------------------------------
# geometric partition and the KS bound
# ---------------------------------------------------------------------------

def test_geometric_partition_uniform_torus():
    s = SkewTorus()
    cloud = torus_grid(s, 64)
    mu = uniform_measure(cloud)
    gp = geometric_partition(s, cloud, mu, r=0.3)
    H = gp.entropy(mu.weights)
    assert H <= KSH1_BOUND + 1e-9
    assert sum(gp.masses) == pytest.approx(1.0, abs=1e-9)
    # the nested sets respect the mass schedule mu(S_n) <= r^n
    tail = np.cumsum(gp.masses[::-1])[::-1]
    for lev in range(1, len(gp.masses)):
        assert tail[lev] <= 0.3 ** lev + 1e-12


def test_geometric_partition_point_mass():
    s = SkewTorus()
    cloud = torus_grid(s, 8)
    w = np.zeros(len(cloud))
    w[0] = 1.0
    mu = EmpiricalMeasure(w, "supplied")
    gp = geometric_partition(s, cloud, mu, r=0.3, z=cloud[0])
    assert gp.partition.n_cells() == 1
    assert gp.entropy(mu.weights) == 0.0


def test_geometric_partition_rejects_large_r():
    s = SkewTorus()
    cloud = torus_grid(s, 8)
    with pytest.raises(ParameterError):
        geometric_partition(s, cloud, uniform_measure(cloud), r=0.4)


def test_geometric_partition_explicit_radii_mass_check():
    s = SkewTorus()
    cloud = torus_grid(s, 8)
    with pytest.raises(ConstructionError):
        geometric_partition(s, cloud, uniform_measure(cloud), r=0.3,
                            radii=[1.0])


def test_closing_bound_values():
    assert closing_bound(0.1) == pytest.approx(0.4021, abs=1e-3)
    vals = [closing_bound(r) for r in (0.3, 0.2, 0.1, 0.05, 0.01, 0.001)]
    assert all(b > a for a, b in zip(vals[1:], vals[:-1]))
    assert vals[-1] < 0.01
    with pytest.raises(ParameterError):
        closing_bound(0.5)


def test_ks_bound_audit_passes_and_rejects():
    s = SkewTorus()
    cloud = torus_grid(s, 64)
    rec = ks_bound_audit(s, cloud, uniform_measure(cloud),
                         r_list=(0.3, 0.2, 0.1, 0.05))
    assert rec.applicable and rec.passed
    assert len(rec.details["entries"]) == 4
    rec = ks_bound_audit(s, cloud, uniform_measure(cloud), r_list=(0.4,))
    assert "rejected" in rec.details["entries"][0]
