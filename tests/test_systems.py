"""Catalogue systems: closed-form iterates, metrics, samplers, combinators."""

import inspect
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ndistal import annulus, base, shift, systems, torus, wrappers
from ndistal.errors import ConjugacyError, InvalidPointError, ParameterError
from ndistal.kernels import comoving, min_orbit_distance
from ndistal.points import Annulus, OrbitIndex, Pair, Torus, word_point
from ndistal.systems import (CATALOGUE_FACTS, GOLDEN, GRID_BITS,
                             IdentityTorus, Rotation, ShiftSystem, SkewTorus,
                             annulus2, annulus3, annulusN, catalogue,
                             conjugate_system, get_system, power_system,
                             product_system, shift2)


# ---------------------------------------------------------------------------
# torus systems
# ---------------------------------------------------------------------------

def test_rotation_step_and_inverse():
    s = Rotation(0.3)
    p = Torus(0.9, 0.0)
    assert s.step(p).x == pytest.approx(0.2)
    assert s.dist(s.step_inv(s.step(p)), p) < 1e-12


@given(st.integers(-60, 60), st.floats(0, 1, exclude_max=True))
@settings(max_examples=40)
def test_rotation_iterate_matches_stepping(n, x):
    s = Rotation()
    p = Torus(x, 0.0)
    q = p
    for _ in range(abs(n)):
        q = s.step(q) if n > 0 else s.step_inv(q)
    assert s.dist(s.iterate(p, n), q) < 1e-9


@given(st.integers(-40, 40))
@settings(max_examples=30)
def test_skew_iterate_matches_stepping(n):
    s = SkewTorus()
    p = Torus(0.37, 0.11)
    q = p
    for _ in range(abs(n)):
        q = s.step(q) if n > 0 else s.step_inv(q)
    assert s.dist(s.iterate(p, n), q) < 1e-9


def test_skew_step_formula():
    s = SkewTorus(0.25)
    p = Torus(0.5, 0.125)
    q = s.step(p)
    assert q.x == pytest.approx(0.75)
    assert q.y == pytest.approx(0.625)


def test_skew_inverse_roundtrip():
    s = SkewTorus()
    p = Torus(0.2, 0.7)
    assert s.dist(s.iterate(s.iterate(p, 17), -17), p) < 1e-12


def test_torus_metric_is_quotient_metric():
    s = Rotation()
    assert s.dist(Torus(0.95, 0.0), Torus(0.05, 0.0)) == pytest.approx(0.1)
    d = s.dist(Torus(0.9, 0.9), Torus(0.1, 0.1))
    assert d == pytest.approx(math.hypot(0.2, 0.2))


def test_identity_system_is_static():
    s = IdentityTorus()
    p = Torus(0.3, 0.4)
    assert s.step(p) == p
    assert s.iterate(p, 1000) == p


# ---------------------------------------------------------------------------
# annulus family
# ---------------------------------------------------------------------------

def test_annulus3_orbit_radii():
    s = annulus3()
    # r_n = 1 + (1/2)^(2^n)
    assert s.orbit_radius(0, 0) == pytest.approx(1.5)
    assert s.orbit_radius(0, 1) == pytest.approx(1.25)
    assert s.orbit_radius(0, 2) == pytest.approx(1.0625)
    assert s.orbit_radius(0, -1) == pytest.approx(1.0 + 0.5 ** 0.5)
    assert s.orbit_radius(0, -30) == pytest.approx(2.0, abs=1e-6)
    assert s.orbit_radius(0, 40) == pytest.approx(1.0)


def test_annulus2_orbit_radii():
    s = annulus2()
    # r_n = 1 + 2^(-|n|), converging to the single circle both ways
    assert s.orbit_radius(0, 0) == pytest.approx(2.0)
    assert s.orbit_radius(0, 3) == pytest.approx(1.125)
    assert s.orbit_radius(0, -3) == pytest.approx(1.125)


def test_annulus_proximal_decay():
    s = annulus3()
    p = OrbitIndex(0)
    q = Annulus(0.0, 1.0)
    d = s.dist(s.iterate(p, 5), s.iterate(q, 5))
    assert d <= 2.4e-10


def test_annulus_step_moves_orbit_index():
    s = annulus3()
    assert s.step(OrbitIndex(2)) == OrbitIndex(3)
    assert s.step_inv(OrbitIndex(2)) == OrbitIndex(1)


def test_annulus_circle_step_is_rotation():
    s = annulus3()
    p = Annulus(0.0, 2.0)
    q = s.step(p)
    assert isinstance(q, Annulus)
    assert q.r == pytest.approx(2.0)
    assert q.theta == pytest.approx(GOLDEN)


def test_annulus_metric_is_ambient_euclidean():
    s = annulus3()
    assert s.dist(Annulus(0.0, 1.0), Annulus(0.0, 2.0)) == pytest.approx(1.0)
    assert s.dist(Annulus(0.0, 1.0), Annulus(0.5, 1.0)) == pytest.approx(2.0)


def test_sq_orbit_far_forward_is_on_the_circle():
    # 2^n overflows a float for n >= 1024; the radius has long been 1 there
    s = annulus3()
    far, circle = OrbitIndex(1024, 0), Annulus(0.0, 1.0)
    assert s.orbit_radius(0, 1024) == 1.0
    assert s.dist(far, circle) == pytest.approx(
        s.arr_cdist(s.arr_state([far]), s.arr_state([circle]))[0, 0],
        rel=0.0, abs=1e-12)
    # a conjugate steps the orbit point by point that far and meets the
    # circle
    conj = conjugate_system(s, lambda p: p, lambda p: p)
    x = OrbitIndex(0, 0)
    assert min_orbit_distance(conj, x, circle, 1100) == \
        min_orbit_distance(s, x, circle, 1100) == 0.0


def test_annulus_state_rejects_points_outside_the_space():
    # r = 1.5 is no invariant circle of annulus3 (its map moves that
    # radius), and an orbit has no point between two indices: both were
    # read as points of the space before
    s = annulus3()
    for pts in ([Annulus(0.1, 1.5), Annulus(0.2, 1.0)], [OrbitIndex(2.5)],
                [OrbitIndex(0), OrbitIndex(float("inf"))]):
        with pytest.raises(InvalidPointError):
            s.arr_state(pts)
    with pytest.raises(InvalidPointError):
        comoving(s, [Annulus(0.1, 1.5), Annulus(0.2, 1.0)], None, [50])
    with pytest.raises(InvalidPointError):
        annulus2().arr_state([Annulus(0.0, 2.0)])
    S = s.arr_state([Annulus(0.3, 2.0), OrbitIndex(-7), OrbitIndex(3.0)])
    assert S["idx"].tolist() == [0.0, -7.0, 3.0]


def test_annulusN_parameter_check():
    with pytest.raises(ParameterError):
        annulusN(N=3)
    # each orbit is a radius table row of 2 REACH + 1 floats, so N is capped
    # before any row is built
    assert annulusN(N=systems.ANNULUS_N_MAX).id.endswith(
        f"N={systems.ANNULUS_N_MAX})")
    for N in (systems.ANNULUS_N_MAX + 1, 10 ** 6):
        with pytest.raises(ParameterError):
            get_system(f"annulusN{{N={N}}}")
    with pytest.raises(ParameterError):
        get_system("annulusN{N=4.5}")
    assert get_system("annulusN{N=6.0}").id == annulusN(N=6).id
    s = annulusN(N=5)
    cloud = s.sampler(64)
    assert any(isinstance(p, OrbitIndex) and p.orbit == 4 - 1
               for p in cloud.points)


def test_annulus_sampler_contains_anchors():
    s = annulus3()
    cloud = s.sampler(64)
    assert cloud.index_of(Annulus(0.0, 1.0)) >= 0
    assert cloud.index_of(Annulus(0.0, 2.0)) >= 0
    assert cloud.index_of(OrbitIndex(0)) >= 0


# ---------------------------------------------------------------------------
# shift
# ---------------------------------------------------------------------------

def test_shift_distance_scale():
    s = shift2()
    zero = word_point(())
    spike = word_point((1,), origin=5)
    assert s.dist(zero, spike) == pytest.approx(2.0 ** -5)
    assert s.dist(zero, zero) == 0.0


def test_shift_step_shifts_indices():
    s = shift2()
    w = word_point((1,), origin=4)
    assert s.dist(s.iterate(w, 4), word_point((1,), origin=0)) == 0.0


def test_shift_sampler_counts():
    s = shift2()
    cloud = s.sampler(2)
    # all words of length 5 plus the all-ones point
    assert len(cloud) == 2 ** 5 + 1


def test_shift_sampler_refuses_oversized_grids():
    s = shift2()
    # the first resolution whose 2W+1 bits exceed GRID_BITS
    W = GRID_BITS // 2
    with pytest.raises(ParameterError, match="words"):
        s.sampler(W)
    with pytest.raises(ParameterError):
        s.sampler(-1)
    # random words are drawn, not enumerated, so any resolution is fine
    assert len(s.sampler(4 * W, seed=0)) == 256


def test_shift_periodic_cloud():
    s = shift2()
    cloud = s.periodic_cloud(3)
    assert len(cloud) == 2 ** 3
    for p in cloud.points:
        assert s.dist(s.iterate(p, 3), p) == 0.0


# ---------------------------------------------------------------------------
# combinators
# ---------------------------------------------------------------------------

def test_product_max_metric():
    ps = product_system(Rotation(), annulus3())
    a = Pair(Torus(0.0, 0.0), Annulus(0.0, 1.0))
    b = Pair(Torus(0.1, 0.0), Annulus(0.0, 2.0))
    assert ps.dist(a, b) == pytest.approx(1.0)


def test_product_step_componentwise():
    ps = product_system(Rotation(0.25), Rotation(0.5))
    a = ps.step(Pair(Torus(0.0, 0.0), Torus(0.0, 0.0)))
    assert a.a.x == pytest.approx(0.25)
    assert a.b.x == pytest.approx(0.5)


def test_power_system():
    s = power_system(Rotation(0.1), 3)
    p = Torus(0.0, 0.0)
    assert s.step(p).x == pytest.approx(0.3)
    assert s.iterate(p, 2).x == pytest.approx(0.6)
    with pytest.raises(ParameterError):
        power_system(Rotation(), 0)


def test_conjugate_system_roundtrip():
    base = Rotation(0.3)
    shift_by = 0.21
    h = lambda p: Torus(p.x + shift_by, p.y)
    h_inv = lambda p: Torus(p.x - shift_by, p.y)
    s = conjugate_system(base, h, h_inv)
    p = Torus(0.5, 0.0)
    assert s.step(p).x == pytest.approx(0.8)


def test_conjugate_system_checks_inverse():
    base = Rotation(0.3)
    h = lambda p: Torus(p.x + 0.1, p.y)
    bad_inv = lambda p: Torus(p.x, p.y)
    cloud = base.sampler(16)
    with pytest.raises(ConjugacyError):
        conjugate_system(base, h, bad_inv, check_cloud=cloud)


# ---------------------------------------------------------------------------
# catalogue and parser
# ---------------------------------------------------------------------------

def test_catalogue_lists_all_facts():
    ids = [s.id for s in catalogue()]
    for key in CATALOGUE_FACTS:
        assert any(key in sid for sid in ids) or key == "annulusN"


def test_get_system_parser():
    assert isinstance(get_system("rotation"), Rotation)
    s = get_system("rotation{alpha=0.25}")
    assert s.alpha == pytest.approx(0.25)
    s = get_system("annulusN{N=6}")
    cloud = s.sampler(32)
    assert any(isinstance(p, OrbitIndex) and p.orbit == 4
               for p in cloud.points)
    with pytest.raises(Exception):
        get_system("nosuchsystem")


def test_vector_path_matches_pointwise_stepping():
    for s in (Rotation(), SkewTorus(), annulus3(), annulus2()):
        cloud = s.sampler(16)
        state = s.arr_state(cloud.points)
        for n in range(1, 6):
            state = s.arr_step(state)
        want = s.arr_state([s.iterate(p, 5) for p in cloud.points])
        assert np.allclose(s.arr_edist(state, want), 0.0, atol=1e-9)


def test_arr_pdist_matches_dist():
    for s in (Rotation(), annulus3()):
        cloud = s.sampler(12)
        state = s.arr_state(cloud.points)
        D = s.arr_pdist(state)
        m = len(cloud)
        for i in range(0, m, 7):
            for j in range(0, m, 11):
                assert D[i, j] == pytest.approx(
                    s.dist(cloud[i], cloud[j]), abs=1e-9)


def test_only_the_base_class_derives_step_and_pdist():
    # a system states its map as iterate and its matrix as arr_cdist;
    # step, step_inv and arr_pdist are derived once, in DynSystem
    derived = {"step", "step_inv", "arr_pdist"}
    classes = [c for module in (base, torus, annulus, shift, wrappers)
               for c in vars(module).values()
               if isinstance(c, type) and c.__module__ == module.__name__]
    assert systems.DynSystem in classes and len(classes) > 8
    for cls in classes:
        own = derived & set(vars(cls))
        assert own == (derived if cls is systems.DynSystem else set()), cls
    # the torus map is stated once, from (alpha, shear), in _TorusBase
    for cls in classes:
        if issubclass(cls, torus._TorusBase) \
                and cls is not torus._TorusBase:
            assert not {"iterate", "arr_step", "arr_iterate"} \
                & set(vars(cls)), cls
    # every system states its metric as arr_cdist/arr_edist, and dist
    # derives from it in DynSystem; no class states a validity test
    for cls in classes:
        assert ("dist" in vars(cls)) == (cls is systems.DynSystem), cls
        assert "is_valid" not in vars(cls), cls
    # a conjugate is measured on its base's metric, with a fixed tolerance
    for fn in (systems.ConjugateSystem.__init__, conjugate_system):
        assert not {"metric", "tol"} & set(inspect.signature(fn).parameters)


def test_shift_dist_rejects_non_symbolic_points():
    s = shift2()
    for x, y in ((Torus(0.0, 0.0), word_point(())),
                 (word_point(()), Torus(0.0, 0.0))):
        with pytest.raises(InvalidPointError):
            s.dist(x, y)


def _identity(p):
    return p


METRIC_CASES = {
    **{name: (lambda name=name: get_system(name))
       for name in CATALOGUE_FACTS},
    "product": lambda: product_system(SkewTorus(), annulus3()),
    "power": lambda: power_system(annulus3(), 3),
    "conjugate": lambda: conjugate_system(SkewTorus(), _identity, _identity),
    # a conjugate measured on its base's own metric
    "conjugate+metric": lambda: conjugate_system(
        annulus2(), _identity, _identity),
}
RESOLUTION = {"rotation": 64, "skew_torus": 12, "identity": 12, "shift2": 3,
              "product": 3}


@pytest.mark.parametrize("seed", [None, 1])
@pytest.mark.parametrize("case", sorted(METRIC_CASES))
def test_dist_is_the_array_metric(case, seed):
    # every verdict reads one metric: the pointwise dist, the matrix
    # arr_cdist and the elementwise arr_edist agree bit for bit
    s = METRIC_CASES[case]()
    res = next((r for key, r in RESOLUTION.items() if case.startswith(key)),
               16)
    cloud = s.sampler(res, seed)
    pts = list(cloud.points[::max(1, len(cloud) // 40)])
    S = s.arr_state(pts)
    D = s.arr_cdist(S, S)
    pointwise = np.array([[s.dist(p, q) for q in pts] for p in pts])
    assert np.array_equal(pointwise, D), (pointwise != D).mean()
    I, J = np.triu_indices(len(pts))
    E = s.arr_edist(s.arr_state([pts[i] for i in I]),
                    s.arr_state([pts[j] for j in J]))
    assert np.array_equal(E, D[I, J]), (E != D[I, J]).mean()
    base = s.f if case == "power" else s
    if isinstance(base, systems.AnnulusSystem):
        n = range(-1100, 1101)
        for lab in base.orbits:
            table = [base.orbit_radius(lab, m) for m in n]
            arr = base._radii(base.arr_state([OrbitIndex(m, lab) for m in n]))
            assert np.array_equal(table, arr), lab


def test_a_system_stating_no_metric_has_no_dist():
    class Bare(systems.DynSystem):
        def iterate(self, p, n):
            return p

    with pytest.raises(NotImplementedError):
        Bare().dist(Torus(0.0, 0.0), Torus(0.5, 0.0))


def test_import_loads_no_scipy_graph_or_spatial():
    # a one-off run pays for what the package imports: scipy's spatial and
    # sparse modules are loaded only by the analyses that use them
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ,
           "PYTHONPATH": src if not path else src + os.pathsep + path}
    child = ("import sys, ndistal\n"
             "print(sorted(m for m in sys.modules if m.startswith(\n"
             "    ('scipy.spatial', 'scipy.sparse'))))")
    proc = subprocess.run([sys.executable, "-c", child], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


# ---------------------------------------------------------------------------
# the module surface: one module per family, re-exported by systems
# ---------------------------------------------------------------------------

# every public name ndistal.systems defined before the families had their
# own modules, by the module that defines it now
SYSTEMS_NAMES = {
    base: ("GOLDEN", "DynSystem"),
    torus: ("Rotation", "SkewTorus", "IdentityTorus"),
    annulus: ("SQ", "ABS", "REACH", "AnnulusSystem", "annulus3",
              "ANNULUS_N_MAX", "annulusN", "annulus2"),
    shift: ("GCAP", "GRID_BITS", "ShiftSystem", "shift2"),
    wrappers: ("ProductSystem", "product_system", "PowerSystem",
               "power_system", "CONJUGACY_TOL", "ConjugateSystem",
               "conjugate_system"),
    systems: ("CATALOGUE_FACTS", "catalogue", "get_system"),
}
# every public name of the package at that time
PACKAGE_NAMES = (
    "errors BudgetExceededError ConjugacyError ConstructionError "
    "HomomorphismError InvalidPointError MeasureError NDistalError "
    "ParameterError RefinementError points Annulus OrbitIndex Pair "
    "PointCloud SymbolicPoint Torus periodic_point word_point kernels "
    "ndiameter equicont systems CATALOGUE_FACTS GOLDEN DynSystem annulus2 "
    "annulus3 annulusN catalogue conjugate_system get_system power_system "
    "product_system shift2 IdentityTorus Rotation ShiftSystem SkewTorus "
    "NDiameterResult diam_n_bounds diam_n_exact proximal "
    "ProximalCellEstimate ProximalReport QuotientResult distality_report "
    "fiber_proximal_cell max_orbit_distance min_orbit_distance "
    "proximal_cell proximal_quotient EquicontinuityVerdict "
    "EquicontinuityWitness RSetEstimate n_equicontinuity_probe r_set "
    "r_set_equivariance_check skew_witness structure AuditRecord "
    "ExpansivityVerdict MinimalSetEstimate ReturnProfile "
    "almost_periodic_verdict dynamical_ball expansivity_probe "
    "minimal_subsystems periodic_points prop_3_2_audit return_profile "
    "theorem_3_5_audit transitive_check entropy EmpiricalMeasure "
    "EntropyEstimate Partition closing_bound default_partition "
    "geometric_partition ks_bound_audit metric_entropy_estimate "
    "orbit_measure partition_entropy partition_from_labels "
    "refine_partition uniform_measure word_count_entropy").split()


def test_every_public_name_is_its_family_modules_object():
    import ndistal

    for module, names in SYSTEMS_NAMES.items():
        for name in names:
            obj = vars(module)[name]
            assert getattr(systems, name) is obj, name
            if callable(obj):
                assert obj.__module__ == module.__name__, name
            if hasattr(ndistal, name):
                assert getattr(ndistal, name) is obj, name
    for name in PACKAGE_NAMES:
        assert hasattr(ndistal, name), name


@pytest.mark.parametrize("module", ["base", "torus", "annulus", "shift",
                                    "wrappers", "systems"])
def test_each_family_module_imports_on_its_own(module):
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ,
           "PYTHONPATH": src if not path else src + os.pathsep + path}
    proc = subprocess.run([sys.executable, "-c", f"import ndistal.{module}"],
                          env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr


# ---------------------------------------------------------------------------
# arr_iterate: f^n of a whole state in one jump
# ---------------------------------------------------------------------------

# within 5e-16 of 1, where mod1 collapses a coordinate to 0, and just
# outside that band, where it keeps it
NEAR_ONE = (1.0 - 2.0 ** -53, 1.0 - 3e-16, 1.0 - 4.9e-16, 1.0 - 5.6e-16,
            1.0 - 1e-15)
# the times whose images the near-one points are built to hit
JUMPS = [1, -1, 300, -300, 2 ** 20, -2 ** 20]


def near_one_points(s, rng, ns):
    """Torus or annulus points with coordinates within about 1e-15 of 1,
    and points whose image under some n in ns lands there."""
    circle = isinstance(s, systems.AnnulusSystem)
    step = s.k if circle else s.alpha
    coords = list(NEAR_ONE)
    for n in ns:
        v = n * step
        coords += [math.ceil(v) - v - e for e in (0.0, 1e-16, 4e-16, 6e-16)]
    coords += list(rng.random(8))
    if circle:
        pts = [Annulus(c, r) for c in coords for r in s.circles]
        return pts + [OrbitIndex(int(m), lab) for lab in s.orbits
                      for m in rng.integers(-80, 81, 4)]
    return [Torus(c, coords[-1 - i]) for i, c in enumerate(coords)]


def cloud_points(s, rng, ns):
    if isinstance(s, (torus._TorusBase, systems.AnnulusSystem)):
        return near_one_points(s, rng, ns)
    if isinstance(s, (systems.PowerSystem, systems.ConjugateSystem)):
        return cloud_points(s.f, rng, ns)
    if isinstance(s, systems.ProductSystem):
        a, b = cloud_points(s.f, rng, ns), cloud_points(s.g, rng, ns)
        return [Pair(a[i % len(a)], b[i % len(b)])
                for i in range(max(len(a), len(b)))]
    return list(s.sampler(2).points)


def same_state(a, b):
    """Bit-for-bit equality of two states of one system."""
    if isinstance(a, np.ndarray):
        return a.dtype == b.dtype and a.shape == b.shape and \
            a.tobytes() == b.tobytes()
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(same_state(a[k], b[k])
                                            for k in a)
    if isinstance(a, tuple):
        return len(a) == len(b) and all(map(same_state, a, b))
    return a == b


ARR_ITERATE_CASES = {
    **{name: (lambda name=name: get_system(name))
       for name in CATALOGUE_FACTS},
    "product": lambda: product_system(SkewTorus(), annulus3()),
    "product-shift": lambda: product_system(Rotation(), shift2()),
    "power": lambda: power_system(SkewTorus(), 3),
    "power-negative": lambda: power_system(annulus2(), -2),
    "conjugate": lambda: conjugate_system(
        annulus3(), annulus3().step, annulus3().step_inv),
}


@pytest.mark.parametrize("case", sorted(ARR_ITERATE_CASES))
def test_arr_iterate_is_iterate_on_every_point(case):
    # one jump of the whole state is the state of the pointwise iterates,
    # bit for bit, at every n in [-300, 300] and at +-2^20
    s = ARR_ITERATE_CASES[case]()
    rng = np.random.default_rng(len(case))
    ns = [*range(-300, 301), 2 ** 20, -2 ** 20]
    pts = cloud_points(s, rng, [int(n) for n in rng.choice(ns, 6)] + JUMPS)
    S = s.arr_state(pts)
    for n in ns:
        want = s.arr_state([s.iterate(p, n) for p in pts])
        assert same_state(s.arr_iterate(S, n), want), n


# ---------------------------------------------------------------------------
# the torus metric in row blocks
# ---------------------------------------------------------------------------

def one_shot_torus_cdist(sa, sb):
    """The torus distance matrix as one expression over the whole
    matrix, as `_TorusBase.arr_cdist` computed it before row blocks."""
    return torus._torus_dist(sa[:, None, 0] - sb[None, :, 0],
                             sa[:, None, 1] - sb[None, :, 1])


def near_one_torus_cloud():
    s = SkewTorus()
    pts = near_one_points(s, np.random.default_rng(17), JUMPS)
    return s, pts + [Torus(float(x), float(y)) for x, y in
                     np.random.default_rng(18).random((40, 2))]


# (system, pts_a, pts_b); pts_b None is arr_pdist of pts_a
TORUS_CDIST_CASES = {
    "skew-grid-48": lambda: (SkewTorus(), SkewTorus().sampler(48).points,
                             None),
    "near-one": lambda: (*near_one_torus_cloud(), None),
    "rotation": lambda: (Rotation(), Rotation().sampler(256).points,
                         Rotation().sampler(64, seed=4).points),
    "identity": lambda: (IdentityTorus(), IdentityTorus().sampler(16).points,
                         None),
    "1xm": lambda: (SkewTorus(), SkewTorus().sampler(24).points[5:6],
                    SkewTorus().sampler(24).points),
    "mx1": lambda: (SkewTorus(), SkewTorus().sampler(24).points,
                    SkewTorus().sampler(24).points[5:6]),
    "0xm": lambda: (SkewTorus(), [], SkewTorus().sampler(24).points),
    "mx0": lambda: (SkewTorus(), SkewTorus().sampler(24).points, []),
}


@pytest.mark.parametrize("case", sorted(TORUS_CDIST_CASES))
def test_torus_cdist_blocks_match_one_shot(case):
    # every entry has the bits of the one-shot expression, whatever the
    # number of row blocks
    s, pts_a, pts_b = TORUS_CDIST_CASES[case]()
    sa = s.arr_state(list(pts_a))
    if pts_b is None:
        got, sb = s.arr_pdist(sa), sa
    else:
        sb = s.arr_state(list(pts_b))
        got = s.arr_cdist(sa, sb)
    want = one_shot_torus_cdist(sa, sb)
    assert got.shape == want.shape == (len(sa), len(sb))
    assert got.dtype == want.dtype
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
    if case == "skew-grid-48":
        assert len(torus._row_blocks(len(sa), len(sb),
                                     torus._CLASS_BLOCK)) > 1


def test_torus_pdist_memory_is_its_output():
    # the one-shot matrix held three more matrices of temporaries (121.5
    # MiB at its peak for a 40.5 MiB output); row blocks hold a block's
    s = SkewTorus()
    S = s.arr_state(list(s.sampler(48).points))
    tracemalloc.start()
    try:
        D = s.arr_pdist(S)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < D.nbytes + 4 * 2 ** 20
