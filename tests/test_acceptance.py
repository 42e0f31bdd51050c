"""Acceptance suite: twelve end-to-end criteria, one test and one printed
pass/fail line each, with wall-clock budgets where a criterion carries one.

Run with -s to see the per-criterion lines; under plain pytest each test
itself is the pass/fail line.
"""
import hashlib
import itertools
import json
import math
import time

import numpy as np
import pytest

from ndistal.entropy import (default_partition, ks_bound_audit,
                             metric_entropy_estimate, uniform_measure,
                             word_count_entropy)
from ndistal.equicont import n_equicontinuity_probe, skew_witness
from ndistal.kernels import orbit_min_pairs
from ndistal.ndiameter import diam_n_exact, diam_n_exact_from_matrix
from ndistal.points import (Annulus, OrbitIndex, PointCloud, Torus,
                            circ_gap, periodic_point, word_point)
from ndistal.proximal import (distality_report, fiber_proximal_cell,
                              proximal_cell, proximal_quotient)
from ndistal.structure import (expansivity_probe, periodic_points,
                               theorem_3_5_audit)
from ndistal.systems import (Rotation, SkewTorus, annulus2, annulus3,
                             annulusN, catalogue, conjugate_system,
                             power_system, product_system, shift2)


def _stamp(num, label, t0, budget=None):
    """Print the per-criterion line and enforce the runtime budget."""
    elapsed = time.perf_counter() - t0
    print(f"criterion {num:2d} ({label}): PASS  [{elapsed:.1f}s]")
    if budget is not None:
        assert elapsed < budget, f"criterion {num} exceeded {budget}s budget"


# ---------------------------------------------------------------------------
# 1. three-point proximal cell on the two-circle annulus
# ---------------------------------------------------------------------------

def test_criterion_01_annulus3_report():
    t0 = time.perf_counter()
    s = annulus3()
    cloud = s.sampler(128)
    rep = distality_report(s, cloud, H=200, eps_prox=1e-3)
    assert rep.max_cell_size == 3
    assert rep.verdict == "3-distal, not 2-distal"
    p = OrbitIndex(0, 0)
    cell = rep.cells[cloud.index_of(p)]
    members = {cloud[i] for i in cell.members}
    assert members == {p, Annulus(0.0, 1.0), Annulus(0.0, 2.0)}
    # stability: every reported edge's minimum-distance trace shrinks at
    # least tenfold when the horizon doubles
    rep2 = distality_report(s, cloud, H=400, eps_prox=1e-3)
    for c, c2 in zip(rep.cells, rep2.cells):
        for j, d in c.min_dist_trace.items():
            if j == c.base:
                continue
            assert c2.min_dist_trace.get(j, 0.0) <= d / 10.0
    _stamp(1, "annulus3 three-point cells", t0, budget=5.0)


# ---------------------------------------------------------------------------
# 2. the listed proximal cell of the five-orbit annulus
# ---------------------------------------------------------------------------

def test_criterion_02_annulusN_listed_cell():
    t0 = time.perf_counter()
    s = annulusN(N=5)
    cloud = s.sampler(64, orbit_span=20)
    base = OrbitIndex(0, 2)          # the point (0, 3/2)
    cell = proximal_cell(s, base, cloud, H=200, eps_prox=1e-3)
    members = {cloud[i] for i in cell.members}
    listed = {base, OrbitIndex(0, 3), OrbitIndex(0, 4),
              Annulus(0.0, 1.0), Annulus(0.0, 2.0)}
    # the listed set has five distinct points counting the base itself
    assert members == listed
    assert cell.size() == 5
    _stamp(2, "annulusN listed cell", t0, budget=10.0)


# ---------------------------------------------------------------------------
# 3. skew product: distal yet never N-equicontinuous
# ---------------------------------------------------------------------------

def test_criterion_03_skew_distal_not_equicontinuous():
    t0 = time.perf_counter()
    s = SkewTorus()
    rng = np.random.default_rng(2016)

    # (a) 2000 seeded distinct pairs: the orbit minimum never drops below
    # the analytic floor (the first-coordinate gap, constant along orbits,
    # or the second-coordinate gap when the first coordinates agree)
    xs, ys, bounds = [], [], []
    for i in range(2000):
        a, b, c, d = rng.random(4)
        if i % 4 == 0:
            c = a                     # force equal first coordinates
        x, y = Torus(a, b), Torus(c, d)
        if s.dist(x, y) == 0.0:
            continue
        dx = abs(circ_gap(a, c))
        bounds.append(dx if dx > 0.0 else abs(circ_gap(b, d)))
        xs.append(x)
        ys.append(y)
    mins = orbit_min_pairs(s, xs, ys, H=200)
    assert np.all(mins >= np.array(bounds) - 1e-9)

    # (b) the equicontinuity probe fails for N = 1..5 with a shear witness
    cloud = PointCloud(tuple(Torus(float(a), float(b))
                             for a, b in rng.random((800, 2))),
                       "random", s.id)
    for N in range(1, 6):
        v = n_equicontinuity_probe(s, cloud, N=N, epsilon=0.2,
                                   n_spot_checks=2)
        assert not v.passed
        w = v.witness
        assert w is not None and len(w.points) == N + 1
        frac = (w.n * v.delta_grid[-1] / w.M) % 1.0
        assert 0.25 <= frac <= 0.75
        assert w.pair_separation >= 0.2
    assert skew_witness(1, 0.1, M=1) == (1, 3)
    _stamp(3, "skew distal, not equicontinuous", t0, budget=20.0)


# ---------------------------------------------------------------------------
# 4. equicontinuity pass implies the cell bound, across the catalogue
# ---------------------------------------------------------------------------

def test_criterion_04_probe_pass_implies_cell_bound():
    t0 = time.perf_counter()
    violations = []
    for s in catalogue():
        cloud = s.sampler()
        if len(cloud) > 600:
            cloud = PointCloud(cloud.points[::1 + len(cloud) // 600],
                               cloud.provenance, s.id)
        rep = None
        for N in (1, 2, 3):
            v = n_equicontinuity_probe(s, cloud, N=N, epsilon=1e-3, H=100,
                                       n_spot_checks=2)
            if not v.passed:
                continue
            if rep is None:
                rep = distality_report(s, cloud, H=100, eps_prox=1e-3)
            if rep.max_cell_size > N:
                violations.append((s.id, N, rep.max_cell_size))
    assert violations == []
    _stamp(4, "probe pass implies cell bound", t0)


# ---------------------------------------------------------------------------
# 5. propagation: powers, products, conjugacy
# ---------------------------------------------------------------------------

def test_criterion_05_powers_products_conjugacy():
    t0 = time.perf_counter()
    s = annulus3()
    cloud = s.sampler(64)
    base = distality_report(s, cloud, H=200)
    for k in (2, 3):
        powr = distality_report(power_system(s, k), cloud, H=200 // k)
        for cell, ref in zip(powr.cells, base.cells):
            assert set(cell.members) <= set(ref.members)

    f, g = annulus2(), annulus3()
    ps = product_system(f, g)
    ca = f.sampler(6, orbit_span=10)
    cb = g.sampler(6, orbit_span=10)
    cross = ps.cross(ca, cb)
    rep = distality_report(ps, cross, H=100)
    rep_a = distality_report(f, ca, H=100)
    rep_b = distality_report(g, cb, H=100)
    nb = len(cb)
    assert rep.max_cell_size <= 6
    assert rep.max_cell_size == 6
    for idx, cell in enumerate(rep.cells):
        i, j = divmod(idx, nb)
        allowed = {a * nb + b for a in rep_a.cells[i].members
                   for b in rep_b.cells[j].members}
        assert set(cell.members) <= allowed

    conj = conjugate_system(s, s.step, s.step_inv)
    img = PointCloud(tuple(s.step(p) for p in cloud.points), "image", s.id)
    other = distality_report(conj, img, H=60)
    small = distality_report(s, cloud, H=60)
    assert [c.size() for c in small.cells] == [c.size() for c in other.cells]
    _stamp(5, "powers, products, conjugacy", t0)


# ---------------------------------------------------------------------------
# 6. fiber proximal cells of extensions
# ---------------------------------------------------------------------------

def test_criterion_06_fiber_cells():
    t0 = time.perf_counter()
    g = SkewTorus()
    f = Rotation(g.alpha)
    pi = lambda p: Torus(p.x, 0.0)
    cloud = g.sampler(16)
    for y in cloud.points:
        assert fiber_proximal_cell(g, f, pi, y, cloud, H=100).size() == 1

    fa, fb = annulus2(), annulus3()
    ps = product_system(fa, fb)
    cross = ps.cross(fa.sampler(4, orbit_span=8), fb.sampler(4, orbit_span=8))
    assert distality_report(ps, cross, H=100).max_cell_size <= 6
    for y in cross.points[:: max(1, len(cross) // 16)]:
        cell = fiber_proximal_cell(ps, fb, lambda p: p.b, y, cross, H=100)
        assert cell.size() <= 2
    _stamp(6, "fiber cells of extensions", t0)


# ---------------------------------------------------------------------------
# 7. quotient by the proximal relation
# ---------------------------------------------------------------------------

def test_criterion_07_proximal_quotient():
    t0 = time.perf_counter()
    s2 = annulus2()
    rep = distality_report(s2, s2.aligned_cloud(-40, 40), N_max=2)
    q = proximal_quotient(rep, s2)
    assert q.is_equivalence
    assert max(len(c) for c in q.classes) <= 2
    assert q.factor_report.verdict == "distal"

    s3 = annulus3()
    rep3 = distality_report(s3, s3.sampler(128), N_max=3)
    q3 = proximal_quotient(rep3, s3)
    assert not q3.is_equivalence
    i, j, k = q3.violating_triple
    assert rep3.graph[i, j] and rep3.graph[j, k] and not rep3.graph[i, k]
    _stamp(7, "proximal quotient", t0)


# ---------------------------------------------------------------------------
# 8. at most N-1 proper minimal subsystems
# ---------------------------------------------------------------------------

def test_criterion_08_minimal_subsystem_count():
    t0 = time.perf_counter()
    s = annulus3()
    rec = theorem_3_5_audit(s, 3, s.sampler(128), H=2000,
                            gap_bound=lambda d: int(math.ceil(16.0 / d)))
    assert rec.applicable and rec.passed
    assert rec.details["n_minimal"] == 2
    assert rec.details["transitive_point"] is not None
    _stamp(8, "minimal subsystem count", t0, budget=30.0)


# ---------------------------------------------------------------------------
# 9. full shift suite
# ---------------------------------------------------------------------------

def test_criterion_09_shift_suite():
    t0 = time.perf_counter()
    s = shift2()
    for n in range(1, 13):
        cloud = s.periodic_cloud(n)
        found = periodic_points(s, cloud, T_max=n)
        assert len(found) == 2 ** n
        assert all(T <= n for _, T in found)

    probe = expansivity_probe(s, s.sampler(3), delta_grid=(0.25, 0.1), H=20)
    assert probe.expansive_at == 0.25

    zero = word_point((0,))
    sizes = []
    for W in (3, 4, 5, 6):
        cell = proximal_cell(s, zero, s.sampler(W), H=4 * W)
        sizes.append(cell.size())
    assert all(a < b for a, b in zip(sizes, sizes[1:]))

    assert word_count_entropy(s, 12).value == pytest.approx(math.log(2.0),
                                                            abs=1e-12)
    _stamp(9, "shift suite", t0)


# ---------------------------------------------------------------------------
# 10. entropy estimates and the uniform partition bound
# ---------------------------------------------------------------------------

def test_criterion_10_entropy_suite():
    t0 = time.perf_counter()
    rot = Rotation()
    cloud = rot.sampler(256)
    est = metric_entropy_estimate(rot, default_partition(cloud, 2),
                                  uniform_measure(cloud), 200, cloud)
    assert est.value <= 0.05

    skew = SkewTorus()
    grid = skew.sampler(64)
    est = metric_entropy_estimate(skew, default_partition(grid, 2),
                                  uniform_measure(grid), 200, grid)
    assert est.value <= 0.05

    ann = annulus3()
    circles = ann.circles_cloud(256)
    est = metric_entropy_estimate(ann, default_partition(circles, 2),
                                  uniform_measure(circles), 200, circles)
    assert est.value <= 0.05

    sh = shift2()
    words = sh.periodic_cloud(13)
    est = metric_entropy_estimate(sh, default_partition(words, 2),
                                  uniform_measure(words), 10, words)
    assert abs(est.value - math.log(2.0)) <= 0.05 * math.log(2.0)

    rec = ks_bound_audit(skew, grid, uniform_measure(grid),
                         r_list=(0.3, 0.2, 0.1, 0.05))
    assert rec.applicable and rec.passed
    entries = rec.details["entries"]
    assert len(entries) == 4
    cbs = [e["closing_bound"] for e in entries]
    assert all(b < a for a, b in zip(cbs, cbs[1:]))
    _stamp(10, "entropy suite", t0, budget=60.0)


# ---------------------------------------------------------------------------
# 11. the exact max-min dispersion solver against brute force
# ---------------------------------------------------------------------------

def _brute_force_diam(D, N):
    best = 0.0
    for sub in itertools.combinations(range(D.shape[0]), N + 1):
        v = min(D[i, j] for i, j in itertools.combinations(sub, 2))
        best = max(best, v)
    return best


def test_criterion_11_dispersion_oracle():
    t0 = time.perf_counter()
    rng = np.random.default_rng(11)
    for _ in range(200):
        m = int(rng.integers(4, 13))
        N = int(rng.integers(1, min(4, m - 1) + 1))
        pts = rng.random((m, 2))
        diff = pts[:, None, :] - pts[None, :, :]
        D = np.sqrt((diff * diff).sum(axis=-1))
        res = diam_n_exact_from_matrix(D, N)
        assert res.value == pytest.approx(_brute_force_diam(D, N), abs=1e-12)

    # connected-set bound on a segment grid, within one grid spacing
    L, m = 5.0, 41
    euclid = lambda a, b: abs(a[0] - b[0])
    pts = [(L * i / (m - 1),) for i in range(m)]
    spacing = L / (m - 1)
    for N in (2, 3, 4):
        res = diam_n_exact(pts, euclid, N)
        assert res.value >= L / N - spacing - 1e-12
    _stamp(11, "dispersion oracle", t0, budget=10.0)


# ---------------------------------------------------------------------------
# 12. determinism of the scenario suite
# ---------------------------------------------------------------------------

# sha256 of report.json for each file in scenarios/, run with --seed 0
SCENARIO_DIGESTS = {
    "annulus3_audit":
        "576d1ed3d9ac3482e153f3929152583fdf33974b499d1617fd5b320ca5c7dc2d",
    "shift2_suite":
        "54b546e9768863b615209ff3579611f323535f4de232571c2d5c940e439ad45f",
    "skew_equicont":
        "eae0d7b6b4f8ad687013c8a9c75a0f347e87e143d9c88fd1c958e6497e948185",
}

# the same with --seed 3, which overrides each header's seed
SCENARIO_DIGESTS_SEED3 = {
    "annulus3_audit":
        "d4d9740becc68d16e1e773a32ddfa9496d5b017353b5e4b29abe8c09cabc9444",
    "shift2_suite":
        "bc138709a3f50a94e663f4f55eb6f238bd1aa0d75d5b005afeb037287f468c73",
    "skew_equicont":
        "4aaf271032551a53fbb6490fefdc33c96b9656753b6fb4f22a028402a3b7ed68",
}


def test_criterion_12_scenario_determinism(tmp_path):
    t0 = time.perf_counter()
    from ndistal.cli import run_scenario
    scen_dir = __import__("pathlib").Path(__file__).parent.parent / "scenarios"
    scenarios = sorted(scen_dir.glob("*.scn"))
    assert [scn.stem for scn in scenarios] == sorted(SCENARIO_DIGESTS)
    for scn in scenarios:
        out_a = tmp_path / (scn.stem + "-a")
        out_b = tmp_path / (scn.stem + "-b")
        code_a = run_scenario(str(scn), seed=0, out=str(out_a))
        code_b = run_scenario(str(scn), seed=0, out=str(out_b))
        assert code_a == 0 and code_b == 0
        ra = (out_a / "report.json").read_bytes()
        rb = (out_b / "report.json").read_bytes()
        assert ra == rb
        assert hashlib.sha256(ra).hexdigest() == SCENARIO_DIGESTS[scn.stem]
        json.loads(ra)  # well formed
        out_c = tmp_path / (scn.stem + "-seed3")
        assert run_scenario(str(scn), seed=3, out=str(out_c)) == 0
        rc = (out_c / "report.json").read_bytes()
        assert hashlib.sha256(rc).hexdigest() == \
            SCENARIO_DIGESTS_SEED3[scn.stem]
    _stamp(12, "scenario determinism", t0)
