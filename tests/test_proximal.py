"""Proximal cells, distality verdicts, quotients, and fiber cells."""

import json
import re
import tracemalloc

import numpy as np
import pytest

from ndistal import equicont, kernels, proximal, structure
from ndistal.cli import main
from ndistal.equicont import r_set
from ndistal.errors import HomomorphismError, ParameterError
from ndistal.kernels import comoving
from ndistal.points import (Annulus, OrbitIndex, Pair, PointCloud, Torus,
                            word_point)
from ndistal.proximal import (ProximalCellEstimate, distality_report,
                              fiber_proximal_cell, proximal_cell,
                              proximal_quotient)
from ndistal.structure import dynamical_ball
from ndistal.systems import (CATALOGUE_FACTS, IdentityTorus, Rotation,
                             SkewTorus, annulus2, annulus3, annulusN,
                             conjugate_system, get_system, power_system,
                             product_system, shift2)


def members_of(cloud, cell):
    return {cloud[i] for i in cell.members}


# ---------------------------------------------------------------------------
# cells and verdicts
# ---------------------------------------------------------------------------

def test_rotation_is_distal():
    s = Rotation()
    cloud = s.sampler(128)
    rep = distality_report(s, cloud, H=100)
    assert rep.verdict == "distal"
    assert rep.max_cell_size == 1


def test_distality_report_rejects_empty_cloud():
    s = Rotation()
    with pytest.raises(ParameterError, match="nonempty"):
        distality_report(s, PointCloud((), "grid", s.id))


def test_skew_torus_is_distal():
    s = SkewTorus()
    cloud = s.sampler(24)
    rep = distality_report(s, cloud, H=100)
    assert rep.verdict == "distal"


def test_annulus3_cell_at_p():
    s = annulus3()
    cloud = s.sampler(128)
    cell = proximal_cell(s, OrbitIndex(0), cloud)
    assert members_of(cloud, cell) == {
        OrbitIndex(0), Annulus(0.0, 1.0), Annulus(0.0, 2.0)}


def test_annulus3_verdict():
    s = annulus3()
    cloud = s.sampler(128)
    rep = distality_report(s, cloud, N_max=3)
    assert rep.verdict == "3-distal, not 2-distal"
    assert rep.max_cell_size == 3


def test_annulusN_cell_matches_catalogue():
    s = annulusN(N=5)
    cloud = s.sampler(128)
    cell = proximal_cell(s, OrbitIndex(0, 2), cloud)
    # base p = (0, 3/2) plus both circles and the other orbits' anchors
    assert members_of(cloud, cell) == {
        OrbitIndex(0, 2), Annulus(0.0, 1.0), Annulus(0.0, 2.0),
        OrbitIndex(0, 3), OrbitIndex(0, 4)}
    assert cell.size() == 5


def item_wise_cell(c):
    """ProximalCellEstimate.as_dict as first written: both dicts sorted
    and keyed item by item."""
    d = {"base": c.base, "members": list(c.members), "horizon": c.horizon,
         "threshold": c.threshold,
         "min_dist_trace": {str(k): v
                            for k, v in sorted(c.min_dist_trace.items())}}
    if c.stable is not None:
        d["stable"] = {str(k): bool(v) for k, v in sorted(c.stable.items())}
    return d


def item_wise_report(rep, cells):
    """ProximalReport.as_dict built edge by edge and cell by cell."""
    return {"verdict": rep.verdict, "max_cell_size": rep.max_cell_size,
            "horizon": rep.horizon, "threshold": rep.threshold,
            "n_max": rep.n_max, "stable_only": rep.stable_only,
            "cloud_size": len(rep.cloud),
            "cloud_provenance": rep.cloud.provenance,
            "edges": [[int(i), int(j)] for i, j in zip(*np.nonzero(rep.graph))
                      if i < j],
            "cells": [item_wise_cell(c) for c in cells
                      if len(c.members) > 1]}


@pytest.mark.parametrize("make, size, H", [(shift2, 3, 50),
                                           (annulus3, 16, 100)])
def test_report_as_dict_matches_item_wise_build(make, size, H):
    s = make()
    rep = distality_report(s, s.sampler(size), H=H, stable_only=False)
    want = item_wise_report(rep, rep.cells)
    got = rep.as_dict()
    assert want["edges"] and got == want
    assert json.dumps(got, sort_keys=True) == json.dumps(want, sort_keys=True)


def eager_cells(s, cloud, H, eps=proximal.DEFAULT_EPS):
    """Every cell of a stable-only report, built row by row as its own
    ProximalCellEstimate."""
    out = comoving(s, cloud.points, None, (H, 2 * H)).matrices()
    MH, M2 = out[H], out[2 * H]
    stable = proximal._stable(MH, M2, proximal.STABLE_FACTOR, s.floor)
    use = (MH < eps) & stable
    np.fill_diagonal(use, True)
    use &= use.T
    cells = []
    for i in range(len(cloud)):
        members = np.nonzero(use[i])[0]
        keys = members.tolist()
        cells.append(ProximalCellEstimate(
            base=i, members=tuple(keys), horizon=H, threshold=eps,
            min_dist_trace=dict(zip(keys, MH[i][members].tolist())),
            stable=dict(zip(keys, stable[i][members].tolist()))))
    return cells


@pytest.mark.parametrize("make, size, H", [(shift2, 4, 200),
                                           (annulus3, 64, 200),
                                           (SkewTorus, 24, 100)])
def test_report_cells_are_built_when_indexed(monkeypatch, make, size, H):
    s = make()
    cloud = s.sampler(size)
    built = []

    class Spy(ProximalCellEstimate):
        def __post_init__(self):
            built.append(self.base)
            super().__post_init__()

    monkeypatch.setattr(proximal, "ProximalCellEstimate", Spy)
    rep = distality_report(s, cloud, H=H)
    got = json.dumps(rep.as_dict())
    assert built == []
    want = eager_cells(s, cloud, H)
    assert len(rep.cells) == len(want) == len(cloud)
    assert got == json.dumps(item_wise_report(rep, want))
    assert rep.max_cell_size == max(c.size() for c in want)
    assert rep.cell_sizes().tolist() == [c.size() for c in want]
    for i, cell in enumerate(rep.cells):
        assert vars(cell) == vars(want[i])
    assert built == list(range(len(cloud)))
    assert vars(rep.cells[-1]) == vars(want[-1])
    assert [c.base for c in rep.cells[1:4]] == [1, 2, 3]
    with pytest.raises(IndexError):
        rep.cells[len(cloud)]


def test_fiber_cell_as_dict_matches_item_wise_build():
    # a fiber cell's members are renamed through the fiber's indices
    f, g = annulus2(), annulus3()
    ps = product_system(f, g)
    cloud = ps.cross(f.sampler(4, orbit_span=8), g.sampler(4, orbit_span=8))
    sizes = set()
    for y in cloud.points[::40]:
        cell = fiber_proximal_cell(ps, g, lambda p: p.b, y, cloud, H=20)
        sizes.add(cell.size())
        assert cell.as_dict() == item_wise_cell(cell)
    assert max(sizes) > 1


def test_cell_as_dict_looks_each_member_up():
    # dicts filled in another order than the members, with numpy values
    members = (2, 5, 9)
    cell = ProximalCellEstimate(
        base=5, members=members, horizon=10, threshold=0.1,
        min_dist_trace={m: np.float64(0.5 * int(m)) for m in members[::-1]},
        stable={m: np.bool_(int(m) != 9) for m in members[::-1]})
    d = cell.as_dict()
    assert d == item_wise_cell(cell)
    assert list(d["stable"]) == ["2", "5", "9"]
    assert d["min_dist_trace"]["9"] == 4.5 and d["stable"]["9"] is False
    assert json.dumps(d) == json.dumps(item_wise_cell(cell))


def _row_case(name):
    """A system and a small cloud of it: the catalogue, a power, a product
    and a conjugate."""
    if name == "power":
        sys = power_system(annulus3(), 2)
    elif name == "product":
        sys = product_system(Rotation(), annulus2())
        return sys, sys.cross(Rotation().sampler(3),
                              annulus2().sampler(2, orbit_span=8))
    elif name == "conjugate":
        ann = annulus3()
        sys = conjugate_system(ann, ann.step, ann.step_inv)
    else:
        sys = get_system(name)
    return sys, sys.sampler(16 if name == "rotation" else 8 if name in
                            ("skew_torus", "identity") else 2)


@pytest.mark.parametrize("name", sorted(CATALOGUE_FACTS)
                         + ["conjugate", "power", "product"])
def test_rows_read_off_the_list_match_the_cloud_lists(name):
    # proximal_cell, r_set and dynamical_ball read one row off the list of
    # that row alone; at each checked point they give the report's cell
    # and the members under delta of the cloud's min and max lists
    sys, cloud = _row_case(name)
    H, eps, delta = 20, 0.05, 0.2
    rep = distality_report(sys, cloud, H=H, eps_prox=eps,
                           N_max=len(cloud), stable_only=False)
    mins = comoving(sys, cloud.points, None, [H], below=delta)
    maxs = comoving(sys, cloud.points, None, [H], use_max=True, below=delta)
    for k in range(0, len(cloud), max(1, len(cloud) // 6)):
        cell = proximal_cell(sys, cloud[k], cloud, H=H, eps_prox=eps)
        assert cell.as_dict() == rep.cells[k].as_dict()
        near = (mins.i == k) & (mins.values[H] < delta)
        assert r_set(sys, cloud[k], delta, cloud, H=H).members == \
            tuple(mins.j[near].tolist())
        near = (maxs.i == k) & (maxs.values[H] < delta)
        assert dynamical_ball(sys, cloud[k], delta, cloud, H) == \
            tuple(maxs.j[near].tolist())


def test_cell_symmetry():
    s = annulus3()
    cloud = s.sampler(64)
    rep = distality_report(s, cloud)
    A = rep.graph
    assert np.array_equal(A, A.T)


def test_horizon_monotonicity():
    s = annulus3()
    cloud = s.sampler(64)
    small = proximal_cell(s, OrbitIndex(0), cloud, H=2, eps_prox=0.1)
    large = proximal_cell(s, OrbitIndex(0), cloud, H=50, eps_prox=0.1)
    assert set(small.members) <= set(large.members)


def test_shift_cell_grows_with_word_radius():
    s = shift2()
    sizes = []
    for W in (3, 4, 5, 6):
        cloud = s.sampler(W)
        from ndistal.points import word_point
        zero = word_point(())
        cell = proximal_cell(s, zero, cloud, H=64, eps_prox=1e-3)
        sizes.append(cell.size())
    assert all(b > a for a, b in zip(sizes, sizes[1:]))


def test_stability_probe_rejects_flat_pairs():
    # two rotation points at constant distance 5e-4 < eps are flagged as
    # proximal at horizon H but not stable (the trace never shrinks)
    s = Rotation()
    cloud_pts = (Torus(0.0, 0.0), Torus(5e-4, 0.0))
    from ndistal.points import PointCloud
    cloud = PointCloud(cloud_pts, "test", s.id)
    rep = distality_report(s, cloud, H=50, eps_prox=1e-3, stable_only=True)
    assert rep.max_cell_size == 1
    loose = distality_report(s, cloud, H=50, eps_prox=1e-3,
                             stable_only=False)
    assert loose.max_cell_size == 2


def test_floor_minima_count_as_stable():
    # at H=200 the shift's H and 2H minima both sit at its floor 2^-64, so
    # the shrink test alone would reject every edge and read "distal"
    s = shift2()
    cloud = s.sampler(3)
    rep = distality_report(s, cloud, H=200)
    assert rep.verdict.startswith("not N-distal")
    cell = proximal_cell(s, word_point(()), cloud, H=200)
    assert cell.size() > 1
    assert all(cell.stable.values())


def _expected_verdict(name, sys):
    """The distality verdict CATALOGUE_FACTS states for a system, as a
    predicate on distality_report's verdict string."""
    fact = CATALOGUE_FACTS[name]
    if "not N-distal for any N" in fact:
        return lambda v: v.startswith("not N-distal")
    m = re.match(r"(\w+)-distal, not ", fact)
    if m:
        N = m.group(1)
        N = int(re.search(r"N=(\d+)", sys.id).group(1) if N == "N" else N)
        weaker = "distal" if N == 2 else f"{N - 1}-distal"
        return lambda v: v == f"{N}-distal, not {weaker}"
    assert fact.startswith("distal"), fact
    return lambda v: v == "distal"


def _cli_json(capsys, argv):
    """Run the CLI (its ops' own defaults, on default_cloud(sys)) and parse
    the JSON it prints."""
    assert main(argv) == 0
    return json.loads(capsys.readouterr().out)


@pytest.mark.parametrize("name", sorted(CATALOGUE_FACTS))
def test_verdicts_match_facts_at_cli_defaults(name, capsys):
    out = _cli_json(capsys, ["proximal", "--system", name,
                             "--cloud-size", "3"])
    assert _expected_verdict(name, get_system(name))(out["verdict"]), \
        out["verdict"]


@pytest.mark.parametrize("name", sorted(CATALOGUE_FACTS))
def test_expansivity_matches_facts_at_cli_defaults(name, capsys):
    out = _cli_json(capsys, ["structure", "--system", name,
                             "--op", "expansivity_probe"])
    expansive = CATALOGUE_FACTS[name].startswith("expansive")
    assert out["expansive_at"] == (0.25 if expansive else None)


@pytest.mark.parametrize("N", [1, 2])
@pytest.mark.parametrize("name", ["rotation", "skew_torus"])
def test_equicontinuity_matches_facts_at_cli_defaults(name, N, capsys):
    out = _cli_json(capsys, ["equicont", "--system", name, "--N", str(N)])
    fact = CATALOGUE_FACTS[name]
    if "not N-equicontinuous for any N" in fact:
        assert not out["passed"]
    else:
        assert "equicontinuous" in fact, fact
        assert out["passed"] and all(out["spot_checks"])


# ---------------------------------------------------------------------------
# propagation rules: powers, products, conjugacy
# ---------------------------------------------------------------------------

def test_power_cells_contained_in_base_cells():
    s = annulus3()
    cloud = s.sampler(64)
    base = distality_report(s, cloud, H=200)
    for k in (2, 3):
        pk = power_system(s, k)
        powr = distality_report(pk, cloud, H=200 // k)
        for cell, ref in zip(powr.cells, base.cells):
            assert set(cell.members) <= set(ref.members)


def test_product_cells_contained_in_cell_products():
    f, g = annulus2(), annulus3()
    ps = product_system(f, g)
    ca = f.sampler(6, orbit_span=10)
    cb = g.sampler(6, orbit_span=10)
    cloud = ps.cross(ca, cb)
    rep = distality_report(ps, cloud, H=100)
    rep_a = distality_report(f, ca, H=100)
    rep_b = distality_report(g, cb, H=100)
    na, nb = len(ca), len(cb)
    assert rep.max_cell_size <= 6
    for idx, cell in enumerate(rep.cells):
        i, j = divmod(idx, nb)
        allowed = {a * nb + b for a in rep_a.cells[i].members
                   for b in rep_b.cells[j].members}
        assert set(cell.members) <= allowed


def test_conjugacy_preserves_cell_cardinalities():
    from ndistal.systems import conjugate_system
    s = annulus3()
    cloud = s.sampler(64)
    # conjugate by the map itself: an exact isometric conjugacy whose
    # matched cloud (the image cloud) differs from the original
    conj = conjugate_system(s, s.step, s.step_inv)
    base = distality_report(s, cloud, H=60)
    from ndistal.points import PointCloud
    img = PointCloud(tuple(s.step(p) for p in cloud.points), "test", s.id)
    other = distality_report(conj, img, H=60)
    for a, b in zip(base.cells, other.cells):
        assert a.size() == b.size()


# ---------------------------------------------------------------------------
# quotients
# ---------------------------------------------------------------------------

def test_annulus2_quotient_is_equivalence_with_distal_factor():
    s = annulus2()
    cloud = s.aligned_cloud(-40, 40)
    rep = distality_report(s, cloud, N_max=2)
    assert rep.verdict == "2-distal, not distal"
    q = proximal_quotient(rep, s)
    assert q.is_equivalence
    assert max(len(c) for c in q.classes) == 2
    assert q.induced_consistent
    assert q.factor_report.verdict == "distal"


def test_annulus3_quotient_yields_violating_triple():
    s = annulus3()
    cloud = s.sampler(128)
    rep = distality_report(s, cloud, N_max=3)
    q = proximal_quotient(rep, s)
    assert not q.is_equivalence
    i, j, k = q.violating_triple
    # i ~ j and j ~ k hold but i ~ k fails
    assert rep.graph[i, j] and rep.graph[j, k] and not rep.graph[i, k]


def integer_product_triple(G):
    """The violating triple of a symmetric, reflexive boolean graph read
    off its integer path counts: the first (i, k) in row-major order that
    two edges join and no edge does, and j their first common neighbour;
    None when there is none."""
    U = G.astype(np.int64)
    bad = ((U @ U) > 0) & ~G
    if not bad.any():
        return None
    i, k = map(int, next(zip(*np.nonzero(bad))))
    return i, int(np.nonzero(G[i] & G[:, k])[0][0]), k


def test_csr_equivalence_check_matches_integer_product():
    # the annulus graph and a random symmetric one are no equivalences; a
    # graph of classes is one
    s = annulus3()
    A = distality_report(s, s.sampler(128), N_max=3).graph.copy()
    rng = np.random.default_rng(4)
    R = rng.random((150, 150)) < 0.02
    labels = rng.integers(0, 40, 150)
    cases = ((A | np.eye(len(A), dtype=bool), False),
             (R | R.T | np.eye(150, dtype=bool), False),
             (labels[:, None] == labels[None, :], True))
    for G, equivalence in cases:
        assert (integer_product_triple(G) is None) == equivalence
    # class graphs with a few edges toggled, where a row whose cell differs
    # from a neighbour's need not be the row of the triple
    graphs = [G for G, _ in cases]
    for _ in range(300):
        m = int(rng.integers(1, 30))
        cls = rng.integers(0, max(1, m // 3), m)
        G = cls[:, None] == cls[None, :]
        for a, b in rng.integers(0, m, (int(rng.integers(0, 3)), 2)):
            if a != b:
                G[a, b] = G[b, a] = not G[a, b]
        graphs.append(G)
    for G in graphs:
        members = np.nonzero(G)[1]
        indptr = np.concatenate(([0], np.cumsum(G.sum(axis=1))))
        assert proximal._violating_triple(indptr, members) == \
            integer_product_triple(G)


def test_distal_quotient_is_identity():
    s = Rotation()
    cloud = s.sampler(64)
    rep = distality_report(s, cloud)
    q = proximal_quotient(rep, s)
    assert q.is_equivalence
    assert all(len(c) == 1 for c in q.classes)
    assert q.factor_report.verdict == "distal"


# ---------------------------------------------------------------------------
# fiber cells
# ---------------------------------------------------------------------------

def test_skew_over_rotation_is_distal_extension():
    g = SkewTorus()
    f = Rotation(g.alpha)
    pi = lambda p: Torus(p.x, 0.0)
    cloud = g.sampler(16)
    for y in cloud.points[::37]:
        cell = fiber_proximal_cell(g, f, pi, y, cloud, H=100)
        assert cell.size() == 1


def test_fiber_cell_semiconjugacy_guard():
    g = SkewTorus()
    f = Rotation(0.123)  # wrong rotation angle: pi fails to semiconjugate
    pi = lambda p: Torus(p.x, 0.0)
    cloud = g.sampler(8)
    with pytest.raises(HomomorphismError):
        fiber_proximal_cell(g, f, pi, cloud[0], cloud, H=10)


def test_fiber_at_exactly_the_mesh_is_excluded(monkeypatch):
    # OrbitIndex(9) sits at exactly the projected mesh from the base, so
    # the strict eps_fiber test keeps it out of the fiber
    s = annulus3()
    cloud = s.sampler(16)
    seen, real = [], proximal.comoving

    def spy(sys, points, others, *args, **kwargs):
        seen.extend(others)
        return real(sys, points, others, *args, **kwargs)

    monkeypatch.setattr(proximal, "comoving", spy)
    fiber_proximal_cell(s, s, lambda p: p, Annulus(0.5625, 1.0), cloud, H=5)
    assert seen == [Annulus(0.5625, 1.0)]


def test_product_projection_fiber_cells():
    f, g = annulus2(), annulus3()
    ps = product_system(f, g)
    ca = f.sampler(4, orbit_span=8)
    cb = g.sampler(4, orbit_span=8)
    cloud = ps.cross(ca, cb)
    pi = lambda p: p.b
    for y in cloud.points[:: max(1, len(cloud) // 8)]:
        cell = fiber_proximal_cell(ps, g, pi, y, cloud, H=100)
        assert cell.size() <= 2


# ---------------------------------------------------------------------------
# below = eps_prox: the pruned minima give the reports of the exact ones
# ---------------------------------------------------------------------------

def _angle_factor(sys):
    """annulus -> circle rotation by k: every angle advances by k."""
    return Rotation(sys.k), lambda p: Torus(
        float(sys.arr_state([p])["theta"][0]), 0.0)


def _report_cases():
    ann, skew, rot = annulus3(), SkewTorus(), Rotation()
    n6 = annulusN(N=6)
    return {
        "annulus3-256": (ann, ann.sampler(256), *_angle_factor(ann)),
        "annulus3-aligned": (ann, ann.aligned_cloud(-30, 30),
                             *_angle_factor(ann)),
        "annulus2": (annulus2(), annulus2().sampler(),
                     *_angle_factor(annulus2())),
        "annulusN6": (n6, n6.sampler(), *_angle_factor(n6)),
        "skew-24": (skew, skew.sampler(24), Rotation(skew.alpha),
                    lambda p: Torus(p.x, 0.0)),
        "rotation-256": (rot, rot.sampler(256), IdentityTorus(),
                         lambda p: Torus(0.0, 0.0)),
    }


REPORT_CASES = _report_cases()


def exact_minima(monkeypatch):
    """Make every co-moving kernel call, at each module that binds it,
    drop its `below` and list every pair: the exact path.  Returns the
    `below` of each call it served."""
    real, dropped = kernels.comoving, []

    def exact(sys, points, others, horizons, use_max=False, centre=0,
              below=None):
        dropped.append(below)
        return real(sys, points, others, horizons, use_max, centre)

    for module in (kernels, proximal, equicont, structure):
        monkeypatch.setattr(module, "comoving", exact)
    return dropped


@pytest.mark.parametrize("case", sorted(REPORT_CASES))
def test_pruned_minima_give_the_exact_reports(case, monkeypatch):
    # distality_report, proximal_cell and fiber_proximal_cell ask only for
    # minima under eps_prox, and give the as_dict of the exact path
    sys, cloud, f, pi = REPORT_CASES[case]
    H = 100

    def reports():
        rep = distality_report(sys, cloud, H=H)
        big = max(rep.cells, key=lambda c: c.size())
        picks = sorted({*big.members, *range(0, len(cloud), 41)})
        return (rep.as_dict(),
                [proximal_cell(sys, cloud[i], cloud, H=H).as_dict()
                 for i in picks],
                [fiber_proximal_cell(sys, f, pi, cloud[i], cloud,
                                     H=H).as_dict() for i in picks])

    pruned = reports()
    dropped = exact_minima(monkeypatch)
    assert reports() == pruned
    # the report and every cell ran the patched kernel, each at eps_prox
    picks = len(pruned[1])
    assert dropped == [proximal.DEFAULT_EPS] * (1 + 2 * picks)


def test_report_memory_stays_small():
    # the report reads the list of pairs that can be edges: no m x m array
    # of the 2,129-point cloud (36 MB as float64) is built
    tracemalloc.start()
    try:
        rep = distality_report(annulus3(), annulus3().sampler(1024))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.verdict == "3-distal, not 2-distal"
    assert peak < 16e6


def test_report_stats_read_the_listed_pairs():
    # the verdict's slack against eps, read off the rotation's pruned list:
    # the 17 diagonal pairs and, both ways, the pair 5e-4 apart, whose
    # minimum never shrinks: no edge when only stable pairs count, the one
    # edge otherwise
    s = Rotation()
    cloud = PointCloud(tuple(Torus(k / 16, 0.0) for k in range(16))
                       + (Torus(5e-4, 0.0),), "test", s.id)
    rep = distality_report(s, cloud, H=50, eps_prox=1e-3)
    assert rep.stats() == {"pairs_evaluated": 19, "max_edge_ratio": None,
                           "min_nonedge_ratio": 0.5}
    loose = distality_report(s, cloud, H=50, eps_prox=1e-3,
                             stable_only=False)
    assert loose.stats() == {"pairs_evaluated": 19, "max_edge_ratio": 0.5,
                             "min_nonedge_ratio": None}


def test_infinite_eps_prox_reads_exact_minima():
    # below must be finite, so an infinite eps_prox asks the kernels for
    # exact minima and every pair is proximal, as without the threshold
    s = annulus3()
    cloud = s.sampler(4)
    rep = distality_report(s, cloud, H=10, eps_prox=float("inf"),
                           N_max=len(cloud), stable_only=False)
    assert rep.max_cell_size == len(cloud)
    cell = proximal_cell(s, cloud[0], cloud, H=10, eps_prox=float("inf"))
    assert cell.size() == len(cloud)
