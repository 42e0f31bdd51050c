"""N-diameter: independent brute-force oracle plus the max-min dispersion
property suite (diam_1 = diam, zero iff small, monotonicities, duplicate
stability, and the connected-set lower bound on grids)."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ndistal.errors import BudgetExceededError
from ndistal.ndiameter import (diam_n_bounds, diam_n_bounds_from_matrix,
                               diam_n_bounds_stacked, diam_n_exact,
                               diam_n_exact_from_matrix)


def euclid(a, b):
    return float(np.linalg.norm(np.asarray(a, float) - np.asarray(b, float)))


def brute_force(points, dist, N):
    """Oracle: plain max over all (N+1)-subsets of the min pairwise
    distance, written independently of the packaged enumerator."""
    m = len(points)
    if m <= N:
        return 0.0, ()
    best, best_w = -1.0, ()
    for comb in itertools.combinations(range(m), N + 1):
        v = min(dist(points[i], points[j])
                for i, j in itertools.combinations(comb, 2))
        if v > best:
            best, best_w = v, comb
    return best, best_w


def random_cloud(rng, m, dim=2):
    return [tuple(rng.uniform(-1, 1, dim)) for _ in range(m)]


# ---------------------------------------------------------------------------
# oracle equivalence
# ---------------------------------------------------------------------------

def test_exact_matches_brute_force_on_200_seeded_instances():
    rng = np.random.default_rng(11)
    for _ in range(200):
        m = int(rng.integers(2, 13))
        N = int(rng.integers(1, 5))
        pts = random_cloud(rng, m)
        res = diam_n_exact(pts, euclid, N)
        val, _ = brute_force(pts, euclid, N)
        assert res.exact
        assert res.value == pytest.approx(val, abs=1e-12)



@st.composite
def tie_prone_clouds(draw):
    """Up to 12 points: random, on a 3 x 3 lattice (many equal distances)
    or all coincident."""
    m = draw(st.integers(0, 12))
    kind = draw(st.sampled_from(("random", "lattice", "coincident")))
    if kind == "coincident":
        return [(0.25, -0.5)] * m
    coord = (st.floats(-1.0, 1.0) if kind == "random"
             else st.integers(0, 2).map(float))
    return [(draw(coord), draw(coord)) for _ in range(m)]


@given(tie_prone_clouds(), st.integers(1, 3))
@settings(max_examples=300, deadline=None)
def test_exact_is_first_lexicographic_maximum(pts, N):
    val, witness = brute_force(pts, euclid, N)
    res = diam_n_exact(pts, euclid, N)
    assert (res.value, res.witness, res.exact) == (val, witness, True)
    k = N + 1
    if len(pts) >= k:
        budget = math.comb(len(pts), k)
        assert diam_n_exact(pts, euclid, N, budget=budget) == res
        with pytest.raises(BudgetExceededError):
            diam_n_exact(pts, euclid, N, budget=budget - 1)

def test_exact_witness_realizes_value():
    rng = np.random.default_rng(7)
    for _ in range(50):
        pts = random_cloud(rng, 10)
        res = diam_n_exact(pts, euclid, 2)
        w = res.witness
        assert len(set(w)) == 3
        got = min(euclid(pts[i], pts[j])
                  for i, j in itertools.combinations(w, 2))
        assert got == pytest.approx(res.value, abs=1e-12)


def test_exact_lexicographic_tie_break():
    # every 3-subset of {0,1,2,3} on a line has min pairwise distance 1,
    # all values exact in floating point: lex-smallest witness wins
    line = [(0.0,), (1.0,), (2.0,), (3.0,)]
    res = diam_n_exact(line, euclid, 2)
    assert res.value == 1.0
    assert res.witness == (0, 1, 2)
    # two far-apart unit squares: the optimum sqrt(2) is achieved by a
    # diagonal plus any third far point, bitwise-identically
    sq = [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (1.0, 1.0)]
    far = [(x + 10.0, y) for x, y in sq]
    res = diam_n_exact(sq + far, euclid, 2)
    assert res.value == pytest.approx(math.sqrt(2.0), abs=0)
    assert res.witness == (0, 3, 4)


def test_exact_examples_from_contract():
    line = [(0.0,), (1.0,), (3.0,), (7.0,)]
    res = diam_n_exact(line, euclid, 2)
    assert res.value == pytest.approx(3.0)
    assert res.witness == (0, 2, 3)
    assert diam_n_exact([(0.0,), (5.0,)], euclid, 1).value == 5.0
    assert diam_n_exact([(0.0,), (5.0,)], euclid, 2).value == 0.0
    assert diam_n_exact([(0.0,), (5.0,)], euclid, 2).witness == ()


def test_exact_budget():
    pts = random_cloud(np.random.default_rng(0), 40)
    with pytest.raises(BudgetExceededError):
        diam_n_exact(pts, euclid, 10, budget=1000)


# ---------------------------------------------------------------------------
# bounds
# ---------------------------------------------------------------------------

def test_bounds_bracket_exact():
    rng = np.random.default_rng(23)
    for _ in range(200):
        m = int(rng.integers(2, 13))
        N = int(rng.integers(1, 5))
        pts = random_cloud(rng, m)
        exact = diam_n_exact(pts, euclid, N)
        bnd = diam_n_bounds(pts, euclid, N)
        assert bnd.value_lower <= exact.value + 1e-12
        assert bnd.value_upper >= exact.value - 1e-12


def greedy_bounds(D, N):
    """The dispersion bounds of one matrix, one greedy pick at a time:
    the diametral pair (first maximum of the strict upper triangle in
    row-major order), then each next point not yet chosen farthest from
    those chosen (lowest index on ties)."""
    m, k = len(D), N + 1
    chosen = list(max(itertools.combinations(range(m), 2),
                      key=lambda ij: (D[ij], -ij[0], -ij[1])))
    while len(chosen) < k:
        rest = [j for j in range(m) if j not in chosen]
        chosen.append(max(rest, key=lambda j: (min(D[c, j] for c in chosen),
                                               -j)))
    chosen = sorted(chosen)
    lower = min(D[a, b] for a, b in itertools.combinations(chosen, 2))
    upper = max(sorted(D.max(axis=1))[m - k], lower)
    return lower, upper, chosen


@pytest.mark.parametrize("N", [1, 2, 4])
def test_stacked_bounds_match_one_matrix_at_a_time(N):
    # tied grid distances and random ones, in one stack: every matrix gets
    # the greedy bounds and witness it gets alone, bit for bit
    rng = np.random.default_rng(N)
    grid = [(i, j) for i in range(4) for j in range(4)]
    stack = []
    for _ in range(12):
        pts = (random_cloud(rng, 16) if rng.random() < 0.5 else
               [grid[i] for i in rng.permutation(16)])
        stack.append([[euclid(a, b) for b in pts] for a in pts])
    stack = np.array(stack)
    lower, upper, chosen = diam_n_bounds_stacked(stack, N)
    for D, lo, up, ch in zip(stack, lower, upper, chosen):
        want = greedy_bounds(D, N)
        assert (lo, up, list(ch)) == want
        one = diam_n_bounds_from_matrix(D, N)
        assert (one.value_lower, one.value_upper, list(one.witness)) == want


@pytest.mark.parametrize("pts,N", [
    ([(0.0, 0.0)] * 4, 2),
    ([(0.0, 0.0)] * 3, 1),
    ([(0.0, 0.0)] * 7, 4),
    ([(0.0, 0.0), (0.0, 0.0), (1.0, 0.0), (1.0, 0.0)], 2),
    ([(0.0, 0.0), (1.0, 0.0), (0.0, 0.0), (1.0, 0.0), (1.0, 0.0)], 3),
])
def test_zero_diameter_witness_holds_distinct_points(pts, N):
    # every (N+1)-subset holds two coincident points, so diam_N is 0: the
    # lower bound's witness is N+1 distinct indices, the exact solver's,
    # and a cloud of one point is certified exactly
    D = np.array([[euclid(a, b) for b in pts] for a in pts])
    got = diam_n_bounds_from_matrix(D, N)
    want = diam_n_exact_from_matrix(D, N)
    assert (got.value_lower, got.witness) == (0.0, want.witness)
    assert len(set(got.witness)) == N + 1
    if len(set(pts)) == 1:
        assert got.as_dict() == want.as_dict()
    # the same matrices in one stack, beside one with positive distances
    other = np.array([[abs(i - j) for j in range(len(pts))]
                      for i in range(len(pts))], dtype=float)
    lower, upper, chosen = diam_n_bounds_stacked(np.stack([D, other]), N)
    assert ((lower[0], upper[0], tuple(chosen[0]))
            == (0.0, got.value_upper, got.witness))
    assert all(len(set(row)) == N + 1 for row in chosen.tolist())


def test_bounds_single_subset_case():
    pts = random_cloud(np.random.default_rng(3), 5)
    bnd = diam_n_bounds(pts, euclid, 4)
    val = min(euclid(a, b) for a, b in itertools.combinations(pts, 2))
    assert bnd.exact
    assert bnd.value == pytest.approx(val, abs=1e-12)


def test_connected_grid_lower_bound():
    # connected-set surrogate: diam(A)/N <= diam_N(A), checked on a
    # segment grid up to one grid spacing (exact solver; the greedy
    # lower bound is only a 2-approximation and cannot promise this)
    L, m = 5.0, 41
    pts = [(L * i / (m - 1),) for i in range(m)]
    spacing = L / (m - 1)
    for N in (2, 3, 4):
        res = diam_n_exact(pts, euclid, N)
        assert res.value >= L / N - spacing - 1e-12
        bnd = diam_n_bounds(pts, euclid, N)
        assert bnd.value_lower >= res.value / 2 - 1e-12
        assert bnd.value_upper >= res.value - 1e-12


# ---------------------------------------------------------------------------
# property suite
# ---------------------------------------------------------------------------

@given(st.integers(0, 1000))
@settings(max_examples=30, deadline=None)
def test_diam1_equals_diameter(seed):
    rng = np.random.default_rng(seed)
    pts = random_cloud(rng, int(rng.integers(2, 10)))
    res = diam_n_exact(pts, euclid, 1)
    diam = max(euclid(a, b) for a, b in itertools.combinations(pts, 2))
    assert res.value == pytest.approx(diam, abs=1e-12)


@given(st.integers(0, 1000))
@settings(max_examples=30, deadline=None)
def test_zero_iff_few_points(seed):
    rng = np.random.default_rng(seed)
    m = int(rng.integers(2, 9))
    pts = random_cloud(rng, m)
    assert diam_n_exact(pts, euclid, m).value == 0.0
    assert diam_n_exact(pts, euclid, m - 1).value > 0.0


@given(st.integers(0, 1000))
@settings(max_examples=30, deadline=None)
def test_antitone_in_N(seed):
    rng = np.random.default_rng(seed)
    pts = random_cloud(rng, 9)
    vals = [diam_n_exact(pts, euclid, N).value for N in range(1, 6)]
    for a, b in zip(vals, vals[1:]):
        assert b <= a + 1e-12


@given(st.integers(0, 1000))
@settings(max_examples=30, deadline=None)
def test_monotone_in_sets(seed):
    rng = np.random.default_rng(seed)
    pts = random_cloud(rng, 10)
    sub = pts[:6]
    for N in (1, 2, 3):
        assert (diam_n_exact(sub, euclid, N).value
                <= diam_n_exact(pts, euclid, N).value + 1e-12)


@given(st.integers(0, 1000))
@settings(max_examples=30, deadline=None)
def test_duplicate_point_is_neutral(seed):
    rng = np.random.default_rng(seed)
    pts = random_cloud(rng, 8)
    for N in (1, 2, 3):
        base = diam_n_exact(pts, euclid, N).value
        dup = diam_n_exact(pts + [pts[0]], euclid, N).value
        assert dup == pytest.approx(base, abs=1e-12)
