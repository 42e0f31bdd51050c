"""Point representations, the circle helpers, and symbolic words."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ndistal.points import (Annulus, OrbitIndex, PointCloud, SymbolicPoint,
                            Torus, circ_gap, first_diff_radius, mod1,
                            periodic_point, symbolic_distance, word_point)


def test_mod1_basics():
    assert mod1(0.0) == 0.0
    assert mod1(1.0) == 0.0
    assert mod1(1.25) == pytest.approx(0.25)
    assert mod1(-0.25) == pytest.approx(0.75)


@given(st.floats(-100, 100))
def test_mod1_range(t):
    assert 0.0 <= mod1(t) < 1.0


@given(st.floats(-10, 10), st.floats(-10, 10))
def test_circ_gap_signed_and_bounded(a, b):
    g = circ_gap(a, b)
    assert -0.5 <= g <= 0.5
    if abs(g) < 0.5:
        assert g == pytest.approx(-circ_gap(b, a), abs=1e-12)


def test_circ_gap_wraps():
    assert circ_gap(0.05, 0.95) == pytest.approx(0.1)
    assert circ_gap(0.0, 0.5) == pytest.approx(0.5)


def test_torus_point_normalizes():
    p = Torus(1.25, -0.5)
    assert p.x == pytest.approx(0.25)
    assert p.y == pytest.approx(0.5)


def test_annulus_rejects_bad_radius():
    with pytest.raises(Exception):
        Annulus(0.0, -1.0)


def test_orbit_index_identity():
    assert OrbitIndex(3) == OrbitIndex(3, 0)
    assert OrbitIndex(3, 1) != OrbitIndex(3, 0)


def test_word_point_get():
    w = word_point((1, 0, 1), origin=-1)
    assert [w.get(i) for i in range(-3, 4)] == [0, 0, 1, 0, 1, 0, 0]


def test_periodic_point_get():
    p = periodic_point((0, 1))
    assert [p.get(i) for i in range(-2, 4)] == [0, 1, 0, 1, 0, 1]


def test_shifted_relabels_indices():
    w = word_point((1, 1, 0, 1))
    s = w.shifted(2)
    for i in range(-6, 7):
        assert s.get(i) == w.get(i + 2)


def test_first_diff_radius():
    a = word_point((1,))
    b = word_point((0,))
    assert first_diff_radius(a, b) == 0
    c = word_point((0, 0, 1), origin=0)
    assert first_diff_radius(b, c) == 2


def test_symbolic_distance_scale():
    zero = word_point(())
    one_at = lambda i: word_point((1,), origin=i)
    assert symbolic_distance(zero, one_at(0)) == 1.0
    assert symbolic_distance(zero, one_at(3)) == pytest.approx(2.0 ** -3)
    assert symbolic_distance(zero, one_at(-3)) == pytest.approx(2.0 ** -3)
    assert symbolic_distance(zero, zero) == 0.0


def test_symbolic_distance_periodic_vs_word():
    ones = periodic_point((1,))
    zero = word_point(())
    assert symbolic_distance(ones, zero) == 1.0


@given(st.integers(-8, 8), st.integers(-8, 8))
def test_symbolic_distance_shift_scaling(i, j):
    a = word_point((1,), origin=i)
    b = word_point((1,), origin=j)
    d = symbolic_distance(a, b)
    if i == j:
        assert d == 0.0
    else:
        assert d == pytest.approx(2.0 ** -min(abs(i), abs(j)))


def test_point_cloud_index_of():
    pts = (Torus(0, 0), Torus(0.5, 0.5), Annulus(0, 1))
    cloud = PointCloud(pts, "test", "none")
    assert len(cloud) == 3
    assert cloud[1] == Torus(0.5, 0.5)
    assert cloud.index_of(Annulus(0, 1)) == 2
    with pytest.raises(ValueError):
        cloud.index_of(Torus(0.1, 0.1))
