"""Torus and Klein bottle quotients: orbits, distances, minimal geodesics."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flatheat import (InvalidParameter, glide, klein_bottle, minimal_geodesic,
                      orbit_representatives, surface_distance, torus)


def klein_distance_closed_form(b, x, y):
    """Independent Klein-bottle distance: separable wraps on both branches.

    The orientation cover is the rectangular lattice {(1,0), (0,2b)}; the
    glide branch shifts by (1 - 2 y1 ... ) after reflecting, so both branches
    reduce to coordinate-wise wrapped differences.
    """
    def wrap(d, period):
        return abs(d - period * round(d / period))

    direct = math.hypot(wrap(x[0] - y[0], 1.0), wrap(x[1] - y[1], 2 * b))
    glided = math.hypot(wrap(x[0] - (1.0 - y[0]), 1.0),
                        wrap(x[1] - (y[1] + b), 2 * b))
    return min(direct, glided)


def test_glide_involution_on_the_quotient():
    kb = klein_bottle(1.3)
    y = np.array([0.3, 0.4])
    twice = glide(kb, glide(kb, y))
    # applying the glide twice is the deck translation (0, 2b)
    assert np.abs(twice - (y + np.array([0.0, 2 * 1.3]))).max() < 1e-15


def test_orbit_representatives_are_equidistant_points():
    kb = klein_bottle(0.9)
    y = np.array([0.22, 0.51])
    reps = orbit_representatives(kb, y, shell=2)
    assert len(reps) == 2 * 25
    d0 = surface_distance(kb, (0.05, 0.1), y)
    for rep in reps[::7]:
        assert surface_distance(kb, (0.05, 0.1), rep) - d0 < 1e-12


def test_torus_surface_distance_matches_lattice_metric():
    t = torus(0.3, 1.2)
    assert abs(surface_distance(t, (0, 0), (0.85, 0.0)) - 0.15) < 1e-13
    assert surface_distance(t, (0.4, 0.3), (0.4, 0.3)) == 0.0


def test_klein_distance_examples():
    kb = klein_bottle(1.5)
    # direct branch wins: vertical gap 0.4 vs glide branch 1.1
    assert abs(surface_distance(kb, (0.0, 0.0), (0.0, 0.4)) - 0.4) < 1e-13
    # glide branch wins: image of (0, 0.9) at (1, 2.4) ~ (0, 2.4), gap 0.6
    assert abs(surface_distance(kb, (0.0, 0.0), (0.0, 0.9)) - 0.6) < 1e-13
    # the glide brings (0.9, 0.2) near (0.1, 0.2 + b)
    d = surface_distance(kb, (0.1, 1.7), (0.9, 0.2))
    assert abs(d - klein_distance_closed_form(1.5, (0.1, 1.7), (0.9, 0.2))) < 1e-13


def test_klein_distance_closed_form_random(rng):
    for b in (0.8, 1.0, 1.5):
        kb = klein_bottle(b)
        for _ in range(60):
            x = rng.uniform(-1, 2, 2)
            y = rng.uniform(-1, 2, 2)
            assert abs(surface_distance(kb, x, y)
                       - klein_distance_closed_form(b, x, y)) < 1e-12


def test_klein_distance_symmetry_and_triangle(rng):
    kb = klein_bottle(1.1)
    for _ in range(25):
        x, y, z = rng.uniform(0, 2, (3, 2))
        dxy = surface_distance(kb, x, y)
        assert abs(dxy - surface_distance(kb, y, x)) < 1e-13
        assert dxy <= (surface_distance(kb, x, z)
                       + surface_distance(kb, z, y) + 1e-12)


def test_klein_distance_glide_invariance(rng):
    kb = klein_bottle(0.85)
    for _ in range(25):
        x, y = rng.uniform(0, 1, (2, 2))
        d = surface_distance(kb, x, y)
        assert abs(d - surface_distance(kb, glide(kb, x), y)) < 1e-12
        assert abs(d - surface_distance(kb, x, glide(kb, y))) < 1e-12


def test_minimal_geodesic_torus_vertical():
    t = torus(0.3, 1.2)
    geo = minimal_geodesic(t, (0.0, 0.0), (0.0, 1.0))
    expected = (0.3 ** 2 + 1.2 ** 2) / (2 * 1.2)
    assert abs(geo.s_max - expected) < 1e-9


def test_minimal_geodesic_klein_vertical_value():
    kb = klein_bottle(1.0)
    geo = minimal_geodesic(kb, (0.25, 0.0), (0.0, 1.0))
    # equidistance with the glide image column at horizontal gap 1/2:
    # s = (0.5^2 + 1^2) / 2 = 0.625
    assert abs(geo.s_max - 0.625) < 1e-9


def test_minimal_geodesic_klein_gap_wraps():
    # for xi < 1/4 the nearest glide column sits at gap 2*xi, not 1 - 2*xi
    b, xi = 1.5, 0.2
    kb = klein_bottle(b)
    geo = minimal_geodesic(kb, (xi, 0.0), (0.0, 1.0))
    gap = min(2 * xi, 1 - 2 * xi)
    expected = (gap * gap + b * b) / (2 * b)
    assert abs(geo.s_max - expected) < 1e-9


def test_minimal_geodesic_is_tight(rng):
    # distance equals arc length up to s_max; beyond it, strictly shorter.
    # Small heights put many orbit points near the segment; base points off
    # [0, 1) check that only x1 mod 1 enters the glide offsets.
    surfaces = [torus(0.3, 1.2)] + [klein_bottle(b) for b in (0.2, 0.5, 1.2, 2.5)]
    for surface in surfaces:
        bases = list(rng.uniform(0, 1, (15, 2))) + [(-0.7, 0.35), (3.2, 0.8)]
        for base in np.asarray(bases):
            ang = rng.uniform(0, 2 * math.pi)
            u = np.array([math.cos(ang), math.sin(ang)])
            geo = minimal_geodesic(surface, base, u)
            for frac in (0.25, 0.6, 0.999):
                s = frac * geo.s_max
                assert abs(surface_distance(surface, base, base + s * u) - s) < 1e-9
            s_past = 1.01 * geo.s_max
            assert (surface_distance(surface, base, base + s_past * u)
                    < s_past - 1e-12) or geo.s_max > 1e3


def test_minimal_geodesic_rejects_zero_direction():
    with pytest.raises((InvalidParameter, ValueError)):
        minimal_geodesic(torus(0.0, 1.0), (0.0, 0.0), (0.0, 0.0))


def test_minimal_geodesic_rejects_non_finite_input():
    nan = float("nan")
    for surface in (torus(0.3, 1.2), klein_bottle(0.8)):
        with pytest.raises(InvalidParameter):
            minimal_geodesic(surface, (nan, 0.0), (1.0, 0.0))
        with pytest.raises(InvalidParameter):
            minimal_geodesic(surface, (0.0, 0.0), (float("inf"), 1.0))


def test_minimal_geodesic_rejects_non_finite_direction_and_stores_floats():
    nan = float("nan")
    for surface in (torus(0.3, 1.2), klein_bottle(0.8)):
        for u in [(nan, 0.0), (1.0, nan), (1.5e308, 1.5e308)]:
            with pytest.raises(InvalidParameter):
                minimal_geodesic(surface, (0.0, 0.0), u)
        geo = minimal_geodesic(surface, np.array([0.25, 0.5]), np.array([3.0, 4.0]))
        assert geo.base == (0.25, 0.5) and geo.direction == (0.6, 0.8)
        assert all(type(c) is float for c in geo.base + geo.direction)
        assert "np." not in repr(geo)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_surface_distance_rejects_non_finite_points():
    nan, inf = float("nan"), float("inf")
    for surface in (torus(0.3, 1.2), torus(0.0, 1.0), klein_bottle(0.8)):
        # the last two pairs are finite, but x - h(y) overflows
        for x, y in [((nan, 0.0), (0.1, 0.2)), ((0.0, 0.0), (0.1, inf)),
                     ((0.0, 0.0), (-inf, 0.2)), ((1e308, 0.0), (-1e308, 0.0)),
                     ((0.0, 1e308), (0.0, -1e308))]:
            with pytest.raises(InvalidParameter):
                surface_distance(surface, x, y)


def test_orbit_representatives_takes_non_negative_integer_shells():
    kb = klein_bottle(1.3)
    for shell in (1.5, -1, "2", None):
        with pytest.raises(InvalidParameter):
            orbit_representatives(kb, (0.2, 0.3), shell)
    assert len(orbit_representatives(kb, (0.2, 0.3), 0)) == 2
    assert len(orbit_representatives(kb, (0.2, 0.3), np.int64(2))) == 2 * 25
    assert len(orbit_representatives(torus(0.3, 1.2), (0.2, 0.3), 1)) == 9


def test_klein_bottle_rejects_bad_height():
    with pytest.raises(InvalidParameter):
        klein_bottle(-1.0)
    with pytest.raises(InvalidParameter):
        klein_bottle(float("nan"))
