"""Lattice reduction, classification, Voronoi geometry, and torus distances.

Reduction results are cross-checked against a brute-force shortest-vector
search, so the canonical (a, b) values here are independently derived rather
than copied from the implementation.
"""
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flatheat import (DegenerateBasis, InvalidParameter, LatticeTag, RawBasis,
                      ReducedLattice, classify, covering_radius, cut_distance,
                      dual, reduce, surface_distance, torus, torus_distance, voronoi)
from flatheat.kernels import heat_values
from flatheat.lattice import _recentre

HONEYCOMB_B = math.sqrt(3.0) / 2.0


def brute_force_canonical(u, v):
    """Canonical (a, b, scale) via exhaustive search over small coefficients.

    Scans all integer combinations m*u + n*v with |m|, |n| <= 8 for the
    shortest vector, then the shortest independent one, and normalizes the
    pair the same way the reduction contract does: first vector to (1, 0),
    second to (-a, b) with 0 <= a <= 1/2 and b > 0.
    """
    u, v = np.asarray(u, float), np.asarray(v, float)
    coeffs = [(m, n) for m in range(-8, 9) for n in range(-8, 9) if (m, n) != (0, 0)]
    vecs = np.array([m * u + n * v for m, n in coeffs])
    norms = np.hypot(vecs[:, 0], vecs[:, 1])
    p = vecs[np.argmin(norms)]
    cross = vecs[:, 0] * p[1] - vecs[:, 1] * p[0]
    indep = np.abs(cross) > 1e-9 * norms * np.hypot(*p)
    qs = vecs[indep]
    q = qs[np.argmin(np.hypot(qs[:, 0], qs[:, 1]))]
    scale = float(np.hypot(*p))
    # coordinates of q in the frame where p -> (1, 0)
    x = float(q @ p) / (scale * scale)
    y = float(q[0] * p[1] - q[1] * p[0]) / (scale * scale)
    b = abs(y)
    a = -x
    a -= round(a)  # representative in [-1/2, 1/2]
    a = abs(a)
    return a, b, scale


def test_reduce_identity_square():
    red = reduce((1.0, 0.0), (0.0, 1.0))
    assert red.a == 0.0
    assert red.b == 1.0
    assert red.scale == 1.0
    assert red.reflect is False


def test_reduce_known_example():
    # (3,1), (1,2) spans a square lattice of covolume 5
    red = reduce((3.0, 1.0), (1.0, 2.0))
    assert abs(red.a - 0.0) < 1e-12
    assert abs(red.b - 1.0) < 1e-12
    assert abs(red.scale - math.sqrt(5.0)) < 1e-12
    assert classify(red).tag is LatticeTag.SQUARE


def test_reduce_honeycomb_rotated():
    theta = 0.7
    c, s = math.cos(theta), math.sin(theta)
    rot = np.array([[c, -s], [s, c]])
    u = rot @ np.array([2.0, 0.0])
    v = rot @ np.array([1.0, math.sqrt(3.0)])
    red = reduce(u, v)
    assert abs(red.a - 0.5) < 1e-12
    assert abs(red.b - HONEYCOMB_B) < 1e-12
    assert abs(red.scale - 2.0) < 1e-12
    assert classify(red).tag is LatticeTag.HONEYCOMB


def test_reduce_matches_brute_force(rng):
    # skew kept moderate so the +-8 coefficient scan provably sees the
    # shortest pair; wild skews are covered by the reconstruction test
    for _ in range(50):
        a = rng.uniform(0.0, 0.5)
        b = rng.uniform(math.sqrt(max(0.0, 1 - a * a)) + 1e-3, 2.0)
        mats = ([1, 0, 0, 1], [2, 1, 1, 1], [3, -1, -2, 1], [1, 3, 0, 1], [-1, 2, 1, -3])
        m = np.array(mats[int(rng.integers(len(mats)))], float).reshape(2, 2)
        theta = rng.uniform(0, 2 * math.pi)
        c, s = math.cos(theta), math.sin(theta)
        rot = np.array([[c, -s], [s, c]])
        scale_in = 10.0 ** rng.uniform(-1, 1)
        rows = (m @ np.array([[1.0, 0.0], [-a, b]])) @ rot.T * scale_in
        if rng.uniform() < 0.5:
            rows = rows @ np.diag([1.0, -1.0])  # mirrored copy
        red = reduce(rows[0], rows[1])
        ab, bb, scale = brute_force_canonical(rows[0], rows[1])
        assert abs(red.a - ab) < 1e-9 * max(1.0, ab)
        assert abs(red.b - bb) < 1e-9 * bb
        assert abs(red.scale - scale) < 1e-9 * scale
        assert abs(red.a - a) < 1e-9
        assert abs(red.b - b) < 1e-9 * b


def test_reduce_reconstruction_exact(rng):
    # the stored transform must reproduce the input basis, chirality included
    for _ in range(50):
        rows = rng.normal(size=(2, 2))
        if abs(np.linalg.det(rows)) < 1e-3:
            continue
        red = reduce(rows[0], rows[1])
        rebuilt = red.reconstruct_basis()
        assert np.abs(rebuilt - rows).max() < 1e-12 * max(1.0, np.abs(rows).max())


def test_reduce_chiral_pair_flags_reflection():
    red_plain = reduce((1.0, 0.0), (-0.3, 1.2))
    mirrored = reduce((1.0, 0.0), (-0.3, -1.2))
    assert red_plain.reflect is False
    assert mirrored.reflect is True
    assert abs(mirrored.a - red_plain.a) < 1e-12
    assert abs(mirrored.b - red_plain.b) < 1e-12


def test_reduce_idempotent_on_canonical(rng):
    for _ in range(20):
        a = rng.uniform(0.0, 0.5)
        b = rng.uniform(math.sqrt(max(0.0, 1 - a * a)) + 1e-6, 3.0)
        red = reduce((1.0, 0.0), (-a, b))
        assert abs(red.a - a) < 1e-12
        assert abs(red.b - b) < 1e-12
        assert abs(red.scale - 1.0) < 1e-12


def test_reduce_rejects_dependent_basis():
    with pytest.raises(DegenerateBasis):
        reduce((1.0, 2.0), (2.0, 4.0))
    with pytest.raises(DegenerateBasis):
        RawBasis((1.0, 0.0), (1.0 + 1e-15, 1e-15))


def test_degenerate_basis_message_prints_plain_floats():
    with pytest.raises(DegenerateBasis) as info:
        RawBasis((1.0, 0.0), np.array([1.0, 1e-15]))
    assert str(info.value) == "basis (1.0, 0.0), (1.0, 1e-15) is numerically dependent"


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_reduce_vectors_of_far_apart_lengths():
    # the same rectangle at ratios whose p . p is normal and underflows
    for ratio in (1e-150, 1e-170, 1e-300):
        red = reduce((1.0, 0.0), (0.0, ratio))
        ref = reduce((1.0, 0.0), (0.0, 1e-150))
        assert (red.a, red.rotation, red.basis_change, red.reflect) == \
            (ref.a, ref.rotation, ref.basis_change, ref.reflect)
        assert abs(red.b * ratio - 1.0) < 1e-15 and abs(red.scale / ratio - 1.0) < 1e-15
        rows = np.array([[1.0, 0.0], [0.0, ratio]])
        assert np.abs(red.reconstruct_basis() - rows).max() <= 1e-16
    with pytest.raises(InvalidParameter):
        reduce((1.0, 0.0), (0.0, 1e-310))       # b overflows a float
    with pytest.raises(InvalidParameter):
        reduce((1e-150, 0.0), (0.5, 0.5))       # basis change entries near 5e149



@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_reduce_extreme_scales():
    ref = reduce((3.0, 1.0), (1.0, 2.0))
    for factor in (1e300, 1e-300):
        RawBasis((factor, 0.0), (0.0, factor))
        red = reduce((3.0 * factor, 1.0 * factor), (1.0 * factor, 2.0 * factor))
        assert abs(red.a - ref.a) < 1e-12 and abs(red.b - ref.b) < 1e-12
        assert (red.basis_change, red.reflect) == (ref.basis_change, ref.reflect)
        assert abs(red.scale / (ref.scale * factor) - 1.0) < 1e-12
    # scaling by a power of two is exact, so only the scale moves
    for e in (-1070, -996, 996, 1020):
        red = reduce((math.ldexp(3.0, e), math.ldexp(1.0, e)),
                     (math.ldexp(1.0, e), math.ldexp(2.0, e)))
        assert (red.a, red.b, red.rotation, red.basis_change, red.reflect) == \
            (ref.a, ref.b, ref.rotation, ref.basis_change, ref.reflect)
        assert red.scale == math.ldexp(ref.scale, e)
    with pytest.raises(InvalidParameter):
        reduce((1.7e308, 1.7e308), (-1.7e308, 1.7e308))


@settings(max_examples=60, deadline=None)
@given(
    a=st.floats(0.01, 0.49),
    bex=st.floats(0.02, 1.0),
    m11=st.integers(-3, 3), m12=st.integers(-3, 3), m21=st.integers(-3, 3),
    theta=st.floats(0.0, 6.28),
    scale=st.floats(0.1, 10.0),
)
def test_reduce_invariant_under_unimodular_action(a, bex, m11, m12, m21, theta, scale):
    """(a, b) depends only on the lattice, not the presenting basis."""
    b = math.sqrt(max(0.0, 1.0 - a * a)) + bex
    det = m11 * 1 - m12 * m21
    m22 = (1 + m12 * m21) // m11 if m11 != 0 and (1 + m12 * m21) % m11 == 0 else None
    if m22 is None or abs(m22) > 40:
        m11, m12, m21, m22 = 1, 0, 2, 1  # fall back to a fixed unimodular matrix
    mat = np.array([[m11, m12], [m21, m22]], float)
    assert abs(round(np.linalg.det(mat))) == 1
    c, s = math.cos(theta), math.sin(theta)
    rot = np.array([[c, -s], [s, c]])
    rows = np.array([[1.0, 0.0], [-a, b]])
    moved = (mat @ rows) @ rot.T * scale
    red = reduce(moved[0], moved[1])
    assert abs(red.a - a) < 1e-8
    assert abs(red.b - b) < 1e-8 * b
    assert abs(red.scale - scale) < 1e-8 * scale


def test_classify_all_tags():
    cases = [
        ((0.0, 1.0), LatticeTag.SQUARE),
        ((0.0, 1.7), LatticeTag.RECTANGULAR),
        ((0.5, HONEYCOMB_B), LatticeTag.HONEYCOMB),
        ((0.3, math.sqrt(1 - 0.09)), LatticeTag.ISOSCELES),
        ((0.3, 1.2), LatticeTag.GENERIC),
    ]
    for (a, b), tag in cases:
        red = ReducedLattice.from_parameters(a, b)
        assert classify(red).tag is tag


def test_classify_ties_prefer_more_symmetric():
    # honeycomb is also isosceles; the honeycomb tag must win
    red = ReducedLattice.from_parameters(0.5, HONEYCOMB_B)
    assert classify(red).tag is LatticeTag.HONEYCOMB
    # a within tol of 0 beats the isosceles test
    red = ReducedLattice.from_parameters(1e-12, 1.0)
    assert classify(red).tag is LatticeTag.SQUARE



def test_classify_rejects_bad_tolerance():
    red = ReducedLattice.from_parameters(0.0, 1.0)
    for tol in (math.nan, math.inf, -1.0, -1e-300):
        with pytest.raises(InvalidParameter):
            classify(red, tol=tol)
    assert classify(red, tol=0.0).tag is LatticeTag.SQUARE

def test_dual_pairings_are_integral():
    red = ReducedLattice.from_parameters(0.3, 1.2)
    d = dual(red).matrix
    pairings = d @ red.basis.T
    assert np.abs(pairings - np.eye(2)).max() < 1e-14


def test_voronoi_honeycomb_is_regular_hexagon():
    cell = voronoi(ReducedLattice.from_parameters(0.5, HONEYCOMB_B))
    assert len(cell.vertices) == 6
    norms = np.hypot(cell.vertices[:, 0], cell.vertices[:, 1])
    assert np.abs(norms - 1.0 / math.sqrt(3.0)).max() < 1e-12
    assert abs(cell.area - HONEYCOMB_B) < 1e-12


def test_voronoi_rectangle_case():
    cell = voronoi(ReducedLattice.from_parameters(0.0, 1.5))
    assert len(cell.vertices) == 4
    assert abs(cell.area - 1.5) < 1e-12
    assert np.abs(np.abs(cell.vertices[:, 0]) - 0.5).max() < 1e-12
    assert np.abs(np.abs(cell.vertices[:, 1]) - 0.75).max() < 1e-12


def test_voronoi_area_equals_covolume(rng):
    for _ in range(25):
        a = rng.uniform(0.0, 0.5)
        b = rng.uniform(math.sqrt(max(0.0, 1 - a * a)) + 1e-3, 2.5)
        red = ReducedLattice.from_parameters(a, b)
        assert abs(voronoi(red).area - b) < 1e-10 * b


def test_cut_distance_examples():
    hc = ReducedLattice.from_parameters(0.5, HONEYCOMB_B)
    # vertical direction exits through the hexagon edge at height b/2... no:
    # the hexagon edge normal to (0,1) comes from the lattice vector (-a, b)
    assert abs(cut_distance(hc, (0.0, 1.0)) - 1.0 / math.sqrt(3.0)) < 1e-12
    assert abs(cut_distance(hc, (1.0, 0.0)) - 0.5) < 1e-12
    gen = ReducedLattice.from_parameters(0.3, 1.2)
    expected = (0.3 ** 2 + 1.2 ** 2) / (2 * 1.2)
    assert abs(cut_distance(gen, (0.0, 1.0)) - expected) < 1e-12


def test_reduced_lattice_rejects_bad_parameters():
    nan, inf = float("nan"), float("inf")
    for a, b in [(0.25, 0.968), (0.6, 1.0), (-0.1, 1.0), (0.0, -1.0),
                 (0.0, nan), (nan, 1.0), (0.0, inf), (inf, 1.0)]:
        with pytest.raises(InvalidParameter):
            ReducedLattice.from_parameters(a, b)
    with pytest.raises(InvalidParameter):
        ReducedLattice(a=0.0, b=1.0, scale=0.0, rotation=0.0,
                       basis_change=((1, 0), (0, 1)))
    with pytest.raises(InvalidParameter):
        ReducedLattice(a=0.0, b=1.0, scale=1.0, rotation=0.0,
                       basis_change=((2, 0), (0, 1)))


def test_cut_distance_rejects_zero_direction():
    with pytest.raises(InvalidParameter):
        cut_distance(ReducedLattice.from_parameters(0.0, 1.0), (0.0, 0.0))


def test_cut_distance_is_voronoi_membership_threshold(rng):
    # s < cut: s*u stays closest to 0; s > cut: some lattice shift is closer
    for _ in range(40):
        a = rng.uniform(0.0, 0.5)
        b = rng.uniform(math.sqrt(max(0.0, 1 - a * a)) + 1e-3, 2.0)
        red = ReducedLattice.from_parameters(a, b)
        ang = rng.uniform(0, 2 * math.pi)
        u = np.array([math.cos(ang), math.sin(ang)])
        cut = cut_distance(red, u)
        inside = 0.98 * cut * u
        outside = 1.02 * cut * u
        assert torus_distance(red, inside, (0, 0)) > 0.98 * cut - 1e-12
        assert torus_distance(red, outside, (0, 0)) < 1.02 * cut - 1e-12


def test_torus_distance_wraps_generic():
    red = ReducedLattice.from_parameters(0.3, 1.2)
    # the vertical segment from the origin to (0, 1.2) wraps through (-0.3, 1.2)
    assert abs(torus_distance(red, (0.0, 0.0), (0.0, 1.15)) - 0.3041381265149109) < 1e-12
    assert abs(torus_distance(red, (0.0, 0.0), (0.85, 0.0)) - 0.15) < 1e-12
    assert torus_distance(red, (0.2, 0.7), (0.2, 0.7)) == 0.0


def test_torus_distance_frozen_value():
    # displacement (0.45, 0.75) wraps by (1,0) + (-0.3,1.2) to (0.25, 0.45)
    red = ReducedLattice.from_parameters(0.3, 1.2)
    expected = math.sqrt(0.25 ** 2 + 0.45 ** 2)
    assert abs(torus_distance(red, (0.0, 0.0), (0.45, 0.75)) - expected) < 1e-12


def test_torus_distance_symmetry_and_triangle(rng):
    red = ReducedLattice.from_parameters(0.4, 1.1)
    pts = rng.uniform(-1.5, 1.5, size=(30, 2))
    for i in range(0, 30, 3):
        x, y, z = pts[i], pts[i + 1], pts[i + 2]
        dxy = torus_distance(red, x, y)
        assert abs(dxy - torus_distance(red, y, x)) < 1e-13
        assert dxy <= torus_distance(red, x, z) + torus_distance(red, z, y) + 1e-12


def test_cut_distance_rejects_non_finite_direction():
    # NaN or infinite components, or a length that overflows, leave no unit
    # direction; the cut must not come back as inf
    lat = ReducedLattice.from_parameters(0.3, 1.2)
    nan, inf = float("nan"), float("inf")
    for u in [(nan, 0.0), (inf, 1.0), (1.0, -inf), (0.0, nan), (1.5e308, 1.5e308)]:
        with pytest.raises(InvalidParameter):
            cut_distance(lat, u)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_torus_distance_rejects_non_finite_points():
    lat = ReducedLattice.from_parameters(0.3, 1.2)
    nan, inf = float("nan"), float("inf")
    # the last pair is finite, but x - y overflows
    for x, y in [((nan, 0.0), (0.1, 0.2)), ((0.0, 0.0), (inf, 0.2)),
                 ((1e308, 0.0), (-1e308, 0.0))]:
        with pytest.raises(InvalidParameter):
            torus_distance(lat, x, y)


def _reduced_by_cramer(rows, x):
    """x - n0 u - n1 v for basis rows u, v, with n the nearest integers to the
    lattice coordinates of x by Cramer's rule, all in fractions, rounded once."""
    (u0, u1), (v0, v1) = [[Fraction(w) for w in row] for row in rows]
    x0, x1 = map(Fraction, x)
    det = u0 * v1 - u1 * v0
    n0, n1 = round((x0 * v1 - x1 * v0) / det), round((x1 * u0 - x0 * u1) / det)
    return float(x0 - n0 * u0 - n1 * v0), float(x1 - n0 * u1 - n1 * v1)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_far_points_reduce_exactly():
    """Points far out, along both basis vectors and out to 1e308, reduce to
    the exact reduction rounded once, and keep its distance and heat values,
    with no RuntimeWarning.  In float arithmetic k v rounds: the reduced
    point moved by about 4e-8 at x = 1e9 (-0.3, 1.2) + (0.25, 0.3), and by
    whole lattice vectors from x = (0, 3e17) on."""
    surface = torus(0.3, 1.2)
    rows = ((1.0, 0.0), (-0.3, 1.2))
    y = (0.0, 0.0)
    far = [(1e9 * -0.3 + 0.25, 1e9 * 1.2 + 0.3), (1e9 + 0.25, 0.3), (0.0, 3e17),
           (0.0, 1.7e308), (1.7e308, 1.7e308), (-1.7e308, 2.5e-300)]
    got = _recentre(rows, far)
    for x, d0 in zip(far, got.T.tolist()):
        x0 = _reduced_by_cramer(rows, x)
        assert tuple(d0) == x0, x
        assert abs(torus_distance(surface.lattice, x, y)
                   - torus_distance(surface.lattice, x0, y)) <= 1e-15
        assert abs(surface_distance(surface, x, y) - surface_distance(surface, x0, y)) <= 1e-15
        for rep in ("image", "spectral"):
            v, e, _, _ = heat_values(surface, 0.1, np.array(x), np.array(y), representation=rep)
            w, f, _, _ = heat_values(surface, 0.1, np.array(x0), np.array(y), representation=rep)
            assert abs(v - w) <= e + f + 1e-13, (x, rep)
    # a near point in a batch with far ones keeps its float reduction
    near = (0.7, -0.4)
    assert (_recentre(rows, [far[0], near])[:, 1] == _recentre(rows, near)[:, 0]).all()


def test_torus_distance_brute_force(rng):
    red = ReducedLattice.from_parameters(0.25, 1.3)
    shifts = np.array([(m, n) for m in range(-4, 5) for n in range(-4, 5)], float)
    table = shifts @ red.basis
    for _ in range(200):
        x = rng.uniform(-1, 1, 2)
        y = rng.uniform(-1, 1, 2)
        d = x - y
        brute = np.min(np.hypot(*(d[None, :] - table).T))
        assert abs(torus_distance(red, x, y) - brute) < 1e-12


def test_covering_radius_values():
    assert abs(covering_radius(ReducedLattice.from_parameters(0.0, 1.0))
               - math.sqrt(0.5)) < 1e-12
    assert abs(covering_radius(ReducedLattice.from_parameters(0.5, HONEYCOMB_B))
               - 1.0 / math.sqrt(3.0)) < 1e-12


def test_covering_radius_is_farthest_voronoi_vertex(rng):
    # the closed form against the Voronoi cell, including the rectangular,
    # honeycomb-edge (a = 1/2) and isosceles (a^2 + b^2 = 1) boundaries
    a = np.concatenate([rng.uniform(0.0, 0.5, 1994), [0.0, 0.0, 0.5, 0.5, 0.3, 0.0]])
    lo = np.sqrt(1.0 - a * a)
    b = np.concatenate([lo[:1994] + rng.uniform(0.0, 3.0, 1994),
                        [1.0, 2.5, HONEYCOMB_B, 1.7, lo[-2], 1.0]])
    for ai, bi in zip(a, b):
        red = ReducedLattice.from_parameters(ai, bi)
        v = voronoi(red).vertices
        farthest = float(np.max(np.hypot(v[:, 0], v[:, 1])))
        assert abs(covering_radius(red) - farthest) <= 1e-14 * farthest
