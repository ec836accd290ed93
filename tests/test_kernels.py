"""Certified heat-kernel evaluation and spectral projections.

Oracles: an exhaustive Gaussian double sum for small times (converged to all
digits at t <= 0.25), central finite differences for gradients, midpoint
quadrature for mass/semigroup identities, and closed-form eigenvalue data.
"""
import itertools
import math
import tracemalloc
from collections import OrderedDict
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flatheat import (InvalidParameter, KernelQuery, ModeSurfaceMismatch,
                      NonPositiveTime, ToleranceUnreachable, eigenbasis_gradients,
                      eigenbasis_values, enumerate_modes, fundamental_domain_grid, glide,
                      gradient_sum_check, heat_kernel, heat_kernel_gradient,
                      klein_bottle, principal_eigenvalue,
                      projection_diagonal_scan, projection_gradient,
                      projection_kernel, torus)
import flatheat
from flatheat import kernels
from flatheat.kernels import heat_gradient_values, heat_values
from flatheat.lattice import _recentre

HONEYCOMB_B = math.sqrt(3.0) / 2.0
FOUR_PI_SQ = 4.0 * math.pi ** 2


def brute_force_torus_kernel(a, b, t, x, y, span=14):
    """Image-sum oracle: plain double loop, converged for t <= 0.25."""
    x, y = np.asarray(x, float), np.asarray(y, float)
    total = 0.0
    for m in range(-span, span + 1):
        for n in range(-span, span + 1):
            shift = m * np.array([1.0, 0.0]) + n * np.array([-a, b])
            d = x - y + shift
            total += math.exp(-(d @ d) / (4 * t))
    return total / (4 * math.pi * t)


def brute_force_klein_kernel(b, t, x, y, span=14):
    """Double-cover oracle: direct images plus glide images, halved weight.

    The cover torus {(1,0),(0,2b)} has kernel K_T; the quotient kernel is
    K_T(x, y) + K_T(x, glide(y)).
    """
    x, y = np.asarray(x, float), np.asarray(y, float)
    total = 0.0
    for y_im, in ((y,), (np.array([1.0 - y[0], y[1] + b]),)):
        for m in range(-span, span + 1):
            for n in range(-span, span + 1):
                d = x - y_im + np.array([m, 2 * b * n])
                total += math.exp(-(d @ d) / (4 * t))
    return total / (4 * math.pi * t)


def longdouble_image_sums(rows, t, disp, chunk=25):
    """Image sums of the cover kernel and of its y-gradient at displacements
    disp, summed in long double over every image within sqrt(320 t) + 2.2 of
    the origin (the rest weigh below e^-80 at |d| <= 2.2); each comes with
    the sum of the absolute values of its terms.  Returns
    ((value, value size), (gradient, gradient size)) as float64 arrays."""
    pi = 4 * np.arctan(np.longdouble(1))
    lat = np.array(rows, dtype=np.longdouble)
    reach = math.sqrt(320.0 * t) + 2.2
    det = abs(rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0])
    span = math.ceil(reach / det * max(math.hypot(*r) for r in rows)) + 1
    m = np.arange(-span, span + 1)
    images = np.stack(np.meshgrid(m, m, indexing="ij"), -1).reshape(-1, 2) @ lat
    images = images[np.hypot(images[:, 0], images[:, 1]) <= reach]
    parts = []
    for i in range(0, len(disp), chunk):
        z = disp[i:i + chunk].astype(np.longdouble)[:, None, :] - images[None]
        e = np.exp(-(z[..., 0] ** 2 + z[..., 1] ** 2) / (4 * t)) / (4 * pi * t)
        ge = z * (e / (2 * t))[..., None]
        parts.append((e.sum(axis=1), ge.sum(axis=1), np.abs(ge).sum(axis=1)))
    val, grad, grad_size = (np.concatenate(p).astype(float) for p in zip(*parts))
    return (val, val), (grad, grad_size)


def eigenbasis_projection(surface, mode, X, Y):
    """sum_j phi_j(x) phi_j(y) and sum_j phi_j(x) grad phi_j(y) over the explicit
    orthonormal eigenbasis: a projection reference that uses no cover torus."""
    phi_x = eigenbasis_values(surface, mode, X)
    value = (phi_x * eigenbasis_values(surface, mode, Y)).sum(axis=0)
    grad = (phi_x[..., None] * eigenbasis_gradients(surface, mode, Y)).sum(axis=0)
    return value, grad


# ---------------------------------------------------------------------------
# spectrum enumeration


def test_honeycomb_mode_table():
    modes = enumerate_modes(torus(0.5, HONEYCOMB_B), 220.0)
    lams = [m.eigenvalue for m in modes]
    mults = [m.multiplicity for m in modes]
    lam1 = 16.0 * math.pi ** 2 / 3.0
    assert np.abs(np.array(lams) - np.array([0.0, lam1, 3 * lam1, 4 * lam1])).max() < 1e-9
    assert mults == [1, 6, 6, 6]


def test_square_mode_table():
    modes = enumerate_modes(torus(0.0, 1.0), 330.0)
    lams = np.array([m.eigenvalue for m in modes]) / FOUR_PI_SQ
    mults = [m.multiplicity for m in modes]
    assert np.abs(lams - np.array([0.0, 1.0, 2.0, 4.0, 5.0, 8.0])).max() < 1e-12
    assert mults == [1, 4, 4, 4, 8, 4]


def test_klein_parity_rules_and_multiplicities():
    # width > 1: lowest positive eigenvalue from the x2 mode pair, mult 2
    modes = enumerate_modes(klein_bottle(1.3), 40.0)
    assert abs(modes[1].eigenvalue - (2 * math.pi / 1.3) ** 2) < 1e-9
    assert modes[1].multiplicity == 2
    # width 1: x2 pair and the x1 cosine coincide, mult 3
    modes = enumerate_modes(klein_bottle(1.0), 41.0)
    assert abs(modes[1].eigenvalue - FOUR_PI_SQ) < 1e-9
    assert modes[1].multiplicity == 3
    # width < 1: only the x1 cosine survives at 4 pi^2, mult 1
    modes = enumerate_modes(klein_bottle(0.8), 41.0)
    assert abs(modes[1].eigenvalue - FOUR_PI_SQ) < 1e-9
    assert modes[1].multiplicity == 1


def test_klein_sine_modes_need_odd_vertical_index():
    # lambda = (2 pi)^2 + (pi/b)^2 combines l1=1 with l2=1 (sine branch)
    b = 1.5
    modes = enumerate_modes(klein_bottle(b), 60.0)
    lam = FOUR_PI_SQ + (math.pi / b) ** 2
    match = [m for m in modes if abs(m.eigenvalue - lam) < 1e-9]
    assert len(match) == 1
    assert match[0].multiplicity == 2  # cos(2 pi x1) cos branch + sin branch


def test_principal_eigenvalue_values():
    cases = [
        (torus(0.0, 1.0), FOUR_PI_SQ, 4),
        (torus(0.3, 1.2), (2 * math.pi / 1.2) ** 2, 2),
        (torus(0.5, HONEYCOMB_B), 16.0 * math.pi ** 2 / 3.0, 6),
        (klein_bottle(1.3), (2 * math.pi / 1.3) ** 2, 2),
        (klein_bottle(0.8), FOUR_PI_SQ, 1),
        (klein_bottle(1.0), FOUR_PI_SQ, 3),
    ]
    for surface, lam, mult in cases:
        mode = principal_eigenvalue(surface)
        assert abs(mode.eigenvalue - lam) < 1e-9
        assert mode.multiplicity == mult


def _closed_lambda_1(surface):
    """(2 pi / b)^2 on a reduced torus, min(4 pi^2, (2 pi / b)^2) on a Klein bottle."""
    if isinstance(surface, flatheat.Torus):
        return (2 * math.pi / surface.lattice.b) ** 2
    return min(FOUR_PI_SQ, (2 * math.pi / surface.b) ** 2)


MODULI = ([torus(a, b) for a in (0.1, 0.3) for b in [2.0, 10.0] + [10.0 ** k for k in range(2, 13)]]
          + [klein_bottle(10.0 ** k) for k in range(-8, 13)])


def test_principal_eigenvalue_across_the_moduli_space(monkeypatch):
    """lambda_1 within 1e-12 of its closed form, with its multiplicity, from a
    single enumeration, on tori a in {0.1, 0.3}, b from 2 to 1e12 and Klein
    bottles of heights 1e-8 to 1e12.  The mode is the enumeration's: its
    eigenvalue bits and generator order are those of a wider enumeration.
    Long surfaces need the per-line count of the dual disk (the Voronoi
    bound says 7.8e7 points at b = 1e8 for a disk that holds 3), thin Klein
    bottles too (4e7 at b = 1e-8)."""
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return enumerate_modes(*args, **kwargs)

    for surface in MODULI:
        lam = _closed_lambda_1(surface)
        calls.clear()
        monkeypatch.setattr(kernels, "enumerate_modes", counting)
        mode = principal_eigenvalue(surface)
        monkeypatch.undo()
        assert len(calls) == 1, surface
        b = surface.lattice.b if isinstance(surface, flatheat.Torus) else surface.b
        mult = 2 if isinstance(surface, flatheat.Torus) or b > 1 else (3 if b == 1 else 1)
        assert abs(mode.eigenvalue - lam) <= 1e-12 * lam, surface
        assert mode.multiplicity == mult, surface
        wider = next(m for m in enumerate_modes(surface, 2.0 * lam) if m.eigenvalue > 0)
        assert (mode.eigenvalue, mode.generators) == (wider.eigenvalue, wider.generators)


def test_the_mode_lookup_tells_lambda_1_from_0_on_long_surfaces():
    """From b = 2e5, lambda_1 is below 1e-9: an absolute window grouped it
    with the constants (eigenvalue 0, multiplicity 3).  The relative lookup
    finds lambda_1 > 0 with multiplicity 2, by eigenvalue and by index.  The
    dual disk out to 5 lambda_1 is counted by lines: its Voronoi bound says
    7.8e7 points at b = 1e8."""
    for surface in (torus(0.3, 2e5), klein_bottle(2e5), torus(0.3, 1e8), klein_bottle(1e12)):
        lam = _closed_lambda_1(surface)
        modes = enumerate_modes(surface, 5.0 * lam)
        assert [m.multiplicity for m in modes] == [1, 2, 2]
        assert modes[0].eigenvalue == 0.0
        for mode in (principal_eigenvalue(surface), kernels._mode_at(surface, lam),
                     kernels._mode_at(surface, index=1)):
            assert mode == modes[1]
            assert abs(mode.eigenvalue - lam) <= 1e-12 * lam
            assert mode.multiplicity == 2


def test_principal_eigenvalue_on_surfaces_past_1e77():
    """From b ~ 1.2e77 the discriminant of the disk enumeration's line
    m = 0, about 4 / b^4, was subnormal and lost the disk's edge points
    +-(0, 1 / b): the lookup found no mode.  Solved with v scaled to unit
    length, the lookup gives the closed form with multiplicity 2, by
    eigenvalue and by index."""
    for b in (1e80, 1e100, 1e150):
        for surface in (torus(0.3, b), klein_bottle(b)):
            lam = _closed_lambda_1(surface)
            mode = principal_eigenvalue(surface)
            assert abs(mode.eigenvalue - lam) <= 1e-12 * lam, surface
            assert mode.multiplicity == 2, surface
            assert kernels._mode_at(surface, index=1) == mode, surface


def test_index_lookup_matches_the_enumeration():
    """The index lookup, one enumeration out to max(i, 1)^2 lambda_1, gives
    the i-th mode of a wide enumeration: eigenvalue, multiplicity and
    generators."""
    for surface in (torus(0.0, 1.0), torus(0.3, 1.2), torus(0.5, HONEYCOMB_B), torus(0.1, 7.0),
                    klein_bottle(0.3), klein_bottle(1.0), klein_bottle(1.3), klein_bottle(4.0)):
        modes = enumerate_modes(surface, 4000.0)
        for i in range(25):
            assert kernels._mode_at(surface, index=i) == modes[i], (surface, i)


def test_mode_lookup_errors_are_typed(monkeypatch):
    """lambda_1 = (2 pi / b)^2 underflows to 0 from b ~ 4e162: the lookup
    names the underflow before it enumerates anything.  Below that, from
    b ~ 1.5e154, lambda_1 is subnormal, the dual disk's squared moduli lose
    their digits with it, and the lookup finds no mode: a typed error too.
    An index past TERM_BUDGET, and an infinite disk radius, are refused by
    the budget."""
    for b in (1e160, 1e200):
        for surface in (torus(0.3, b), klein_bottle(b)):
            with pytest.raises(InvalidParameter, match="no mode at eigenvalue"):
                principal_eigenvalue(surface)
    monkeypatch.setattr(kernels, "enumerate_modes", None)  # not reached
    for surface in (torus(0.3, 1e200), klein_bottle(1e200)):
        with pytest.raises(InvalidParameter, match="underflows to 0"):
            principal_eigenvalue(surface)
    monkeypatch.undo()
    with pytest.raises(InvalidParameter, match="dual lattice points"):
        kernels._mode_at(torus(0.0, 1.0), index=10 ** 400)
    with pytest.raises(InvalidParameter, match="no mode at eigenvalue"):
        kernels._mode_at(torus(0.3, 1.2), 30.0)
    # lambda_max (1 + 2 tol) overflows: an infinite radius passes the budget
    with pytest.raises(InvalidParameter, match="dual lattice points"):
        enumerate_modes(torus(0.0, 1.0), 1e308, tol=1.0)


def test_mode_surface_mismatch_rejected():
    mode = enumerate_modes(torus(0.0, 1.0), 50.0)[1]
    with pytest.raises(ModeSurfaceMismatch):
        projection_kernel(torus(0.3, 1.2), mode, (0.0, 0.0), (0.1, 0.1))


def test_enumerate_modes_refuses_more_than_the_term_budget(monkeypatch):
    # a budget of 200 points: lambda <= 2000 holds about 160 dual points on the
    # square torus (lambda area / 4 pi), lambda <= 4000 about 320
    monkeypatch.setattr(kernels, "TERM_BUDGET", 200)
    for surface in (torus(0.0, 1.0), torus(0.3, 1.2), klein_bottle(0.7)):
        assert enumerate_modes(surface, 200.0)
        with pytest.raises(InvalidParameter):
            enumerate_modes(surface, 4000.0)
    with pytest.raises(InvalidParameter):
        enumerate_modes(torus(0.0, 1.0), 1e300)


@pytest.mark.parametrize("tol", [math.nan, math.inf, -0.6, -1e-12])
def test_enumerate_modes_needs_a_finite_non_negative_tolerance(tol):
    for surface in (torus(0.3, 1.2), klein_bottle(0.7)):
        with pytest.raises(InvalidParameter, match="tol"):
            enumerate_modes(surface, 50.0, tol=tol)
    assert enumerate_modes(torus(0.3, 1.2), 50.0, tol=0.0)


def test_disk_routes_refuse_work_over_the_budget(rng, monkeypatch):
    """terms x points past WORK_BUDGET raise ToleranceUnreachable on both disk
    routes, at the budget they sum; the box routes of rectangular covers
    (a = 0 tori, Klein bottles) evaluate per axis and are not checked."""
    X, Y = rng.uniform(0, 1, (50, 2)), rng.uniform(0, 1, (50, 2))
    generic = torus(0.3, 1.2)
    cases = [(rep, fn, fn(generic, 0.05, X, Y, representation=rep)[2])
             for rep in ("image", "spectral") for fn in (heat_values, heat_gradient_values)]
    for rep, fn, terms in cases:
        monkeypatch.setattr(kernels, "WORK_BUDGET", 50 * terms - 1)
        with pytest.raises(ToleranceUnreachable, match="budget"):
            fn(generic, 0.05, X, Y, representation=rep)
        monkeypatch.setattr(kernels, "WORK_BUDGET", 50 * terms)
        assert fn(generic, 0.05, X, Y, representation=rep)[2] == terms
    monkeypatch.setattr(kernels, "WORK_BUDGET", 0)
    with pytest.raises(ToleranceUnreachable):
        heat_kernel(KernelQuery(surface=generic, x=(0, 0), y=(0.1, 0.2), t=0.05))
    for surface in (torus(0.0, 1.5), klein_bottle(0.8)):
        for rep in ("image", "spectral"):
            assert heat_values(surface, 0.05, X, Y, representation=rep)[2] > 0


# ---------------------------------------------------------------------------
# kernel evaluation against the exhaustive oracle


def test_torus_kernel_matches_brute_force(rng):
    for a, b in ((0.0, 1.0), (0.5, HONEYCOMB_B), (0.3, 1.2)):
        surface = torus(a, b)
        for _ in range(6):
            x = rng.uniform(0, 1, 2)
            y = rng.uniform(0, 1, 2)
            t = float(rng.uniform(0.02, 0.25))
            expected = brute_force_torus_kernel(a, b, t, x, y)
            for rep in ("spectral", "image"):
                out = heat_kernel(KernelQuery(surface=surface, x=tuple(x),
                                              y=tuple(y), t=t, epsilon=1e-13,
                                              representation=rep))
                assert abs(out.value - expected) <= out.error_bound + 1e-12
                assert abs(out.value - expected) < 1e-11


def test_klein_kernel_matches_brute_force(rng):
    # b < 0.5: the cover rows (1, 0), (0, 2b) are not in canonical reduced form
    for b in (0.3, 0.8, 1.0, 1.5):
        surface = klein_bottle(b)
        for _ in range(5):
            x = rng.uniform(0, 1, 2)
            y = rng.uniform(0, 1, 2)
            t = float(rng.uniform(0.05, 0.25))
            expected = brute_force_klein_kernel(b, t, x, y)
            for rep in ("spectral", "image"):
                out = heat_kernel(KernelQuery(surface=surface, x=tuple(x),
                                              y=tuple(y), t=t, epsilon=1e-13,
                                              representation=rep))
                assert abs(out.value - expected) <= out.error_bound + 1e-12


def test_klein_kernel_matches_eigen_expansion(rng):
    """Klein kernel and gradient against sum_lambda exp(-lambda t) P_lambda.

    The reference sums products of the explicit Klein eigenfunctions, not the
    cover torus, whose deck sum ``projection_kernel`` shares with the heat
    kernel's spectral route.  With lambda_max = 40 / t the dropped tail is far
    below 1e-13: there are about b lambda / (8 pi) spectral pairs below
    lambda, each weighing at most (4 / b) (1 + sqrt(lambda)) exp(-lambda t),
    so the tail is about sqrt(lambda_max) exp(-40) / (2 pi t) < 1e-15.
    """
    X = rng.uniform(0, 1, (12, 2))
    Y = rng.uniform(0, 1, (12, 2))
    for b in (0.3, 0.8, 1.3):
        surface = klein_bottle(b)
        for t in (0.1, 0.5, 2.0):
            terms = [(math.exp(-m.eigenvalue * t), eigenbasis_projection(surface, m, X, Y))
                     for m in enumerate_modes(surface, 40.0 / t)]
            ref = sum(w * p for w, (p, _) in terms)
            ref_grad = sum(w * g for w, (_, g) in terms)
            for rep in ("spectral", "image"):
                v, e, _, _ = heat_values(surface, t, X, Y, eps=1e-13, representation=rep)
                g, eg, _, _ = heat_gradient_values(surface, t, X, Y, eps=1e-13,
                                                   representation=rep)
                assert np.abs(v - ref).max() <= e + 1e-13
                assert np.abs(g - ref_grad).max() <= eg + 1e-13


def test_representations_agree_within_bounds(rng):
    surfaces = [torus(0.0, 1.0), torus(0.0, 1.5), torus(0.5, HONEYCOMB_B),
                torus(0.3, math.sqrt(1 - 0.09)), torus(0.3, 1.2),
                klein_bottle(0.8), klein_bottle(1.0), klein_bottle(1.5)]
    for surface in surfaces:
        X = rng.uniform(0, 1, (40, 2))
        Y = rng.uniform(0, 1, (40, 2))
        T = 10.0 ** rng.uniform(-2, 1, 40)
        for x, y, t in zip(X, Y, T):
            vs, es, _, _ = heat_values(surface, float(t), x, y, eps=1e-13,
                                       representation="spectral")
            vi, ei, _, _ = heat_values(surface, float(t), x, y, eps=1e-13,
                                       representation="image")
            assert abs(float(vs - vi)) <= float(es + ei)


def test_auto_representation_crossover():
    surface = torus(0.0, 1.0)
    small = heat_kernel(KernelQuery(surface=surface, x=(0.1, 0.1), y=(0.3, 0.2),
                                    t=0.01))
    large = heat_kernel(KernelQuery(surface=surface, x=(0.1, 0.1), y=(0.3, 0.2),
                                    t=2.0))
    assert small.representation_used == "image"
    assert large.representation_used == "spectral"


def test_error_bound_honored_across_epsilons(rng):
    surface = torus(0.5, HONEYCOMB_B)
    x, y, t = (0.1, 0.2), (0.45, 0.6), 0.07
    expected = brute_force_torus_kernel(0.5, HONEYCOMB_B, t, x, y)
    for eps in (1e-6, 1e-9, 1e-12):
        out = heat_kernel(KernelQuery(surface=surface, x=x, y=y, t=t, epsilon=eps))
        assert out.error_bound <= eps
        assert abs(out.value - expected) <= out.error_bound + 1e-13


def test_gradient_matches_finite_differences(rng):
    h = 1e-6
    for surface in (torus(0.3, 1.2), klein_bottle(1.3)):
        for _ in range(8):
            x = rng.uniform(0, 1, 2)
            y = rng.uniform(0, 1, 2) + np.array([0.03, 0.05])
            t = float(rng.uniform(0.04, 1.0))
            grad = heat_kernel_gradient(KernelQuery(surface=surface, x=tuple(x),
                                                    y=tuple(y), t=t,
                                                    epsilon=1e-13))
            for k in range(2):
                e = np.zeros(2)
                e[k] = h
                fp, _, _, _ = heat_values(surface, t, x, y + e, eps=1e-13)
                fm, _, _, _ = heat_values(surface, t, x, y - e, eps=1e-13)
                fd = float(fp - fm) / (2 * h)
                assert abs(fd - grad.gradient[k]) < 2e-7 * max(1.0, abs(fd))


def test_gradient_blocks_stay_within_memory_budget(rng):
    # 4096 points x 11,810 image terms; 2048-row blocks traced about 480 MB
    Y = rng.uniform(0, 1, (4096, 2))
    tracemalloc.start()
    try:
        _, _, terms, _ = heat_gradient_values(klein_bottle(0.3), 8.0, np.zeros(2), Y,
                                              representation="image")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert terms > 10_000
    assert peak < 64e6


def test_rectangular_box_route_matches_disk_route(rng):
    """The per-axis box sums of a rectangular lattice against its disk sums.

    The rows (1, 0), (1, h) span the same lattice as (1, 0), (0, h) but are
    not axis-aligned, so they take the disk routes.  The box holds the disk,
    so the two differ by at most the disk route's tail bound and rounding,
    and the box sum of positive image terms is not below the disk sum beyond
    rounding.  Both routes draw their radius from the same lattice data, so
    the spectral box certifies exactly the disk's bound.
    """
    heights = [2.0 * b for b in (0.3, 0.7, 1.0, 1.5)] + [torus(0.0, 1.3).lattice.b]
    disp = rng.uniform(-1, 2, (2, 40, 2))
    for h in heights:
        box_rows, disk_rows = ((1.0, 0.0), (0.0, h)), ((1.0, 0.0), (1.0, h))
        assert kernels._geometry(box_rows)["axis_aligned"]
        assert not kernels._geometry(disk_rows)["axis_aligned"]
        for t in (0.012, 0.05, 0.3, 8.0):
            for eps in (1e-10, 1e-13):
                for want_grad in (False, True):
                    box, e_box, _ = kernels._image(box_rows, t, _recentre(box_rows, disp), eps,
                                                   want_grad)
                    disk, e_disk, _ = kernels._image(disk_rows, t, _recentre(disk_rows, disp), eps,
                                                     want_grad)
                    assert e_box <= eps and e_disk <= eps
                    assert np.abs(box - disk).max() <= e_disk + 1e-13
                    if not want_grad:
                        assert (box - disk).min() >= -1e-15 * disk.max()
                    # cosine sums cancel: seen up to 2.0e-15 of the largest output
                    box, e_box, n_box = kernels._spectral(box_rows, t, _recentre(box_rows, disp),
                                                          eps, want_grad)
                    disk, e_disk, n_disk = kernels._spectral(disk_rows, t,
                                                             _recentre(disk_rows, disp), eps,
                                                             want_grad)
                    assert e_box == e_disk <= eps
                    assert n_box >= n_disk
                    assert np.abs(box - disk).max() <= e_disk + 4e-15 * np.abs(disk).max()


def test_image_route_matches_longdouble_sum(rng):
    """Image sums against a long-double sum over every image that matters.

    Each entry may be off by its truncation bound plus 48 u sum |term|, with
    u = 2^-53.  Terms are added one at a time; adding the nearest images
    first left about 100 u sum |term| on the honeycomb at t = 8, and the
    farthest first about 24.  The disk route runs on two sheared lattices,
    the per-axis box route on a rectangular one.
    """
    u = 2.0 ** -53
    disp = rng.uniform(-1.5, 1.5, (150, 2))
    for rows in (((1.0, 0.0), (-0.3, 1.2)), ((1.0, 0.0), (0.5, HONEYCOMB_B)),
                 ((1.0, 0.0), (0.0, 1.6))):
        assert kernels._geometry(rows)["axis_aligned"] == (rows[1][0] == 0.0)
        for t in (0.05, 0.3, 2.0, 8.0):
            refs = longdouble_image_sums(rows, t, disp)
            for want_grad, (ref, size) in enumerate(refs):
                out, err, _ = kernels._image(rows, t, _recentre(rows, disp), 1e-20,
                                             bool(want_grad))
                assert (np.abs(out - ref) <= err + 48 * u * size).all(), (rows, t, want_grad)


def test_block_size_does_not_change_values(rng, monkeypatch):
    X = rng.uniform(0, 1, (301, 2))
    Y = rng.uniform(0, 1, (301, 2))
    # torus(0.0, 1.5) and the Klein cover are rectangular: per-axis box sums
    cases = [(s, t, rep) for s in (torus(0.3, 1.2), torus(0.0, 1.5), klein_bottle(0.8))
             for t in (0.05, 1.0) for rep in ("spectral", "image")]

    def evaluate():
        return [(s, rep, fn(s, t, X, Y, eps=1e-13, representation=rep)[0])
                for s, t, rep in cases for fn in (heat_values, heat_gradient_values)]

    monkeypatch.setattr(kernels, "_BLOCK_POINTS", 1 << 40)  # one block per call
    wide = evaluate()
    monkeypatch.setattr(kernels, "_BLOCK_POINTS", 3)
    narrow = evaluate()
    monkeypatch.setattr(kernels, "_BLOCK_POINTS", 1)  # blocks of one point
    # every route's term loop runs elementwise, in every block, one point
    # wide included: bitwise equal
    for (s, rep, a), (_, _, b), (_, _, c) in zip(wide, narrow, evaluate()):
        assert np.array_equal(a, b) and np.array_equal(a, c), (s, rep)


def test_deck_sum_gives_each_cover_sum_its_own_bits(rng, monkeypatch):
    """``kernels._deck_sum`` reduces the points once for all the cover sums it
    is given, reading them one at a time, yet yields for each bitwise what
    its one-sum public call returns: heat values and gradients interleaved,
    at times out of order and repeated, on both routes, each sum with its
    own tolerance, and a projection's values and gradients among them (sums,
    bound and terms).  A disk torus, a rectangular one and two Klein
    bottles; in one block and in blocks of three points."""
    X = rng.uniform(-1.0, 2.0, (3, 5, 2))
    Y = rng.uniform(-1.0, 2.0, (3, 5, 2))
    times = (2.0, 0.003, 0.3, 0.02, 128.0, 0.3, 0.05)
    epsilons = (1e-13, 1e-7, 1e-10)
    surfaces = (torus(0.3, 1.2), torus(0.0, 1.5), klein_bottle(0.8), klein_bottle(1.4))
    reductions = []
    recentre = kernels._recentre
    monkeypatch.setattr(kernels, "_recentre",
                        lambda *args: reductions.append(1) or recentre(*args))
    for block in (1 << 14, 3):
        monkeypatch.setattr(kernels, "_BLOCK_POINTS", block)
        for s in surfaces:
            covers, refs = [], []
            for i, (t, grad) in enumerate(itertools.product(times, (False, True))):
                eps = epsilons[i % len(epsilons)]
                covers.append(kernels._cover_sum(t, kernels._resolve_rep(s, t, "auto"),
                                                 eps, grad))
                fn = heat_gradient_values if grad else heat_values
                refs.append(fn(s, t, X, Y, eps=eps))
            assert {ref[3] for ref in refs} == {"image", "spectral"}, s
            mode = principal_eigenvalue(s)
            k = 1 if isinstance(s, flatheat.Torus) else 2
            vecs, area = kernels._shell(s, mode)
            shell = k * len(vecs)
            # the heuristic gradient bound, formed as it was before the cover
            # sum divided it by k and the deck total multiplied it back
            reach = float(np.max(np.hypot(vecs[:, 0], vecs[:, 1])))
            bound = 1e-15 * max(shell * (2.0 * math.pi) * reach / area, 1.0)
            grads, grad_bound = projection_gradient(s, mode, X, Y)
            assert grad_bound == bound, s
            covers[5:5] = [kernels._shell_sum(s, mode, False), kernels._shell_sum(s, mode, True)]
            refs[5:5] = [(projection_kernel(s, mode, X, Y), 0.0, shell), (grads, bound, shell)]
            read = []
            reductions.clear()
            totals = kernels._deck_sum(s, X, Y, (read.append(c) or c for c in covers))
            for i, (out, err, terms) in enumerate(totals):
                assert len(read) == i + 1 and len(reductions) == 1, (s, i)
                ref, ref_err, ref_terms = refs[i][:3]
                assert (err, terms) == (ref_err, ref_terms), (s, i)
                assert out.shape == ref.shape and np.array_equal(out, ref), (s, i)
            assert len(read) == len(covers)


LATTICE_CLASSES = [(0.0, 1.0), (0.0, 1.5), (0.3, math.sqrt(1 - 0.3 ** 2)), (0.5, HONEYCOMB_B),
                   (0.3, 1.2)]


def test_cached_disk_prefix_matches_fresh_enumeration(monkeypatch):
    """A prefix of the cached enumeration is bitwise a fresh enumeration at its
    radius, on the primal and dual lattices of every class, for whole disks
    and half disks, including radii equal to the modulus of lattice points."""
    monkeypatch.setattr(kernels, "_disks", OrderedDict())
    for a, b in LATTICE_CLASSES:
        rows = ((1.0, 0.0), (-a, b))
        for dual in (False, True):
            basis = kernels._geometry(rows)["dual_rows" if dual else "rows"]
            for half in (False, True):
                kernels._disk(rows, 9.0, half, dual)  # the cache now reaches 18
                _, _, r2 = kernels._points_in_disk(basis, 7.0, half)
                moduli = np.sqrt(r2[[1, 2, 5, len(r2) // 2, len(r2) - 1]]).tolist()
                for radius in moduli + [0.0, 0.3, 1.0, 2.5, 7.7, 18.0]:
                    fresh = kernels._points_in_disk(basis, radius, half)
                    cached = kernels._disk(rows, radius, half, dual)
                    assert kernels._disks[rows, half, dual][0] == 18.0  # served, not rebuilt
                    for f, c in zip(fresh, cached):
                        assert f.dtype == c.dtype and np.array_equal(f, c), (rows, dual, half, radius)
                    if radius in moduli:  # a point on the circle is in the disk
                        assert (fresh[2] >= radius * radius * (1 - 1e-15)).any()


def test_point_bits_and_terms_do_not_depend_on_the_batch(rng, monkeypatch):
    """In any batch, a batch of one included, each point keeps its bits, and
    the call its terms_used and bound, when the batch is reordered, cut to a
    subset or summed in other blocks: every route sums term-major and
    elementwise over a term set that the lattice, time and tolerance fix.
    Every lattice class and a Klein bottle; both representations, values,
    gradients and projections."""
    X = rng.uniform(-1.0, 2.0, (41, 2))
    Y = rng.uniform(-1.0, 2.0, (41, 2))
    perm = rng.permutation(41)
    calls = []
    for s in [torus(a, b) for a, b in LATTICE_CLASSES] + [klein_bottle(0.8)]:
        for t in (0.02, 0.3, 2.0):
            for rep in ("spectral", "image"):
                for fn in (heat_values, heat_gradient_values):
                    calls.append(lambda x, y, s=s, t=t, rep=rep, fn=fn:
                                 fn(s, t, x, y, eps=1e-13, representation=rep)[:3])
        for mode in enumerate_modes(s, 200)[1:4:2]:
            calls.append(lambda x, y, s=s, mode=mode: (projection_kernel(s, mode, x, y),))
            calls.append(lambda x, y, s=s, mode=mode: projection_gradient(s, mode, x, y))

    def evaluate(rows):
        return [f(X[rows], Y[rows]) for f in calls]

    whole = evaluate(np.arange(41))
    others = [(perm, evaluate(perm)), (perm[:2], evaluate(perm[:2])),
              (perm[3:4], evaluate(perm[3:4])), (perm[5:12], evaluate(perm[5:12]))]
    monkeypatch.setattr(kernels, "_BLOCK_POINTS", 3)  # narrower blocks
    others.append((np.arange(41), evaluate(np.arange(41))))
    for rows, outs in others:
        for k, (a, b) in enumerate(zip(whole, outs)):
            assert np.array_equal(a[0][rows], b[0]), (k, rows)
            assert a[1:] == b[1:], (k, rows)


def test_every_route_is_exactly_even_in_the_displacement(rng):
    """K(-d) = K(d) and grad K(-d) = -grad K(d), bit for bit, on each route
    of the cover lattice sums: the image and spectral routes of every torus
    class and of the Klein cover (disk and box branches), values and
    gradients, and the projection cosine sum over a shell.  The image route
    adds the terms of each pair +-p before it accumulates them; a scan reads
    the derivative along -u from that along u on this alone."""
    covers = [torus(a, b) for a, b in LATTICE_CLASSES] + [klein_bottle(0.8)]
    sizes = (1, 2, 8, 300)
    for surface in covers:
        rows = kernels._deck(surface)[0]
        mode = enumerate_modes(surface, 400.0)[3]
        vecs, area = kernels._shell(surface, mode)
        shell = [(2 * math.pi * p0, 2 * math.pi * p1, 1.0 / area) for p0, p1 in vecs.tolist()]
        for n in sizes:
            d0 = _recentre(rows, rng.uniform(-1.5, 2.5, (n, 2)))
            neg = 0.0 - d0
            for want_grad in (False, True):
                sign = -1.0 if want_grad else 1.0
                for fn in (kernels._image, kernels._spectral):
                    for t in (0.003, 0.02, 0.3, 2.0):
                        got, err, terms = fn(rows, t, d0, 1e-13, want_grad)
                        back, err2, terms2 = fn(rows, t, neg, 1e-13, want_grad)
                        assert np.array_equal(back, sign * got), (surface, n, fn, t, want_grad)
                        assert (err2, terms2) == (err, terms)
                got = np.array(kernels._cosines(*d0, shell, want_grad, np.cos, np.sin))
                back = np.array(kernels._cosines(*neg, shell, want_grad, np.cos, np.sin))
                assert np.array_equal(back, sign * got), (surface, n, want_grad)


def _cache_snapshots(surface, query_args):
    """The value, gradient, error bound and terms used of each query, as bytes."""
    out = []
    for t, eps, rep in query_args:
        x, y = np.array([0.13, 0.71]), np.array([[0.52, -0.33], [0.9, 0.41], [-0.2, 1.3]])
        for fn in (heat_values, heat_gradient_values):
            for args in ((x, y[0]), (x, y)):
                v, err, terms, used = fn(surface, t, *args, eps=eps, representation=rep)
                out.append((np.asarray(v).tobytes(), err, terms, used))
        q = KernelQuery(surface=surface, x=tuple(x), y=tuple(y[1]), t=t, epsilon=eps,
                        representation=rep)
        value, grad = heat_kernel(q), heat_kernel_gradient(q)
        out.append((value.value, grad.gradient, value.error_bound, grad.terms_used))
    return out


def test_kernel_bits_do_not_depend_on_the_enumeration_cache(monkeypatch):
    """Values, gradients, bounds and term counts from a cold cache, after a
    larger-radius enumeration and after a smaller one are bitwise equal."""
    monkeypatch.setattr(kernels, "_disks", OrderedDict())
    query_args = [(t, eps, rep) for t in (0.003, 0.04, 0.5, 6.0) for eps in (1e-6, 1e-13)
                  for rep in ("image", "spectral")]
    for a, b in LATTICE_CLASSES[2:]:
        surface = torus(a, b)
        rows = ((1.0, 0.0), (-a, b))
        cold = []
        for args in query_args:
            kernels._disks.clear()
            cold += _cache_snapshots(surface, [args])
        for warm_radius in (40.0, 0.2):
            kernels._disks.clear()
            kernels._disk(rows, warm_radius)
            kernels._disk(rows, warm_radius, half=True)
            kernels._disk(rows, warm_radius, half=True, dual=True)
            assert _cache_snapshots(surface, query_args) == cold, (a, b, warm_radius)


def test_enumeration_cache_caps_points_and_evicts_lattices(monkeypatch):
    monkeypatch.setattr(kernels, "_disks", OrderedDict())
    monkeypatch.setattr(kernels, "_DISK_POINTS", 100)
    monkeypatch.setattr(kernels, "_DISK_LATTICES", 2)
    iso, honeycomb, generic = [((1.0, 0.0), (-a, b)) for a, b in LATTICE_CLASSES[2:]]
    # a miss enumerates out to twice the radius, and grows to twice the cached one
    kernels._disk(generic, 1.0)
    assert kernels._disks[generic, False, False][0] == 2.0
    kernels._disk(generic, 2.5)
    assert kernels._disks[generic, False, False][0] == 4.0
    # unless the doubled disk may hold more than 100 points: then to the radius
    mn, _, _ = kernels._disk(iso, 3.0)
    assert len(mn) <= 100 and kernels._disks[iso, False, False][0] == 3.0
    # over 100 points: enumerated, not cached; the smaller entry stays
    big = kernels._disk(iso, 8.0)
    assert len(big[0]) > 100 and kernels._disks[iso, False, False][0] == 3.0
    for f, c in zip(kernels._points_in_disk(np.array(iso), 8.0), big):
        assert np.array_equal(f, c)
    # two lattices fit; a third evicts the least recently used
    assert list(kernels._disks) == [(generic, False, False), (iso, False, False)]
    kernels._disk(generic, 1.0)
    kernels._disk(honeycomb, 1.0)
    assert list(kernels._disks) == [(generic, False, False), (honeycomb, False, False)]
    # the image route's half primal disks follow the same rules
    kernels._disks.clear()
    kernels._disk(generic, 1.0, half=True)
    assert kernels._disks[generic, True, False][0] == 2.0
    mn, _, _ = kernels._disk(iso, 3.0, half=True)  # the bound counts the whole disk
    assert len(mn) <= 100 and kernels._disks[iso, True, False][0] == 3.0
    big = kernels._disk(iso, 12.0, half=True)
    assert len(big[0]) > 100 and kernels._disks[iso, True, False][0] == 3.0
    for f, c in zip(kernels._points_in_disk(np.array(iso), 12.0, True), big):
        assert np.array_equal(f, c)
    kernels._disk(generic, 1.0, half=True)  # a hit makes generic the most recently used
    kernels._disk(honeycomb, 1.0, half=True)
    assert list(kernels._disks) == [(generic, True, False), (honeycomb, True, False)]


def _per_axis_box_reference(rows, t, disp, eps, want_grad, rep):
    """The box routes as two per-axis passes, one sum loop per axis: the
    reference for the joint evaluation in ``kernels._spectral`` and
    ``kernels._image`` on axis-aligned lattices."""
    geom = kernels._geometry(rows)
    periods = geom["periods"]
    flat = disp.reshape(-1, 2)
    out = np.empty((len(flat), 2) if want_grad else len(flat))
    d0 = flat.T - geom["rows"].T @ np.round(geom["dual_rows"] @ flat.T)
    if rep == "spectral":
        area, alpha = geom["covol"], FOUR_PI_SQ * t
        pref = (2 * math.pi if want_grad else 1.0) / area
        radius, _ = kernels._radius_for(alpha, geom["dual_rho"], geom["dual_covol"], eps, pref,
                                        int(want_grad))
        sums = []
        for k, length in enumerate(periods):
            p = np.arange(math.floor(radius * length) + 1) / length
            w = 2.0 * np.exp(-alpha * (p * p))
            w[0] = 1.0
            cos_w, sin_w = w.tolist(), (2 * math.pi * p * w).tolist()
            theta = (2 * math.pi / length) * d0[k]
            c1, s1 = np.cos(theta), np.sin(theta)
            cm, sm = c1, s1
            acc_c, acc_s = np.full(theta.shape, cos_w[0]), np.zeros(theta.shape)
            for m in range(1, len(cos_w)):
                if m > 1:
                    cm, sm = cm * c1 - sm * s1, sm * c1 + cm * s1
                acc_c += cos_w[m] * cm
                acc_s += sin_w[m] * sm
            sums.append((acc_c, acc_s))
        scale = 1.0 / area
    else:
        alpha, pref0 = 1.0 / (4.0 * t), 1.0 / (4.0 * math.pi * t)
        pref = pref0 * (2.0 * alpha if want_grad else 1.0)
        radius, _ = kernels._radius_for(alpha, geom["rho"], geom["covol"], eps, pref,
                                        int(want_grad))
        sums = []
        for k, length in enumerate(periods):
            half = int(np.floor((radius + geom["reach"]) / length))
            # one of each pair +-m, farthest first: both terms added, then
            # the pair sums in row order at every width, the origin's term last
            m = (length * np.arange(half, 0, -1))[:, None]
            lo, hi, z0 = d0[k] - m, d0[k] + m, d0[k][None, :]
            e_lo, e_hi, e0 = (np.exp(-alpha * (z * z)) for z in (lo, hi, z0))
            e = np.concatenate([e_lo + e_hi, e0])
            g = np.concatenate([e_lo * lo + e_hi * hi, e0 * z0])
            sums.append((np.add.accumulate(e)[-1], np.add.accumulate(g)[-1]))
        scale = pref0 * 2.0 * alpha if want_grad else pref0
    (a0, b0), (a1, b1) = sums
    if want_grad:
        out[:, 0], out[:, 1] = scale * b0 * a1, scale * a0 * b1
    else:
        out[:] = scale * a0 * a1
    return out.reshape(disp.shape[:-1] + out.shape[1:])


def test_box_routes_match_per_axis_reference(rng):
    """The box routes of a rectangular cover, whose image sums share numpy
    calls between the axes, give bitwise the per-axis loops' output: for one
    displacement, the two of a Klein query, and batches of 8, 9 and 300."""
    heights = [1.5, 2.7] + [2.0 * b for b in (0.2, 0.7, 1.0, 1.4)]
    sizes = (1, 2, 8, 9, 300)
    disps = [rng.uniform(-1.5, 2.5, (n, 2)) for n in sizes]
    for h in heights:
        rows = ((1.0, 0.0), (0.0, h))
        for t in (0.003, 0.02, 0.15, 1.0, 10.0):
            for eps in (1e-6, 1e-10, 1e-13):
                for want_grad in (False, True):
                    for disp in disps:
                        for rep, fn in (("spectral", kernels._spectral), ("image", kernels._image)):
                            ref = _per_axis_box_reference(rows, t, disp, eps, want_grad, rep)
                            got = fn(rows, t, _recentre(rows, disp), eps, want_grad)[0]
                            assert np.array_equal(got, ref), (h, t, eps, want_grad, len(disp), rep)


def test_gradient_vanishes_at_coincidence():
    out = heat_kernel_gradient(KernelQuery(surface=torus(0.3, 1.2),
                                           x=(0.2, 0.4), y=(0.2, 0.4), t=0.3))
    assert out.gradient == (0.0, 0.0)


def test_kernel_rejects_bad_queries():
    surface = torus(0.0, 1.0)
    with pytest.raises(NonPositiveTime):
        KernelQuery(surface=surface, x=(0, 0), y=(0.1, 0.1), t=0.0)
    with pytest.raises(NonPositiveTime):
        KernelQuery(surface=surface, x=(0, 0), y=(0.1, 0.1), t=-1.0)
    with pytest.raises(InvalidParameter):
        KernelQuery(surface=surface, x=(0, 0), y=(0.1, 0.1), t=1.0,
                    representation="fourier")
    with pytest.raises(InvalidParameter):
        KernelQuery(surface=surface, x=(0, 0), y=(0.1, 0.1), t=1.0, epsilon=0.0)


def test_kernel_rejects_non_finite_points():
    nan, inf = float("nan"), float("inf")
    with pytest.raises(InvalidParameter):
        KernelQuery(surface=torus(0.0, 1.0), x=(nan, 0.0), y=(0.1, 0.1), t=0.3)
    with pytest.raises(InvalidParameter):
        KernelQuery(surface=torus(0.0, 1.0), x=(0.0, 0.0), y=(0.1, -inf), t=0.3)
    for surface, t in ((klein_bottle(0.8), 0.3), (torus(0.3, 1.2), 0.01)):
        for bad in (nan, inf):
            for fn in (heat_values, heat_gradient_values):
                with pytest.raises(InvalidParameter):
                    fn(surface, t, np.array([bad, 0.0]), np.array([0.1, 0.1]))
                with pytest.raises(InvalidParameter):
                    fn(surface, t, np.zeros((3, 2)), np.array([[0.1, 0.1]] * 2 + [[0.0, bad]]))


def test_times_tolerances_and_points_convert_with_float():
    """Times, tolerances and point components are converted with float, as
    Heat("0.5") converts its time; one that float refuses, or an array, raises
    InvalidParameter (NonPositiveTime stays for t <= 0, NaN and inf)."""
    surface = torus(0.3, 1.2)
    q = KernelQuery(surface=surface, x=("0.1", 0), y=(0.2, 0.3), t="0.1", epsilon="1e-10")
    assert (q.x, q.t, q.epsilon) == ((0.1, 0.0), 0.1, 1e-10)
    assert heat_kernel(q) == heat_kernel(KernelQuery(surface=surface, x=(0.1, 0.0),
                                                     y=(0.2, 0.3), t=0.1))
    assert flatheat.ScanConfig(derivative_tolerance="1e-12").derivative_tolerance == 1e-12
    bad = [lambda: KernelQuery(surface=surface, x=(0, 0), y=(0.1, 0.1), t="soon"),
           lambda: KernelQuery(surface=surface, x=(0, 0), y=(0.1, 0.1), t=0.1, epsilon=None),
           lambda: KernelQuery(surface=surface, x=(0, 0), y=(0.1, 0.1), t=0.1, epsilon="tiny"),
           lambda: KernelQuery(surface=surface, x=("a", 0), y=(0.1, 0.1), t=0.1),
           lambda: KernelQuery(surface=surface, x=0.5, y=(0.1, 0.1), t=0.1),
           lambda: heat_values(surface, np.array([0.1]), np.zeros(2), np.full(2, 0.1)),
           lambda: heat_gradient_values(surface, 0.1, np.zeros(2), np.full(2, 0.1), eps=[1e-9]),
           lambda: flatheat.ScanConfig(derivative_tolerance="small"),
           lambda: flatheat.ScanConfig(kernel_epsilon=None)]
    for make in bad:
        with pytest.raises(InvalidParameter):
            make()
    for t in ("-1", 0.0, "nan", math.inf):
        with pytest.raises(NonPositiveTime):
            KernelQuery(surface=surface, x=(0, 0), y=(0.1, 0.1), t=t)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_overflowing_displacements_are_rejected():
    """Finite points whose displacement x - h(y) overflows raise the typed
    error, with no RuntimeWarning, in every kernel entry point."""
    for surface in (klein_bottle(0.7), torus(0.3, 1.2), torus(0.0, 1.0)):
        mode = enumerate_modes(surface, 50.0)[1]
        for x, y in (((1e308, 0.0), (-1e308, 0.0)), ((0.0, -1e308), (0.0, 1e308))):
            for fn in (heat_values, heat_gradient_values):
                with pytest.raises(InvalidParameter):
                    fn(surface, 0.1, np.array(x), np.array(y))
                with pytest.raises(InvalidParameter):
                    fn(surface, 0.1, np.array([x, (0.0, 0.0), x]), np.array([y, y, (0.1, 0.2)]))
            with pytest.raises(InvalidParameter):
                projection_kernel(surface, mode, x, y)
            for fn in (heat_kernel, heat_kernel_gradient):
                with pytest.raises(InvalidParameter):
                    fn(KernelQuery(surface=surface, x=x, y=y, t=0.1))


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_far_points_agree_with_their_recentred_points():
    """A point far out on the cover gives what the same point in the cell
    gives, within the two bounds plus 1e-13, on both routes, for values and
    gradients, single queries and projections.  Without the recentring the
    spectral phases of x = (1e9 + 0.25, 0.3) lost 7e-9, and those of
    x = (1.7e308, 0) overflowed.  Recentred in float arithmetic, the torus
    point x = 1e9 v + (0.25, 0.3) along v = (-0.3, 1.2) moved by 4e-8, as
    1e9 v rounds; its cell point is x - 1e9 v in fractions.  (On a Klein
    bottle of height 0.8 that far along v, x - g(y) itself rounds.)"""
    cases = [((1e9 + 0.25, 0.3), (0.0, 0.0), (0.25, 0.3), (0.0, 0.0)),
             ((0.25, 0.3), (-1e9, 0.0), (0.25, 0.3), (0.0, 0.0)),
             ((1.7e308, 0.0), (0.0, 0.2), (0.0, 0.0), (0.0, 0.2))]
    xv = (1e9 * -0.3 + 0.25, 1e9 * 1.2 + 0.3)
    xv0 = tuple(float(Fraction(c) - 10 ** 9 * Fraction(v)) for c, v in zip(xv, (-0.3, 1.2)))
    along_v = [(xv, (0.0, 0.0), xv0, (0.0, 0.0))]
    for surface, extra in ((torus(0.3, 1.2), along_v), (klein_bottle(0.8), [])):
        modes = enumerate_modes(surface, 120.0)[1:]
        for x, y, x0, y0 in cases + extra:
            far, near = (np.array(x), np.array(y)), (np.array(x0), np.array(y0))
            for t in (0.02, 0.1, 1.0):
                for rep in ("image", "spectral"):
                    for fn in (heat_values, heat_gradient_values):
                        v, e, _, _ = fn(surface, t, *far, eps=1e-12, representation=rep)
                        v0, e0, _, _ = fn(surface, t, *near, eps=1e-12, representation=rep)
                        assert np.isfinite(v).all()
                        assert np.abs(v - v0).max() <= e + e0 + 1e-13, (surface, x, t, rep, fn)
                    q = KernelQuery(surface=surface, x=x, y=y, t=t, representation=rep)
                    q0 = KernelQuery(surface=surface, x=x0, y=y0, t=t, representation=rep)
                    k, k0 = heat_kernel(q), heat_kernel(q0)
                    assert abs(k.value - k0.value) <= k.error_bound + k0.error_bound + 1e-13
            for mode in modes:
                assert abs(projection_kernel(surface, mode, *far)
                           - projection_kernel(surface, mode, *near)) <= 1e-13, (surface, x, mode)
                (g, e), (g0, e0) = (projection_gradient(surface, mode, *p) for p in (far, near))
                assert np.abs(g - g0).max() <= e + e0 + 1e-13, (surface, x, mode)


def _klein_mode_table_by_loops(b, lam_max, tol=1e-9):
    """The Klein mode table from loops over l1 and over l2 up to the ellipse
    (2 pi l1)^2 + (pi l2 / b)^2 <= lam_max: a reference that enumerates no
    dual lattice.  Like the torus table, it keeps eigenvalues up to
    lam_max (1 + tol) + 1e-12."""
    top = lam_max * (1.0 + tol) + 1e-12
    entries = []
    l1 = 0
    while (2 * math.pi * l1) ** 2 <= top:
        lam1 = (2 * math.pi * l1) ** 2
        for l2 in range(int(b * math.sqrt(max(top - lam1, 0.0)) / math.pi) + 2):
            lam = lam1 + (math.pi * l2 / b) ** 2
            rule = kernels._klein_rule(l1, l2)
            if lam <= top and rule is not None:
                entries.append((lam, (l1, l2, "sin" if rule[1] else "cos"), rule[2]))
        l1 += 1
    entries.sort(key=lambda e: (e[0], e[1][0], e[1][1]))
    return kernels._group_eigenvalues(entries, tol)


def test_klein_modes_from_the_cover_dual_disk_match_index_loops():
    """Klein modes read from the cover's half dual disk: the same modes,
    multiplicities and generator sets as loops over (l1, l2), and the
    eigenvalues within 1e-15 relative.  Exactly degenerate shells (b = 1,
    1.5, 2, ...) may list their generators in another order.  A lambda_max
    5e-10 relative below an eigenvalue lists it, within the 1e-9 tolerance."""
    just_below = 4.0 * math.pi ** 2 * (1.0 - 5e-10)
    assert enumerate_modes(klein_bottle(1.0), just_below)[-1].eigenvalue > just_below
    assert enumerate_modes(torus(0.0, 1.0), just_below)[-1].eigenvalue > just_below
    for b in np.linspace(0.05, 5.0, 100).tolist() + [0.5, 1.0, 1.5, 2.0]:
        for lam_max in (40.0, 400.0, 2000.0, just_below):
            got = enumerate_modes(klein_bottle(b), lam_max)
            want = _klein_mode_table_by_loops(b, lam_max)
            assert len(got) == len(want), (b, lam_max)
            for mode, (lam, gens, count) in zip(got, want):
                assert abs(mode.eigenvalue - lam) <= 1e-15 * lam, (b, lam_max, lam)
                assert mode.multiplicity == count, (b, lam_max, lam)
                assert len(mode.generators) == len(gens)
                assert set(mode.generators) == set(gens), (b, lam_max, lam)


def test_gradient_at_huge_time_is_zero():
    # the moment-1 tail once raised OverflowError from alpha ** 1.5 at t >= ~1e205
    for surface in (klein_bottle(0.8), torus(0.3, 1.2)):
        for t in (1e210, 1e300):
            out = heat_kernel_gradient(KernelQuery(surface=surface, x=(0.1, 0.2),
                                                   y=(0.4, 0.3), t=t))
            assert out.gradient == (0.0, 0.0)
            assert math.isfinite(out.error_bound) and out.error_bound <= 1e-10


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_spectral_weights_at_huge_times_warn_nothing():
    """From t ~ 1e305 alpha |p|^2 may overflow, and past t ~ 4.5e306
    alpha = 4 pi^2 t itself, where the origin's inf * 0 reads nan: every
    spectral weight but the origin's is then exactly 0, with no
    RuntimeWarning, on the box and on the disk, in a batch and in a query;
    the kernel is 1 / area and its gradient 0."""
    for surface in (torus(0.0, 1.0), torus(0.3, 1.2), klein_bottle(0.7), klein_bottle(0.05)):
        for t in (1e306, 4.5e306, 1e308):
            vals, _, _, used = heat_values(surface, t, np.zeros((3, 2)), np.full((3, 2), 0.2))
            grads, _, _, _ = heat_gradient_values(surface, t, np.zeros((3, 2)),
                                                  np.full((3, 2), 0.2))
            assert used == "spectral"
            assert vals == pytest.approx(1.0 / surface.area, rel=1e-15)
            assert not grads.any()
            q = KernelQuery(surface=surface, x=(0.0, 0.0), y=(0.1, 0.2), t=t)
            assert heat_kernel(q).value == pytest.approx(1.0 / surface.area, rel=1e-15)
            assert heat_kernel_gradient(q).gradient == (0.0, 0.0)


def test_image_route_at_huge_times_is_unreachable():
    """The image route's tail prefactor underflows to 0 at huge t: the
    gradient's 1 / (8 pi t^2) past t ~ 1e161, and 1 / (4 pi t) once 4 pi t
    overflows.  No bound can then be certified, so values and gradients
    raise ToleranceUnreachable, never ZeroDivisionError from the moment-1
    tail's alpha^(3/2)."""
    q = KernelQuery(surface=torus(0.0, 1.0), x=(0.0, 0.0), y=(0.2, 0.2), t=1e300,
                    representation="image")
    with pytest.raises(ToleranceUnreachable):
        heat_kernel_gradient(q)
    for surface in (torus(0.0, 1.0), torus(0.3, 1.2), klein_bottle(0.7)):
        for t in (1e250, 1e280, 1e300, 1e308):
            for fn in (heat_values, heat_gradient_values):
                with pytest.raises(ToleranceUnreachable):
                    fn(surface, t, np.zeros((2, 2)), np.full((2, 2), 0.2),
                       representation="image")


def test_unreachable_tolerance_raises():
    # tiny time and absurd accuracy needs more than the term budget
    with pytest.raises(ToleranceUnreachable):
        heat_kernel(KernelQuery(surface=torus(0.0, 1.0), x=(0.0, 0.0),
                                y=(0.5, 0.5), t=1e-9, epsilon=1e-280,
                                representation="spectral"))


@settings(max_examples=25, deadline=None)
@given(a=st.floats(0.0, 0.5), bex=st.floats(0.01, 0.8),
       t=st.floats(0.05, 3.0), x1=st.floats(0, 1), x2=st.floats(0, 1),
       y1=st.floats(0, 1), y2=st.floats(0, 1))
def test_kernel_symmetric_and_positive(a, bex, t, x1, x2, y1, y2):
    b = math.sqrt(max(0.0, 1 - a * a)) + bex
    surface = torus(a, b)
    f, ef, _, _ = heat_values(surface, t, (x1, x2), (y1, y2), eps=1e-12)
    g, eg, _, _ = heat_values(surface, t, (y1, y2), (x1, x2), eps=1e-12)
    assert abs(float(f - g)) <= float(ef + eg) + 1e-15
    assert float(f) > 0.0


# ---------------------------------------------------------------------------
# projections and eigenbases


def test_projection_closed_form_generic_vertical():
    surface = torus(0.3, 1.2)
    lam1 = (2 * math.pi / 1.2) ** 2
    modes = enumerate_modes(surface, lam1 + 1.0)
    mode = modes[1]
    assert abs(mode.eigenvalue - lam1) < 1e-9
    s = np.linspace(0.0, 1.0, 37)
    pts = np.stack([np.zeros_like(s), 1.2 * s], axis=-1)
    vals = projection_kernel(surface, mode, np.zeros(2), pts)
    expected = (2.0 / 1.2) * np.cos(2 * math.pi * s)
    assert np.abs(vals - expected).max() < 1e-12


def test_projection_diagonal_constant_on_torus():
    surface = torus(0.3, 1.2)
    for mode in enumerate_modes(surface, 150.0):
        diag = projection_diagonal_scan(surface, mode, 64)
        assert diag.maximum - diag.minimum < 1e-11
        assert abs(diag.maximum - mode.multiplicity / 1.2) < 1e-11


def test_projection_diagonal_klein_spread():
    surface = klein_bottle(1.3)
    modes = enumerate_modes(surface, 40.0)
    lam = FOUR_PI_SQ
    mode = [m for m in enumerate_modes(surface, 41.0)
            if abs(m.eigenvalue - lam) < 1e-9][0]
    diag = projection_diagonal_scan(surface, mode, 64)
    # cos(2 pi x1)^2 eigenfunction: diagonal swings by its full square range
    assert abs((diag.maximum - diag.minimum) - 2.0 / 1.3) < 1e-10
    del modes


def test_grids_over_the_work_budget_are_refused(monkeypatch):
    monkeypatch.setattr(kernels, "TERM_BUDGET", 100)
    for surface in (torus(0.3, 1.2), klein_bottle(0.8)):
        assert fundamental_domain_grid(surface, 10)[0].shape == (10, 10, 2)
        mode = enumerate_modes(surface, 50.0)[1]
        for fn in (fundamental_domain_grid, lambda s, n: projection_diagonal_scan(s, mode, n),
                   lambda s, n: gradient_sum_check(s, mode, n)):
            with pytest.raises(InvalidParameter):
                fn(surface, 11)


def test_eigenbasis_orthonormal_on_grid():
    surface = torus(0.5, HONEYCOMB_B)
    n = 128
    pts, w = fundamental_domain_grid(surface, n)
    funcs = []
    for mode in enumerate_modes(surface, 120.0):
        funcs.extend(eigenbasis_values(surface, mode, pts))
    funcs = np.array(funcs).reshape(len(funcs), -1)
    gram = (funcs * w) @ funcs.T
    assert np.abs(gram - np.eye(len(funcs))).max() < 1e-12


def test_fundamental_domain_grid_rejects_bad_sizes():
    for n in (0, -3, 2.5):
        with pytest.raises(InvalidParameter):
            fundamental_domain_grid(torus(0.0, 1.0), n)


def test_klein_eigenbasis_orthonormal_on_grid():
    surface = klein_bottle(1.3)
    pts, w = fundamental_domain_grid(surface, 128)
    funcs = []
    for mode in enumerate_modes(surface, 90.0):
        funcs.extend(eigenbasis_values(surface, mode, pts))
    funcs = np.array(funcs).reshape(len(funcs), -1)
    gram = (funcs * w) @ funcs.T
    assert np.abs(gram - np.eye(len(funcs))).max() < 1e-10


def test_klein_eigenfunctions_glide_invariant(rng):
    surface = klein_bottle(0.9)
    pts = rng.uniform(-1, 2, (50, 2))
    glided = np.stack([1.0 - pts[:, 0], pts[:, 1] + 0.9], axis=-1)
    for mode in enumerate_modes(surface, 80.0):
        direct = eigenbasis_values(surface, mode, pts)
        moved = eigenbasis_values(surface, mode, glided)
        assert np.abs(direct - moved).max() < 1e-12


def test_gradient_sum_constant():
    surface = torus(0.3, 1.2)
    for mode in enumerate_modes(surface, 150.0)[1:]:
        diag = gradient_sum_check(surface, mode, grid=64)
        expected = mode.eigenvalue * mode.multiplicity / 1.2
        assert abs(diag.maximum - expected) < 1e-9
        assert abs(diag.minimum - expected) < 1e-9


def test_projection_gradient_matches_fd(rng):
    h = 1e-6
    for surface in (torus(0.3, 1.2), klein_bottle(0.8), klein_bottle(1.3)):
        mode = enumerate_modes(surface, 70.0)[1]
        for _ in range(10):
            x = rng.uniform(0, 1, 2)
            y = rng.uniform(0, 1, 2)
            grad, _ = projection_gradient(surface, mode, x, y)
            for k in range(2):
                e = np.zeros(2)
                e[k] = h
                fd = (projection_kernel(surface, mode, x, y + e)
                      - projection_kernel(surface, mode, x, y - e)) / (2 * h)
                assert abs(float(fd) - grad[k]) < 5e-7


def test_projections_equal_eigenbasis_products(rng):
    """P_lambda as a deck sum over the cover shell equals sum_j phi_j(x) phi_j(y).

    Every mode with lambda <= 400, points well outside the fundamental domain;
    on Klein bottles this checks the map from generators (l1, l2) to cover
    vectors (+-l1, +-l2 / 2b) and the cancellation of the unnamed ones.
    """
    X = rng.uniform(-1, 2, (64, 2))
    Y = rng.uniform(-1, 2, (64, 2))
    surfaces = [torus(0.0, 1.0), torus(0.5, HONEYCOMB_B), torus(0.3, 1.2),
                klein_bottle(0.3), klein_bottle(0.8), klein_bottle(1.0), klein_bottle(1.3)]
    for surface in surfaces:
        for mode in enumerate_modes(surface, 400.0):
            value, grad = eigenbasis_projection(surface, mode, X, Y)
            assert np.abs(projection_kernel(surface, mode, X, Y) - value).max() <= 1e-13
            assert np.abs(projection_gradient(surface, mode, X, Y)[0] - grad).max() <= 2e-12


# ---------------------------------------------------------------------------
# integral identities


def test_mass_one_by_quadrature():
    for surface in (torus(0.0, 1.0), torus(0.5, HONEYCOMB_B), klein_bottle(1.3)):
        pts, w = fundamental_domain_grid(surface, 256, midpoint=True)
        vals, _, _, _ = heat_values(surface, 0.05, np.array([0.2, 0.1]), pts,
                                    eps=1e-12)
        assert abs(float(vals.sum()) * w - 1.0) < 1e-6


def test_semigroup_identity_by_quadrature():
    for surface in (torus(0.3, 1.2), klein_bottle(1.3)):
        pts, w = fundamental_domain_grid(surface, 128, midpoint=True)
        x = np.array([0.15, 0.35])
        y = np.array([0.6, 0.1])
        f, _, _, _ = heat_values(surface, 0.4, x, pts, eps=1e-12)
        g, _, _, _ = heat_values(surface, 0.35, pts, y, eps=1e-12)
        direct, _, _, _ = heat_values(surface, 0.75, x, y, eps=1e-12)
        assert abs(float((f * g).sum()) * w - float(direct)) < 1e-5


def test_klein_kernel_equals_double_cover_combination(rng):
    kb = klein_bottle(1.3)
    cover = torus(0.0, 2.6)
    X = rng.uniform(0, 1, (40, 2))
    Y = rng.uniform(0, 1, (40, 2))
    glided = np.stack([1.0 - Y[:, 0], Y[:, 1] + 1.3], axis=-1)
    for t in (0.05, 0.4, 2.0):
        vk, _, _, _ = heat_values(kb, t, X, Y, eps=1e-13)
        va, _, _, _ = heat_values(cover, t, X, Y, eps=1e-13)
        vb, _, _, _ = heat_values(cover, t, X, glided, eps=1e-13)
        assert np.abs(vk - (va + vb)).max() < 1e-11


def test_large_time_projection_limit(rng):
    # K_t - 1/A  ~  exp(-lam1 t) P_1  with the rest bounded by the lam2 tail;
    # P_1 from the explicit eigenbasis, independent of the kernel's deck sum
    for surface in (torus(0.0, 1.0), torus(0.5, HONEYCOMB_B), klein_bottle(1.3)):
        area = surface.area
        modes = enumerate_modes(surface, 170.0)
        lam1, lam2 = modes[1].eigenvalue, modes[2].eigenvalue
        c2 = 2.0 * (modes[2].multiplicity + 2) / area
        X = rng.uniform(0, 1, (20, 2))
        Y = rng.uniform(0, 1, (20, 2))
        p1, _ = eigenbasis_projection(surface, modes[1], X, Y)
        for t in (1.0, 2.0, 4.0):
            vals, _, _, _ = heat_values(surface, t, X, Y, eps=1e-15)
            resid = np.abs(vals - 1.0 / area - math.exp(-lam1 * t) * p1)
            assert resid.max() <= c2 * math.exp(-lam2 * t) + 1e-15


def test_glide_invariance_of_klein_kernel(rng):
    kb = klein_bottle(0.8)
    X = rng.uniform(0, 1, (30, 2))
    Y = rng.uniform(0, 1, (30, 2))
    gx = np.stack([1.0 - X[:, 0], X[:, 1] + 0.8], axis=-1)
    v0, _, _, _ = heat_values(kb, 0.3, X, Y, eps=1e-13)
    v1, _, _, _ = heat_values(kb, 0.3, gx, Y, eps=1e-13)
    assert np.abs(v0 - v1).max() < 1e-12
    assert np.abs(glide(kb, glide(kb, (0.1, 0.2))) -
                  (np.array([0.1, 0.2]) + [0.0, 1.6])).max() < 1e-15
