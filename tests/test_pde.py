"""Finite-difference heat solver: stability, conservation, convergence."""
import math

import numpy as np
import pytest

from flatheat import (GridSolution, InvalidParameter, ReducedLattice, Torus,
                      UnstableStep, evolve, gaussian_state,
                      laplacian_coefficients, radial_derivative_field,
                      stable_step, voronoi)
from flatheat import kernels
from flatheat.kernels import heat_values

HONEYCOMB_B = math.sqrt(3.0) / 2.0


def test_laplacian_coefficients_examples(square_lattice, honeycomb_lattice):
    g = laplacian_coefficients(square_lattice)
    assert (g["g11"], g["g12"], g["g22"]) == (1.0, 0.0, 1.0)
    g = laplacian_coefficients(honeycomb_lattice)
    assert abs(g["g11"] - 4.0 / 3.0) < 1e-14
    assert abs(g["g12"] - 2.0 / 3.0) < 1e-14
    assert abs(g["g22"] - 4.0 / 3.0) < 1e-14
    g = laplacian_coefficients(ReducedLattice.from_parameters(0.0, 2.0))
    assert (g["g11"], g["g12"], g["g22"]) == (1.0, 0.0, 0.25)


def test_laplacian_coefficients_are_inverse_gram(rng):
    for _ in range(10):
        a = rng.uniform(0, 0.5)
        b = rng.uniform(math.sqrt(max(0.0, 1 - a * a)) + 1e-3, 2.0)
        lat = ReducedLattice.from_parameters(a, b)
        g = laplacian_coefficients(lat)
        gram = lat.basis @ lat.basis.T
        inv = np.linalg.inv(gram)
        assert abs(g["g11"] - inv[0, 0]) < 1e-13
        assert abs(g["g12"] - inv[0, 1]) < 1e-13
        assert abs(g["g22"] - inv[1, 1]) < 1e-13


def test_stable_step_formula(square_lattice):
    assert abs(stable_step(square_lattice, 64) - (1 / 64) ** 2 / 4.0) < 1e-18


def test_gaussian_state_mass_and_peak(square_lattice):
    state = gaussian_state(square_lattice, 64)
    assert abs(state.mass - 1.0) < 1e-12
    sigma = 4.0 / 64
    assert abs(state.field.max() - 1.0 / (2 * math.pi * sigma * sigma)) < 1.0
    assert state.field.argmax() == 0  # centered at the origin node


def test_mass_conserved_over_many_steps(square_lattice):
    state = gaussian_state(square_lattice, 128)
    evolved = evolve(state, 10_000 * state.dt)
    assert abs(evolved.mass - state.mass) < 1e-8


def test_unstable_step_rejected(square_lattice):
    bad_dt = 1.01 * stable_step(square_lattice, 32)
    state = GridSolution(lattice=square_lattice, n=32, dt=bad_dt,
                         field=np.ones((32, 32)))
    with pytest.raises(UnstableStep):
        evolve(state, 0.01)


def test_partial_last_step_hits_final_time_exactly(square_lattice):
    state = gaussian_state(square_lattice, 32)
    t_final = 7.3 * state.dt  # not a multiple of dt
    evolved = evolve(state, t_final)
    assert evolved.time == t_final
    back = evolve(evolved, t_final)  # zero remaining time is a no-op
    assert np.array_equal(back.field, evolved.field)


def test_constant_field_is_equilibrium(honeycomb_lattice):
    # 0.1 has no exact mean over n^2 nodes; the field must still come back bitwise
    for n in (24, 32):
        for value in (2.5, 0.1):
            state = GridSolution(lattice=honeycomb_lattice, n=n,
                                 dt=0.5 * stable_step(honeycomb_lattice, n),
                                 field=np.full((n, n), value))
            evolved = evolve(state, 0.01)
            assert np.abs(evolved.field - value).max() == 0.0, (n, value)


def _stencil_laplacian(field, g, h):
    # the 9-point stencil written out: axis second differences plus the
    # centered cross difference for the mixed term
    up = np.pad(field, 1, mode="wrap")
    c = up[1:-1, 1:-1]
    axis_p = up[2:, 1:-1] + up[:-2, 1:-1] - 2.0 * c
    axis_q = up[1:-1, 2:] + up[1:-1, :-2] - 2.0 * c
    cross = up[2:, 2:] + up[:-2, :-2] - up[2:, :-2] - up[:-2, 2:]
    return (g["g11"] * axis_p + g["g22"] * axis_q + 0.5 * g["g12"] * cross) / (h * h)


@pytest.mark.parametrize("n", [7, 17, 32])
@pytest.mark.parametrize("a, b", [(0.0, 1.0), (0.5, HONEYCOMB_B), (0.3, 1.1)])
def test_evolve_matches_explicit_stencil_loop(n, a, b):
    lat = ReducedLattice.from_parameters(a, b)
    state = gaussian_state(lat, n, sigma=0.1)
    t_final = 0.02 + 0.37 * state.dt  # needs a partial last step
    g = laplacian_coefficients(lat)
    u = state.field.copy()
    steps = int(t_final / state.dt)
    for _ in range(steps):
        u += state.dt * _stencil_laplacian(u, g, 1.0 / n)
    u += (t_final - steps * state.dt) * _stencil_laplacian(u, g, 1.0 / n)
    assert np.abs(evolve(state, t_final).field - u).max() <= 1e-12


def test_rejects_backward_time(square_lattice):
    state = gaussian_state(square_lattice, 32)
    evolved = evolve(state, 0.01)
    with pytest.raises(InvalidParameter):
        evolve(evolved, 0.005)


def test_evolve_rejects_non_finite_time(square_lattice):
    state = gaussian_state(square_lattice, 16)
    for t_final in (float("nan"), float("inf")):
        with pytest.raises(InvalidParameter):
            evolve(state, t_final)


def test_gaussian_state_rejects_small_grids(square_lattice):
    for n in (1, 0, -3):
        with pytest.raises(InvalidParameter):
            gaussian_state(square_lattice, n)


def test_stable_step_rejects_small_grids(square_lattice):
    for n in (1, 0, -3):
        with pytest.raises(InvalidParameter):
            stable_step(square_lattice, n)



def test_grids_over_the_work_budget_rejected(square_lattice, monkeypatch):
    monkeypatch.setattr(kernels, "TERM_BUDGET", 100)
    assert stable_step(square_lattice, 10) > 0
    for n in (11, 64):
        with pytest.raises(InvalidParameter):
            stable_step(square_lattice, n)
        with pytest.raises(InvalidParameter):
            gaussian_state(square_lattice, n)

def test_grid_solution_validation(square_lattice):
    with pytest.raises(InvalidParameter):
        GridSolution(lattice=square_lattice, n=8, dt=1e-5, field=np.ones((8, 9)))
    with pytest.raises(InvalidParameter):
        GridSolution(lattice=square_lattice, n=8, dt=-1e-5, field=np.ones((8, 8)))
    with pytest.raises(InvalidParameter):
        GridSolution(lattice=square_lattice, n=8, dt=1e-5,
                     field=np.full((8, 8), np.nan))


def test_solution_matches_smoothed_kernel(honeycomb_lattice):
    n = 96
    state = gaussian_state(honeycomb_lattice, n)
    sigma = 4.0 / n
    evolved = evolve(state, 0.05)
    surface = Torus(lattice=honeycomb_lattice)
    ref, _, _, _ = heat_values(surface, 0.05 + sigma * sigma / 2, np.zeros(2),
                               evolved.nodes_plane, eps=1e-14)
    rel = np.abs(evolved.field - ref).max() / np.abs(ref).max()
    assert rel < 5e-4


def test_convergence_order_at_least_19(square_lattice):
    errs = {}
    for n in (64, 128):
        state = gaussian_state(square_lattice, n)
        sigma = 4.0 / n
        evolved = evolve(state, 0.05)
        surface = Torus(lattice=square_lattice)
        ref, _, _, _ = heat_values(surface, 0.05 + sigma * sigma / 2,
                                   np.zeros(2), evolved.nodes_plane, eps=1e-14)
        errs[n] = np.abs(evolved.field - ref).max() / np.abs(ref).max()
    order = math.log(errs[64] / errs[128]) / math.log(2.0)
    assert order > 1.9


def test_symmetry_preserved_exactly(honeycomb_lattice):
    # the stencil commutes with the swap reflection (p,q) -> (q,p) and with
    # inversion; symmetric initial data must stay symmetric to roundoff
    state = gaussian_state(honeycomb_lattice, 64)
    evolved = evolve(state, 0.02)
    f = evolved.field
    assert np.abs(f - f.T).max() < 1e-11
    inv = np.roll(np.roll(f[::-1, :], 1, axis=0)[:, ::-1], 1, axis=1)
    assert np.abs(f - inv).max() < 1e-11


def test_radial_derivative_field_negative_interior(honeycomb_lattice):
    n = 128
    state = gaussian_state(honeycomb_lattice, n)
    evolved = evolve(state, 0.05)
    vals, boundary = radial_derivative_field(evolved)
    from flatheat.pde import _voronoi_representatives
    rep, best, _ = _voronoi_representatives(evolved)
    h = 1.0 / n
    cell = voronoi(honeycomb_lattice)
    excluded = best <= 3 * h
    for vertex in np.asarray(cell.vertices):
        excluded |= np.hypot(rep[..., 0] - vertex[0],
                             rep[..., 1] - vertex[1]) <= 3 * h
    keep = ~excluded & ~boundary
    assert keep.sum() > n * n // 2
    assert vals[keep].max() < 0.0


def test_radial_derivative_field_square(square_lattice):
    # product of 1-d kernels: radial derivative non-positive off the seams
    state = gaussian_state(square_lattice, 128)
    evolved = evolve(state, 0.1)
    vals, boundary = radial_derivative_field(evolved)
    from flatheat.pde import _voronoi_representatives
    rep, best, _ = _voronoi_representatives(evolved)
    keep = ~boundary & (best > 3.0 / 128)
    vertex = np.array([0.5, 0.5])
    for sx in (-1, 1):
        for sy in (-1, 1):
            keep &= np.hypot(rep[..., 0] - sx * vertex[0],
                             rep[..., 1] - sy * vertex[1]) > 3.0 / 128
    assert vals[keep].max() < 0.0
