"""Finite-difference heat-equation oracle on the fundamental parallelogram.

Solves du/dt = Lap u in lattice coordinates x = p b1 + q b2 with periodic
wraparound, using explicit Euler and the 9-point stencil whose mixed term is
the centered cross difference.  The stencil is circulant, so the 2-D DFT
diagonalises it with the real symbol at frequencies (tp, tq)
    sigma = [g11 (2 cos tp - 2) + g22 (2 cos tq - 2) - 2 g12 sin tp sin tq] / h^2,
and the Euler iterates are evaluated exactly as one Fourier multiplier that
leaves the mean, hence the discrete mass, untouched.  Serves as an independent
check on the analytic kernel evaluators: a narrow Gaussian evolved
numerically must match the Gaussian-smoothed kernel.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameter, UnstableStep
from . import kernels
from .lattice import ReducedLattice, _nearest_window
from .surfaces import Torus, _deck


def laplacian_coefficients(lat: ReducedLattice) -> dict:
    """Coefficients of Lap = g11 d_pp + 2 g12 d_pq + g22 d_qq in lattice coords.

    (g_ij) is the inverse Gram matrix of the basis rows.
    """
    a, b = lat.a, lat.b
    det = b * b
    return {"g11": (a * a + b * b) / det, "g12": a / det, "g22": 1.0 / det}


def stable_step(lat: ReducedLattice, n: int) -> float:
    """Largest explicit-Euler step allowed by the stability precondition."""
    n = kernels._check_size(n, 2, "grid resolution")
    g = laplacian_coefficients(lat)
    h = 1.0 / n
    return h * h / (2.0 * (g["g11"] + g["g22"] + 2.0 * abs(g["g12"])))


@dataclass(frozen=True, eq=False)
class GridSolution:
    lattice: ReducedLattice
    n: int
    dt: float
    field: np.ndarray
    time: float = 0.0

    def __post_init__(self):
        kernels._check_size(self.n, 2, "grid resolution")
        if not (self.dt > 0 and math.isfinite(self.dt)):
            raise InvalidParameter(f"dt must be positive, got {self.dt}")
        if not (self.time >= 0 and math.isfinite(self.time)):
            raise InvalidParameter(f"time must be finite and non-negative, got {self.time}")
        f = np.asarray(self.field, dtype=float)
        if f.shape != (self.n, self.n):
            raise InvalidParameter(f"field must be {self.n}x{self.n}, got {f.shape}")
        if not np.all(np.isfinite(f)):
            raise InvalidParameter("field must be finite")
        object.__setattr__(self, "field", f)

    @property
    def mass(self) -> float:
        return float(self.field.sum()) * self.lattice.covolume / (self.n * self.n)

    @property
    def nodes_plane(self) -> np.ndarray:
        return kernels.fundamental_domain_grid(Torus(lattice=self.lattice), self.n)[0]


def gaussian_state(lat: ReducedLattice, n: int, sigma: float | None = None,
                   dt: float | None = None) -> GridSolution:
    """Narrow periodized Gaussian bump at the origin (default sigma = 4h).

    The field samples the analytic kernel at time sigma^2/2, so an evolved
    solution at time t is comparable to the kernel at t + sigma^2/2.
    """
    n = kernels._check_size(n, 2, "grid resolution")
    h = 1.0 / n
    sigma = 4.0 * h if sigma is None else float(sigma)
    if sigma <= 0:
        raise InvalidParameter("sigma must be positive")
    if dt is None:
        dt = 0.5 * stable_step(lat, n)
    surf = Torus(lattice=lat)
    sol = GridSolution(lattice=lat, n=n, dt=float(dt), field=np.zeros((n, n)))
    vals, _, _, _ = kernels.heat_values(surf, 0.5 * sigma * sigma, np.zeros(2),
                                        sol.nodes_plane, eps=1e-14)
    return GridSolution(lattice=lat, n=n, dt=float(dt), field=vals, time=0.0)


def evolve(initial: GridSolution, t_final: float) -> GridSolution:
    """Advance to t_final with explicit Euler; the last partial step shrinks.

    All steps act at once: each Fourier mode of field - mean is multiplied
    by (1 + dt sigma)^steps (1 + last sigma), then the mean is added back.
    """
    if not math.isfinite(t_final):
        raise InvalidParameter(f"t_final must be finite, got {t_final}")
    if t_final < initial.time:
        raise InvalidParameter("t_final must not precede the current time")
    bound = stable_step(initial.lattice, initial.n)
    if initial.dt > bound * (1.0 + 1e-12):
        raise UnstableStep(
            f"dt = {initial.dt:g} exceeds the stability bound {bound:g}")
    n, dt, u = initial.n, initial.dt, initial.field.copy()
    remaining = t_final - initial.time
    steps = remaining / dt
    if not math.isfinite(steps):
        raise InvalidParameter(f"the step count to t_final = {t_final:g} at dt = {dt:g} overflows")
    steps = int(steps)
    last = remaining - steps * dt
    last = last if last > 1e-15 * max(t_final, 1.0) else 0.0
    if steps or last:
        g = laplacian_coefficients(initial.lattice)
        tp = 2.0 * math.pi * np.fft.fftfreq(n)[:, None]
        tq = 2.0 * math.pi * np.fft.rfftfreq(n)[None, :]
        sigma = (g["g11"] * (2.0 * np.cos(tp) - 2.0) + g["g22"] * (2.0 * np.cos(tq) - 2.0)
                 - 2.0 * g["g12"] * np.sin(tp) * np.sin(tq)) * (n * n)
        mean = u.mean()
        spectrum = np.fft.rfft2(u - mean) * (1.0 + dt * sigma) ** steps * (1.0 + last * sigma)
        u = np.fft.irfft2(spectrum, s=(n, n)) + mean
    return GridSolution(lattice=initial.lattice, n=n, dt=dt, field=u, time=t_final)


def _voronoi_representatives(sol: GridSolution) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(rep, best, second) per node: the minimum-norm representative over the
    node's lattice window (``lattice._nearest_window``), its norm, which is
    ``torus_distance`` to the origin, and the runner-up norm; near-equal
    norms mark the cell boundary."""
    cand, norms = _nearest_window(_deck(Torus(sol.lattice))[0], sol.nodes_plane)
    rep = np.take_along_axis(cand, norms.argmin(axis=0)[None, None], axis=1)[:, 0].T
    best, second = np.partition(norms, 1, axis=0)[:2]
    n = sol.n
    return rep.reshape(n, n, 2), best.reshape(n, n), second.reshape(n, n)


def radial_derivative_field(sol: GridSolution):
    """x . grad u at every node, x the minimum-norm representative.

    Returns (values, boundary_mask); masked nodes sit on the cell boundary
    (their representative is not unique) and carry no sign information.
    """
    h = 1.0 / sol.n
    up = np.pad(sol.field, 1, mode="wrap")
    gp = (up[2:, 1:-1] - up[:-2, 1:-1]) / (2.0 * h)
    gq = (up[1:-1, 2:] - up[1:-1, :-2]) / (2.0 * h)
    binv = np.linalg.inv(sol.lattice.basis)
    gc = np.stack([gp, gq], axis=-1)
    gx = gc @ binv.T
    rep, best, second = _voronoi_representatives(sol)
    boundary = second - best < 1e-9
    return (rep * gx).sum(axis=-1), boundary
