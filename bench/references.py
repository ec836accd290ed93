"""Independent references for the benchmark's correctness checks.

Nothing here imports flatheat.  Surfaces are described by plain data:
``("torus", a, b)`` for the torus R^2 / {(1, 0), (-a, b)} and
``("klein", b)`` for the Klein bottle of height b, whose double cover is the
rectangular torus {(1, 0), (0, 2b)} with deck map g(y) = (1 - y1, y2 + b).

Kernel sums run over a generous box of lattice coefficients that contains
every term within exp(-CUTOFF) of the largest one, instead of a certified
radius search, so they share no truncation logic with the program.  Every sum
also returns the sum of its term magnitudes, from which the checks derive a
rounding allowance.
"""
from __future__ import annotations

import math

import numpy as np

EPS = np.finfo(float).eps
# terms whose Gaussian factor is below exp(-CUTOFF) are left out
CUTOFF = 100.0
# points per block, so that one block of terms stays near 16 MB
_BLOCK_TERMS = 2_000_000
# image sums are used below this time, eigenfunction sums above it
IMAGE_BELOW_T = 0.5
# Rounding allowance = ROUNDING_FACTOR * eps * (sum of |terms|).  It covers
# pairwise summation (log2 of a few thousand terms) plus the phase error of
# cos/sin at arguments up to 2*pi*|k|*|d| ~ 60 in a spectral sum at t = 0.01.
ROUNDING_FACTOR = 128.0


def rows_of(surface) -> np.ndarray:
    """Basis rows of the torus itself, or of the Klein bottle's double cover."""
    if surface[0] == "torus":
        _, a, b = surface
        return np.array([[1.0, 0.0], [-a, b]])
    return np.array([[1.0, 0.0], [0.0, 2.0 * surface[1]]])


def _box(rows: np.ndarray, half: int) -> np.ndarray:
    r = np.arange(-half, half + 1, dtype=float)
    m, n = np.meshgrid(r, r, indexing="ij")
    return np.stack([m.ravel(), n.ravel()], axis=1) @ rows


def _covering_box(rows: np.ndarray, radius: float) -> np.ndarray:
    """Lattice points whose coefficients cover the disk of this radius.

    A point m r1 + n r2 of norm <= R has |m| <= R |r2| / |det| and
    |n| <= R |r1| / |det|, so a box of that half-width holds the whole disk.
    """
    norms = np.hypot(rows[:, 0], rows[:, 1])
    det = abs(float(np.linalg.det(rows)))
    return _box(rows, int(math.ceil(radius * norms.max() / det)) + 1)


def _blocks(n_points: int, n_terms: int):
    step = max(1, _BLOCK_TERMS // max(n_terms, 1))
    for i in range(0, n_points, step):
        yield slice(i, i + step)


def _reduce_offset(d: np.ndarray, rows: np.ndarray) -> np.ndarray:
    coeff = np.linalg.solve(rows.T, d.T).T
    return d - np.round(coeff) @ rows


def _image_sum(rows, t, d, grad):
    """Gaussian image sum of the torus with these rows at offsets d = x - y."""
    d = _reduce_offset(np.atleast_2d(d), rows)
    # |d| <= |r1| + |r2| after reduction; exp(-R^2 / 4t) = exp(-CUTOFF)
    reach = math.sqrt(4.0 * t * CUTOFF) + float(np.hypot(rows[:, 0], rows[:, 1]).sum())
    lat = _covering_box(rows, reach)
    val = np.empty((len(d), 2) if grad else len(d))
    mag = np.empty(len(d))
    for blk in _blocks(len(d), len(lat)):
        z = d[blk, None, :] - lat[None, :, :]
        e = np.exp(-(z[..., 0] ** 2 + z[..., 1] ** 2) / (4.0 * t)) / (4.0 * math.pi * t)
        if grad:
            terms = e[..., None] * z / (2.0 * t)
            val[blk] = terms.sum(axis=1)
            mag[blk] = np.abs(terms).sum(axis=(1, 2))
        else:
            val[blk] = e.sum(axis=1)
            mag[blk] = val[blk]
    return val, mag


def _eigen_sum(rows, t, d, grad):
    """Eigenfunction sum of the torus with these rows at offsets d = x - y."""
    d = np.atleast_2d(d)
    dual = np.linalg.inv(rows).T
    covol = abs(np.linalg.det(rows))
    # exp(-4 pi^2 t |k|^2) = exp(-CUTOFF)
    k = _covering_box(dual, math.sqrt(CUTOFF / t) / (2.0 * math.pi))
    w = np.exp(-4.0 * math.pi ** 2 * t * (k[:, 0] ** 2 + k[:, 1] ** 2)) / covol
    val = np.empty((len(d), 2) if grad else len(d))
    mag = np.empty(len(d))
    for blk in _blocks(len(d), len(k)):
        ph = 2.0 * math.pi * d[blk] @ k.T
        if grad:
            terms = (np.sin(ph) * w)[..., None] * (2.0 * math.pi * k)[None, :, :]
            val[blk] = terms.sum(axis=1)
            mag[blk] = np.abs(terms).sum(axis=(1, 2))
        else:
            terms = np.cos(ph) * w
            val[blk] = terms.sum(axis=1)
            mag[blk] = np.abs(terms).sum(axis=1)
    return val, mag


def _torus_sum(rows, t, d, grad, representation):
    fn = _image_sum if representation == "image" else _eigen_sum
    return fn(rows, t, d, grad)


def kernel(surface, t, x, y, grad=False, representation=None):
    """K_t(x, y), or its gradient in y, with the sum of term magnitudes.

    x and y broadcast to (..., 2).  ``representation`` picks the image or the
    eigenfunction sum; by default the one whose terms do not cancel at this t.
    Returns (values, magnitudes) shaped (...) or (..., 2) and (...).
    """
    if representation is None:
        representation = "image" if t < IMAGE_BELOW_T else "spectral"
    x, y = np.broadcast_arrays(np.asarray(x, float), np.asarray(y, float))
    shape = x.shape[:-1]
    x = x.reshape(-1, 2)
    y = y.reshape(-1, 2)
    rows = rows_of(surface)
    val, mag = _torus_sum(rows, t, x - y, grad, representation)
    if surface[0] == "klein":
        b = surface[1]
        gy = np.stack([1.0 - y[:, 0], y[:, 1] + b], axis=1)
        v2, m2 = _torus_sum(rows, t, x - gy, grad, representation)
        if grad:
            v2 = v2 * np.array([-1.0, 1.0])
        val, mag = val + v2, mag + m2
    return val.reshape(shape + val.shape[1:]), mag.reshape(shape)


def rounding_allowance(magnitudes) -> np.ndarray:
    return ROUNDING_FACTOR * EPS * np.asarray(magnitudes)


def kernel_mismatch(surface, t, x, y, program_value, error_bound, grad,
                    representation_used):
    """Largest excess of |program - reference| over the permitted error.

    The permitted error is the program's bound plus a rounding allowance from
    the term magnitudes of both the reference sum and the brute-force sum in
    the representation the program used.  A result <= 0 passes.
    """
    ref, mag = kernel(surface, t, x, y, grad=grad)
    _, mag_used = kernel(surface, t, x, y, grad=grad,
                         representation=representation_used)
    diff = np.abs(np.asarray(program_value, float) - ref)
    if grad:
        diff = diff.max(axis=-1)
    excess = diff - error_bound - rounding_allowance(mag + mag_used)
    return float(np.max(excess))


# ---------------------------------------------------------------------------
# geometry


def orbit(surface, y, half: int = 3) -> np.ndarray:
    """Plane points equivalent to y on the surface, coefficients in [-half, half]."""
    y = np.asarray(y, float)
    rows = rows_of(surface)
    lat = _box(rows, half)
    pts = y[None, :] + lat
    if surface[0] == "klein":
        gy = np.array([1.0 - y[0], y[1] + surface[1]])
        pts = np.concatenate([pts, gy[None, :] + lat])
    return pts


def orbit_distance(surface, x, y) -> float:
    """Surface distance as the minimum plane distance over the orbit of y.

    The orbit is first moved next to x so that the fixed coefficient window
    contains the nearest representative.
    """
    x = np.asarray(x, float)
    y = np.asarray(y, float)
    rows = rows_of(surface)
    y0 = x - _reduce_offset((x - y)[None, :], rows)[0]
    pts = orbit(surface, y0)
    return float(np.min(np.hypot(*(pts - x).T)))


def shortest_vector(rows: np.ndarray) -> float:
    """Length of the shortest non-zero lattice vector, by enumeration.

    Coefficients up to 4 suffice for the bases the benchmark draws, whose
    vectors are at most ~80 degrees from orthogonal.
    """
    lat = _box(np.asarray(rows, float), 4)
    norms = np.hypot(lat[:, 0], lat[:, 1])
    return float(norms[norms > 0.0].min())


def cut_distance(a: float, b: float, u) -> float:
    """Closed-form torus cut distance: min |l|^2 / (2 u.l) over u.l > 0.

    Runs over every lattice vector with coefficients in [-3, 3]; the vectors
    that are not Voronoi-relevant never attain the minimum.
    """
    u = np.asarray(u, float)
    u = u / math.hypot(u[0], u[1])
    lat = _box(np.array([[1.0, 0.0], [-a, b]]), 3)
    dots = lat @ u
    keep = dots > 1e-12
    return float(np.min((lat[keep] ** 2).sum(axis=1) / (2.0 * dots[keep])))


# ---------------------------------------------------------------------------
# closed forms of the counterexample families


def generic_projection(b: float, s) -> np.ndarray:
    """P(0, (0, s b)) on a generic torus: (2/b) cos 2 pi s."""
    return (2.0 / b) * np.cos(2.0 * math.pi * np.asarray(s))


def generic_s_star(a: float, b: float) -> float:
    return (a * a + b * b) / (2.0 * b * b)


def isosceles_projection(b: float, s) -> np.ndarray:
    """P along the diagonal of the unit rhombus: (4/b) cos 2 pi s."""
    return (4.0 / b) * np.cos(2.0 * math.pi * np.asarray(s))


def klein_projection(b: float, xi: float, s) -> np.ndarray:
    """P along the vertical geodesic from (xi, 0), s the arc length over b.

    b > 1: (2/b) cos 2 pi s.  b = 1: 2 cos^2 2 pi xi + 2 cos 2 pi s.
    """
    s = np.asarray(s)
    if b > 1.0:
        return (2.0 / b) * np.cos(2.0 * math.pi * s)
    return 2.0 * math.cos(2.0 * math.pi * xi) ** 2 + 2.0 * np.cos(2.0 * math.pi * s)


def klein_s_star(b: float, xi: float) -> float:
    """Cut arc length over b of the vertical geodesic from (xi, 0)."""
    gap = min(2.0 * xi, 1.0 - 2.0 * xi)
    return (gap * gap + b * b) / (2.0 * b * b)
