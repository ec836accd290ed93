"""Flat surfaces (tori and Klein bottles), orbits, distances, minimal geodesics.

A torus is R^2 / Lambda with Lambda in the canonical reduced frame.  A Klein
bottle of height b is R^2 modulo (x1, x2) ~ (x1 + 1, x2) ~ (1 - x1, x2 + b);
its orientable double cover is the rectangular torus with lattice
{(1, 0), (0, 2b)} and the deck transformation is the glide map
g(y) = (1 - y1, y2 + b).  ``_deck`` is the one description of the deck group
(a torus is its own cover); orbits, distances, cut lengths and kernels read it.

One lift rule: the lifts of y near x are h(y) + l over the deck elements h
and the cover translations l of the ``lattice._nearest_window`` window of
x - h(y).  A distance is the least |x - h(y) - l|; the segment x + s u is
minimal while s <= |v|^2 / (2 v.u) for each other lift v = h(x) + l - x of x
with v.u > 0.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import InvalidParameter
from .lattice import ReducedLattice, _cut_lengths, _nearest_window, _recentre, _unit, _vec


@dataclass(frozen=True)
class Torus:
    lattice: ReducedLattice

    @property
    def area(self) -> float:
        return self.lattice.b


@dataclass(frozen=True)
class KleinBottle:
    b: float

    def __post_init__(self):
        if not (math.isfinite(self.b) and self.b > 0):
            raise InvalidParameter(f"Klein bottle height must be positive, got {self.b}")

    @property
    def area(self) -> float:
        return self.b


FlatSurface = Torus | KleinBottle


def torus(a: float, b: float) -> Torus:
    return Torus(ReducedLattice.from_parameters(a, b))


def klein_bottle(b: float) -> KleinBottle:
    return KleinBottle(float(b))


def surface_descriptor(surface: FlatSurface) -> dict:
    """Plain-data description of a surface, used in reports."""
    if isinstance(surface, Torus):
        return {"kind": "torus", "a": surface.lattice.a, "b": surface.lattice.b}
    return {"kind": "klein", "b": surface.b}


@dataclass(frozen=True)
class Geodesic:
    """A unit-speed straight segment that is minimal exactly for s in [0, s_max]."""

    base: tuple[float, float]
    direction: tuple[float, float]
    s_max: float


@lru_cache(maxsize=128)
def _deck(surface: FlatSurface):
    """(rows, lin, shift): the cover lattice's basis rows and the deck maps
    y -> y * lin[h] + shift[h], identity first, as read-only arrays."""
    if isinstance(surface, Torus):
        rows = ((1.0, 0.0), (-surface.lattice.a, surface.lattice.b))
        lin, shift = np.ones((1, 2)), np.zeros((1, 2))
    else:
        rows = ((1.0, 0.0), (0.0, 2.0 * surface.b))
        lin, shift = np.array([[1.0, 1.0], [-1.0, 1.0]]), np.array([[0.0, 0.0], [1.0, surface.b]])
    lin.flags.writeable = shift.flags.writeable = False
    return rows, lin, shift


def glide(surface: KleinBottle, y) -> np.ndarray:
    if not isinstance(surface, KleinBottle):
        raise InvalidParameter("glide needs a Klein bottle")
    _, lin, shift = _deck(surface)
    return _vec(y) * lin[1] + shift[1]


def orbit_representatives(surface: FlatSurface, y, shell: int = 1) -> np.ndarray:
    """Plane points equivalent to y, out to the given coefficient shell.

    Torus: y + m1 b1 + m2 b2 for |m1|, |m2| <= shell.  Klein bottle: both
    (y1 + m, y2 + 2kb) and the glide images (1 - y1 + m, b + y2 + 2kb).
    Raises InvalidParameter, before anything is allocated, unless shell is a
    non-negative integer whose points stay within TERM_BUDGET.
    """
    from .kernels import _check_size  # kernels imports this module
    if not (isinstance(shell, numbers.Integral) and shell >= 0):
        raise InvalidParameter(f"shell must be a non-negative integer, got {shell!r}")
    rows, lin, shift = _deck(surface)
    side = 2 * int(shell) + 1
    _check_size(side, 1, "shell side", width=len(lin) * side)
    rng = np.arange(-shell, shell + 1)
    mm, kk = np.meshgrid(rng, rng, indexing="ij")
    mn = np.stack([mm.ravel(), kk.ravel()], axis=1).astype(float)
    images = _vec(y) * lin + shift
    return (images[:, None, :] + (mn @ np.array(rows))[None]).reshape(-1, 2)


def _deck_displacements(surface: FlatSurface, x: np.ndarray, y: np.ndarray):
    """(rows, lin, disp): the cover rows, the deck maps' linear parts and the
    displacements x - h(y) = x - (y * lin[h] + shift[h]) over the deck
    elements h, shape (deck elements, ..., 2), for float arrays x, y of one
    shape (..., 2): the one place x - h(y) is formed.  It runs per
    coordinate, so that the loops run over points, not over pairs, but for
    a single pair, whose elementwise operations it runs in three calls: the
    broadcast form takes about half the time of the per-coordinate one up
    to ~100 points and two to four times it from ~1000.  An
    overflow or an infinite point gives inf or NaN without a warning, which
    ``lattice._recentre`` rejects.
    """
    rows, lin, shift = _deck(surface)
    disp = np.empty((len(lin),) + y.shape)
    with np.errstate(over="ignore", invalid="ignore"):
        if y.ndim == 1:  # one pair of points: the same operations, in fewer calls
            np.subtract(x, y * lin + shift, out=disp)
            return rows, lin, disp
        shape = (len(lin),) + (1,) * (y.ndim - 1)
        for c in (0, 1):
            np.subtract(x[..., c], y[..., c] * lin[:, c].reshape(shape)
                        + shift[:, c].reshape(shape), out=disp[..., c])
    return rows, lin, disp


def surface_distance(surface: FlatSurface, x, y) -> float:
    """Geodesic distance: the nearest cover image of y over the deck elements,
    the least norm over the lattice windows (``lattice._nearest_window``) of
    the displacements x - h(y).  Raises InvalidParameter unless x and y are
    points of two components and x, y and the displacements are finite.
    """
    rows, _, d = _deck_displacements(surface, _vec(x), _vec(y))
    return float(_nearest_window(rows, d)[1].min())


def _s_max(surface: FlatSurface, base: np.ndarray, dirs: np.ndarray) -> np.ndarray:
    """Minimal-segment arc length from base along each unit row of dirs, over
    the lifts of the base once it is reduced modulo the cover (exactly, when
    far); InvalidParameter unless the base is finite."""
    rows = _deck(surface)[0]
    x = _recentre(rows, base)[:, 0]
    lifts = _nearest_window(rows, _deck_displacements(surface, x, x)[2])[0]
    return _cut_lengths(-lifts.reshape(2, -1).T, dirs)


def minimal_geodesic(surface: FlatSurface, base, direction) -> Geodesic:
    """Largest s_max such that base + s * direction is minimal on [0, s_max].

    s_max = min |v|^2 / (2 v.u) over the other lifts v = h(x) + l - x of the
    base x with v.u > 0, u the unit direction (``_s_max``).  On a torus
    s_max is ``cut_distance`` of u and does not depend on the base.
    """
    base = _vec(base)
    u = _unit(direction)
    return Geodesic(tuple(map(float, base)), tuple(map(float, u)),
                    float(_s_max(surface, base, u[None, :])[0]))
