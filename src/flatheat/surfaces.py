"""Flat surfaces (tori and Klein bottles), orbits, distances, minimal geodesics.

A torus is R^2 / Lambda with Lambda in the canonical reduced frame.  A Klein
bottle of height b is R^2 modulo (x1, x2) ~ (x1 + 1, x2) ~ (1 - x1, x2 + b);
its orientable double cover is the rectangular torus with lattice
{(1, 0), (0, 2b)} and the deck transformation is the glide map
g(y) = (1 - y1, y2 + b).  ``_deck`` is the one description of the deck group
(a torus is its own cover); orbits, distances and kernels all read it.

A distance is the nearest cover image over the deck elements; minimal
geodesics are closed forms.  The unit-speed segment x + s u is minimal
exactly while s <= min |v|^2 / (2 v.u) over the deck offsets v of x with
v.u > 0: the Voronoi-relevant vectors on a torus; the cover translations
(m, 2kb) and the glide offsets (1 + m - 2 x1, (2k + 1) b) on a Klein bottle.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import InvalidParameter
from .lattice import ReducedLattice, _cut_lengths, _nearest_window, _unit, _vec, voronoi


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
    _, lin, shift = _deck(surface)
    return _vec(y) * lin[1] + shift[1]


def orbit_representatives(surface: FlatSurface, y, shell: int = 1) -> np.ndarray:
    """Plane points equivalent to y, out to the given coefficient shell.

    Torus: y + m1 b1 + m2 b2 for |m1|, |m2| <= shell.  Klein bottle: both
    (y1 + m, y2 + 2kb) and the glide images (1 - y1 + m, b + y2 + 2kb).
    Raises InvalidParameter unless shell is a non-negative integer.
    """
    if not (isinstance(shell, numbers.Integral) and shell >= 0):
        raise InvalidParameter(f"shell must be a non-negative integer, got {shell!r}")
    rows, lin, shift = _deck(surface)
    rng = np.arange(-shell, shell + 1)
    mm, kk = np.meshgrid(rng, rng, indexing="ij")
    mn = np.stack([mm.ravel(), kk.ravel()], axis=1).astype(float)
    images = _vec(y) * lin + shift
    return (images[:, None, :] + (mn @ np.array(rows))[None]).reshape(-1, 2)


def surface_distance(surface: FlatSurface, x, y) -> float:
    """Geodesic distance: the nearest cover image of y over the deck elements,
    the least norm over the lattice windows (``lattice._nearest_window``) of
    the displacements x - h(y).  Raises InvalidParameter unless x, y and the
    displacements are finite.
    """
    rows, lin, shift = _deck(surface)
    with np.errstate(over="ignore"):  # an overflow is rejected as a non-finite displacement
        d = _vec(x) - (_vec(y) * lin + shift)
    return float(_nearest_window(rows, d)[1].min())


def _s_max(surface: FlatSurface, base: np.ndarray, dirs: np.ndarray) -> np.ndarray:
    """Minimal-segment arc length from base along each unit row of dirs.

    Klein offsets: the relevant vectors (+-1, 0), (0, +-2b) of the cover and
    the glide offsets (c + m, +-b), c = 1 - 2 (x1 mod 1), m in {-1, 0, 1};
    they cover the window derived in ``lattice._cut_lengths``.
    """
    if isinstance(surface, Torus):
        offsets = voronoi(surface.lattice).relevant_vectors
    else:
        b, c = surface.b, 1.0 - 2.0 * (float(base[0]) % 1.0)
        offsets = np.array([(1.0, 0.0), (-1.0, 0.0), (0.0, 2.0 * b), (0.0, -2.0 * b),
                            *((c + m, h) for m in (-1.0, 0.0, 1.0) for h in (b, -b))])
    return _cut_lengths(offsets, dirs)


def minimal_geodesic(surface: FlatSurface, base, direction) -> Geodesic:
    """Largest s_max such that base + s * direction is minimal on [0, s_max].

    s_max = min |v|^2 / (2 v.u) over the deck offsets v of the base with
    v.u > 0, u the unit direction (see the module docstring).  On a torus
    s_max is ``cut_distance`` of u and does not depend on the base.
    """
    base = _vec(base)
    if not all(map(math.isfinite, base)):
        raise InvalidParameter("base must be finite")
    u = _unit(direction)
    return Geodesic(tuple(map(float, base)), tuple(map(float, u)),
                    float(_s_max(surface, base, u[None, :])[0]))
