"""Rank-2 planar lattices: canonical reduction, classification, duality, Voronoi geometry.

The canonical frame places a shortest lattice vector at (1, 0) and a shortest
independent vector at (-a, b) with 0 <= a <= 1/2, b > 0 and a^2 + b^2 >= 1.
Everything downstream (distances, kernels, scans) works in this frame; the
reduction records the similarity transform needed to map back to the input.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .errors import DegenerateBasis, InvalidParameter

_DEGENERACY_RTOL = 1e-12
_FAR_BASIS = "the basis change to the reduced basis overflows int64"
# displacements beyond this many column sums of |basis rows| reduce exactly
_FAR_REACHES = 64
_NOT_FINITE = "points, and the displacements between them, must be finite"
_TWO_COMPONENTS = "a point or vector must have two components, got {}"
# collapse a Voronoi hexagon to a rectangle when adjacent vertices coincide
_VERTEX_COLLAPSE = 1e-12


def _vec(x) -> np.ndarray:
    """A point or a vector as a float array of shape (2,); InvalidParameter
    unless it has exactly two components."""
    v = np.asarray(x, dtype=float)
    if v.size != 2:
        raise InvalidParameter(_TWO_COMPONENTS.format(v.size))
    return v.reshape(2)


def _pair(p) -> tuple[float, float]:
    """A point given as a sequence, as a pair of floats: the check of ``_vec``
    without building an array, for points that are kept as tuples.
    InvalidParameter unless it has two components that float converts."""
    try:
        if len(p) == 2:
            return float(p[0]), float(p[1])
    except (TypeError, ValueError):
        raise InvalidParameter(f"a point must have two numeric components, got {p!r}") from None
    raise InvalidParameter(_TWO_COMPONENTS.format(len(p)))


def _real(value, what: str) -> float:
    """One number converted with float; InvalidParameter when float refuses
    it or it is an array (older numpy converts a one-element array with a
    warning)."""
    try:
        if np.ndim(value) == 0:
            return float(value)
    except (TypeError, ValueError):
        pass
    raise InvalidParameter(f"{what} must be a number, got {value!r}")


def _cross(u, v) -> float:
    return float(u[0] * v[1] - u[1] * v[0])


def _common_exponent(*vectors: np.ndarray) -> int:
    """e with the largest |component| of the vectors in [2^(e-1), 2^e).

    Scaling the vectors by 2^-e is exact and brings the longest one near unit
    size, so products such as u . v and u x v cannot overflow.
    """
    return math.frexp(float(max(np.abs(w).max() for w in vectors)))[1]


@dataclass(frozen=True)
class RawBasis:
    """A pair of linearly independent plane vectors spanning a lattice."""

    u: tuple[float, float]
    v: tuple[float, float]

    def __post_init__(self):
        u, v = _vec(self.u), _vec(self.v)
        object.__setattr__(self, "u", (float(u[0]), float(u[1])))
        object.__setattr__(self, "v", (float(v[0]), float(v[1])))
        if not (np.isfinite(u).all() and np.isfinite(v).all()):
            raise DegenerateBasis("basis vectors must be finite")
        e = _common_exponent(u, v)
        us, vs = np.ldexp(u, -e), np.ldexp(v, -e)
        nu, nv = float(np.hypot(*us)), float(np.hypot(*vs))
        if abs(_cross(us, vs)) <= _DEGENERACY_RTOL * nu * nv:
            raise DegenerateBasis(f"basis {self.u}, {self.v} is numerically dependent")


@dataclass(frozen=True)
class ReducedLattice:
    """Canonical lattice parameters plus the transform back to the input basis.

    The canonical basis is {(1, 0), (-a, b)}.  The input basis is recovered as

        input_rows = basis_change @ (scale * C @ Q^T)

    with C = [[1, 0], [-a, b]], Q = R(rotation) (composed with a reflection
    across the x-axis first when ``reflect`` is set), and ``basis_change`` an
    integer matrix of determinant +-1.  Reflected inputs occur because planar
    lattices generically come in chiral pairs that no rotation identifies.
    """

    a: float
    b: float
    scale: float
    rotation: float
    basis_change: tuple[tuple[int, int], tuple[int, int]]
    reflect: bool = False

    def __post_init__(self):
        if not (math.isfinite(self.a) and math.isfinite(self.b)):
            raise InvalidParameter(f"a and b must be finite: ({self.a}, {self.b})")
        if not (-1e-12 <= self.a <= 0.5 + 1e-9):
            raise InvalidParameter(f"a out of range: {self.a}")
        if not self.b > 0:
            raise InvalidParameter(f"b must be positive: {self.b}")
        if self.a * self.a + self.b * self.b < 1 - 1e-9:
            raise InvalidParameter(f"(a, b) = ({self.a}, {self.b}) lies below the unit circle")
        if not self.scale > 0:
            raise InvalidParameter("scale must be positive")
        m = np.asarray(self.basis_change, dtype=np.int64)
        if abs(int(round(m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]))) != 1:
            raise InvalidParameter("basis_change must be unimodular")

    @classmethod
    def from_parameters(cls, a: float, b: float) -> "ReducedLattice":
        """Canonical lattice at unit scale with no rotation or basis change."""
        return cls(a=float(a), b=float(b), scale=1.0, rotation=0.0,
                   basis_change=((1, 0), (0, 1)), reflect=False)

    @property
    def basis(self) -> np.ndarray:
        """Canonical basis vectors as rows: (1, 0) and (-a, b)."""
        return np.array([[1.0, 0.0], [-self.a, self.b]])

    @property
    def covolume(self) -> float:
        """Area of the fundamental domain in the canonical frame."""
        return self.b

    def reconstruct_basis(self) -> np.ndarray:
        """Rows of the original input basis, rebuilt from the stored transform."""
        c, s = math.cos(self.rotation), math.sin(self.rotation)
        q = np.array([[c, -s], [s, c]])
        if self.reflect:
            q = q @ np.array([[1.0, 0.0], [0.0, -1.0]])
        rows = self.scale * (self.basis @ q.T)
        return np.asarray(self.basis_change, dtype=float) @ rows


class LatticeTag(str, Enum):
    SQUARE = "Square"
    RECTANGULAR = "Rectangular"
    ISOSCELES = "Isosceles"
    HONEYCOMB = "Honeycomb"
    GENERIC = "Generic"


@dataclass(frozen=True)
class LatticeClass:
    tag: LatticeTag
    tolerance_used: float


@dataclass(frozen=True)
class DualBasis:
    """Rows v1, v2 with v_i . b_j = delta_ij against the canonical basis."""

    v1: tuple[float, float]
    v2: tuple[float, float]

    @property
    def matrix(self) -> np.ndarray:
        return np.array([self.v1, self.v2])


@dataclass(frozen=True, eq=False)
class VoronoiCell:
    """Voronoi cell of the origin: active relevant vectors and ccw vertices."""

    relevant_vectors: np.ndarray  # (k, 2), k in {4, 6}
    vertices: np.ndarray          # (k, 2), counterclockwise

    @property
    def area(self) -> float:
        v = self.vertices
        w = np.roll(v, -1, axis=0)
        return float(0.5 * abs(np.sum(v[:, 0] * w[:, 1] - v[:, 1] * w[:, 0])))


def reduce(basis, v=None) -> ReducedLattice:
    """Lagrange-Gauss reduce a basis to the canonical (a, b) frame.

    Accepts either a RawBasis or two vectors.  Raises DegenerateBasis when the
    input is numerically dependent, and InvalidParameter when b, the scale or
    an entry of the basis change leaves the float or int64 range.
    """
    if v is not None:
        basis = RawBasis(basis, v)
    elif not isinstance(basis, RawBasis):
        raise TypeError("reduce expects a RawBasis or two vectors")

    # reduce the exactly rescaled basis 2^-e (u, v); only the scale depends on e
    u0, v0 = _vec(basis.u), _vec(basis.v)
    e = _common_exponent(u0, v0)
    p, q = np.ldexp(u0, -e), np.ldexp(v0, -e)
    # rows express (p, q) in terms of (u0, v0); Python ints, so they cannot wrap
    m = np.array([[1, 0], [0, 1]], dtype=object)
    for _ in range(256):
        if p @ p > q @ q:
            p, q = q.copy(), p.copy()
            m = m[::-1].copy()
        # p . q / p . p with p scaled to unit size, as p . p may underflow
        f = _common_exponent(p)
        ps = np.ldexp(p, -f)
        try:
            k = round(math.ldexp(float(ps @ q) / float(ps @ ps), -f))
        except OverflowError:
            raise InvalidParameter(_FAR_BASIS) from None
        if k == 0:
            break
        q = q - float(k) * p
        m[1] -= k * m[0]
        if max(map(abs, m[1])) >= 2 ** 62:  # the final q - p step stays in int64
            raise InvalidParameter(_FAR_BASIS)
    else:  # pragma: no cover - Gauss reduction terminates long before this
        raise DegenerateBasis("reduction failed to converge")

    # finish with p at unit size, as ps is: q is about b times longer
    if _common_exponent(q) - f > 1020:
        raise InvalidParameter("b, the aspect ratio of the lattice, overflows a float")
    rotation = math.atan2(float(p[1]), float(p[0]))
    p, q, e = ps, np.ldexp(q, -f), e + f
    s2 = float(p @ p)
    if _cross(p, q) < 0:
        q = -q
        m[1] = -m[1]
    w1 = float(p @ q) / s2
    if w1 > 0.5:  # fp boundary: q - p is the (weakly) shorter choice
        q = q - p
        m[1] -= m[0]
        w1 = float(p @ q) / s2
    reflect = w1 > 0
    a = abs(w1)
    b = _cross(p, q) / s2
    if reflect:
        q = -q
        m[1] = -m[1]

    det = int(round(m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]))
    inv = (
        (int(m[1, 1]) * det, -int(m[0, 1]) * det),
        (-int(m[1, 0]) * det, int(m[0, 0]) * det),
    )
    try:
        scale = math.ldexp(math.sqrt(s2), e)
    except OverflowError:
        raise InvalidParameter("the shortest lattice vector overflows a float") from None
    return ReducedLattice(
        a=min(a, 0.5),
        b=b,
        scale=scale,
        rotation=rotation,
        basis_change=inv,
        reflect=bool(reflect),
    )


def classify(lat: ReducedLattice, tol: float = 1e-9) -> LatticeClass:
    """Symmetry class of the canonical (a, b) pair; ties go to the more symmetric tag.

    Raises InvalidParameter unless tol is finite and non-negative.
    """
    if not (math.isfinite(tol) and tol >= 0):
        raise InvalidParameter(f"tol must be finite and non-negative, got {tol}")
    a, b = lat.a, lat.b
    if a <= tol:
        tag = LatticeTag.SQUARE if abs(b - 1.0) <= tol else LatticeTag.RECTANGULAR
    elif abs(a - 0.5) <= tol and abs(b - math.sqrt(3.0) / 2.0) <= tol:
        tag = LatticeTag.HONEYCOMB
    elif abs(math.hypot(a, b) - 1.0) <= tol:
        tag = LatticeTag.ISOSCELES
    else:
        tag = LatticeTag.GENERIC
    return LatticeClass(tag=tag, tolerance_used=tol)


def dual(lat: ReducedLattice) -> DualBasis:
    """Dual basis of the canonical lattice: v1 = (1, a/b), v2 = (0, 1/b)."""
    return DualBasis(v1=(1.0, lat.a / lat.b), v2=(0.0, 1.0 / lat.b))


def _circumcenter(n1: np.ndarray, n2: np.ndarray) -> np.ndarray:
    mat = np.array([n1, n2])
    rhs = 0.5 * np.array([n1 @ n1, n2 @ n2])
    return np.linalg.solve(mat, rhs)


def voronoi(lat: ReducedLattice) -> VoronoiCell:
    """Voronoi cell of the origin in the canonical frame.

    For a > 0 the relevant vectors are +-b1, +-b2, +-(b1+b2) and the cell is a
    hexagon; when adjacent hexagon vertices coincide (rectangular case) the
    inactive pair is dropped and the cell is a rectangle.
    """
    b1 = np.array([1.0, 0.0])
    b2 = np.array([-lat.a, lat.b])

    def build(rel: list[np.ndarray]) -> VoronoiCell:
        rel_arr = np.array(rel)
        order = np.argsort(np.arctan2(rel_arr[:, 1], rel_arr[:, 0]))
        rel_arr = rel_arr[order]
        verts = np.array([
            _circumcenter(rel_arr[i], rel_arr[(i + 1) % len(rel_arr)])
            for i in range(len(rel_arr))
        ])
        return VoronoiCell(relevant_vectors=rel_arr, vertices=verts)

    hexagon = build([b1, b2, b1 + b2, -b1, -b2, -(b1 + b2)])
    gaps = np.linalg.norm(hexagon.vertices - np.roll(hexagon.vertices, -1, axis=0), axis=1)
    if gaps.min() < _VERTEX_COLLAPSE:
        return build([b1, b2, -b1, -b2])
    return hexagon


def _cut_lengths(offsets: np.ndarray, dirs: np.ndarray) -> np.ndarray:
    """Arc length at which x + s*u stops being minimal, per unit row u of dirs:
    the least |v|^2 / (2 v.u) over the offset rows v with v.u > 0, the other
    lifts h(x) + l - x of the base.  Each v is scaled by its own power of
    two, which is exact, so |v|^2 cannot overflow; the zero lift never binds.
    """
    e = np.frexp(np.abs(offsets).max(axis=1))[1]
    v = np.ldexp(offsets, -e[:, None])
    dots = dirs[:, 0:1] * v[:, 0] + dirs[:, 1:2] * v[:, 1]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        bound = np.ldexp((v[:, 0] ** 2 + v[:, 1] ** 2) / (2.0 * dots), e)
    return np.where(dots > np.ldexp(1e-14, -e), bound, np.inf).min(axis=1)


def _unit(direction) -> np.ndarray:
    """direction / |direction|; InvalidParameter unless both are finite and non-zero."""
    u = _vec(direction)
    if not 0.0 < math.hypot(*u) < math.inf:  # math.hypot does not warn on overflow
        raise InvalidParameter(f"direction must be finite and non-zero, got {u.tolist()}")
    return u / float(np.hypot(*u))


def cut_distance(lat: ReducedLattice, direction) -> float:
    """Distance from the origin to the Voronoi boundary along a unit direction:
    the cut length (``_cut_lengths``) over the ``_nearest_window`` window of
    lattice vectors around the origin."""
    window = _geometry(((1.0, 0.0), (-lat.a, lat.b)))["window"]
    return float(_cut_lengths(window[:, :, 0].T, _unit(direction)[None, :])[0])


@lru_cache(maxsize=128)
def _geometry(rows: tuple):
    """Primal and dual data of the lattice spanned by basis rows ((u0, u1), (v0, v1)).

    "axis_aligned" marks rows (u0, 0), (0, v1): a rectangular lattice, whose
    lattice sums factor into one sum per axis; "periods" are then |u0|, |v1|.
    "far" is _FAR_REACHES times the largest column sum of |rows|, twice the
    largest coordinate of a reduced displacement (``_recentre``).  "reach"
    bounds the modulus of a reduced displacement: half the longer diagonal
    of the cell |c_i| <= 1/2 in lattice coordinates, which ``_recentre``
    reduces into, plus 1e-12 far: the float reduction may leave the cell by
    a few ulps of far.  "window"
    holds the lattice vectors of the 3 x 3 window of ``_nearest_window`` by
    component, shape (2, 9, 1).
    """
    (u0, u1), (v0, v1) = rows
    det = u0 * v1 - u1 * v0
    primal = np.array(rows, dtype=float)
    dual_rows = np.array([[v1, -v0], [-u1, u0]]) / det
    window = np.array([(i, j) for i in (-1, 0, 1) for j in (-1, 0, 1)], dtype=float) @ primal
    far = _FAR_REACHES * float(np.abs(primal).sum(axis=0).max())
    return {
        "rows": primal,
        "rho": covering_radius_of_rows(primal),
        "covol": abs(det),
        "axis_aligned": u1 == 0 and v0 == 0,
        "periods": np.abs(np.diag(primal)),
        "far": far,
        "reach": 0.5 * max(math.hypot(u0 + v0, u1 + v1), math.hypot(u0 - v0, u1 - v1))
        + 1e-12 * far,
        "dual_rows": dual_rows,
        "dual_rho": covering_radius_of_rows(dual_rows),
        "dual_covol": 1.0 / abs(det),
        "window": window.T[:, :, None],
    }


def _recentre(rows: tuple, d) -> np.ndarray:
    """The displacements d (shape (..., 2)) modulo the lattice of the basis
    rows L, as coordinate rows (2, P): d - n L, n the rounded lattice
    coordinates of d.  The one reduction of every lattice sum and distance.
    Within "far" of ``_geometry`` it is the float form d - rint(d D^T) L, D
    the dual rows, off by a few ulps of "far"; beyond, where n L would round,
    it is exact (``_reduce_exactly``).  Raises InvalidParameter unless d is
    finite."""
    geom = _geometry(rows)
    flat = np.asarray(d, dtype=float).reshape(-1, 2).T
    lim, far = geom["far"], None
    if flat.size and not (-lim <= flat.min() and flat.max() <= lim):  # NaN fails too
        far = ~(np.abs(flat) <= lim).all(axis=0)
        exact = [_reduce_exactly(rows, dk) for dk in flat[:, far].T.tolist()]
        flat = np.where(far, 0.0, flat)
    # in place where numpy allows: each large temporary costs fresh pages
    turns = geom["dual_rows"] @ flat
    d0 = geom["rows"].T @ np.rint(turns, out=turns)
    np.subtract(flat, d0, out=d0)
    if far is not None:
        d0[:, far] = np.array(exact).T
    return d0


def _reduce_exactly(rows: tuple, d: list) -> tuple[float, float]:
    """d - n L in fractions, n the rounded exact lattice coordinates of d over
    the basis rows L, rounded once to floats; InvalidParameter unless finite."""
    try:
        x, y = map(Fraction, d)
    except (OverflowError, ValueError):  # an infinite or NaN coordinate
        raise InvalidParameter(_NOT_FINITE) from None
    (u0, u1), (v0, v1) = ([Fraction(w) for w in row] for row in rows)
    det = u0 * v1 - u1 * v0
    n0, n1 = round((x * v1 - y * v0) / det), round((y * u0 - x * u1) / det)
    return float(x - n0 * u0 - n1 * v0), float(y - n0 * u1 - n1 * v1)


def _nearest_window(rows: tuple, d) -> tuple[np.ndarray, np.ndarray]:
    """Representatives d - l, by component (2, 9, P), and their norms (9, P):
    l runs over the 3 x 3 window of lattice points of the basis rows around
    the rounding of each of the P displacements in d (shape (..., 2)), that
    is, around each ``_recentre``d displacement.  Raises InvalidParameter
    unless d is finite.

    Recentring leaves |c_i| <= 1/2 in lattice coordinates c = d @ inv(rows),
    so the window holds the nearest lattice point if the Voronoi cell lies in
    |c_i| < 3/2.  The canonical reduced basis (1, 0), (-a, b) has its cell in
    |c_2| <= 1/2 + a (1 - a) / (2 b^2) <= 2/3, |c_1| <= 1/2 + a |c_2| <= 5/6
    (``test_torus_distance_brute_force`` checks it against a 9 x 9 window);
    on an orthogonal basis, such as the Klein cover, per-axis rounding is exact.
    Its window around a reduced coset representative holds every lift that
    can bind a cut length: the relevant vectors +-b1, +-b2, +-(b1 + b2) around
    0, and on the Klein cover all of twice the Voronoi cell (|c_i| <= 1),
    where the nearest lift of a coset to any point of the cell lies.
    """
    cand = _recentre(rows, d)[:, None, :] - _geometry(rows)["window"]
    return cand, np.hypot(cand[0], cand[1])


def torus_distance(lat: ReducedLattice, x, y) -> float:
    """Geodesic distance on the flat torus R^2 / lattice (canonical frame).
    Raises InvalidParameter unless x, y and x - y are finite."""
    rows = ((1.0, 0.0), (-lat.a, lat.b))
    with np.errstate(over="ignore"):  # an overflow is rejected as a non-finite displacement
        d = _vec(x) - _vec(y)
    return float(_nearest_window(rows, d)[1].min())


def covering_radius(lat: ReducedLattice) -> float:
    """Covering radius of the canonical lattice (max Voronoi vertex norm).

    With 0 <= a <= 1/2 and a^2 + b^2 >= 1 the triangle 0, b1, b1 + b2 has no
    obtuse angle, so the farthest point from the lattice is its circumcenter,
    at the circumradius |b1| |b2| |b1 + b2| / (4 area) = hypot(a, b)
    hypot(1 - a, b) / (2 b).
    """
    return math.hypot(lat.a, lat.b) * math.hypot(1.0 - lat.a, lat.b) / (2.0 * lat.b)


def covering_radius_of_rows(rows: np.ndarray) -> float:
    """Covering radius of the lattice spanned by the given basis rows."""
    red = reduce(rows[0], rows[1])
    return covering_radius(red) * red.scale
