"""Laplace spectra and heat kernels on flat tori and Klein bottles.

Every surface is the quotient of a cover torus R^2 / L by a finite deck
group (``surfaces._deck``): a torus is its own cover (the identity alone),
and a Klein bottle of height b is covered by the rectangular torus with rows
(1, 0), (0, 2b), with the identity and the glide g(y) = (1 - y1, y2 + b) as
deck elements.  So

    K_t(x, y) = sum over deck elements h of K_L(x - h(y)),

and each K_L is evaluated by one of two dual routes over the cover lattice:

* the spectral route sums over the dual lattice (eigenfunction expansion);
* the image route sums Gaussians over the primal lattice (method of images).

Poisson summation says the two must agree; the test suite checks that they do
within the certified truncation bounds carried by every value.  Truncation is
certified by a Gaussian ring bound: once all points inside a radius are
summed, the discarded tail is dominated by an explicit erfc integral.

Every value, gradient and projection goes from points to sums through one
pipeline, ``_deck_sum`` (for a single query, its float form ``_pair_sum``,
below): x - h(y) is formed once, as for distances
(``surfaces._deck_displacements``), reduced once modulo the cover lattice
(``lattice._recentre``, exactly for far-out points, which so lose no digits
beyond those x - h(y) itself rounds away) and handed to
each of the cover sums the call was given in turn: a route that takes
reduced displacements only, ``_image`` or ``_spectral`` for the heat kernel
at one time (``_cover_sum``), the cosine loop over one shell for a
projection (``_shell_sum``).  Gradients then get the chain rule of each deck
map, and the sum runs over h (``_deck_total``).  A public call passes one
cover sum; a scan passes every time of a base, and a radial profile its
values and its gradients, on one reduction.  A sum gets the same bits
either way.

Each route writes its sum once, as one loop over its terms that takes its
exp, cos and sin as arguments, and one driver (``_sum_points``) runs every
loop: on a single query's list of float pairs with the math module's
functions, and on each block of a batch's coordinate rows with numpy's,
elementwise.  Python floats round each operation as numpy does.

* The image disk (``_gauss_disk``) walks one of each pair of lattice points
  +-p, farthest first, adds the Gaussians of d - p and d + p and
  accumulates the pair sums, the origin's last.
* The spectral disk and a projection's shell share one cosine loop
  (``_cosines``) over weighted dual vectors: the spectral disk walks one of
  each pair +-p with weight 2, farthest first, the origin last.
* A rectangular cover (every Klein cover, and a torus with a = 0) is the
  product of two circles, and its heat kernel the product of theirs.  Both
  routes then sum a box holding the disk, as a product of one sum per axis
  (``_box_loop``): the image route a Gaussian sum (``_gauss_sums``),
  costing n0 + n1 exponentials per point for the n0 * n1 images of the box;
  the spectral route a cosine sum over m >= 0 (``_harmonic_sums``), whose
  cos(m theta) follow by angle addition from one cosine and one sine per
  axis and point, for the half box of ((2 M0 + 1)(2 M1 + 1) + 1) / 2 dual
  points.  terms_used counts the box terms, not the per-axis ones.

A single query (``_pair_sum``) forms and reduces its displacements in Python
floats too, with the operations of the batch path, and its route sums them
over the same term set from the same helpers, so terms_used, the bound and
the representation are bitwise a batch's.

Spectral projections are the same deck sum taken over one eigenvalue shell
of the cover, P(x, y) = sum over h and over the cover dual vectors p with
4 pi^2 |p|^2 = lambda of cos(2 pi p.(x - h(y))) / cover area: the spectral
disk's cosine loop with weight 1 / area.  The mode table reads the cover's
dual disk too, a Klein bottle's from its half disk.  The explicit
orthonormal eigenbases are the cover's eigenfunctions made deck-invariant
(on a Klein bottle, products of one trigonometric factor per axis); they
share no code with the deck sums, so they check them independently.

Lattice points are enumerated in a fixed order (sorted by modulus, ties
broken by integer coordinates), and each point's coordinates are computed
alone, elementwise as m u + n v, so their bits do not depend on the other
points enumerated with them.  A disk of any radius is then a prefix of the
sorted enumeration of a larger one, and one cached enumeration per lattice
serves every radius up to its own (``_disk``): a call takes the prefix
r^2 <= R^2 (1 + 1e-12), and a call beyond the cached radius enumerates again
out to at least twice that radius.  The cache holds the _DISK_LATTICES most
recently used lattices and no enumeration of more than _DISK_POINTS points
(a share of TERM_BUDGET), so it never holds more than 16 MB.

Every route sums by one rule.  Its term set depends only on the lattice, the
time and the tolerance: the image route sums out to the enumeration radius
plus the lattice's "reach" (``lattice._geometry``), which bounds every
reduced displacement.  Its loop adds the terms in one fixed order at every
point, elementwise, so in any batch, a batch of one included, a point's bits
and the call's terms_used do not depend on the other points or on the
blocks of _BLOCK_POINTS points the driver cuts a batch into.  Every route
walks one of each pair of lattice points +-p: the spectral route weights
cos(2 pi p.d) by 2, or sums cosines over m >= 0 on a box, and the image
route adds the Gaussians of d - p and d + p before it accumulates them.  So
every route is exactly even in the reduced displacement, bit for bit:
K(-d) = K(d) and grad K(-d) = -grad K(d).  A projection's cosine sum is
even too, and the reduction (``lattice._recentre``) odd, so on a torus every
kernel is even in x - y.  A single pair may differ from its batch value in
the last bits: its reduction rounds as plain float arithmetic does, not as
numpy's matrix product, and math's exp, cos and sin may differ from numpy's
in the last bit.
"""
from __future__ import annotations

import bisect
import math
import numbers
import threading
from collections import OrderedDict
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import (
    InvalidParameter,
    ModeSurfaceMismatch,
    NonPositiveTime,
    ToleranceUnreachable,
)
from .lattice import _geometry, _pair, _real, _recentre, _reduce_exactly
from .surfaces import FlatSurface, Torus, _deck, _deck_displacements

TERM_BUDGET = 10_000_000
_TWO_PI = 2.0 * math.pi
_FOUR_PI_SQ = 4.0 * math.pi ** 2
# The driver (``_sum_points``) runs a batch in blocks of this many points,
# sized for a core's cache: a route's term loop keeps about 8 float64 arrays
# of a block live; blocks sized for 4 and 16 arrays ran Klein scans slower.
_BLOCK_POINTS = 1 << 14
_EPS_FLOOR = 1e-300
# A disk of radius R holds the lattice points with r^2 <= R^2 (1 + _DISK_SLACK).
_DISK_SLACK = 1e-12
# The enumeration cache (``_disk``): lattices kept, and the most points one
# entry may hold (40 bytes each: two int64 indices and three float64 values).
_DISK_LATTICES = 16
_DISK_POINTS = TERM_BUDGET // 400
_MODE_TOL = 1e-9  # relative width of an eigenvalue group (``_group_eigenvalues``)


# ---------------------------------------------------------------------------
# certified Gaussian tails over lattices


def _ring_tail(alpha: float, radius: float, rho: float, covol: float,
               moment: int = 0) -> float:
    """Bound sum_{|p| > radius} |p|^moment exp(-alpha |p|^2) over any translate
    of a lattice with covering radius rho and cell area covol.

    Valid for radius >= 2 rho: each cell of an excluded point lies outside the
    disk of radius (radius - rho), and the integrand is bounded cellwise.
    """
    s = radius - 2.0 * rho
    if s <= 0:
        return math.inf
    sa = math.sqrt(alpha)
    e = math.exp(-alpha * s * s)
    ec = math.erfc(sa * s)
    j0 = math.sqrt(math.pi) / (2.0 * sa) * ec
    j1 = e / (2.0 * alpha)
    if moment == 0:
        integral = _TWO_PI * (j1 + rho * j0)
    else:
        # alpha * sa, not alpha ** 1.5: the power raises OverflowError for huge t
        j2 = s * e / (2.0 * alpha) + math.sqrt(math.pi) * ec / (4.0 * alpha * sa)
        integral = _TWO_PI * (j2 + 3.0 * rho * j1 + 2.0 * rho * rho * j0)
    return integral / covol


def _disk_bound(radius: float, rho: float, covol: float) -> float:
    """Upper bound on the lattice points within radius: their Voronoi cells,
    of area covol, lie in the disk of radius + rho."""
    return math.pi * (radius + rho) ** 2 / covol


def _radius_for(alpha: float, rho: float, covol: float, eps: float,
                prefactor: float, moment: int = 0) -> float:
    """Smallest enumeration radius (up to ~20%) with prefactor * tail <= eps,
    and that bound, prefactor * tail.  A prefactor that underflows to 0, as
    the image route's does at huge t, certifies nothing: ToleranceUnreachable."""
    if not prefactor > 0:
        raise ToleranceUnreachable(
            f"certified tolerance {eps:g}: the tail bound's prefactor underflows to 0")
    eps = max(eps, _EPS_FLOOR)
    c0 = prefactor * _TWO_PI / covol * (1.0 / (2.0 * alpha) + 3.0 * rho + 2.0 * rho * rho + 1.0)
    u = 0.0
    if c0 > eps:
        u = math.sqrt(math.log(c0 / eps) / alpha)
    r = 2.0 * rho + u + 1e-9
    for _ in range(400):
        if _disk_bound(r, rho, covol) > TERM_BUDGET:
            raise ToleranceUnreachable(
                f"certified tolerance {eps:g} needs more than {TERM_BUDGET} terms")
        bound = prefactor * _ring_tail(alpha, r, rho, covol, moment)
        if bound <= eps:
            return r, bound
        r *= 1.2
    raise ToleranceUnreachable("tail bound failed to converge")  # pragma: no cover


def _points_in_disk(rows: np.ndarray, radius: float, half: bool = False):
    """Integer combinations m*u + n*v with r^2 <= radius^2 (1 + _DISK_SLACK).

    For each m, the candidate n lie between the roots of the quadratic
    |m u + n v|^2 = radius^2, widened a little; the r^2 test decides.  The
    quadratic is solved with u, v and the radius scaled by the power of two
    that brings v near unit length, which is exact: its roots keep their
    bits, and its discriminant, about 4 |v|^4 (radius / |v|)^2, stays normal
    on long lattices, where |v| is tiny.  With half, only the origin and the
    half-plane m > 0 or (m = 0, n > 0): one of each pair of points +-p.
    Each point is computed elementwise as m u + n v, on its own, so its bits
    and its place in the order do not depend on the radius.  Returns
    (mn, pts, r2), read-only and sorted by (r2, m, n) for reproducible
    summation.
    """
    (u0, u1), (v0, v1) = rows.tolist()
    e = -math.frexp(max(abs(v0), abs(v1)))[1]
    su0, su1, sv0, sv1 = (math.ldexp(c, e) for c in (u0, u1, v0, v1))
    a_quad = sv0 * sv0 + sv1 * sv1
    reach = math.ldexp(radius * (1.0 + _DISK_SLACK), e)
    m_r = reach * math.sqrt(a_quad) / abs(su0 * sv1 - su1 * sv0)
    m_lo = 0 if half else math.ceil(-m_r - 1e-9)
    ms, n_los, counts = [], [], []
    for m in range(m_lo, math.floor(m_r + 1e-9) + 1):
        w0, w1 = m * su0, m * su1
        b_quad = 2.0 * (sv0 * w0 + sv1 * w1)
        disc = b_quad * b_quad - 4.0 * a_quad * (w0 * w0 + w1 * w1 - reach * reach)
        if disc < 0:
            continue
        sq = math.sqrt(disc)
        n_lo = math.ceil((-b_quad - sq) / (2.0 * a_quad) - 1e-9)
        n_hi = math.floor((-b_quad + sq) / (2.0 * a_quad) + 1e-9)
        if half and m == 0:
            n_lo = 0
        if n_hi >= n_lo:
            ms.append(m)
            n_los.append(n_lo)
            counts.append(n_hi - n_lo + 1)
    counts = np.array(counts)
    starts = np.cumsum(counts) - counts
    n = np.repeat(np.array(n_los) - starts, counts) + np.arange(starts[-1] + counts[-1])
    mn = np.stack([np.repeat(ms, counts), n], axis=1)
    f = mn.astype(float)
    pts = np.stack([f[:, 0] * u0 + f[:, 1] * v0, f[:, 0] * u1 + f[:, 1] * v1], axis=1)
    r2 = pts[:, 0] ** 2 + pts[:, 1] ** 2
    keep = np.flatnonzero(r2 <= radius * radius * (1.0 + _DISK_SLACK))
    order = keep[np.lexsort((mn[keep, 1], mn[keep, 0], r2[keep]))]
    out = mn[order], pts[order], r2[order]
    for a in out:
        a.flags.writeable = False
    return out


_disks: OrderedDict = OrderedDict()
_disks_lock = threading.Lock()


def _disk(rows: tuple, radius: float, half: bool = False, dual: bool = False):
    """``_points_in_disk`` of the lattice spanned by rows (its dual, with dual),
    as a prefix of a cached enumeration of that lattice.

    A miss enumerates out to twice the radius, or to twice the cached radius
    if that is larger, unless the disk may then hold more than _DISK_POINTS
    points; then to the radius alone.  The result is cached unless it holds
    more than _DISK_POINTS points, and the _DISK_LATTICES most recently used
    entries are kept.  The prefix is bitwise what a fresh enumeration at the
    radius returns (``_points_in_disk``).
    """
    key = (rows, half, dual)
    with _disks_lock:
        entry = _disks.get(key)
        if entry is not None:
            _disks.move_to_end(key)
    if entry is None or entry[0] < radius:
        geom = _geometry(rows)
        rho, covol = (geom["dual_rho"], geom["dual_covol"]) if dual else (geom["rho"], geom["covol"])
        reach = 2.0 * radius if entry is None else max(radius, 2.0 * entry[0])
        if _disk_bound(reach, rho, covol) > _DISK_POINTS:
            reach = radius
        entry = (reach, *_points_in_disk(geom["dual_rows" if dual else "rows"], reach, half))
        if len(entry[1]) <= _DISK_POINTS:
            with _disks_lock:
                _disks[key] = entry
                _disks.move_to_end(key)
                while len(_disks) > _DISK_LATTICES:
                    _disks.popitem(last=False)
    k = int(np.searchsorted(entry[3], radius * radius * (1.0 + _DISK_SLACK), side="right"))
    return entry[1][:k], entry[2][:k], entry[3][:k]


# ---------------------------------------------------------------------------
# the term-loop driver and cached box frequencies


def _blocks(n: int, step: int) -> list:
    """Slices of step points over range(n), the last one possibly narrower."""
    return [slice(a, min(a + step, n)) for a in range(0, n, step)]


def _sum_points(d0, loop, want_grad: bool):
    """Run a route's term loop at the reduced displacements d0: coordinate
    rows (2, P), or the list of float pairs of one query (``_pair_sum``).
    loop(x0, x1, lib) sums the route's terms at the coordinates x0, x1 with
    lib's exp, cos and sin, in the same operations and order on either type:
    the math module on a query's floats, numpy on each block of a batch's
    coordinate rows, elementwise, so a point's bits do not depend on its
    block.  It returns the value, or the gradient pair: a list of those for
    a query, an array for a batch."""
    if isinstance(d0, list):
        return [loop(x0, x1, math) for x0, x1 in d0]
    n = d0.shape[1]
    out = np.empty((n, 2) if want_grad else n)
    for blk in _blocks(n, _BLOCK_POINTS):
        sums = loop(d0[0, blk], d0[1, blk], np)
        if want_grad:
            out[blk, 0], out[blk, 1] = sums
        else:
            out[blk] = sums
    return out


@lru_cache(maxsize=256)
def _box_frequencies(rows: tuple, top: int):
    """For the dual box of an axis-aligned lattice, with p_k = m / L_k for
    m <= top: p^2 and 2 pi p, of shape (top + 1, 2), read-only."""
    p = np.arange(top + 1)[:, None] / _geometry(rows)["periods"]
    out = p * p, _TWO_PI * p
    for a in out:
        a.flags.writeable = False
    return out


# ---------------------------------------------------------------------------
# term loops on displacements d = x - h(y), h a deck element


def _box_loop(axis, scale: float, want_grad: bool):
    """The term loop of a box route, whose terms are a product of one factor
    per axis: axis(k, x, lib) returns the sums (A_k, B_k) of axis k at its
    coordinates x, B_k those of the factor's derivative (0.0 for values).
    The value is scale * A0 * A1, the gradient (scale * B0 * A1, scale * A0 * B1)."""
    def loop(x0, x1, lib):
        (a0, b0), (a1, b1) = axis(0, x0, lib), axis(1, x1, lib)
        return (scale * b0 * a1, scale * a0 * b1) if want_grad else scale * a0 * a1
    return loop


def _gauss_sums(d, length: float, half: int, alpha: float, want_grad: bool, exp):
    """One axis of the image box route at the reduced coordinates d, a float
    (exp = math.exp) or an array (numpy's exp): (S, G) = (sum e, sum z e),
    e = exp(-alpha z^2), over z = d - m * length, |m| <= half; G is 0.0 for
    values.  The same operations run in the same order on either type: the
    terms of d -+ m * length first, m = half down to 1, the origin's last,
    so S is even in d and G odd, bit for bit."""
    s = g = 0.0
    nalpha = -alpha
    for m in range(half, 0, -1):
        pm = length * m
        lo, hi = d - pm, d + pm
        e_lo, e_hi = exp(lo * lo * nalpha), exp(hi * hi * nalpha)
        s += e_lo + e_hi
        if want_grad:
            g += e_lo * lo + e_hi * hi
    e = exp(d * d * nalpha)
    return s + e, g + e * d if want_grad else 0.0


def _harmonic_sums(c1, s1, cos_w: list, sin_w: list | None):
    """sum_m cos_w[m] cos(m theta), and sum_m sin_w[m] sin(m theta) (0.0 when
    sin_w is None), from c1 = cos theta and s1 = sin theta: float arrays, or
    Python floats for one query.

    cos(m theta) and sin(m theta) follow from those of theta by angle
    addition, so each entry costs two trigonometric calls for any number of
    terms.  Their rounding grows about linearly in m, as the rounding of the
    phase m theta does when each term is evaluated directly.  The same
    operations run in m order on either type, elementwise, and Python floats
    round each one as numpy does, so an entry gets the same bits as a float
    and in any array.
    """
    cm, sm = c1, s1
    acc_c, acc_s = cos_w[0], 0.0
    for m in range(1, len(cos_w)):
        if m > 1:
            cm, sm = cm * c1 - sm * s1, sm * c1 + cm * s1
        acc_c += cos_w[m] * cm
        if sin_w is not None:
            acc_s += sin_w[m] * sm
    return acc_c, acc_s


def _gauss_disk(d0, d1, far: list, alpha: float, want_grad: bool, exp):
    """The image disk route's sum at the reduced coordinates d0, d1, floats
    (exp = math.exp) or arrays (numpy's exp): sum e, or the gradient sums
    (sum z0 e, sum z1 e), e = exp(-alpha |z|^2), over z = d -+ p for the
    points p of far, the half disk farthest first and the origin last.  The
    Gaussians of d - p and d + p are added first and the pair sums
    accumulated in that order, so the largest terms, which carry the value,
    come last, and the sum is even in d, the gradient odd, bit for bit."""
    nalpha = -alpha
    s = g0 = g1 = 0.0
    for p0, p1 in far[:-1]:
        a0, a1, b0, b1 = d0 - p0, d1 - p1, d0 + p0, d1 + p1
        ea = exp(nalpha * (a0 * a0 + a1 * a1))
        eb = exp(nalpha * (b0 * b0 + b1 * b1))
        if want_grad:
            g0 += ea * a0 + eb * b0
            g1 += ea * a1 + eb * b1
        else:
            s += ea + eb
    e = exp(nalpha * (d0 * d0 + d1 * d1))
    return (g0 + e * d0, g1 + e * d1) if want_grad else s + e


def _cosines(d0, d1, vecs: list, want_grad: bool, cos, sin):
    """sum w cos(q.d) over the weighted vectors (q0, q1, w) of vecs, in their
    order, or the y-gradient (sum q0 w sin(q.d), sum q1 w sin(q.d)), at the
    reduced coordinates d0, d1: floats (the math module's cos and sin) or
    arrays (numpy's).  q is 2 pi times a dual vector p: the spectral disk's
    and a projection's shell."""
    s = g0 = g1 = 0.0
    for q0, q1, w in vecs:
        ph = q0 * d0 + q1 * d1
        if want_grad:
            sn = sin(ph)
            g0 += sn * (q0 * w)
            g1 += sn * (q1 * w)
        else:
            s += cos(ph) * w
    return (g0, g1) if want_grad else s


def _weights(alpha: float, p2: np.ndarray, largest: float) -> np.ndarray:
    """exp(-alpha p2) over p2 >= 0, whose largest entry is largest.  At huge
    t alpha p2 may overflow, and past t ~ 4.5e306 alpha itself, where p2 = 0
    reads inf * 0 (the caller overwrites the origin's weight): the weights
    are then exactly 0, and numpy's warnings are silenced, only then, as
    np.errstate costs microseconds a call."""
    if alpha * largest < math.inf:
        return np.exp(-alpha * p2)
    with np.errstate(over="ignore", invalid="ignore"):
        return np.exp(-alpha * p2)


def _spectral(rows: tuple, t: float, d0, eps: float, want_grad: bool):
    """Cover kernel (or y-gradient) at the reduced displacements d0
    (coordinate rows, shape (2, P), ``lattice._recentre``, or the list of
    float pairs of one query), summed over the dual lattice by the driver
    (``_sum_points``): one value (or gradient pair) per displacement, with
    the bound and the terms summed.

    Every dual point p with |p| <= radius is summed, one of each pair +-p with
    weight 2 exp(-alpha |p|^2) / area, farthest first, the origin, weight
    1 / area, last (``_cosines``), as the image route adds its terms.  The
    weights are formed once per call, by the math module for a query and by
    numpy for a batch.  A rectangular lattice, with periods L0, L1, sums the
    box |p_k| <= radius instead, which holds that disk, so its omitted terms
    are part of the disk's tail.  Its term is a product of one factor per
    axis, so the box sum is C0 * C1 / area and the gradient (G0 * C1,
    C0 * G1) / area, with C_k = sum_{m >= 0} w_m cos(2 pi m d_k / L_k) and
    G_k = sum_{m >= 0} 2 pi (m / L_k) w_m sin(2 pi m d_k / L_k), w_0 = 1 and
    w_m = 2 exp(-alpha m^2 / L_k^2), m <= M_k: two cosines and two sines per
    point (``_harmonic_sums``, run by ``_box_loop``) for the half box of
    ((2 M0 + 1)(2 M1 + 1) + 1) / 2 terms.
    """
    geom = _geometry(rows)
    area = geom["covol"]
    alpha = _FOUR_PI_SQ * t
    moment = 1 if want_grad else 0
    pref = (_TWO_PI if want_grad else 1.0) / area
    radius, err = _radius_for(alpha, geom["dual_rho"], geom["dual_covol"], eps, pref, moment)
    if not geom["axis_aligned"]:
        # p and -p contribute alike: sum one of each pair, with weight 2
        _, pts, r2 = _disk(rows, radius, half=True, dual=True)
        _check_work(len(pts), d0)
        if isinstance(d0, list):
            nalpha, two = -alpha, 2.0 / area
            w = [math.exp(nalpha * q) * two for q in r2.tolist()]
        else:
            w = (_weights(alpha, r2, r2[-1].item()) * (2.0 / area)).tolist()
        w[0] = 1.0 / area  # the origin, first by modulus, has no partner
        vecs = [(_TWO_PI * p0, _TWO_PI * p1, wp) for (p0, p1), wp in zip(pts.tolist(), w)]
        vecs.reverse()  # farthest first

        def loop(x0, x1, lib):
            return _cosines(x0, x1, vecs, want_grad, lib.cos, lib.sin)

        return _sum_points(d0, loop, want_grad), err, len(pts)
    periods = geom["periods"].tolist()
    tops = [math.floor(radius * length) for length in periods]
    n0, n1 = (2 * m + 1 for m in tops)
    terms = (n0 * n1 + 1) // 2
    freqs = [_TWO_PI / length for length in periods]
    p2, two_pi_p = _box_frequencies(rows, max(tops))
    p_max = max(tops) / min(periods)  # the largest p_k, as _box_frequencies forms it
    w = 2.0 * _weights(alpha, p2, p_max * p_max)
    w[0] = 1.0  # m = 0 has no partner
    cos_w = [col[:top + 1] for col, top in zip(w.T.tolist(), tops)]
    sin_w = ([col[:top + 1] for col, top in zip((two_pi_p * w).T.tolist(), tops)]
             if want_grad else (None, None))

    def axis(k, x, lib):
        theta = freqs[k] * x
        return _harmonic_sums(lib.cos(theta), lib.sin(theta), cos_w[k], sin_w[k])

    return _sum_points(d0, _box_loop(axis, 1.0 / area, want_grad), want_grad), err, terms


def _image(rows: tuple, t: float, d0, eps: float, want_grad: bool):
    """Cover kernel (or y-gradient) at the reduced displacements d0, as
    ``_spectral`` takes them, summed over lattice images by the driver
    (``_sum_points``): one value (or gradient pair) per displacement.

    Every reduced displacement lies within the lattice's "reach"
    (``lattice._geometry``), so every image p with |p| <= radius + reach is
    summed, and with it each d0 - p within the radius: one of each pair +-p,
    farthest first, the origin last (``_gauss_disk``).  A rectangular
    lattice sums the box |p_k| <= radius + reach instead, which holds that
    disk, so its omitted terms are part of the disk's tail.
    Its Gaussian exp(-alpha |z|^2) is the product of one factor per axis, so
    the box sum is S0 * S1 and the gradient sum (G0 * S1, S0 * G1), with
    S_k = sum exp(-alpha z_k^2) and G_k = sum z_k exp(-alpha z_k^2) along
    axis k: n0 + n1 exponentials per point for n0 * n1 terms, summed per
    axis by ``_gauss_sums`` and multiplied by ``_box_loop``.
    """
    geom = _geometry(rows)
    alpha = 1.0 / (4.0 * t)
    pref0 = 1.0 / (4.0 * math.pi * t)
    moment = 1 if want_grad else 0
    pref = pref0 * (2.0 * alpha if want_grad else 1.0)
    scale = pref0 * 2.0 * alpha if want_grad else pref0
    radius, err = _radius_for(alpha, geom["rho"], geom["covol"], eps, pref, moment)
    span = radius + geom["reach"]
    if geom["axis_aligned"]:
        periods = geom["periods"].tolist()
        halves = [math.floor(span / length) for length in periods]
        terms = (2 * halves[0] + 1) * (2 * halves[1] + 1)

        def axis(k, x, lib):
            return _gauss_sums(x, periods[k], halves[k], alpha, want_grad, lib.exp)

        return _sum_points(d0, _box_loop(axis, scale, want_grad), want_grad), err, terms
    _, pts, _ = _disk(rows, span, half=True)
    terms = 2 * len(pts) - 1
    _check_work(terms, d0)
    far = pts[::-1].tolist()  # farthest first, the origin last

    def loop(x0, x1, lib):
        out = _gauss_disk(x0, x1, far, alpha, want_grad, lib.exp)
        return (scale * out[0], scale * out[1]) if want_grad else scale * out

    return _sum_points(d0, loop, want_grad), err, terms


# ---------------------------------------------------------------------------
# one query in float arithmetic


@lru_cache(maxsize=128)
def _pair_frame(surface: FlatSurface):
    """What ``_pair_sum`` reads of a surface, as Python floats: the cover rows
    (``surfaces._deck``), the deck maps' linear parts and shifts, and the
    cover's "far" and dual rows (``lattice._geometry``)."""
    rows, lin, shift = _deck(surface)
    geom = _geometry(rows)
    lin, shift, dual = (tuple(map(tuple, a.tolist())) for a in (lin, shift, geom["dual_rows"]))
    return rows, lin, shift, geom["far"], dual


def _pair_sum(surface: FlatSurface, x: tuple, y: tuple, cover_sum, want_grad: bool):
    """``_deck_sum`` for one pair of points x, y, given as float pairs, in
    float arithmetic.  Each x - h(y) is formed with the operations of
    ``surfaces._deck_displacements`` and reduced by the rounding rule of
    ``lattice._recentre``: d - n L, n the rounded lattice coordinates d D^T,
    and exactly beyond "far" (``lattice._reduce_exactly``, which rejects a
    non-finite displacement).  cover_sum(rows, ds, k) gets the k reduced
    displacements as a list of float pairs and returns a list of their sums
    (``_sum_points``), which are added over h with each deck map's linear
    part, as ``_deck_sum`` adds them.  Returns the value, or the gradient
    pair, with k times the bound and the terms."""
    rows, lin, shift, far, ((a0, a1), (b0, b1)) = _pair_frame(surface)
    (u0, u1), (v0, v1) = rows
    (x0, x1), (y0, y1) = x, y
    ds = []
    for (l0, l1), (s0, s1) in zip(lin, shift):
        d0, d1 = x0 - (y0 * l0 + s0), x1 - (y1 * l1 + s1)
        if abs(d0) <= far and abs(d1) <= far:  # NaN fails too
            n0, n1 = round(a0 * d0 + a1 * d1), round(b0 * d0 + b1 * d1)
            ds.append((d0 - (u0 * n0 + v0 * n1), d1 - (u1 * n0 + v1 * n1)))
        else:
            ds.append(_reduce_exactly(rows, [d0, d1]))
    k = len(ds)
    out, err, terms = cover_sum(rows, ds, k)
    if not want_grad:
        value = 0.0
        for v in out:
            value += v
        return value, k * err, k * terms
    g0 = g1 = 0.0
    for (l0, l1), (o0, o1) in zip(lin, out):
        g0 += o0 * l0
        g1 += o1 * l1
    return (g0, g1), k * err, k * terms


# ---------------------------------------------------------------------------
# public heat-kernel interface


def _resolve_rep(surface: FlatSurface, t: float, representation: str) -> str:
    if representation == "auto":
        return "image" if 4.0 * math.pi * t < surface.area else "spectral"
    if representation not in ("spectral", "image"):
        raise InvalidParameter(f"unknown representation {representation!r}")
    return representation


def _validate_time_eps(t, eps) -> tuple[float, float]:
    """t and eps converted with float (``lattice._real``); NonPositiveTime
    unless t is positive and finite, InvalidParameter unless eps is."""
    t, eps = _real(t, "time"), _real(eps, "epsilon")
    if not (math.isfinite(t) and t > 0):
        raise NonPositiveTime(f"heat kernel needs t > 0, got {t}")
    if not (math.isfinite(eps) and eps > 0):
        raise InvalidParameter(f"epsilon must be positive, got {eps}")
    return t, eps


def _broadcast_pair(x, y):
    """x and y as float arrays of one shape (..., 2).  Non-finite points give
    non-finite displacements, which the deck sum rejects (``lattice._recentre``)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape[-1:] != (2,) or y.shape[-1:] != (2,):
        raise InvalidParameter("points must have a trailing dimension of 2")
    return (x, y) if x.shape == y.shape else np.broadcast_arrays(x, y)


def _deck_total(lin, shape: tuple, out, err: float, terms: int):
    """The deck total of ``_deck_sum``: out holds one cover sum per reduced
    displacement, shape (k P,) for values or (k P, 2) for gradients, of
    displacements that came in the shape (k, ...) shape; err and terms are
    the cover sum's bound and terms.  Gradients are multiplied by each deck
    map's linear part lin[h] (the chain rule; the glide reverses x1).
    Returns the sums over h, in the points' shape, with k times the bound
    and the terms."""
    k = len(lin)
    out = out.reshape(shape + out.shape[1:])
    if out.ndim > len(shape):  # gradient rows
        out *= lin.reshape((k,) + (1,) * (out.ndim - 2) + (2,))
    return out.sum(axis=0), k * err, k * terms


def _deck_sum(surface: FlatSurface, x, y, cover_sums):
    """Sum cover-lattice sums (values or y-gradients) over the deck group:
    the one pipeline from points x, y (float arrays of one shape (..., 2))
    to every kernel value, gradient and projection (for a single query,
    ``_pair_sum``).  The displacements x - h(y) over the k deck elements h
    (``surfaces._deck_displacements``) are reduced once modulo the cover
    (``lattice._recentre``, which rejects non-finite ones); then each cover
    sum of the iterable cover_sums gets, in turn, the cover rows, the
    reduced coordinate rows d0, shape (2, k P), and k, and returns one sum
    (or gradient row) per displacement with its bound and its terms.  A
    generator of each one's deck total (``_deck_total``): the sums over h,
    k times the bound and the terms.  cover_sums is read one at a time, and
    the generator keeps only the reduced set, none of the totals it has
    yielded."""
    rows, lin, disp = _deck_displacements(surface, x, y)
    shape, d0 = disp.shape[:-1], _recentre(rows, disp)
    del disp
    k = len(lin)
    for cover in cover_sums:
        yield _deck_total(lin, shape, *cover(rows, d0, k))


def _cover_sum(t: float, rep: str, eps: float, want_grad: bool):
    """The cover sum of the heat kernel (or its y-gradient) at the checked
    time t on route rep, as ``_deck_sum`` and ``_pair_sum`` call it: eps / k
    for each of the k deck elements."""
    fn = _spectral if rep == "spectral" else _image
    return lambda rows, d0, k: fn(rows, t, d0, eps / k, want_grad)


def _heat_sum(surface: FlatSurface, t: float, x, y, eps: float, representation: str,
              want_grad: bool):
    """The heat kernel (or its y-gradient) at points x, y as a deck sum, for a
    checked time and tolerance, with the representation used.  x and y are
    float arrays of one shape (..., 2) (``_deck_sum``), or two float pairs,
    one query (``_pair_sum``), whose value comes as a float and whose
    gradient as a pair."""
    rep = _resolve_rep(surface, t, representation)
    cover = _cover_sum(t, rep, eps, want_grad)
    if isinstance(x, tuple):
        return (*_pair_sum(surface, x, y, cover, want_grad), rep)
    return (*next(_deck_sum(surface, x, y, (cover,))), rep)


def _heat_arrays(surface: FlatSurface, t, x, y, eps, representation: str, want_grad: bool):
    """``_heat_sum`` on arrays of points, after checking the time and the
    tolerance.  A single pair, two points of shape (2,), is one query: it is
    summed in float arithmetic (``_pair_sum``) and returned as numpy's
    float64, or a gradient array of shape (2,), as a batch would return it."""
    t, eps = _validate_time_eps(t, eps)
    x, y = _broadcast_pair(x, y)
    if x.shape != (2,):
        return _heat_sum(surface, t, x, y, eps, representation, want_grad)
    out, err, terms, rep = _heat_sum(surface, t, tuple(x.tolist()), tuple(y.tolist()), eps,
                                     representation, want_grad)
    return np.array(out) if want_grad else np.float64(out), err, terms, rep


def heat_values(surface: FlatSurface, t: float, x, y, eps: float = 1e-10,
                representation: str = "auto"):
    """Heat kernel K_t(x, y) on arrays of points.

    Returns (values, error_bound, terms_used, representation_used); the error
    bound covers the truncated tail for every entry.  terms_used counts the
    lattice terms summed per point over all deck elements, so a Klein bottle
    counts its cover's terms twice; the spectral route sums one of each pair
    of dual points +-p, with weight 2.  On a rectangular cover both routes
    count the terms of their box, though they evaluate them as a product of
    two per-axis sums: the n0 * n1 images of the image box, and the half
    box ((2 M0 + 1)(2 M1 + 1) + 1) / 2 of dual points |p_k| <= M_k / L_k.
    terms_used does not depend on the points; in a batch, neither does a
    point's value (the module's summation rule).
    The time and the tolerance are converted with float.
    """
    return _heat_arrays(surface, t, x, y, eps, representation, want_grad=False)


def heat_gradient_values(surface: FlatSurface, t: float, x, y, eps: float = 1e-10,
                         representation: str = "auto"):
    """Gradient of K_t(x, .) in the second argument, on arrays of points."""
    return _heat_arrays(surface, t, x, y, eps, representation, want_grad=True)


@dataclass(frozen=True)
class KernelQuery:
    surface: FlatSurface
    x: tuple[float, float]
    y: tuple[float, float]
    t: float
    epsilon: float = 1e-10
    representation: str = "auto"

    def __post_init__(self):
        x, y = _pair(self.x), _pair(self.y)
        if not all(map(math.isfinite, x + y)):
            raise InvalidParameter(f"points must be finite, got x={x}, y={y}")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)
        t, eps = _validate_time_eps(self.t, self.epsilon)
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "epsilon", eps)
        if self.representation not in ("auto", "spectral", "image"):
            raise InvalidParameter(f"unknown representation {self.representation!r}")


@dataclass(frozen=True)
class KernelValue:
    value: float
    error_bound: float
    terms_used: int
    representation_used: str


@dataclass(frozen=True)
class KernelGradient:
    gradient: tuple[float, float]
    error_bound: float
    terms_used: int
    representation_used: str


def heat_kernel(query: KernelQuery) -> KernelValue:
    # the query checked its points, time and tolerance when it was made
    value, err, terms, rep = _heat_sum(query.surface, query.t, query.x, query.y, query.epsilon,
                                       query.representation, want_grad=False)
    return KernelValue(value, err, terms, rep)


def heat_kernel_gradient(query: KernelQuery) -> KernelGradient:
    grad, err, terms, rep = _heat_sum(query.surface, query.t, query.x, query.y, query.epsilon,
                                      query.representation, want_grad=True)
    return KernelGradient(grad, err, terms, rep)


# ---------------------------------------------------------------------------
# spectral modes and projection kernels


@dataclass(frozen=True)
class SpectralMode:
    """One Laplace eigenvalue with its generating spectral parameters, as
    enumerated (``enumerate_modes``): its bits, relative group and order.

    Torus generators are integer dual-basis coordinates (m, n) covering every
    dual vector of the shared modulus; the multiplicity equals their count.
    Klein generators are triples (l1, l2, parity) with parity "cos"/"sin"
    following the admissibility rule (cosine modes need l2 even, sine modes
    need l2 odd and l1 > 0); multiplicity counts real eigenfunctions.  On the
    cover torus (rows (1, 0), (0, 2b)) a Klein generator stands for the dual
    vectors (+-l1, +-l2 / 2b), as many as its weight w in ``_klein_rule``; the
    vectors (0, l2 / 2b) with l2 odd belong to no generator, since their
    terms cancel in the deck sum.
    """

    eigenvalue: float
    generators: tuple
    multiplicity: int
    surface: FlatSurface


def _group_starts(lam, tol: float, limit: int | None = None) -> list:
    """Where the groups of the ascending eigenvalues lam (a list or an array)
    start, at most limit of them: a group runs from its first, cur, while
    lam - cur <= tol * cur.  lam - cur ascends with lam, so each group's end
    is found by bisection, and a call reads no eigenvalue past the last
    group it returns but the one that ends it."""
    starts, i, n = [], 0, len(lam)
    while i < n and (limit is None or len(starts) < limit):
        starts.append(i)
        cur = lam[i]
        i = bisect.bisect_right(range(n), tol * cur, i + 1, key=lambda j: lam[j] - cur)
    return starts


def _group_eigenvalues(entries, tol):
    """entries: sorted (lam, payload, count); groups within tol * lam of their
    first, lam (``_group_starts``), as (lam, payloads, total count)."""
    lam = [e[0] for e in entries]
    ends = _group_starts(lam, tol) + [len(entries)]
    return [(lam[a], tuple(e[1] for e in entries[a:b]), sum(e[2] for e in entries[a:b]))
            for a, b in zip(ends, ends[1:])]


# Klein spectral parameters (l1, l2) with u = 2 pi l1 and c = pi l2 / b give
# the real eigenfunctions sqrt(w / b) T(u x1) cos(c x2) and, when l2 > 0, also
# sqrt(w / b) T(u x1) sin(c x2), with T = sin for sine modes and cos otherwise.
# They add w / b T(u x1) T(u y1) cos(c (x2 - y2)) to the projection kernel.


def _klein_rule(l1: int, l2: int):
    """(w, is_sin, count) for (l1, l2), or None when not admissible.

    Cosine modes need l2 even, sine modes need l2 odd and l1 > 0; count is
    the number of real eigenfunctions.
    """
    if l2 == 0:
        return (1 if l1 == 0 else 2), False, 1
    if l1 == 0:
        return None if l2 % 2 else (2, False, 2)
    return 4, l2 % 2 == 1, 2


def _mode_table(surface: FlatSurface, lambda_max: float, tol: float):
    """The cover dual points that stand for the eigenvalues <= lambda_max (1 + tol),
    as arrays (lam, m, n) in the disk's order, so lam ascends; checked and
    budgeted as ``enumerate_modes`` states.  A Klein generator (l1, l2)
    stands for the cover's dual vectors (+-l1, +-l2 / 2b): the half disk's
    point (m, n) = (l1, l2), n >= 0, admissible by ``_klein_rule``."""
    if not (math.isfinite(lambda_max) and lambda_max >= 0):
        raise InvalidParameter(f"lambda_max must be non-negative, got {lambda_max}")
    if not (math.isfinite(tol) and tol >= 0):
        raise InvalidParameter(f"tol must be finite and non-negative, got {tol}")
    rows = _deck(surface)[0]
    geom = _geometry(rows)
    radius = math.sqrt(lambda_max * (1.0 + 2.0 * tol)) / _TWO_PI
    v = float(np.hypot(*geom["dual_rows"][1]))  # np.floor: the radius may be inf
    lines = (2 * np.floor(radius * v / geom["dual_covol"]) + 1) * (np.floor(2 * radius / v) + 1)
    if min(_disk_bound(radius, geom["dual_rho"], geom["dual_covol"]), lines) > TERM_BUDGET:
        raise InvalidParameter(
            f"lambda_max {lambda_max:g} needs more than {TERM_BUDGET} dual lattice points")
    is_torus = isinstance(surface, Torus)
    mn, _, r2 = _disk(rows, radius, half=not is_torus, dual=True)
    lam = _FOUR_PI_SQ * r2
    k = int(np.searchsorted(lam, lambda_max * (1.0 + tol), side="right"))
    lam, m, n = lam[:k], mn[:k, 0], mn[:k, 1]
    if not is_torus:
        keep = (n >= 0) & ((m != 0) | (n % 2 == 0))
        lam, m, n = lam[keep], m[keep], n[keep]
    return lam, m, n


def enumerate_modes(surface: FlatSurface, lambda_max: float,
                    tol: float = _MODE_TOL) -> list[SpectralMode]:
    """All eigenvalues <= lambda_max (1 + tol), ascending, grouped within tol * lam
    of a group's first, lam: purely relative (``_group_eigenvalues``).

    Raises InvalidParameter unless lambda_max and tol are finite and
    non-negative, and, before enumerating, when the cover's dual disk may hold
    more than TERM_BUDGET points: by the Voronoi bound (``_disk_bound``) or,
    less when r << rho, by its lines m u + Z v, |m| <= r |v| / covol, of at
    most 2 r / |v| + 1 points each, (u, v) the dual rows."""
    lam, m, n = _mode_table(surface, lambda_max, tol)
    order = np.lexsort((n, m, lam))
    points = zip(lam[order].tolist(), m[order].tolist(), n[order].tolist())
    if isinstance(surface, Torus):
        entries = [(lam, (m, n), 1) for lam, m, n in points]
    else:
        entries = [(lam, (m, n, "sin" if rule[1] else "cos"), rule[2])
                   for lam, m, n in points for rule in (_klein_rule(m, n),)]
    return [
        SpectralMode(eigenvalue=lam, generators=gens, multiplicity=count, surface=surface)
        for lam, gens, count in _group_eigenvalues(entries, tol)
    ]


def _mode_at(surface: FlatSurface, lam=None, index=None) -> SpectralMode:
    """The one spectral lookup, from one ``enumerate_modes`` call out to lam > 0:
    the mode within _MODE_TOL * lam of lam, or that of an index (0: constants).
    lam defaults to lambda_1 (``principal_eigenvalue``).  An index is first
    found in a sorted table grown geometrically from lambda_1, doubling its
    eigenvalue bound until the table holds that group complete and the start
    of the next (an index of TERM_BUDGET or more needs more dual points than
    the budget): its group's eigenvalue is read there, and the modes are
    built out to it alone."""
    if lam is None:
        b = surface.lattice.b if isinstance(surface, Torus) else max(surface.b, 1.0)
        lam = (_TWO_PI / b) ** 2
    if not lam > 0:
        raise InvalidParameter(f"no mode at eigenvalue {lam!r}: it is not positive "
                               "(lambda_1 = (2 pi / b)^2 underflows to 0 beyond b ~ 4e162)")
    if index is not None:
        if index >= TERM_BUDGET:  # each group holds a dual point of the table
            raise InvalidParameter(
                f"mode index {index} needs more than {TERM_BUDGET} dual lattice points")
        while True:
            table = _mode_table(surface, lam, _MODE_TOL)[0]
            starts = _group_starts(table, _MODE_TOL, index + 2)
            if len(starts) > index + 1:
                lam = float(table[starts[index]])
                break
            lam *= 2.0
    for i, mode in enumerate(enumerate_modes(surface, lam)):
        if i == index or (index is None and abs(mode.eigenvalue - lam) <= _MODE_TOL * lam):
            return mode
    raise InvalidParameter(f"no mode at eigenvalue {lam!r} on {surface!r}")


def principal_eigenvalue(surface: FlatSurface) -> SpectralMode:
    """The smallest non-zero eigenvalue with its full multiplicity (``_mode_at``).
    lambda_1 = (2 pi / b)^2 on a reduced torus: its dual rows (1, a / b), (0, 1 / b)
    have no shorter vector than (0, 1 / b) as a^2 + b^2 >= 1, a <= 1/2.  A Klein bottle
    has min(4 pi^2, (2 pi / b)^2) = (2 pi / max(b, 1))^2; both are 0 beyond b ~ 4e162."""
    return _mode_at(surface)


def _check_mode(surface: FlatSurface, mode: SpectralMode) -> None:
    if mode.surface != surface:
        raise ModeSurfaceMismatch(
            f"mode belongs to {mode.surface!r}, not {surface!r}")


def _shell(surface: FlatSurface, mode: SpectralMode):
    """The mode's cover dual vectors p (4 pi^2 |p|^2 = lambda) as rows, and
    the cover's area; a Klein generator (l1, l2) stands for
    (+-l1, +-l2 / 2b), see ``SpectralMode``."""
    gens = mode.generators
    if not isinstance(surface, Torus):
        gens = list(dict.fromkeys((s1 * l1, s2 * l2) for l1, l2, _ in gens
                                  for s1 in (1, -1) for s2 in (1, -1)))
    geom = _geometry(_deck(surface)[0])
    return np.array(gens, dtype=float) @ geom["dual_rows"], geom["covol"]


def _shell_sum(surface: FlatSurface, mode: SpectralMode, want_grad: bool):
    """The cover sum of the projection P_lambda (or its y-gradient), as
    ``_deck_sum`` calls it: the spectral disk route's cosine loop
    (``_cosines``) over the mode's shell (``_shell``), with weight 1 / area.
    Values carry no bound.  A gradient carries a heuristic rounding bound
    over the k deck elements times shell vectors summed, divided by k here
    and multiplied by k in the deck total, both exact as k is 1 or 2."""
    _check_mode(surface, mode)
    vecs, area = _shell(surface, mode)
    w = 1.0 / area
    shell = [(_TWO_PI * p0, _TWO_PI * p1, w) for p0, p1 in vecs.tolist()]

    def loop(x0, x1, lib):
        return _cosines(x0, x1, shell, want_grad, lib.cos, lib.sin)

    def cover(rows, d0, k):
        bound = 0.0
        if want_grad:
            norm = float(np.max(np.hypot(vecs[:, 0], vecs[:, 1])))
            bound = 1e-15 * max(k * len(vecs) * _TWO_PI * norm / area, 1.0) / k
        return _sum_points(d0, loop, want_grad), bound, len(vecs)

    return cover


def _projection(surface: FlatSurface, mode: SpectralMode, x, y, want_grad: bool):
    """P_lambda(x, y) = sum over deck elements h and shell vectors p of
    cos(2 pi p.(x - h(y))) / cover area, or its y-gradient with a bound: the
    mode's cover sum (``_shell_sum``) run through the heat kernel's deck sum."""
    cover = _shell_sum(surface, mode, want_grad)
    out, err, _ = next(_deck_sum(surface, *_broadcast_pair(x, y), (cover,)))
    return (out, err) if want_grad else out


def projection_kernel(surface: FlatSurface, mode: SpectralMode, x, y):
    """Spectral projection P_lambda(x, y) = sum_j phi_j(x) phi_j(y)."""
    out = _projection(surface, mode, x, y, want_grad=False)
    return out if out.shape else float(out)


def projection_gradient(surface: FlatSurface, mode: SpectralMode, x, y):
    """Gradient of P_lambda in the second argument, with an fp-level bound."""
    return _projection(surface, mode, x, y, want_grad=True)


def _eigenbasis(surface: FlatSurface, mode: SpectralMode, pts, want_grad: bool):
    """Values (or gradients) of an orthonormal real eigenbasis of the mode:
    sqrt(2 / A) {cos, sin}(2 pi p.x) for one of each pair +-p on a torus (the
    constant for p = 0), the Klein functions above ``_klein_rule`` otherwise."""
    _check_mode(surface, mode)
    pts = np.asarray(pts, dtype=float)
    rows = []
    if isinstance(surface, Torus):
        amp = math.sqrt(2.0 / surface.area)
        seen = set()
        for (m, n), v in zip(mode.generators, _shell(surface, mode)[0]):
            if (-m, -n) in seen:
                continue
            seen.add((m, n))
            if m == 0 and n == 0:
                rows.append(np.zeros(pts.shape) if want_grad
                            else np.full(pts.shape[:-1], 1.0 / math.sqrt(surface.area)))
                continue
            ph = _TWO_PI * pts @ v
            if want_grad:
                rows += [-(amp * _TWO_PI) * np.sin(ph)[..., None] * v,
                         (amp * _TWO_PI) * np.cos(ph)[..., None] * v]
            else:
                rows += [amp * np.cos(ph), amp * np.sin(ph)]
    else:
        l1, l2 = np.array([g[:2] for g in mode.generators], dtype=float).T
        w, is_sin, _ = np.array([_klein_rule(*g[:2]) for g in mode.generators]).T
        u, c = _TWO_PI * l1, math.pi * l2 / surface.b
        cx, sx = np.cos(pts[..., 0:1] * u), np.sin(pts[..., 0:1] * u)
        tx, dtx = np.where(is_sin, sx, cx), np.where(is_sin, cx, -sx)  # T, T'
        x2 = pts[..., 1]
        for k, a0 in enumerate(np.sqrt(w / surface.b)):
            f = a0 * tx[..., k]
            c2, s2 = np.cos(c[k] * x2), np.sin(c[k] * x2)
            if want_grad:
                df = a0 * u[k] * dtx[..., k]
                pair = [np.stack([df * c2, -f * c[k] * s2], axis=-1),
                        np.stack([df * s2, f * c[k] * c2], axis=-1)]
            else:
                pair = [f * c2, f * s2]
            rows += pair if c[k] > 0 else pair[:1]
    return np.stack(rows, axis=0)


def eigenbasis_values(surface: FlatSurface, mode: SpectralMode, pts) -> np.ndarray:
    """Values of an orthonormal real eigenbasis of the mode at given points.

    Returns an array of shape (multiplicity,) + pts.shape[:-1].
    """
    return _eigenbasis(surface, mode, pts, want_grad=False)


def eigenbasis_gradients(surface: FlatSurface, mode: SpectralMode, pts) -> np.ndarray:
    """Gradients of the same orthonormal eigenbasis; shape (mult,) + pts.shape."""
    return _eigenbasis(surface, mode, pts, want_grad=True)


def _check_size(n, least: int, name: str, width: int | None = None) -> int:
    """n as an int, checked before anything is allocated: InvalidParameter
    unless n is an integer of at least least whose n x width nodes (n x n
    when width is None) stay within TERM_BUDGET."""
    if not (isinstance(n, numbers.Integral) and n >= least):
        raise InvalidParameter(f"{name} must be an integer of at least {least}, got {n!r}")
    n = int(n)
    count = n * (n if width is None else width)
    if count > TERM_BUDGET:
        raise InvalidParameter(
            f"{name} {n} needs {count} nodes, more than the budget of {TERM_BUDGET}")
    return n


# terms x points that one disk-route call may sum; the box routes of
# rectangular covers evaluate n0 + n1 exponentials per point for their terms
WORK_BUDGET = 100 * TERM_BUDGET


def _check_work(terms: int, d0) -> None:
    """ToleranceUnreachable when summing terms lattice terms at each reduced
    displacement of d0 (``_sum_points``) passes WORK_BUDGET; checked before
    anything is summed."""
    points = len(d0) if isinstance(d0, list) else d0.shape[1]
    if terms * points > WORK_BUDGET:
        raise ToleranceUnreachable(
            f"{terms} terms at {points} points need {terms * points} term evaluations, "
            f"more than the budget of {WORK_BUDGET}")


def fundamental_domain_grid(surface: FlatSurface, n: int, midpoint: bool = False):
    """An n x n sample grid of the fundamental domain, plus the cell area."""
    n = _check_size(n, 1, "grid size")
    off = 0.5 if midpoint else 0.0
    s = (np.arange(n) + off) / n
    p, q = np.meshgrid(s, s, indexing="ij")
    coords = np.stack([p, q], axis=-1)
    if isinstance(surface, Torus):
        pts = coords @ surface.lattice.basis
    else:
        pts = coords * np.array([1.0, surface.b])
    return pts, surface.area / (n * n)


@dataclass(frozen=True)
class DiagonalScan:
    minimum: float
    maximum: float
    expected: float


def projection_diagonal_scan(surface: FlatSurface, mode: SpectralMode,
                             grid: int = 64) -> DiagonalScan:
    """Min/max of P_lambda(x, x) over a fundamental-domain grid.

    Constant (= multiplicity / area) on tori; genuinely non-constant on Klein
    bottles whenever some eigenfunction has l1 > 0.
    """
    pts, _ = fundamental_domain_grid(surface, grid)
    vals = (eigenbasis_values(surface, mode, pts) ** 2).sum(axis=0)
    return DiagonalScan(minimum=float(vals.min()), maximum=float(vals.max()),
                        expected=mode.multiplicity / surface.area)


def gradient_sum_check(surface: FlatSurface, mode: SpectralMode,
                       grid: int = 64) -> DiagonalScan:
    """Min/max of sum_j |grad phi_j|^2 over a grid; tori give lambda * mult / area."""
    pts, _ = fundamental_domain_grid(surface, grid)
    grads = eigenbasis_gradients(surface, mode, pts)
    vals = (grads ** 2).sum(axis=(-1,)).sum(axis=0)
    return DiagonalScan(minimum=float(vals.min()), maximum=float(vals.max()),
                        expected=mode.eigenvalue * mode.multiplicity / surface.area)
