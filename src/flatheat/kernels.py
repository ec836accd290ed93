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
pipeline, ``_deck_sum``: x - h(y) is formed once, as for distances
(``surfaces._deck_displacements``), reduced once modulo the cover lattice
(``lattice._recentre``, exactly for far-out points, which so lose no digits
beyond those x - h(y) itself rounds away) and handed as coordinate rows to a
route that takes reduced displacements only: ``_image`` or ``_spectral`` for
the heat kernel, ``_cosine_sum`` over one shell for a projection.  Gradients
then get the chain rule of each deck map, and the sum runs over h.

A rectangular cover (every Klein cover, and a torus with a = 0) is the
product of two circles, and its heat kernel the product of theirs.  Both
routes then sum a box holding the disk, as a product of one sum per axis
(``_axis_product``): the image route a Gaussian sum, costing n0 + n1
exponentials per point for the n0 * n1 images of the box; the spectral route
a cosine sum over m >= 0, whose cos(m theta) follow by angle addition from
one cosine and one sine per axis and point, for the half box of
((2 M0 + 1)(2 M1 + 1) + 1) / 2 dual points.  The image route stacks the
differences of both axes into one array, so both axes share each numpy
call; the spectral route runs one recurrence (``_harmonic_sums``) on numpy
arrays, or, for up to _FEW_POINTS displacements (a single query), on Python
floats, which round each operation as numpy does.  terms_used counts the box
terms, not the per-axis ones.

Spectral projections are the same deck sum taken over one eigenvalue shell
of the cover, P(x, y) = sum over h and over the cover dual vectors p with
4 pi^2 |p|^2 = lambda of cos(2 pi p.(x - h(y))) / cover area: the spectral
disk route's cosine sum (``_cosine_sum``) with weight 1 / area.  The mode
table reads the cover's dual disk too, a Klein bottle's from its half disk.
The explicit orthonormal eigenbases are the cover's eigenfunctions made
deck-invariant (on a Klein bottle, products of one trigonometric factor per
axis); they share no code with the deck sums, so they check them
independently.

Lattice points are enumerated in a fixed order (sorted by modulus, ties
broken by integer coordinates), and each point's coordinates are computed
alone, elementwise as m u + n v, so their bits do not depend on the other
points enumerated with them.  A disk of any radius is then a prefix of the
sorted enumeration of a larger one, and one cached enumeration per lattice
serves every radius up to its own (``_disk``): a call takes the prefix
r^2 <= R^2 (1 + 1e-12), and a call beyond the cached radius enumerates again
out to at least twice that radius.  The cache holds the _DISK_LATTICES most recently
used lattices and no enumeration of more than _DISK_POINTS points (a share of
TERM_BUDGET), so it never holds more than 23 MB.

Every route sums by one rule.  Its term set depends only on the lattice, the
time and the tolerance: the image route sums out to the enumeration radius
plus the lattice's "reach" (``lattice._geometry``), which bounds every
reduced displacement.  Its sums are elementwise and term-major: each block
of points is a (terms x points) array, reduced over the terms, which numpy
does row by row in a fixed order (farthest first; a projection's shell
vectors share one modulus), or a recurrence over the terms on the spectral
box route.  Both routes walk one of each pair of lattice points +-p: the
spectral route weights cos(2 pi p.d) by 2, or sums cosines over m >= 0 on
a box, and the image route adds the Gaussians of d - p and d + p before it
accumulates them, the origin's last.  So every route is exactly even in the
reduced displacement, bit for bit: K(-d) = K(d) and grad K(-d) = -grad K(d).
A projection's cosine sum is even too, and the reduction
(``lattice._recentre``) odd, so on a torus every kernel is even in x - y.
Blocks come from the term count and one byte budget (``_block_rows``), and
a batch never leaves a block one point wide (``_blocks``).  So in any
batch of two or more points a point's bits and the call's terms_used do not
depend on the other points; a single point, one column alone, is summed
pairwise and may differ from its batch value in the last bits.  The radial
sampler (``monotonicity._eval_radial``) evaluates a single sample as one
row of a two-row batch, so it too gets its batch bits.
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
from .lattice import _geometry, _pair, _recentre
from .surfaces import FlatSurface, Torus, _deck, _deck_displacements

TERM_BUDGET = 10_000_000
_TWO_PI = 2.0 * math.pi
_FOUR_PI_SQ = 4.0 * math.pi ** 2
# Evaluators work in blocks of points.  The points per block come from a
# byte budget for all the float64 arrays a block keeps live at once, sized
# for a core's cache; each route states how many floats per point it keeps.
_BLOCK_BYTES = 1 << 20
_EPS_FLOOR = 1e-300
# A disk of radius R holds the lattice points with r^2 <= R^2 (1 + _DISK_SLACK).
_DISK_SLACK = 1e-12
# The enumeration cache (``_disk``): lattices kept, and the most points one
# entry may hold (40 bytes each: two int64 indices and three float64 values;
# 56 on the image route's half disks, which hold each point's negative too).
_DISK_LATTICES = 16
_DISK_POINTS = TERM_BUDGET // 400
# Spectral box sums over up to this many points run in float arithmetic.
_FEW_POINTS = 8
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
    and that bound, prefactor * tail."""
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
    as a prefix of the cached enumeration of that lattice (``_disk_entry``)."""
    entry, k = _disk_entry(rows, radius, half, dual)
    return entry[1][:k], entry[2][:k], entry[3][:k]


def _disk_entry(rows: tuple, radius: float, half: bool, dual: bool):
    """The cached enumeration behind ``_disk`` and the length of its prefix
    within the radius.  An entry is (reach, mn, pts, r2, pairs): pairs, on
    a half disk of the primal lattice (the image route's), is the array
    (2, N, 2) whose planes hold the points, pts, and their negatives;
    None otherwise.

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
        mn, pts, r2 = _points_in_disk(geom["dual_rows" if dual else "rows"], reach, half)
        pairs = None
        if half and not dual:
            pairs = np.stack([pts, -pts])
            pairs.flags.writeable = False
            pts = pairs[0]
        entry = (reach, mn, pts, r2, pairs)
        if len(mn) <= _DISK_POINTS:
            with _disks_lock:
                _disks[key] = entry
                _disks.move_to_end(key)
                while len(_disks) > _DISK_LATTICES:
                    _disks.popitem(last=False)
    return entry, int(np.searchsorted(entry[3], radius * radius * (1.0 + _DISK_SLACK),
                                      side="right"))


# ---------------------------------------------------------------------------
# point blocks and cached box images


def _block_rows(width: int) -> int:
    """Points per block, so that width float64 values per point fit _BLOCK_BYTES.

    At least two: a term count too large for the budget then exceeds it by
    one more point's arrays, and ``_blocks`` never has to make a one-point
    block of a batch.
    """
    return max(2, _BLOCK_BYTES // (8 * max(width, 1)))


def _blocks(n: int, step: int) -> list:
    """Slices of step >= 2 points over range(n), a one-point tail joined to the block before.

    numpy reduces a (terms x 1) block pairwise but a wider one row by row,
    so every block of a batch is at least two points wide, and each point
    gets the same bits in every block of every batch.  Only a single point
    is summed pairwise.
    """
    starts = list(range(0, n, step))
    if len(starts) > 1 and n - starts[-1] == 1:
        starts.pop()
    return [slice(a, b) for a, b in zip(starts, starts[1:] + [n])]


@lru_cache(maxsize=256)
def _pair_axis(length: float, half: int) -> np.ndarray:
    """Box images m * length, |m| <= half, as a column in pair order: m = half
    down to 1, then 0, then -half up to -1, so that rows i < half and
    half + 1 + i hold the pair +-m, farthest first, and the origin closes
    the first half."""
    m = np.arange(half, 0, -1)
    col = (length * np.concatenate([m, [0], -m]))[:, None]
    col.flags.writeable = False
    return col


@lru_cache(maxsize=256)
def _box_frequencies(rows: tuple, top: int):
    """For the dual box of an axis-aligned lattice, with p_k = m / L_k for
    m <= top: p^2 and 2 pi p, of shape (top + 1, 2), and the angular
    frequencies 2 pi / L_k as a column, all read-only."""
    periods = _geometry(rows)["periods"]
    p = np.arange(top + 1)[:, None] / periods
    out = p * p, _TWO_PI * p, (_TWO_PI / periods)[:, None]
    for a in out:
        a.flags.writeable = False
    return out


# ---------------------------------------------------------------------------
# lattice-sum evaluators on displacements d = x - h(y), h a deck element


def _axis_product(a, b, scale: float):
    """A box sum whose terms are a product of one factor per axis.

    a holds the per-axis sums (A0, A1), so the value is scale * A0 * A1; with
    per-axis derivative sums b = (B0, B1) the gradient components are
    (scale * B0 * A1, scale * A0 * B1).  b is None for values.  Arrays, or
    Python floats for one point, with the same operations and bits.
    """
    if b is None:
        return scale * a[0] * a[1]
    return scale * b[0] * a[1], scale * a[0] * b[1]


def _harmonic_sums(c1, s1, cos_w: list, sin_w: list | None):
    """sum_m cos_w[m] cos(m theta), and sum_m sin_w[m] sin(m theta) (0.0 when
    sin_w is None), from c1 = cos theta and s1 = sin theta: float arrays, or
    Python floats for a few points.

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


def _cosine_sum(d0: np.ndarray, pts: np.ndarray, w: np.ndarray, want_grad: bool):
    """sum_p w_p cos(2 pi p.d) over the dual vectors p, the rows of pts, or the
    y-gradient sum_p 2 pi p w_p sin(2 pi p.d), at each reduced displacement
    d of d0 (coordinate rows, shape (2, P)).  Term-major, as in ``_image``:
    each block is a (terms x points) array of phases built elementwise from
    the coordinate rows of d0, reduced over axis 0, so the terms are added
    in the row order of pts."""
    tp = _TWO_PI * pts
    p0, p1 = tp[:, 0:1], tp[:, 1:2]
    coef = tp * w[:, None] if want_grad else w[:, None]
    n = d0.shape[1]
    out = np.empty((n, 2) if want_grad else n)
    for blk in _blocks(n, _block_rows(2 * len(pts))):  # the phases and a product
        ph = p0 * d0[0, blk]
        ph += p1 * d0[1, blk]
        if want_grad:
            np.sin(ph, out=ph)
            out[blk, 0] = (ph * coef[:, 0:1]).sum(axis=0)
            out[blk, 1] = np.multiply(ph, coef[:, 1:2], out=ph).sum(axis=0)
        else:
            out[blk] = np.multiply(np.cos(ph, out=ph), coef, out=ph).sum(axis=0)
    return out


def _spectral(rows: tuple, t: float, d0: np.ndarray, eps: float, want_grad: bool):
    """Cover kernel (or y-gradient) at the reduced displacements d0
    (coordinate rows, shape (2, P), ``lattice._recentre``), summed over the
    dual lattice: one value (or gradient row) per displacement, with the
    bound and the terms summed.

    Every dual point p with |p| <= radius is summed, one of each pair +-p with
    weight 2 (``_cosine_sum``), farthest first, as the image route adds its
    terms.  A rectangular lattice, with periods L0, L1, sums the box
    |p_k| <= radius instead, which holds that disk, so its omitted terms are
    part of the disk's tail.  Its term is a product of one factor per axis,
    so the box sum is C0 * C1 / area and the gradient (G0 * C1, C0 * G1) /
    area, with C_k = sum_{m >= 0} w_m cos(2 pi m d_k / L_k) and
    G_k = sum_{m >= 0} 2 pi (m / L_k) w_m sin(2 pi m d_k / L_k), w_0 = 1 and
    w_m = 2 exp(-alpha m^2 / L_k^2), m <= M_k: two cosines and two sines per
    point (``_harmonic_sums``) for the half box of
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
        _check_work(len(pts), d0.shape[1])
        w = np.exp(-alpha * r2) * (2.0 / area)
        w[0] = 1.0 / area  # the origin, first by modulus, has no partner
        return _cosine_sum(d0, pts[::-1], w[::-1], want_grad), err, len(pts)
    tops = tuple(math.floor(radius * length) for length in geom["periods"])
    p2, two_pi_p, freq = _box_frequencies(rows, max(tops))
    w = 2.0 * np.exp(-alpha * p2)
    w[0] = 1.0  # m = 0 has no partner
    cos_w = [col[:top + 1] for col, top in zip(w.T.tolist(), tops)]
    sin_w = ([col[:top + 1] for col, top in zip((two_pi_p * w).T.tolist(), tops)]
             if want_grad else (None, None))
    n0, n1 = (2 * m + 1 for m in tops)
    n = d0.shape[1]
    if n <= _FEW_POINTS:  # float arithmetic costs less than numpy calls
        theta = freq * d0
        sums = [[_harmonic_sums(c, s, cos_w[k], sin_w[k]) for c, s in zip(cs, ss)]
                for k, (cs, ss) in enumerate(zip(np.cos(theta).tolist(), np.sin(theta).tolist()))]
        out = np.array([_axis_product((a0, a1), (g0, g1) if want_grad else None, 1.0 / area)
                        for (a0, g0), (a1, g1) in zip(*sums)]).reshape((n, 2) if want_grad else n)
    else:
        out = np.empty((n, 2) if want_grad else n)
        step = _block_rows(16)  # about 16 (points,) arrays over both axes
        for i in range(0, n, step):
            theta = freq * d0[:, i:i + step]
            c1, s1 = np.cos(theta), np.sin(theta)
            c, g = zip(*(_harmonic_sums(c1[k], s1[k], cos_w[k], sin_w[k]) for k in (0, 1)))
            out[i:i + step].T[:] = _axis_product(c, g if want_grad else None, 1.0 / area)
    return out, err, (n0 * n1 + 1) // 2


def _pair_sums(a: np.ndarray, half: int) -> np.ndarray:
    """The sum over the rows of a (terms x points) block in pair order, as
    ``_pair_axis`` lays out a box axis: the rows i and half + 1 + i, the
    terms of a pair +-p, are added first, into row i, then rows 0 to half
    in order, farthest first and the origin's last.  a is overwritten."""
    np.add(a[:half], a[half + 1:], out=a[:half])
    return np.add.reduce(a[:half + 1])


def _image(rows: tuple, t: float, d0: np.ndarray, eps: float, want_grad: bool):
    """Cover kernel (or y-gradient) at the reduced displacements d0
    (coordinate rows, shape (2, P), ``lattice._recentre``), summed over
    lattice images: one value (or gradient row) per displacement.

    Every reduced displacement lies within the lattice's "reach"
    (``lattice._geometry``), so every image p with |p| <= radius + reach is
    summed, and with it each d0 - p within the radius.  A rectangular
    lattice sums the box |p_k| <= radius + reach instead, which holds that
    disk, so its omitted terms are part of the disk's tail.
    Its Gaussian exp(-alpha |z|^2) is the product of one factor per axis, so
    the box sum is S0 * S1 and the gradient sum (G0 * S1, S0 * G1), with
    S_k = sum exp(-alpha z_k^2) and G_k = sum z_k exp(-alpha z_k^2) along
    axis k: n0 + n1 exponentials per point for n0 * n1 terms.

    Sums are laid out term-major: each block is a (terms x points) array
    built from the coordinate columns of d0 and reduced over axis 0, so the
    elementwise loops run over points.  The images are walked as one of each
    pair +-p (the pair order of ``_disk_entry``, the box of ``_pair_axis``):
    the terms of d0 - p and d0 + p are added first, and the pair sums
    reduced in row order, farthest first, so the largest terms,
    which carry the value, come last, and the origin's last of all.  The
    pair sum is symmetric in +-p, so the route is even in d0, bit for bit:
    the value at -d0 is the value at d0, the gradient its negation.
    """
    geom = _geometry(rows)
    alpha = 1.0 / (4.0 * t)
    pref0 = 1.0 / (4.0 * math.pi * t)
    moment = 1 if want_grad else 0
    pref = pref0 * (2.0 * alpha if want_grad else 1.0)
    scale = pref0 * 2.0 * alpha if want_grad else pref0
    radius, err = _radius_for(alpha, geom["rho"], geom["covol"], eps, pref, moment)
    span = radius + geom["reach"]
    n_pts = d0.shape[1]
    out = np.empty((n_pts, 2) if want_grad else n_pts)
    if geom["axis_aligned"]:
        periods = geom["periods"].tolist()
        h0, h1 = (math.floor(span / length) for length in periods)
        axes = [_pair_axis(length, h) for length, h in zip(periods, (h0, h1))]
        n0, n = 2 * h0 + 1, 2 * (h0 + h1 + 1)
        terms = n0 * (n - n0)
        # the differences of both axes, stacked, and their Gaussians
        for blk in _blocks(n_pts, _block_rows(2 * n)):
            z = np.empty((n, blk.stop - blk.start))
            np.subtract(d0[0][blk], axes[0], out=z[:n0])
            np.subtract(d0[1][blk], axes[1], out=z[n0:])
            e = z * z
            e *= -alpha
            np.exp(e, out=e)
            if want_grad:
                np.multiply(e, z, out=z)
                grads = _pair_sums(z[:n0], h0), _pair_sums(z[n0:], h1)
            sums = _pair_sums(e[:n0], h0), _pair_sums(e[n0:], h1)
            out[blk].T[:] = _axis_product(sums, grads if want_grad else None, scale)
    else:
        entry, k = _disk_entry(rows, span, True, False)
        terms = 2 * k - 1
        _check_work(terms, n_pts)
        far = entry[4][:, k - 1::-1]  # [0] and [1] hold p and -p, farthest first
        p0, p1 = far[..., 0:1], far[..., 1:2]
        # both difference columns, their squares and the Gaussians
        for blk in _blocks(n_pts, _block_rows(8 * k)):
            z0 = d0[0][blk] - p0
            z1 = d0[1][blk] - p1
            e = np.exp(-alpha * (z0 * z0 + z1 * z1))
            parts = (np.multiply(e, z0, out=z0), np.multiply(e, z1, out=z1)) if want_grad else (e,)
            # each as one column in pair order, the origin's second copy dropped
            sums = [_pair_sums(a.reshape(2 * k, -1)[:-1], k - 1) for a in parts]
            if want_grad:
                out[blk, 0], out[blk, 1] = scale * sums[0], scale * sums[1]
            else:
                out[blk] = scale * sums[0]
    return out, err, terms


# ---------------------------------------------------------------------------
# public heat-kernel interface


def _resolve_rep(surface: FlatSurface, t: float, representation: str) -> str:
    if representation == "auto":
        return "image" if 4.0 * math.pi * t < surface.area else "spectral"
    if representation not in ("spectral", "image"):
        raise InvalidParameter(f"unknown representation {representation!r}")
    return representation


def _validate_time_eps(t: float, eps: float) -> None:
    if not (math.isfinite(t) and t > 0):
        raise NonPositiveTime(f"heat kernel needs t > 0, got {t}")
    if not (math.isfinite(eps) and eps > 0):
        raise InvalidParameter(f"epsilon must be positive, got {eps}")


def _broadcast_pair(x, y):
    """x and y as float arrays of one shape (..., 2).  Non-finite points give
    non-finite displacements, which the deck sum rejects (``lattice._recentre``)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape[-1:] != (2,) or y.shape[-1:] != (2,):
        raise InvalidParameter("points must have a trailing dimension of 2")
    return (x, y) if x.shape == y.shape else np.broadcast_arrays(x, y)


def _deck_sum(surface: FlatSurface, x, y, cover_sum, want_grad: bool):
    """Sum a cover-lattice sum (or its y-gradient) over the deck group: the one
    pipeline from points x, y (float arrays of one shape (..., 2)) to every
    kernel value, gradient and projection.  It forms the displacements
    x - h(y) over the k deck elements h (``surfaces._deck_displacements``),
    reduces them once modulo the cover (``lattice._recentre``, which rejects
    non-finite ones) and hands the cover rows, the reduced coordinate rows
    d0, shape (2, k P), and k to cover_sum(rows, d0, k), which returns one sum
    (or gradient row) per displacement with its bound and its terms.
    Gradients are multiplied by each deck map's linear part lin[h] (the chain
    rule; the glide reverses x1).  Returns the sums over h with k times the
    bound and the terms.
    """
    rows, lin, disp = _deck_displacements(surface, x, y)
    k = len(lin)
    out, err, terms = cover_sum(rows, _recentre(rows, disp), k)
    out = out.reshape(disp.shape[:-1] + out.shape[1:])
    if want_grad:
        out *= lin.reshape((k,) + (1,) * (out.ndim - 2) + (2,))
    return out.sum(axis=0), k * err, k * terms


def _heat_sum(surface: FlatSurface, t: float, x, y, eps: float, representation: str,
              want_grad: bool):
    """The heat kernel (or its y-gradient) at points x, y as a deck sum, for a
    checked time and tolerance, with the representation used; each of the k
    deck elements gets eps / k."""
    rep = _resolve_rep(surface, t, representation)
    fn = _spectral if rep == "spectral" else _image
    return (*_deck_sum(surface, x, y, lambda rows, d0, k: fn(rows, t, d0, eps / k, want_grad),
                       want_grad), rep)


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
    terms_used does not depend on the points; in a batch of two or more
    points, neither does a point's value (the module's summation rule).
    """
    _validate_time_eps(t, eps)
    return _heat_sum(surface, t, *_broadcast_pair(x, y), eps, representation, want_grad=False)


def heat_gradient_values(surface: FlatSurface, t: float, x, y, eps: float = 1e-10,
                         representation: str = "auto"):
    """Gradient of K_t(x, .) in the second argument, on arrays of points."""
    _validate_time_eps(t, eps)
    return _heat_sum(surface, t, *_broadcast_pair(x, y), eps, representation, want_grad=True)


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
        _validate_time_eps(self.t, self.epsilon)
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
    vals, err, terms, rep = _heat_sum(query.surface, query.t, np.array(query.x),
                                      np.array(query.y), query.epsilon, query.representation,
                                      want_grad=False)
    return KernelValue(float(vals), err, terms, rep)


def heat_kernel_gradient(query: KernelQuery) -> KernelGradient:
    grads, err, terms, rep = _heat_sum(query.surface, query.t, np.array(query.x),
                                       np.array(query.y), query.epsilon, query.representation,
                                       want_grad=True)
    return KernelGradient((float(grads[0]), float(grads[1])), err, terms, rep)


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
    found in the sorted table out to max(index, 1)^2 lambda_1, which
    n^2 lambda_1, n <= index, do not pass (an index past TERM_BUDGET counts
    as TERM_BUDGET, whose disk passes the budget): its group's eigenvalue is
    read there, and the modes are built out to it alone."""
    if lam is None:
        b = surface.lattice.b if isinstance(surface, Torus) else max(surface.b, 1.0)
        lam = (_TWO_PI / b) ** 2 * (1 if index is None else min(max(index, 1), TERM_BUDGET) ** 2)
    if not lam > 0:
        raise InvalidParameter(f"no mode at eigenvalue {lam!r}: it is not positive "
                               "(lambda_1 = (2 pi / b)^2 underflows to 0 beyond b ~ 4e162)")
    if index is not None:
        table = _mode_table(surface, lam, _MODE_TOL)[0]
        starts = _group_starts(table, _MODE_TOL, index + 1)
        if len(starts) > index:
            lam = float(table[starts[index]])
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


def _projection(surface: FlatSurface, mode: SpectralMode, x, y, want_grad: bool):
    """P_lambda(x, y) = sum over deck elements h and shell vectors p of
    cos(2 pi p.(x - h(y))) / cover area, or its y-gradient with a bound: the
    spectral disk route's cosine sum over the shell (``_shell``), with weight
    1 / area, through the heat kernel's deck sum."""
    _check_mode(surface, mode)
    vecs, area = _shell(surface, mode)
    w = np.full(len(vecs), 1.0 / area)
    out, _, terms = _deck_sum(
        surface, *_broadcast_pair(x, y),
        lambda rows, d0, k: (_cosine_sum(d0, vecs, w, want_grad), 0.0, len(vecs)), want_grad)
    if not want_grad:
        return out
    # a heuristic rounding bound over the deck elements times shell vectors summed
    scale = terms * _TWO_PI * float(np.max(np.hypot(vecs[:, 0], vecs[:, 1]))) / area
    return out, 1e-15 * max(scale, 1.0)


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


def _check_work(terms: int, points: int) -> None:
    """ToleranceUnreachable when summing terms lattice terms at each of points
    displacements passes WORK_BUDGET; checked before anything is summed."""
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
