"""Radial monotonicity scans, explicit counterexamples, and critical-point
censuses for heat and projection kernels on flat surfaces.

A kernel F centered at x is geodesically decreasing when s -> F(x, gamma(s))
is non-increasing along every minimal geodesic gamma from x.  The scan samples
directions and arc lengths, evaluates the radial derivative u . grad F with a
certified error bound, and reports witnesses where the derivative certifiably
exceeds the tolerance.  Counterexample constructors rebuild the known failing
configurations in closed form and return revalidatable witnesses.

Every geodesic sample starts as a kernel target, which carries its time
(+inf for a projection), and ``_segment`` (the points base + s * u).  One
sampler, ``_eval_radial``, evaluates them: it picks each target's cover
sums (``_kernel_sum``) and runs them all on one reduction of the samples
(``kernels._deck_sum``).  It serves a scan's main pass (``_scan_task``,
every target of a base on one set of samples), the scan's eps/16 retry,
``_profile`` (values and derivatives, for curves and records) and
``_witness`` (one sample on its own, as ``revalidate`` evaluates it).  A
sample gets the same bits in each.  Scan and counterexample witnesses
alike come from the ``ViolationWitness`` constructor.
"""
from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from enum import Enum
from itertools import chain, repeat

import numpy as np

from .errors import (
    CertificationFailed,
    DegenerateCritical,
    InvalidParameter,
    NotSimple,
    ToleranceUnreachable,
    WrongLatticeClass,
)
from .kernels import (
    SpectralMode,
    _check_size,
    _cover_sum,
    _deck_sum,
    _mode_at,
    _resolve_rep,
    _shell_sum,
    _validate_time_eps,
    eigenbasis_values,
    fundamental_domain_grid,
    heat_gradient_values,
    principal_eigenvalue,
)
from .lattice import LatticeTag, _pair, _real, _unit, classify
from .surfaces import FlatSurface, Torus, _s_max, klein_bottle, minimal_geodesic, torus

_DEFAULT_T_GRID = tuple(2.0 ** k for k in range(-7, 8))
_NEWTON_STEPS = 60
_WITNESS_SLICE = 1 << 16  # witnesses built per slice of the sorted order
_SCAN_NOTES = (
    "finite direction, arc-length, and time grids: a Monotone verdict is "
    "sampled evidence, not a proof",
    "only fixed time grids are probed; bounded non-repeating time sequences "
    "are outside the reach of this scan",
)


def worker_count() -> int:
    """Thread cap for scan fan-out: the CPUs this process may run on, at most
    4; FLAT_HEAT_THREADS overrides."""
    env = os.environ.get("FLAT_HEAT_THREADS", "").strip()
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            raise InvalidParameter(f"FLAT_HEAT_THREADS must be an integer, got {env!r}")
    if hasattr(os, "sched_getaffinity"):
        return min(4, len(os.sched_getaffinity(0)))
    return min(4, os.cpu_count() or 1)


# ---------------------------------------------------------------------------
# configuration and result types


def _times(values, what: str) -> tuple[float, ...]:
    """The times as floats; InvalidParameter unless values is a non-empty
    sequence of numbers, each positive and finite."""
    try:
        times = () if isinstance(values, (str, bytes)) else tuple(map(float, values))
    except (TypeError, ValueError):
        times = ()
    if not times or not all(0.0 < t < math.inf for t in times):
        raise InvalidParameter(f"{what}: each must be a positive finite number, got {values!r}")
    return times


@dataclass(frozen=True)
class ScanConfig:
    n_directions: int = 360
    n_arc_samples: int = 64
    t_values: tuple = _DEFAULT_T_GRID
    base_points: tuple | None = None
    derivative_tolerance: float = 1e-12
    kernel_epsilon: float = 1e-13

    def __post_init__(self):
        # a scan task holds n_directions x n_arc_samples samples
        n_arc = _check_size(self.n_arc_samples, 8, "n_arc_samples", width=1)
        object.__setattr__(self, "n_arc_samples", n_arc)
        object.__setattr__(self, "n_directions",
                           _check_size(self.n_directions, 4, "n_directions", width=n_arc))
        object.__setattr__(self, "t_values", _times(self.t_values, "t_values"))
        for name in ("derivative_tolerance", "kernel_epsilon"):
            tol = _real(getattr(self, name), name)
            if not (tol > 0 and math.isfinite(tol)):
                raise InvalidParameter("tolerances must be positive and finite")
            object.__setattr__(self, name, tol)
        if self.base_points is not None:
            object.__setattr__(self, "base_points", tuple(map(_pair, self.base_points)))
            if not all(math.isfinite(c) for p in self.base_points for c in p):
                raise InvalidParameter("base_points must be finite")


@dataclass(frozen=True)
class Heat:
    """Scan target: heat kernel; at a fixed time t, or the configured grid.
    The time is converted with float; InvalidParameter unless it is a
    positive finite number."""

    t: float | None = None

    def __post_init__(self):
        if self.t is not None:
            object.__setattr__(self, "t", _times((self.t,), "heat kernel times")[0])


@dataclass(frozen=True)
class Projection:
    """Scan target: spectral projection kernel of one eigenvalue."""

    mode: SpectralMode

    @property
    def t(self) -> float:
        """The time of its witnesses: +inf, the large-time limit."""
        return math.inf


@dataclass(frozen=True, slots=True)
class ViolationWitness:
    """One sample whose radial derivative certifiably exceeds the tolerance.
    Slotted, with no instance __dict__ or weak references: a scan may hold
    millions of them."""

    base: tuple[float, float]
    direction: tuple[float, float]
    s: float
    t: float                      # +inf for projection kernels (large-time limit)
    radial_derivative: float
    error_bound: float
    kernel: str                   # "heat" | "projection"
    eigenvalue: float | None = None


class Verdict(str, Enum):
    MONOTONE = "monotone"
    VIOLATED = "violated"
    INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class MonotonicityReport:
    config: ScanConfig
    surface: FlatSurface
    witnesses: tuple
    points_checked: int
    inconclusive_count: int
    verdict: Verdict
    notes: tuple = _SCAN_NOTES


# ---------------------------------------------------------------------------
# geometry helpers


def _scan_directions(surface: FlatSurface, n: int) -> np.ndarray:
    """The ring of n directions at angles 2 pi k / n, then the forced ones.

    An even ring is its first half followed by 0.0 - half: exact antipodes,
    with no -0.0, so every direction keeps its math.atan2 angle and the
    mirroring of ``scan`` may read -u from u.
    """
    ang = 2.0 * math.pi * np.arange(n if n % 2 else n // 2) / n
    ring = np.stack([np.cos(ang), np.sin(ang)], axis=1)
    dirs = [ring if n % 2 else np.concatenate([ring, 0.0 - ring])]
    if isinstance(surface, Torus):
        a, b = surface.lattice.a, surface.lattice.b
        forced = [(1.0, 0.0), (0.0, 1.0), (-a, b), (1.0 - a, b), (-1.0 - a, b)]
    else:
        forced = [(1.0, 0.0), (0.0, 1.0)]
    dirs.append(np.array([_unit(f) for f in forced]))
    return np.concatenate(dirs, axis=0)


def _default_bases(surface: FlatSurface, cfg: ScanConfig) -> np.ndarray:
    if cfg.base_points is not None:
        return np.array(cfg.base_points, dtype=float)
    if isinstance(surface, Torus):
        return np.zeros((1, 2))
    return fundamental_domain_grid(surface, 16)[0].reshape(-1, 2)


# ---------------------------------------------------------------------------
# the radial sampler: every kernel sample on a geodesic goes through these


def _segment(base, u, s):
    """Samples base + s * u on geodesics from base, as broadcast (..., 2)
    arrays X (the base), Y (the sample point) and U (its direction u)."""
    Y = base + np.asarray(s, dtype=float)[..., None] * u
    return np.broadcast_to(base, Y.shape), Y, np.broadcast_to(u, Y.shape)


def _radial(sums, U):
    """A gradient sum of ``kernels._deck_sum`` as radial derivatives
    g0 u0 + g1 u1 along U (..., 2), elementwise, with its bound; a value sum
    with its bound.  A BLAS dot of the same numbers may round differently,
    and revalidate would then not give back a scan's bits."""
    out, err, _ = sums
    if out.shape == U.shape:
        out = out[..., 0] * U[..., 0] + out[..., 1] * U[..., 1]
    return out, err


def _kernel_sum(surface, kernel, eps, want_grad: bool):
    """The cover sum of a kernel target, values or y-gradients, as
    ``kernels._deck_sum`` takes it: the heat kernel at its own time with
    tolerance eps (checked) on the automatic route, or the projection of
    the target's mode, which takes no tolerance."""
    if isinstance(kernel, Heat):
        t, eps = _validate_time_eps(kernel.t, eps)
        return _cover_sum(t, _resolve_rep(surface, t, "auto"), eps, want_grad)
    return _shell_sum(surface, kernel.mode, want_grad)


def _eval_radial(surface, targets, X, Y, U, eps, values: bool = False):
    """Radial derivatives (``_radial``) and their error bound for sample
    blocks X, Y and directions U (..., 2), for each kernel target in turn,
    all from one reduction of the samples (``kernels._deck_sum``); with
    values, each target's kernel values and their bound come before its
    derivatives.  An iterator of (array, bound) pairs, each let go before
    the next is formed; eps serves heat targets only.  A sample gets the
    same bits in every batch, a batch of one included, and with any other
    targets (the summation rule of ``kernels``)."""
    grads = (False, True) if values else (True,)
    sums = [_kernel_sum(surface, kernel, eps, g) for kernel in targets for g in grads]
    return map(_radial, _deck_sum(surface, X, Y, sums), repeat(U))


def _profile(surface, kernel, base, u, s, eps):
    """Kernel values, radial derivatives and one error bound for both along
    base + s * u, from one reduction of the samples; a projection is a
    finite shell sum, whose values have no truncation to bound."""
    X, Y, U = _segment(base, u, s)
    (vals, err_vals), (deriv, err) = _eval_radial(surface, [kernel], X, Y, U, eps, values=True)
    return vals, deriv, max(float(err_vals), float(err))


def _radial_at(surface, kernel, base, u, s, eps) -> tuple[float, float]:
    """Radial derivative and error bound of the one sample base + s * u,
    evaluated as a batch of one (shape (1, 2)), as a scan evaluates its
    row, not as a single query (``kernels._pair_sum``)."""
    X, Y, U = _segment(np.asarray(base, dtype=float), np.asarray(u, dtype=float), [s])
    deriv, err = next(_eval_radial(surface, [kernel], X, Y, U, eps))
    return float(deriv[0]), float(err)


# ---------------------------------------------------------------------------
# the scan


def _check_kernel(kernel) -> None:
    if not isinstance(kernel, (Heat, Projection)):
        raise InvalidParameter("kernel must be Heat(...) or Projection(...)")


def _scan_task(surface, targets, cfg, base, dirs, smax, src):
    """Witness columns, inconclusive count and samples of each kernel target
    from one base, one triple per target.  The first pass evaluates every
    target on one reduction of the samples (``_eval_radial``); each
    target's columns are cut, and its arrays let go, before the next target
    runs.  Row i of dirs takes its radial derivatives from the
    evaluation of row src[i]: only the rows src names are evaluated, and the
    eps/16 retry, one per target, runs on them alone.  A mirrored row,
    src[i] != i, is the antipode of src[i] with the same arc lengths, so its
    derivatives are those of src[i] bit for bit (``_mirror_rows``).  The
    witness and ambiguity masks, and the sample count, cover every row.  A
    target's bounds stay one float until a retry, and its rows are copied
    out only when some are mirrored: the fewer large arrays a target
    allocates, the less the worker threads' malloc arenas, and so the
    scan's peak RSS, grow."""
    ns = cfg.n_arc_samples
    tol = cfg.derivative_tolerance
    S = smax[:, None] * (np.arange(1, ns + 1) / ns)[None, :]
    rows, at = np.unique(src, return_inverse=True)
    X, Y, dirs_b = _segment(base, dirs[rows, None, :], S[rows])
    passes = _eval_radial(surface, targets, X, Y, dirs_b, cfg.kernel_epsilon)
    out = []
    for kernel, (deriv, err0) in zip(targets, passes):
        err = err0  # one bound for every sample, until a retry
        ambiguous = ~(deriv - err > tol) & (deriv + err > tol)
        if ambiguous.any():
            d2, e2 = next(_eval_radial(surface, [kernel], X[ambiguous], Y[ambiguous],
                                       dirs_b[ambiguous], cfg.kernel_epsilon / 16.0))
            deriv[ambiguous] = d2
            err = np.where(ambiguous, e2, err0)
        if len(rows) < len(src):
            deriv, err = deriv[at], (err[at] if np.ndim(err) else err)
        witness = deriv - err > tol
        ambiguous = ~witness & (deriv + err > tol)
        i, j = np.nonzero(witness)
        err = np.broadcast_to(err, deriv.shape)
        out.append(((i, S[i, j], deriv[i, j], err[i, j]), int(ambiguous.sum()), deriv.size))
        del deriv, err, witness, ambiguous
    return out


def _mirror_rows(surface, base, n: int, smax: np.ndarray) -> np.ndarray:
    """The rows whose evaluation serves each scan direction (``_scan_task``):
    on a torus scanned from the origin with an even ring, the second half of
    the ring reads the first half.  The point reflection y -> -y is an
    isometry of every torus, the displacements of s u and -s u from the
    origin are exact negatives, and every kernel route is exactly even in
    them, so the radial derivative along -u is that along u, bit for bit,
    once the two cut lengths agree, as they do term by term.  Other
    surfaces, bases and rings evaluate every direction."""
    src = np.arange(len(smax))
    h = n // 2
    if (isinstance(surface, Torus) and n % 2 == 0 and not np.any(base)
            and np.array_equal(smax[h:n], smax[:h])):
        src[h:n] -= h
    return src


def scan(surface: FlatSurface, kernel, cfg: ScanConfig = ScanConfig()) -> MonotonicityReport:
    """Scan radial derivatives of the kernel along minimal geodesics.

    Verdict: Violated when any sample's derivative certifiably exceeds the
    tolerance; Inconclusive when some sample's error bound straddles the
    tolerance even after one retry at epsilon/16; Monotone otherwise.

    One task per base point covers all its times (``_scan_task``): it forms
    the samples, their deck displacements and their reduction once, and
    evaluates each time on them.  When the scan has fewer bases than
    workers, as a torus scanned from the origin has, each base's times are
    cut into ceil(workers / bases) contiguous groups, at most one per time,
    and each group is a task.  Witnesses, counts and
    verdicts do not depend on the workers or the groups.

    On a torus scanned from the origin (the default base) with an even
    number of directions, each antipodal pair u, -u of the ring is evaluated
    once: the reflection through the base is an isometry, so the kernel
    profiles along u and -u are the same (``_mirror_rows``).  Witnesses and
    points_checked are those of evaluating both.  Klein bottles, other bases
    and odd rings evaluate every direction.
    """
    _check_kernel(kernel)
    dirs = _scan_directions(surface, cfg.n_directions)
    bases = _default_bases(surface, cfg)
    if isinstance(kernel, Heat) and kernel.t is None:
        targets = [Heat(t) for t in cfg.t_values]
    else:
        targets = [kernel]
    nw = worker_count()
    groups = 1 if len(bases) >= nw else min(len(targets), -(-nw // len(bases)))
    cuts = [len(targets) * g // groups for g in range(groups + 1)]
    tasks = []
    for base in bases:
        smax = _s_max(surface, base, dirs)
        src = _mirror_rows(surface, base, cfg.n_directions, smax)
        tasks += [(targets[lo:hi], base, smax, src) for lo, hi in zip(cuts, cuts[1:])]
    run = lambda task: _scan_task(surface, task[0], cfg, task[1], dirs, *task[2:])
    if nw > 1 and len(tasks) > 1:
        with ThreadPoolExecutor(max_workers=nw) as pool:
            results = [r for rs in pool.map(run, tasks) for r in rs]
    else:
        results = [r for task in tasks for r in run(task)]
    pairs = [(target, task[1]) for task in tasks for target in task[0]]
    inconclusive = sum(amb for _, amb, _ in results)
    points = sum(cnt for _, _, cnt in results)
    columns = [cols for cols, _, _ in results]
    del results
    witnesses = _witness_objects(pairs, dirs, columns)
    if witnesses:
        verdict = Verdict.VIOLATED
    elif inconclusive:
        verdict = Verdict.INCONCLUSIVE
    else:
        verdict = Verdict.MONOTONE
    return MonotonicityReport(
        config=cfg, surface=surface, witnesses=witnesses,
        points_checked=points, inconclusive_count=inconclusive, verdict=verdict)


def _witness_objects(pairs, dirs, columns) -> tuple:
    """Witnesses from (direction index, s, derivative, error) columns, one per
    (kernel target, base) pair of pairs; the target gives its witnesses'
    time.  columns is emptied once concatenated, so each task's arrays go
    before the objects are built.

    They are ordered by (t, base, direction angle, s) with one stable sort, so
    ties keep pair, direction and sample order.  The angle of a direction is
    math.atan2 of its components, the key its witness gives.  Witnesses share
    one tuple per base and direction, and one float per time and per error
    bound (both positive, so equal values have equal bits); they are built
    _WITNESS_SLICE at a time, so no list of every witness's fields exists.
    """
    if not columns:
        return ()
    owner = np.repeat(np.arange(len(pairs)), [len(cols[0]) for cols in columns])
    i, s, deriv, err = (np.concatenate(col) for col in zip(*columns))
    columns.clear()
    bases = np.array([base for _, base in pairs])
    t = np.array([target.t for target, _ in pairs])
    angle = np.array([math.atan2(u1, u0) for u0, u1 in dirs.tolist()])
    order = np.lexsort((s, angle[i], bases[owner, 1], bases[owner, 0], t[owner]))
    owner, i, s, deriv = owner[order], i[order], s[order], deriv[order]
    bounds, bound_at = np.unique(err[order], return_inverse=True)
    del order, err
    base_of = [tuple(b) for b in bases.tolist()]
    dir_of = [tuple(u) for u in dirs.tolist()]
    shared = {}
    t_of = [shared.setdefault(v, v) for v in t.tolist()]
    bound_of = bounds.tolist()
    kernel = pairs[0][0]
    heat = isinstance(kernel, Heat)
    name = "heat" if heat else "projection"
    eigenvalue = None if heat else kernel.mode.eigenvalue

    def objects(lo):
        cut = slice(lo, lo + _WITNESS_SLICE)
        pair = owner[cut].tolist()
        return map(ViolationWitness,
                   map(base_of.__getitem__, pair), map(dir_of.__getitem__, i[cut].tolist()),
                   s[cut].tolist(), map(t_of.__getitem__, pair), deriv[cut].tolist(),
                   map(bound_of.__getitem__, bound_at[cut].tolist()),
                   repeat(name), repeat(eigenvalue))

    return tuple(chain.from_iterable(map(objects, range(0, len(s), _WITNESS_SLICE))))


def revalidate(surface: FlatSurface, witness: ViolationWitness,
               kernel_epsilon: float) -> tuple[float, float]:
    """Re-evaluate a witness's radial derivative at the given epsilon as a
    batch of one, the path counterexample witnesses take (``_radial_at``):
    a sample's bits do not depend on its batch, so at the scan's epsilon
    every witness of a scan's first pass, and of a counterexample, comes
    back bit for bit (``_eval_radial``)."""
    if witness.kernel == "heat":
        kernel = Heat(witness.t)
    else:
        kernel = Projection(_mode_at(surface, witness.eigenvalue))
    return _radial_at(surface, kernel, witness.base, witness.direction, witness.s,
                      kernel_epsilon)


def radial_curve(surface: FlatSurface, kernel, base, direction, n: int = 101,
                 eps: float = 1e-12):
    """Sampled (s, value, derivative, error_bound) arrays along one geodesic.

    Raises InvalidParameter, before sampling, unless the kernel is Heat(t)
    or Projection(...) and n is an integer of at least 1 within TERM_BUDGET.
    """
    _check_kernel(kernel)
    n = _check_size(n, 1, "n", width=1)
    if isinstance(kernel, Heat) and kernel.t is None:
        raise InvalidParameter("a heat-kernel curve needs a time: Heat(t)")
    geo = minimal_geodesic(surface, base, direction)
    s = geo.s_max * (np.arange(1, n + 1) / n)
    vals, deriv, err = _profile(surface, kernel, np.array(geo.base), np.array(geo.direction),
                                s, eps)
    return s, vals, deriv, np.full(n, err)


# ---------------------------------------------------------------------------
# closed-form counterexamples


@dataclass(frozen=True)
class CounterexampleRecord:
    kind: str
    surface: FlatSurface
    s_star: float | None
    s_values: tuple
    p_values: tuple
    dp_values: tuple
    formula_deviation: float
    increase: float
    witness: ViolationWitness
    extras: dict = field(default_factory=dict)


def _certify(ok, message: str) -> None:
    """Raise CertificationFailed unless ok; unlike assert, survives python -O."""
    if not ok:
        raise CertificationFailed(message)


def _witness(surface, kernel, base, u, s, eps, what: str) -> ViolationWitness:
    """The witness of the sample base + s * u, evaluated on its own as
    revalidate evaluates it, once deriv - err > 0 is certified there."""
    deriv, err = _radial_at(surface, kernel, base, u, s, eps)
    _certify(deriv - err > 0, f"{what} not certifiably positive")
    heat = isinstance(kernel, Heat)
    return ViolationWitness(
        base=(float(base[0]), float(base[1])), direction=(float(u[0]), float(u[1])),
        s=float(s), t=kernel.t, radial_derivative=deriv, error_bound=err,
        kernel="heat" if heat else "projection",
        eigenvalue=None if heat else kernel.mode.eigenvalue)


def _projection_record(kind, surface, base, b, s_cut, formula, extras) -> CounterexampleRecord:
    """P rising along the vertical geodesic from base on [b/2, s_cut].

    100 samples: 30 below b/2 for context, then 70 that cover the increasing
    window however narrow it is.  formula(s) is P's closed form at arc length
    s; arc lengths are reported in units of b.
    """
    kernel = Projection(principal_eigenvalue(surface))
    base, u = np.asarray(base, dtype=float), np.array([0.0, 1.0])
    s_lo = 0.5 * b
    s = np.concatenate([np.linspace(0.9 * s_lo, s_lo, 30, endpoint=False),
                        np.linspace(s_lo, s_cut, 70)])
    p, dp, _ = _profile(surface, kernel, base, u, s, None)
    rising = s >= s_lo - 1e-12
    _certify(np.all(np.diff(p[rising]) > 0), "expected strict increase")
    witness = _witness(surface, kernel, base, u, 0.5 * (s_lo + s_cut), None,
                       "witness derivative")
    deviation = float(np.max(np.abs(p - formula(s))))
    _certify(deviation <= 1e-12, f"projection deviates from its closed form by {deviation:.3g}")
    return CounterexampleRecord(
        kind=kind, surface=surface, s_star=float(s_cut / b),
        s_values=tuple(s / b), p_values=tuple(p), dp_values=tuple(dp),
        formula_deviation=deviation, increase=float(p[-1] - p[rising][0]),
        witness=witness, extras=extras)


def counterexample_generic(a: float, b: float) -> CounterexampleRecord:
    """Violation of projection monotonicity on a torus with no extra symmetry.

    The vertical geodesic from the origin leaves the cut locus at normalized
    arc s_star = (a^2+b^2)/(2 b^2) > 1/2, and P(0,(0,sb)) = (2/b) cos(2 pi s)
    rises strictly on [1/2, s_star].
    """
    surface = torus(a, b)
    lat = surface.lattice
    tag = classify(lat).tag
    if tag is not LatticeTag.GENERIC:
        raise WrongLatticeClass(f"construction needs a generic lattice, got {tag.value}")
    s_cut = minimal_geodesic(surface, (0.0, 0.0), (0.0, 1.0)).s_max
    s_star = s_cut / lat.b
    closed_form = 0.5 + 0.5 * (lat.a / lat.b) ** 2  # b is not squared: it may be huge
    _certify(abs(s_star - closed_form) <= 1e-12,
             f"cut distance {s_star!r} differs from the closed form {closed_form!r}")
    return _projection_record(
        "generic", surface, (0.0, 0.0), lat.b, s_cut,
        lambda s: (2.0 / lat.b) * np.cos(2.0 * math.pi * (s / lat.b)), {})


def counterexample_isosceles(a: float) -> CounterexampleRecord:
    """Positive radial derivative of P at the circumcenter of the unit rhombus.

    With b = sqrt(1-a^2) the lattice vectors have unit length; the diagonals
    xi = (-1-a, b) and eta = (1-a, b) are orthogonal, P along either diagonal
    is (4/b) cos(2 pi s), and z* . grad P(z*) > 0 at the circumcenter z* of
    the triangle with vertices 0, (-a, b), (1-a, b).
    """
    if not 0.0 < a < 0.5:
        raise WrongLatticeClass("construction needs 0 < a < 1/2 with b = sqrt(1-a^2)")
    b = math.sqrt(1.0 - a * a)
    surface = torus(a, b)
    lat = surface.lattice
    tag = classify(lat).tag
    if tag is not LatticeTag.ISOSCELES:
        raise WrongLatticeClass(f"construction needs an isosceles lattice, got {tag.value}")
    kernel = Projection(principal_eigenvalue(surface))
    xi = np.array([-1.0 - a, b])
    eta = np.array([1.0 - a, b])
    xi_dot_eta = float(xi @ eta)
    _certify(abs(xi_dot_eta) <= 1e-14, f"diagonals not orthogonal: xi . eta = {xi_dot_eta:.3g}")
    # circumcenter: equidistant from 0, (-a,b), (1-a,b)
    corners = np.array([[-a, b], [1.0 - a, b]])
    z_star = np.linalg.solve(corners, 0.5 * (corners ** 2).sum(axis=1))
    s = np.linspace(0.0, 0.99, 100)
    p, dp, _ = _profile(surface, kernel, np.zeros(2), xi, s, None)
    deviation = float(np.max(np.abs(p - (4.0 / b) * np.cos(2.0 * math.pi * s))))
    _certify(deviation <= 1e-12, f"projection deviates from (4/b) cos(2 pi s) by {deviation:.3g}")
    # sampled as revalidate rebuilds it: at s = |z*| along the unit direction
    r = float(np.hypot(*z_star))
    witness = _witness(surface, kernel, np.zeros(2), z_star / r, r, None,
                       "circumcenter derivative")
    directional = r * witness.radial_derivative
    return CounterexampleRecord(
        kind="isosceles", surface=surface, s_star=None,
        s_values=tuple(s), p_values=tuple(p), dp_values=tuple(dp),
        formula_deviation=deviation, increase=directional,
        witness=witness,
        extras={"z_star": (float(z_star[0]), float(z_star[1])),
                "directional_derivative": directional,
                "xi_dot_eta": xi_dot_eta})


def counterexample_klein(b: float, xi: float = 0.25) -> CounterexampleRecord:
    """Monotonicity failure on the Klein bottle, by regime of b.

    b > 1: P along the vertical geodesic from (xi, 0) equals (2/b) cos(2 pi s/b)
    and rises past s = b/2 before the cut at s = (g^2 + b^2) / (2b), where
    g = min(2 xi, 1 - 2 xi) is the horizontal gap to the nearest glide image.
    That cut is the vertical case of the closed form in ``minimal_geodesic``:
    for u = (0, 1) the binding offset is the glide offset (+-g, b).
    b = 1: the multiplicity-3 projection gives 2 cos^2(2 pi xi) + 2 cos(2 pi s).
    b < 1: the principal eigenvalue is simple; delegate to the asymptotic
    large-time violation.
    """
    if not (b > 0 and math.isfinite(b)):
        raise InvalidParameter(f"b must be positive, got {b}")
    if not 0.0 < xi < 0.5:
        raise InvalidParameter(f"xi must lie in (0, 1/2), got {xi}")
    surface = klein_bottle(b)
    if b < 1.0 - 1e-12:
        asy = asymptotic_violation(surface)
        x = np.array(asy.x)
        u = _unit(np.array(asy.y) - x)
        s_hi = float(np.hypot(asy.y[0] - asy.x[0], asy.y[1] - asy.x[1]))
        s = np.linspace(s_hi / 64.0, s_hi, 64)
        kernel = Heat(asy.t_threshold)
        eps = _large_time_eps(principal_eigenvalue(surface).eigenvalue, asy.t_threshold)
        vals, dp, _ = _profile(surface, kernel, x, u, s, eps)
        witness = _witness(surface, kernel, x, u, s[int(np.argmax(dp))], eps,
                           "largest radial derivative on the segment")
        return CounterexampleRecord(
            kind="klein-asymptotic", surface=surface, s_star=None,
            s_values=tuple(s), p_values=tuple(vals), dp_values=tuple(dp),
            formula_deviation=0.0, increase=float(asy.difference), witness=witness,
            extras={"x": asy.x, "y": asy.y, "t_threshold": asy.t_threshold,
                    "phi_x": asy.phi_x, "phi_y": asy.phi_y})
    base = (xi, 0.0)
    gap = min(2.0 * xi, 1.0 - 2.0 * xi)
    s_cut = (gap ** 2 + b ** 2) / (2.0 * b)
    geo = minimal_geodesic(surface, base, (0.0, 1.0))
    _certify(abs(geo.s_max - s_cut) <= 1e-9,
             f"cut distance {geo.s_max!r} differs from the closed form {s_cut!r}")
    if b > 1.0:
        formula = lambda s: (2.0 / b) * np.cos(2.0 * math.pi * s / b)
    else:
        formula = lambda s: 2.0 * math.cos(2.0 * math.pi * xi) ** 2 + 2.0 * np.cos(2.0 * math.pi * s)
    return _projection_record("klein-projection", surface, base, b, s_cut, formula,
                              {"xi": xi, "cut_arc_length": float(s_cut)})


@dataclass(frozen=True)
class AsymptoticViolation:
    x: tuple[float, float]
    y: tuple[float, float]
    t_threshold: float
    difference: float
    error_sum: float
    phi_x: float
    phi_y: float


def _large_time_eps(lam: float, t: float) -> float:
    """The heat kernel's tolerance at a large time t: 1e-8 of e^{-lam t}, the
    size of the term of the principal eigenvalue lam, and at least 1e-280."""
    return max(math.exp(-lam * t) * 1e-8, 1e-280)


def asymptotic_violation(surface: FlatSurface) -> AsymptoticViolation:
    """Large-time violation K_t(x,y) > K_t(x,x) when phi_1 orders the points.

    Needs a simple principal eigenvalue; picks x, y with 0 < phi_1(x) < phi_1(y)
    and returns the smallest grid time with a certified positive difference.
    The grid is walked in order on one reduction of the two pairs, each time
    with its own tolerance (``_large_time_eps``), and no further than that time.
    """
    mode = principal_eigenvalue(surface)
    if mode.multiplicity != 1:
        raise NotSimple(
            f"principal eigenvalue has multiplicity {mode.multiplicity}; "
            "the asymptotic argument needs a simple eigenvalue")
    x = np.array([0.2, 0.0])
    y = np.array([0.05, 0.0])
    phi = eigenbasis_values(surface, mode, np.stack([x, y]))[0]
    _certify(0.0 < phi[0] < phi[1], "phi_1 does not order the sample points")
    lam = mode.eigenvalue
    # K_t(x, y) and K_t(x, x) at each time; err bounds each of them
    pairs = np.stack([x, x]), np.stack([y, x])
    sums = (_kernel_sum(surface, Heat(t), _large_time_eps(lam, t), False)
            for t in _DEFAULT_T_GRID)
    for t, ((vxy, vxx), err, _) in zip(_DEFAULT_T_GRID, _deck_sum(surface, *pairs, sums)):
        diff = float(vxy - vxx)
        if diff > err + err:
            return AsymptoticViolation(
                x=(float(x[0]), float(x[1])), y=(float(y[0]), float(y[1])),
                t_threshold=t, difference=diff, error_sum=float(err + err),
                phi_x=float(phi[0]), phi_y=float(phi[1]))
    raise ToleranceUnreachable("no sampled time certifies K_t(x,y) > K_t(x,x)")


# ---------------------------------------------------------------------------
# critical-point census


@dataclass(frozen=True)
class CensusResult:
    maxima: tuple
    minima: tuple
    saddles: tuple
    index_sum: int

    @property
    def counts(self) -> tuple[int, int, int]:
        return len(self.maxima), len(self.minima), len(self.saddles)


def _census_gradient(surface, t, pts, eps):
    g, err, _, _ = heat_gradient_values(surface, t, np.zeros(2), pts, eps=eps)
    return np.asarray(g), err


def _newton_steps(H: np.ndarray, g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Newton steps H^-1 g for a stack of 2x2 systems, and which were solvable.

    A stacked solve raises for the whole stack when one matrix is singular;
    then each cell is solved alone, and a singular one gets a zero step and
    False.
    """
    try:
        return np.linalg.solve(H, g[:, :, None])[:, :, 0], np.ones(len(g), dtype=bool)
    except np.linalg.LinAlgError:
        steps = np.zeros_like(g)
        ok = np.ones(len(g), dtype=bool)
        for k in range(len(g)):
            try:
                steps[k] = np.linalg.solve(H[k], g[k])
            except np.linalg.LinAlgError:
                ok[k] = False
        return steps, ok


def critical_point_census(surface: Torus, t: float, grid: int = 256) -> CensusResult:
    """Locate and classify the critical points of y -> K_t(0, y) on a torus.

    Sign-change cells of the gradient on a lattice-coordinate grid seed Newton
    refinement; the Hessian (finite differences of the analytic gradient)
    classifies each zero.  All seed cells step together: one gradient call per
    Newton step evaluates every active cell at its 5 stencil points.  A cell
    converges when its step falls below 1e-12; it is dropped when its Hessian
    is singular, when it has not converged after _NEWTON_STEPS steps, or when
    its last gradient exceeds 1e-5 of the largest on the grid.  Converged
    cells are deduplicated in seed-cell order, so the first seed to reach a
    critical point represents it.  Each Hessian is scaled exactly by a
    power of two before it is classified, so its determinant does not
    underflow at large t.  Raises DegenerateCritical when |det H| falls
    below 1e-10 relative to |H|_F^2, and ToleranceUnreachable when no
    maximum or no minimum is found, as once the gradient underflows.
    """
    if not isinstance(surface, Torus):
        raise InvalidParameter("census requires a torus")
    t = _validate_time_eps(t, 1.0)[0]  # before e^{-lambda_1 t}, which overflows for t << 0
    grid = _check_size(grid, 64, "grid")
    lat = surface.lattice
    B = lat.basis
    Binv = np.linalg.inv(B)
    lam1 = principal_eigenvalue(surface).eigenvalue
    eps = max(math.exp(-lam1 * t) * math.sqrt(lam1) / surface.area * 1e-9, 1e-280)
    G, _ = _census_gradient(surface, t, fundamental_domain_grid(surface, grid)[0], eps)
    cells = np.ones((grid, grid), dtype=bool)
    for k in range(2):
        gk = G[..., k]
        corners = np.stack([gk, np.roll(gk, -1, 0), np.roll(gk, -1, 1),
                            np.roll(np.roll(gk, -1, 0), -1, 1)])
        tau = 1e-3 * float(np.max(np.abs(gk)))
        cells &= (corners.min(axis=0) <= tau) & (corners.max(axis=0) >= -tau)
    gscale = float(np.max(np.hypot(G[..., 0], G[..., 1])))
    h = 1e-6
    offsets = np.array([[0.0, 0.0], [h, 0.0], [-h, 0.0], [0.0, h], [0.0, -h]])
    y = ((np.argwhere(cells) + 0.5) / grid) @ B
    n = len(y)
    g0 = np.zeros((n, 2))
    hess = np.zeros((n, 2, 2))
    converged = np.zeros(n, dtype=bool)
    active = np.arange(n)
    for _ in range(_NEWTON_STEPS):
        if not len(active):
            break
        g5, _ = _census_gradient(surface, t, (y[active, None, :] + offsets).reshape(-1, 2), eps)
        g5 = g5.reshape(-1, 5, 2)
        ha = np.stack([(g5[:, 1] - g5[:, 2]) / (2 * h), (g5[:, 3] - g5[:, 4]) / (2 * h)], axis=2)
        ha = 0.5 * (ha + ha.transpose(0, 2, 1))
        g0[active], hess[active] = g5[:, 0], ha
        step, solvable = _newton_steps(ha, g5[:, 0])
        y[active] -= step
        done = solvable & (np.hypot(step[:, 0], step[:, 1]) < 1e-12)
        converged[active[done]] = True
        active = active[solvable & ~done]
    found = []   # (lattice coords in [0,1)^2, hessian), in seed-cell order
    coords = np.empty((0, 2))  # those of found, as rows
    for k in np.flatnonzero(converged & (np.hypot(g0[:, 0], g0[:, 1]) <= 1e-5 * gscale)):
        c = (y[k] @ Binv) % 1.0
        c[c > 1.0 - 1e-9] = 0.0
        if (_torus_coord_gap(c, coords) < 1e-6).any():
            continue
        found.append((c, hess[k]))
        coords = np.vstack([coords, c])
    maxima, minima, saddles = [], [], []
    for c, H in found:
        H = np.ldexp(H, -np.frexp(np.abs(H).max())[1])
        det = float(np.linalg.det(H))
        if abs(det) < 1e-10 * float((H * H).sum()):
            raise DegenerateCritical(f"degenerate Hessian at lattice coords {tuple(c)}")
        if det < 0:
            saddles.append((float(c[0]), float(c[1])))
        elif float(np.trace(H)) < 0:
            maxima.append((float(c[0]), float(c[1])))
        else:
            minima.append((float(c[0]), float(c[1])))
    if not (maxima and minima):  # K_t(0, .) has both on a compact surface
        raise ToleranceUnreachable(
            f"census at t={t} found no {'maximum' if not maxima else 'minimum'}, which "
            "K_t(0, .) always has: its gradient underflows on the grid at large t")
    maxima.sort()
    minima.sort()
    saddles.sort()
    return CensusResult(
        maxima=tuple(maxima), minima=tuple(minima), saddles=tuple(saddles),
        index_sum=len(maxima) + len(minima) - len(saddles))


def _torus_coord_gap(c1: np.ndarray, c2):
    """Distances in lattice coordinates modulo 1 from c1 to c2, a point or
    rows of points, one elementwise call for all rows."""
    d = np.asarray(c1) - np.asarray(c2)
    d -= np.round(d)
    return np.hypot(d[..., 0], d[..., 1])
