#!/usr/bin/env python3
"""Print a SHA-256 of the bits of each kernel evaluation in a fixed grid.

Every case runs in this process through the flatheat that Python imports, so
PYTHONPATH chooses the checkout.  A case is one surface, representation
(image, spectral or auto), time, tolerance and quantity (value or gradient)
at one batch size (1, 2, 7 or 300 points, the first rows of one seeded set)
or as a single query (``KernelQuery``); or one projection mode, value or
gradient, at one size.  Its line gives the digest of the returned array's
bytes with the error bound, terms used and representation used, or of the
name of the error it raises.  Then come a few small scans (``SCANS``), each
the digest of the reprs of its witnesses, inconclusive count, points
checked and verdict, and last the records and curves of ``RECORDS``, each
the digest of the record's repr or of the curve's arrays.  Two checkouts
give bitwise the same kernels, scan witnesses and records exactly when
their printouts are the same:

    diff <(PYTHONPATH=/path/to/other/src python3 scripts/kernel_digests.py) \\
         <(PYTHONPATH=src python3 scripts/kernel_digests.py)

The surfaces are the five lattice classes (square, rectangular, isosceles,
honeycomb, generic), the thin torus(0, 7) and the Klein bottles of heights
0.05, 0.73 and 1.4.  The script only prints; it exits 0.
"""
import hashlib
import math

import numpy as np

from flatheat import (FlatHeatError, Heat, KernelQuery, Projection, ScanConfig,
                      asymptotic_violation, counterexample_generic, counterexample_isosceles,
                      counterexample_klein, enumerate_modes, heat_kernel, heat_kernel_gradient,
                      klein_bottle, principal_eigenvalue, projection_gradient,
                      projection_kernel, radial_curve, scan, torus)
from flatheat.kernels import heat_gradient_values, heat_values

SURFACES = [("torus", a, b) for a, b in ((0.0, 1.0), (0.0, 1.5), (0.3, math.sqrt(1 - 0.3 ** 2)),
                                         (0.5, math.sqrt(3.0) / 2.0), (0.3, 1.2), (0.0, 7.0))]
SURFACES += [("klein", None, b) for b in (0.05, 0.73, 1.4)]
REPS = ("image", "spectral", "auto")
TIMES = (0.003, 0.02, 0.3, 2.0, 10.0)
EPSILONS = (1e-6, 1e-13)
SIZES = (1, 2, 7, 300)
# (name, surface, kernel or None for the heat kernel at the times, config):
# the generic torus from the origin with an even (mirrored) and an odd ring,
# a Klein bottle from three bases at an image time and two spectral ones,
# and a projection scan
_SMALL = dict(n_directions=24, n_arc_samples=16)
SCANS = [
    ("torus(0.3, 1.2) even ring", torus(0.3, 1.2), None,
     ScanConfig(t_values=(0.02, 0.3, 1.0), **_SMALL)),
    ("torus(0.3, 1.2) odd ring", torus(0.3, 1.2), None,
     ScanConfig(t_values=(0.02, 0.3, 1.0), n_directions=25, n_arc_samples=16)),
    ("klein(0.73) 3 bases", klein_bottle(0.73), None,
     ScanConfig(t_values=(0.02, 0.3, 2.0), base_points=((0.1, 0.2), (0.3, 0.55), (0.45, 0.9)),
                **_SMALL)),
    ("torus(0.3, 1.2) projection", torus(0.3, 1.2), "projection", ScanConfig(**_SMALL)),
]
# (name, call): the counterexample records that CI certifies (the CLI's
# defaults, and Klein bottles above and below b = 1), a large-time violation,
# and radial curves of the heat kernel at an image time on a torus and a
# spectral time on a Klein bottle, and of a projection
_GENERIC = torus(0.3, 1.2)
RECORDS = [
    ("counterexample generic 0.3 1.2", lambda: (counterexample_generic(0.3, 1.2),)),
    ("counterexample isosceles 0.3", lambda: (counterexample_isosceles(0.3),)),
    ("counterexample klein 1.5", lambda: (counterexample_klein(1.5),)),
    ("counterexample klein 0.8", lambda: (counterexample_klein(0.8),)),
    ("asymptotic_violation klein(0.6)", lambda: (asymptotic_violation(klein_bottle(0.6)),)),
    ("radial_curve torus(0.3, 1.2) heat t=0.05",
     lambda: radial_curve(_GENERIC, Heat(0.05), (0.1, 0.2), (1.0, 2.0))),
    ("radial_curve klein(0.73) heat t=0.5",
     lambda: radial_curve(klein_bottle(0.73), Heat(0.5), (0.1, 0.2), (1.0, 2.0))),
    ("radial_curve torus(0.3, 1.2) projection",
     lambda: radial_curve(_GENERIC, Projection(principal_eigenvalue(_GENERIC)), (0.0, 0.0),
                          (0.0, 1.0))),
]


def _digest(call) -> str:
    """SHA-256 of what call() returns, as bytes and reprs, or of its error's name."""
    try:
        out = call()
    except FlatHeatError as exc:
        data = type(exc).__name__.encode()
    else:
        data = b"".join(np.asarray(v).tobytes() if isinstance(v, (np.ndarray, np.generic))
                        else repr(v).encode() + b"|" for v in out)
    return hashlib.sha256(data).hexdigest()


def _query(surface, t, x, y, eps, rep, grad):
    q = KernelQuery(surface=surface, x=tuple(x), y=tuple(y), t=t, epsilon=eps,
                    representation=rep)
    out = heat_kernel_gradient(q) if grad else heat_kernel(q)
    value = out.gradient if grad else out.value
    return value, out.error_bound, out.terms_used, out.representation_used


def _projection(fn, surface, mode, x, y, grad):
    out = fn(surface, mode, x, y)
    return out if grad else (out,)  # a gradient comes with its bound


def _scan(surface, kernel, cfg):
    if kernel == "projection":
        kernel = Projection(principal_eigenvalue(surface))
    report = scan(surface, kernel or Heat(), cfg)
    return report.witnesses, report.inconclusive_count, report.points_checked, report.verdict


def main() -> int:
    rng = np.random.default_rng(2027)
    X = rng.uniform(-1.0, 2.0, (max(SIZES), 2))
    Y = rng.uniform(-1.0, 2.0, (max(SIZES), 2))
    for kind, a, b in SURFACES:
        surface = torus(a, b) if kind == "torus" else klein_bottle(b)
        name = f"torus({a}, {b})" if kind == "torus" else f"klein({b})"
        for rep in REPS:
            for t in TIMES:
                for eps in EPSILONS:
                    for grad in (False, True):
                        case = f"{name} {rep} t={t} eps={eps} {'gradient' if grad else 'value'}"
                        fn = heat_gradient_values if grad else heat_values
                        for n in SIZES:
                            h = _digest(lambda n=n: fn(surface, t, X[:n], Y[:n], eps=eps,
                                                       representation=rep))
                            print(f"{h}  {case} n={n}")
                        h = _digest(lambda: _query(surface, t, X[0], Y[0], eps, rep, grad))
                        print(f"{h}  {case} query")
        for i, mode in enumerate(enumerate_modes(surface, 200.0)[1:4:2]):
            for grad in (False, True):
                fn = projection_gradient if grad else projection_kernel
                case = f"{name} projection {i} {'gradient' if grad else 'value'}"
                for n, x, y in [(n, X[:n], Y[:n]) for n in SIZES] + [("query", X[0], Y[0])]:
                    h = _digest(lambda x=x, y=y: _projection(fn, surface, mode, x, y, grad))
                    print(f"{h}  {case} {n if n == 'query' else f'n={n}'}")
    for name, surface, kernel, cfg in SCANS:
        print(f"{_digest(lambda: _scan(surface, kernel, cfg))}  scan {name}")
    for name, call in RECORDS:
        print(f"{_digest(call)}  {name}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
