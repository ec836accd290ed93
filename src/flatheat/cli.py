"""Command-line interface: every evaluator behind one binary, reports on stdout.

Reports are a deterministic YAML-compatible key-value tree versioned as
``flatheat-report/1``; the JSON Schema ships with the package
(``report_schema.json``).  ``--csv PATH`` additionally writes a sampled curve
(columns ``s, value, derivative, error_bound``); only ``kernel``, ``scan`` and
``counterexample``, the commands with a natural one-dimensional slice, accept
it.  Exit codes: 0 success, 1 usage error, 2 evaluator error, 3 scan verdict
Violated under ``--expect monotone``.

Command contract: a ``_cmd_*`` function returns its report blocks (surface
descriptor, parameters, results), followed by an exit code for ``scan`` and
``selftest``; it prints nothing.  ``main`` alone owns the envelope (schema,
command, version, the three blocks, then ``wall_time_seconds`` under
``--timing``), the timing, the rendering and the exit code, so a field that
every report carries is added there once.

The parser is built once per process (``build_parser`` is cached) and holds
no handler; ``main`` looks up ``_cmd_<command>`` by name on every call
(``pde-check`` -> ``_cmd_pde_check``).
"""
from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import json
import math
import re
import sys
import time

import numpy as np

from . import __version__
from .errors import FlatHeatError, InvalidParameter
from .lattice import ReducedLattice, classify, reduce
from .surfaces import Torus, klein_bottle, surface_descriptor, torus
from .kernels import (KernelQuery, _mode_at, eigenbasis_values, enumerate_modes,
                      fundamental_domain_grid, gradient_sum_check, heat_kernel,
                      heat_values, heat_gradient_values, projection_diagonal_scan)
from .monotonicity import (Heat, ScanConfig, Verdict, counterexample_generic,
                           counterexample_isosceles, counterexample_klein,
                           critical_point_census, radial_curve, scan)
from . import pde as pde_mod

_WITNESS_CAP = 200


# ---------------------------------------------------------------------------
# deterministic report rendering (YAML subset)

_BARE_STRING = re.compile(r"^[A-Za-z0-9_][A-Za-z0-9_.,;/+()^|=' -]*$")
_LOOKS_TYPED = re.compile(r"^(true|false|null|[-+.\d].*)$", re.IGNORECASE)


def _fmt_float(x: float) -> str:
    if math.isnan(x):
        return ".nan"
    if math.isinf(x):
        return ".inf" if x > 0 else "-.inf"
    r = repr(float(x))
    if "e" in r:
        mant, exp = r.split("e")
        if "." not in mant:
            mant += ".0"
        if exp[0] not in "+-":
            exp = "+" + exp
        return mant + "e" + exp
    if "." not in r:
        r += ".0"
    return r


def _fmt_scalar(x):
    """Rendered scalar, or None when x is a composite value."""
    if isinstance(x, bool):
        return "true" if x else "false"
    if x is None:
        return "null"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, (float, np.floating)):
        return _fmt_float(float(x))
    if isinstance(x, str):
        if (_BARE_STRING.match(x) and not _LOOKS_TYPED.match(x)
                and ": " not in x and " #" not in x and not x.endswith(" ")):
            return x
        return json.dumps(x)
    return None


def _is_number(x) -> bool:
    return isinstance(x, (int, float, np.integer, np.floating)) and not isinstance(x, bool)


def _emit(head: str, value, indent: int, out: list):
    """Append the lines of one entry; head is "key:" or "-" for a list item."""
    pad = " " * indent
    scalar = _fmt_scalar(value)
    if scalar is not None:
        out.append(f"{pad}{head} {scalar}")
    elif isinstance(value, (list, tuple, np.ndarray)):
        items = list(value)
        if all(_is_number(v) for v in items):
            out.append(f"{pad}{head} [" + ", ".join(_fmt_scalar(v) for v in items) + "]")
            return
        if head == "-":
            raise InvalidParameter("nested non-numeric lists are not supported in reports")
        out.append(f"{pad}{head}")
        for item in items:
            _emit("-", item, indent + 2, out)
    elif isinstance(value, dict):
        if not value:
            out.append(f"{pad}{head} {{}}")
            return
        first = len(out)
        if head != "-":
            out.append(f"{pad}{head}")
        for k, v in value.items():
            _emit(f"{k}:", v, indent + 2, out)
        if head == "-":  # a dict item starts on the dash line
            out[first] = f"{pad}- " + out[first][indent + 2:]
    else:
        raise InvalidParameter(f"cannot serialize value of type {type(value).__name__}")


def render_report(envelope: dict) -> str:
    out: list = []
    for key, value in envelope.items():
        _emit(f"{key}:", value, 0, out)
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# shared argument plumbing


def _parse_pair(text: str) -> tuple[float, float]:
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(f"expected 'x,y', got {text!r}")
    try:
        return float(parts[0]), float(parts[1])
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


# argparse reads a separate value such as "-0.3,0.2" as an option; these
# options get it attached as "--x=-0.3,0.2" before parsing
_NUMBER_LIST_OPTIONS = frozenset({"--x", "--y", "--u", "--v", "--t-list"})
_NEGATIVE_NUMBER = re.compile(r"^-[\d.]")


def _attach_negative_values(argv: list[str]) -> list[str]:
    out: list[str] = []
    for tok in argv:
        if out and out[-1] in _NUMBER_LIST_OPTIONS and _NEGATIVE_NUMBER.match(tok):
            out[-1] = f"{out[-1]}={tok}"
        else:
            out.append(tok)
    return out


def _parse_floats(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(p) for p in text.split(",") if p != "")
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _surface_from(args):
    if getattr(args, "klein", False):
        return klein_bottle(args.b)
    return torus(args.a, args.b)


def _add_surface_flags(p: argparse.ArgumentParser):
    p.add_argument("--a", type=float, default=0.0,
                   help="first lattice parameter (ignored with --klein)")
    p.add_argument("--b", type=float, required=True,
                   help="second lattice parameter / Klein width")
    p.add_argument("--klein", action="store_true",
                   help="use the Klein bottle of width b instead of a torus")


def _add_common_flags(p: argparse.ArgumentParser, curve: bool = False):
    if curve:
        p.add_argument("--csv", metavar="PATH",
                       help="write a sampled curve (s, value, derivative, error_bound)")
    p.add_argument("--timing", action="store_true",
                   help="include wall_time_seconds in the report")


def _write_csv(path: str, s, values, derivs, errs):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["s", "value", "derivative", "error_bound"])
        for row in zip(s, values, derivs, errs):
            writer.writerow([_fmt_float(float(v)) for v in row])


# ---------------------------------------------------------------------------
# subcommand implementations


def _cmd_reduce(args) -> tuple[dict, dict, dict]:
    rows = np.array([args.u, args.v], dtype=float)
    red = reduce(args.u, args.v)
    tag = classify(red).tag.value
    rec_err = float(np.abs(red.reconstruct_basis() - rows).max())
    results = {
        "a": red.a, "b": red.b, "scale": red.scale, "rotation": red.rotation,
        "reflect": red.reflect,
        "basis_change": [list(map(int, r)) for r in red.basis_change],
        "lattice_class": tag,
        "reconstruction_error": rec_err,
    }
    return ({"kind": "torus", "a": red.a, "b": red.b},
            {"u": list(args.u), "v": list(args.v)}, results)


def _cmd_classify(args) -> tuple[dict, dict, dict]:
    red = ReducedLattice.from_parameters(args.a, args.b)
    tag = classify(red, tol=args.tol).tag.value
    return ({"kind": "torus", "a": red.a, "b": red.b},
            {"a": args.a, "b": args.b, "tol": args.tol},
            {"lattice_class": tag, "tol": args.tol})


def _cmd_kernel(args) -> tuple[dict, dict, dict]:
    surface = _surface_from(args)
    query = KernelQuery(surface=surface, x=args.x, y=args.y, t=args.t,
                        epsilon=args.eps, representation=args.rep)
    out = heat_kernel(query)
    if args.csv:
        direction = np.array(args.y) - np.array(args.x)
        if np.hypot(*direction) < 1e-12:
            direction = np.array([1.0, 0.0])
        s, vals, derivs, errs = radial_curve(surface, Heat(args.t), args.x,
                                             direction, eps=args.eps)
        _write_csv(args.csv, s, vals, derivs, errs)
    results = {
        "value": out.value,
        "error_bound": out.error_bound,
        "terms_used": out.terms_used,
        "representation_used": out.representation_used,
    }
    params = {"x": list(args.x), "y": list(args.y), "t": args.t,
              "eps": args.eps, "rep": args.rep}
    return surface_descriptor(surface), params, results


def _fields(record) -> dict:
    """A dataclass record's fields by name: ``dataclasses.asdict`` without
    its deep copy, which the JSON report does not need."""
    return {f.name: getattr(record, f.name) for f in dataclasses.fields(record)}


def _cmd_scan(args) -> tuple[dict, dict, dict, int]:
    surface = _surface_from(args)
    cfg = ScanConfig(n_directions=args.dirs, n_arc_samples=args.samples,
                     t_values=args.t_list, derivative_tolerance=args.tol,
                     kernel_epsilon=args.tol / 10.0)
    report = scan(surface, Heat(), cfg)
    witnesses = [_fields(w) for w in report.witnesses[:_WITNESS_CAP]]
    results = {
        "verdict": report.verdict.value,
        "points_checked": report.points_checked,
        "inconclusive_count": report.inconclusive_count,
        "witness_count": len(report.witnesses),
        "witnesses": witnesses,
        "witnesses_truncated": len(report.witnesses) > _WITNESS_CAP,
        "notes": list(report.notes),
    }
    if args.csv:
        if report.witnesses:
            w = report.witnesses[0]
            base, direction, t = w.base, w.direction, w.t
        else:
            base, direction, t = (0.0, 0.0), (0.0, 1.0), args.t_list[0]
        s, vals, derivs, errs = radial_curve(surface, Heat(t), base, direction,
                                             eps=cfg.kernel_epsilon)
        _write_csv(args.csv, s, vals, derivs, errs)
    params = {"t_list": list(args.t_list), "dirs": args.dirs,
              "samples": args.samples, "tol": args.tol}
    if args.expect:
        params["expect"] = args.expect
    violated = args.expect == "monotone" and report.verdict is Verdict.VIOLATED
    return surface_descriptor(surface), params, results, 3 if violated else 0


def _cmd_counterexample(args) -> tuple[dict, dict, dict]:
    if args.kind == "generic":
        record = counterexample_generic(args.a, args.b)
    elif args.kind == "isosceles":
        record = counterexample_isosceles(args.a)
    else:
        record = counterexample_klein(args.b, xi=args.xi)
    results = {
        "kind": record.kind,
        "s_star": record.s_star,
        "formula_deviation": record.formula_deviation,
        "increase": record.increase,
        "sample_count": len(record.s_values),
        "witness": _fields(record.witness),
        "extras": dict(sorted(record.extras.items())),
    }
    if args.csv:
        errs = np.full(len(record.s_values), record.witness.error_bound)
        _write_csv(args.csv, record.s_values, record.p_values,
                   record.dp_values, errs)
    params = {"kind": args.kind, "a": args.a, "b": args.b, "xi": args.xi}
    return surface_descriptor(record.surface), params, results


def _cmd_projection_diag(args) -> tuple[dict, dict, dict]:
    surface = _surface_from(args)
    if args.lambda_index < 0:
        raise InvalidParameter("--lambda-index must be non-negative")
    mode = _mode_at(surface, index=args.lambda_index)
    diag = projection_diagonal_scan(surface, mode, args.grid)
    results = {
        "eigenvalue": mode.eigenvalue,
        "multiplicity": mode.multiplicity,
        "grid": args.grid,
        "minimum": diag.minimum,
        "maximum": diag.maximum,
        "spread": diag.maximum - diag.minimum,
        "expected": diag.expected,
    }
    params = {"lambda_index": args.lambda_index, "grid": args.grid}
    return surface_descriptor(surface), params, results


def _cmd_census(args) -> tuple[dict, dict, dict]:
    surface = torus(args.a, args.b)
    census = critical_point_census(surface, args.t, grid=args.grid)
    nmax, nmin, nsad = census.counts
    results = {
        "t": args.t,
        "grid": args.grid,
        "counts": {"maxima": nmax, "minima": nmin, "saddles": nsad},
        "maxima": [list(p) for p in census.maxima],
        "minima": [list(p) for p in census.minima],
        "saddles": [list(p) for p in census.saddles],
        "index_sum": census.index_sum,
    }
    params = {"t": args.t, "grid": args.grid}
    return surface_descriptor(surface), params, results


def _cmd_pde_check(args) -> tuple[dict, dict, dict]:
    red = ReducedLattice.from_parameters(args.a, args.b)
    state = pde_mod.gaussian_state(red, args.n)
    sigma = 4.0 / args.n
    evolved = pde_mod.evolve(state, args.t)
    surface = Torus(lattice=red)
    t_ref = args.t + 0.5 * sigma * sigma
    ref, _, _, _ = heat_values(surface, t_ref, np.zeros(2),
                               evolved.nodes_plane, eps=1e-14)
    rel = float(np.abs(evolved.field - ref).max() / np.abs(ref).max())
    results = {
        "n": args.n,
        "dt": state.dt,
        "time": evolved.time,
        "sigma": sigma,
        "mass_initial": state.mass,
        "mass_final": evolved.mass,
        "mass_drift": evolved.mass - state.mass,
        "reference_time": t_ref,
        "rel_linf_error": rel,
    }
    params = {"t": args.t, "n": args.n}
    return surface_descriptor(surface), params, results


# ---------------------------------------------------------------------------
# selftest: quick end-to-end sweep of the module invariants


def _selftest_checks():
    rng = np.random.default_rng(20240817)
    sq = torus(0.0, 1.0)
    hx = torus(0.5, math.sqrt(3.0) / 2.0)
    kb = klein_bottle(1.3)

    def poisson():
        worst = 0.0
        for surface in (sq, hx, kb):
            for _ in range(25):
                x = rng.uniform(0, 1, 2)
                y = rng.uniform(0, 1, 2)
                t = float(rng.uniform(0.02, 5.0))
                vs, es, _, _ = heat_values(surface, t, x, y, eps=1e-13,
                                           representation="spectral")
                vi, ei, _, _ = heat_values(surface, t, x, y, eps=1e-13,
                                           representation="image")
                worst = max(worst, abs(float(vs - vi)) - float(es + ei))
        return worst, worst <= 0.0

    def mass():
        worst = 0.0
        for surface in (sq, hx, kb):
            pts, w = fundamental_domain_grid(surface, 128, midpoint=True)
            vals, _, _, _ = heat_values(surface, 0.05, np.array([0.2, 0.1]), pts,
                                        eps=1e-12)
            worst = max(worst, abs(float(vals.sum()) * w - 1.0))
        return worst, worst <= 1e-6

    def symmetry():
        worst = 0.0
        for surface in (sq, hx, kb):
            X = rng.uniform(0, 1, (20, 2))
            Y = rng.uniform(0, 1, (20, 2))
            f, _, _, _ = heat_values(surface, 0.3, X, Y, eps=1e-13)
            g, _, _, _ = heat_values(surface, 0.3, Y, X, eps=1e-13)
            worst = max(worst, float(np.abs(f - g).max()))
        return worst, worst <= 1e-13

    def semigroup():
        worst = 0.0
        for surface in (sq, kb):
            pts, w = fundamental_domain_grid(surface, 128, midpoint=True)
            x = np.array([0.15, 0.35])
            y = np.array([0.6, 0.1])
            f, _, _, _ = heat_values(surface, 0.4, x, pts, eps=1e-12)
            g, _, _, _ = heat_values(surface, 0.35, pts, y, eps=1e-12)
            direct, _, _, _ = heat_values(surface, 0.75, x, y, eps=1e-12)
            worst = max(worst, abs(float((f * g).sum()) * w - float(direct)))
        return worst, worst <= 1e-5

    def positivity():
        low = math.inf
        for surface in (sq, hx, kb):
            X = rng.uniform(0, 1, (50, 2))
            Y = rng.uniform(0, 1, (50, 2))
            vals, _, _, _ = heat_values(surface, 0.8, X, Y, eps=1e-12)
            low = min(low, float(vals.min()))
        return low, low > 0.0

    def gradient_fd():
        worst = 0.0
        h = 1e-7
        for surface in (hx, kb):
            for _ in range(5):
                x = rng.uniform(0, 1, 2)
                y = rng.uniform(0, 1, 2) + 0.05
                t = float(rng.uniform(0.05, 1.0))
                g, _, _, _ = heat_gradient_values(surface, t, x, y, eps=1e-13)
                for k in range(2):
                    e = np.zeros(2)
                    e[k] = h
                    fp, _, _, _ = heat_values(surface, t, x, y + e, eps=1e-13)
                    fm, _, _, _ = heat_values(surface, t, x, y - e, eps=1e-13)
                    worst = max(worst, abs((float(fp - fm)) / (2 * h) - float(g[k])))
        return worst, worst <= 1e-5

    def diag_constancy():
        mode = enumerate_modes(sq, 50.0)[1]
        diag = projection_diagonal_scan(sq, mode, 64)
        spread = diag.maximum - diag.minimum
        return spread, spread <= 1e-11

    def gradient_sum():
        worst = 0.0
        for mode in enumerate_modes(hx, 200.0)[1:]:
            diag = gradient_sum_check(hx, mode, grid=32)
            worst = max(worst, abs(diag.maximum - diag.expected),
                        abs(diag.minimum - diag.expected))
        return worst, worst <= 1e-9

    def census_square():
        res = critical_point_census(sq, 0.5, grid=64)
        ok = res.counts == (1, 1, 2) and res.index_sum == 0
        return float(res.index_sum), ok

    def honeycomb_scan():
        cfg = ScanConfig(n_directions=36, n_arc_samples=16, t_values=(0.1, 1.0))
        rep = scan(hx, Heat(), cfg)
        return float(len(rep.witnesses)), rep.verdict is Verdict.MONOTONE

    def klein_cover():
        # against the cover torus, and against the explicit Klein eigenbasis,
        # which shares no code with the deck sum (tail below exp(-40))
        t = 0.35
        cover = torus(0.0, 2 * 1.3)
        X = rng.uniform(0, 1, (30, 2))
        Y = rng.uniform(0, 1, (30, 2))
        vk, _, _, _ = heat_values(kb, t, X, Y, eps=1e-13)
        va, _, _, _ = heat_values(cover, t, X, Y, eps=1e-13)
        glided = np.stack([1.0 - Y[:, 0], Y[:, 1] + kb.b], axis=-1)
        vb, _, _, _ = heat_values(cover, t, X, glided, eps=1e-13)
        eigen = sum(math.exp(-m.eigenvalue * t)
                    * (eigenbasis_values(kb, m, X) * eigenbasis_values(kb, m, Y)).sum(axis=0)
                    for m in enumerate_modes(kb, 40.0 / t))
        worst = max(float(np.abs(vk - (va + vb)).max()), float(np.abs(vk - eigen).max()))
        return worst, worst <= 1e-11

    def pde_mass():
        red = ReducedLattice.from_parameters(0.5, math.sqrt(3.0) / 2.0)
        state = pde_mod.gaussian_state(red, 64)
        evolved = pde_mod.evolve(state, 200 * state.dt)
        drift = abs(evolved.mass - state.mass)
        return drift, drift <= 1e-10

    return [
        ("poisson-agreement", poisson),
        ("mass-quadrature", mass),
        ("kernel-symmetry", symmetry),
        ("semigroup", semigroup),
        ("positivity", positivity),
        ("gradient-fd", gradient_fd),
        ("diagonal-constancy", diag_constancy),
        ("gradient-sum", gradient_sum),
        ("census-square", census_square),
        ("honeycomb-scan", honeycomb_scan),
        ("klein-double-cover", klein_cover),
        ("pde-mass", pde_mass),
    ]


def _cmd_selftest(args) -> tuple[dict, dict, dict, int]:
    checks = []
    failed = 0
    for name, fn in _selftest_checks():
        detail, ok = fn()
        checks.append({"name": name, "status": "ok" if ok else "fail",
                       "detail": float(detail)})
        failed += 0 if ok else 1
    results = {"checks": checks, "passed": len(checks) - failed, "failed": failed}
    return {"kind": "none"}, {}, results, 2 if failed else 0


# ---------------------------------------------------------------------------
# parser assembly


@functools.lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    """The flatheat argument parser, built once per process and shared by
    every call (parsing leaves it unchanged); it binds no handler."""
    parser = argparse.ArgumentParser(
        prog="flatheat",
        description="Heat kernels on flat tori and Klein bottles: certified "
                    "evaluation, geodesic monotonicity scans, counterexamples.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("reduce", help="reduce a lattice basis to canonical form")
    p.add_argument("--u", type=_parse_pair, required=True, metavar="X,Y")
    p.add_argument("--v", type=_parse_pair, required=True, metavar="X,Y")
    _add_common_flags(p)

    p = sub.add_parser("classify", help="classify a reduced lattice")
    p.add_argument("--a", type=float, required=True)
    p.add_argument("--b", type=float, required=True)
    p.add_argument("--tol", type=float, default=1e-9)
    _add_common_flags(p)

    p = sub.add_parser("kernel", help="evaluate the heat kernel at one query")
    _add_surface_flags(p)
    p.add_argument("--x", type=_parse_pair, required=True, metavar="X,Y")
    p.add_argument("--y", type=_parse_pair, required=True, metavar="X,Y")
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--eps", type=float, default=1e-10)
    p.add_argument("--rep", choices=("spectral", "image", "auto"), default="auto")
    _add_common_flags(p, curve=True)

    p = sub.add_parser("scan", help="scan radial derivatives along minimal geodesics")
    _add_surface_flags(p)
    p.add_argument("--t-list", type=_parse_floats, required=True, metavar="T1,T2,...")
    p.add_argument("--dirs", type=int, default=360)
    p.add_argument("--samples", type=int, default=64)
    p.add_argument("--tol", type=float, default=1e-12)
    p.add_argument("--expect", choices=("monotone",), default=None,
                   help="exit 3 when the verdict is violated")
    _add_common_flags(p, curve=True)

    p = sub.add_parser("counterexample",
                       help="produce a certified monotonicity counterexample")
    p.add_argument("kind", choices=("generic", "isosceles", "klein"))
    p.add_argument("--a", type=float, default=0.3)
    p.add_argument("--b", type=float, default=1.2)
    p.add_argument("--xi", type=float, default=0.25,
                   help="horizontal offset of the Klein base point")
    _add_common_flags(p, curve=True)

    p = sub.add_parser("projection-diag",
                       help="min/max of a spectral projection on the diagonal")
    _add_surface_flags(p)
    p.add_argument("--lambda-index", type=int, required=True,
                   help="index into the sorted distinct eigenvalues; 0 is trivial")
    p.add_argument("--grid", type=int, default=64)
    _add_common_flags(p)

    p = sub.add_parser("census", help="critical points of K_t(0, .) on a torus")
    p.add_argument("--a", type=float, required=True)
    p.add_argument("--b", type=float, required=True)
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--grid", type=int, default=256)
    _add_common_flags(p)

    p = sub.add_parser("selftest", help="run the quick invariant suite")
    _add_common_flags(p)

    p = sub.add_parser("pde-check",
                       help="finite-difference evolution vs analytic kernel")
    p.add_argument("--a", type=float, required=True)
    p.add_argument("--b", type=float, required=True)
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--n", type=int, required=True)
    _add_common_flags(p)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(
            _attach_negative_values(sys.argv[1:] if argv is None else list(argv)))
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    started = time.perf_counter()
    try:
        handler = globals()["_cmd_" + args.command.replace("-", "_")]
        surface, parameters, results, *code = handler(args)
        env = {"schema": "flatheat-report/1", "command": args.command,
               "version": __version__, "surface": surface,
               "parameters": parameters, "results": results}
        if args.timing:
            env["wall_time_seconds"] = time.perf_counter() - started
        sys.stdout.write(render_report(env))
    except FlatHeatError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    return code[0] if code else 0


if __name__ == "__main__":
    sys.exit(main())
