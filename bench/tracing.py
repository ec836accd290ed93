"""Spans around calls into flatheat's layers, and the per-layer metrics they give.

The program is not edited: ``instrument`` replaces each traced public function
with a wrapper in every flatheat module that holds a reference to it, so calls
one layer makes into another (the kernel calls inside a scan, the cut
distances a scan asks for, the kernel evaluation inside ``gaussian_state``)
are recorded too.  ``restore`` puts the originals back.

A span has a name, start, end, parent and request id, plus a few attributes
read from the call's arguments and result after the clock has stopped.  Spans
stay in memory until the traced pass ends.
"""
from __future__ import annotations

import functools
import itertools
import math
import statistics
import threading
import time
from contextlib import contextmanager, nullcontext

import numpy as np


class Span:
    __slots__ = ("id", "name", "start", "end", "parent", "request", "attrs")

    def __init__(self, id_, name, start, parent, request):
        self.id = id_
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.request = request
        self.attrs = {}

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Thread-aware span recorder.

    Scans fan their tasks out to worker threads, whose own stacks start empty;
    a span opened there takes the innermost open span of the main thread (the
    waiting ``scan``) as its parent.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self.request = 0
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._main = threading.main_thread()
        self._main_stack: list[Span] = []
        self._local = threading.local()

    def _stack(self) -> list:
        if threading.current_thread() is self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> Span:
        stack = self._stack()
        if stack:
            parent = stack[-1].id
        elif self._main_stack:
            parent = self._main_stack[-1].id
        else:
            parent = None
        with self._lock:
            span = Span(next(self._ids), name, 0.0, parent, self.request)
            self.spans.append(span)
        stack.append(span)
        span.start = time.perf_counter()
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack().pop()

    @contextmanager
    def span(self, name: str):
        s = self.open(name)
        try:
            yield s
        finally:
            self.close(s)


def stage(tracer, name):
    """A span when tracing, otherwise nothing."""
    return tracer.span(name) if tracer is not None else nullcontext()


# ---------------------------------------------------------------------------
# what is traced, and what each span records


def _points(result_array, grad: bool) -> int:
    size = int(np.size(result_array))
    return size // 2 if grad else size


def _describe_eval(grad, torus_type):
    def describe(args, kwargs, result):
        eps = kwargs.get("eps", args[4] if len(args) > 4 else 1e-10)
        return {"kind": "torus" if isinstance(args[0], torus_type) else "klein",
                "rep": result[3], "terms": int(result[2]),
                "points": _points(result[0], grad), "eps": float(eps)}
    return describe


def _describe_scan(monotonicity):
    def describe(args, kwargs, result):
        cfg = kwargs.get("cfg", args[2] if len(args) > 2 else monotonicity.ScanConfig())
        return {"eps": cfg.kernel_epsilon, "points": result.points_checked,
                "witnesses": len(result.witnesses),
                "workers": monotonicity.worker_count()}
    return describe


def _describe_evolve(args, kwargs, result):
    initial = args[0]
    t_final = kwargs.get("t_final", args[1] if len(args) > 1 else None)
    remaining = t_final - initial.time
    steps = int(remaining / initial.dt)
    last = remaining - steps * initial.dt
    return {"steps": steps + (1 if last > 1e-15 * max(t_final, 1.0) else 0)}


def _traced_functions():
    """(layer module, function name, describe) for every traced function."""
    from flatheat import cli, kernels, lattice, monotonicity, pde, surfaces
    return [
        (lattice, "reduce", None),
        (lattice, "classify", None),
        (lattice, "cut_distance", None),
        (lattice, "torus_distance", None),
        (surfaces, "surface_distance", None),
        (surfaces, "minimal_geodesic", None),
        (kernels, "heat_values", _describe_eval(False, surfaces.Torus)),
        (kernels, "heat_gradient_values", _describe_eval(True, surfaces.Torus)),
        (kernels, "heat_kernel", None),
        (kernels, "heat_kernel_gradient", None),
        (kernels, "enumerate_modes", None),
        (kernels, "principal_eigenvalue", None),
        (kernels, "projection_kernel", None),
        (kernels, "projection_gradient", None),
        (kernels, "eigenbasis_values", None),
        (monotonicity, "scan", _describe_scan(monotonicity)),
        (monotonicity, "revalidate", None),
        (monotonicity, "radial_curve", None),
        (monotonicity, "counterexample_generic", None),
        (monotonicity, "counterexample_isosceles", None),
        (monotonicity, "counterexample_klein", None),
        (monotonicity, "asymptotic_violation", None),
        (monotonicity, "critical_point_census", None),
        (pde, "gaussian_state", None),
        (pde, "evolve", _describe_evolve),
        (pde, "radial_derivative_field", None),
        (cli, "main", None),
    ]


def _wrap(tracer: Tracer, name: str, fn, describe):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        span = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(span)
        if describe is not None:
            span.attrs = describe(args, kwargs, result)
        return result
    return traced


def instrument(tracer: Tracer):
    """Wrap every traced function wherever flatheat refers to it.

    Returns the list of replaced bindings, for ``restore``.
    """
    import flatheat
    from flatheat import cli, kernels, lattice, monotonicity, pde, surfaces
    modules = (flatheat, lattice, surfaces, kernels, monotonicity, pde, cli)
    replaced = []
    for layer, fname, describe in _traced_functions():
        original = getattr(layer, fname)
        layer_name = layer.__name__.rsplit(".", 1)[-1]
        wrapper = _wrap(tracer, f"{layer_name}.{fname}", original, describe)
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapper)
                    replaced.append((module, key, original))
    return replaced


def restore(replaced) -> None:
    for module, key, original in reversed(replaced):
        setattr(module, key, original)


# ---------------------------------------------------------------------------
# per-layer metrics of one traced pass

PER_LAYER = [
    ("lattice.cut_distance.calls", "count"),
    ("lattice.cut_distance.busy_s", "s"),
    ("surfaces.minimal_geodesic.us_p50", "us"),
    ("kernels.calls", "count"),
    ("kernels.points", "count"),
    ("kernels.term_evals", "count"),
    ("kernels.torus.image.ns_per_term_eval", "ns"),
    ("kernels.torus.spectral.ns_per_term_eval", "ns"),
    ("kernels.klein.image.ns_per_term_eval", "ns"),
    ("kernels.klein.spectral.ns_per_term_eval", "ns"),
    ("kernels.single_point.us_p50", "us"),
    ("monotonicity.scan.self_s", "s"),
    ("monotonicity.scan.samples_per_s", "1/s"),
    ("monotonicity.retry_share", "ratio"),
    ("monotonicity.workers", "count"),
    ("monotonicity.thread_utilisation", "ratio"),
    ("monotonicity.witnesses", "count"),
    ("monotonicity.counterexample.us_p50", "us"),
    ("monotonicity.census.ms_p50", "ms"),
    ("monotonicity.census.kernel_calls", "count"),
    ("pde.gaussian_state.busy_s", "s"),
    ("pde.evolve.busy_s", "s"),
    ("pde.reference.busy_s", "s"),
    ("pde.euler_steps", "count"),
    ("cli.self_us_p50", "us"),
    ("trace.overhead_share", "ratio"),
]

_EVALUATORS = ("kernels.heat_values", "kernels.heat_gradient_values")
_COUNTEREXAMPLES = ("monotonicity.counterexample_generic",
                    "monotonicity.counterexample_isosceles",
                    "monotonicity.counterexample_klein")


def _covered(span: Span, children) -> float:
    """Length of the part of span's interval that the children cover."""
    pieces = sorted((max(c.start, span.start), min(c.end, span.end)) for c in children)
    total, reach = 0.0, span.start
    for lo, hi in pieces:
        lo = max(lo, reach)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def _median(values, scale=1.0) -> float:
    return statistics.median(values) * scale if values else 0.0


def layer_metrics(spans) -> dict:
    """Per-layer metrics of one traced pass; 0 where the pass never reached a layer.

    ``trace.overhead_share`` is filled in by the caller.
    """
    by_name: dict[str, list] = {}
    children: dict[int, list] = {}
    by_id = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)
        by_id[s.id] = s
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)

    def under(span_ids, name_set):
        """Spans with one of these names below any of the given spans."""
        found, todo = [], list(span_ids)
        while todo:
            for c in children.get(todo.pop(), ()):
                if c.name in name_set:
                    found.append(c)
                todo.append(c.id)
        return found

    m = {}
    cuts = by_name.get("lattice.cut_distance", [])
    m["lattice.cut_distance.calls"] = len(cuts)
    m["lattice.cut_distance.busy_s"] = sum(s.duration for s in cuts)
    m["surfaces.minimal_geodesic.us_p50"] = _median(
        [s.duration for s in by_name.get("surfaces.minimal_geodesic", [])], 1e6)

    evals = [s for n in _EVALUATORS for s in by_name.get(n, [])]
    m["kernels.calls"] = len(evals)
    m["kernels.points"] = sum(s.attrs["points"] for s in evals)
    m["kernels.term_evals"] = sum(s.attrs["points"] * s.attrs["terms"] for s in evals)
    for kind in ("torus", "klein"):
        for rep in ("image", "spectral"):
            group = [s for s in evals if s.attrs["kind"] == kind and s.attrs["rep"] == rep]
            work = sum(s.attrs["points"] * s.attrs["terms"] for s in group)
            busy = sum(s.duration for s in group)
            m[f"kernels.{kind}.{rep}.ns_per_term_eval"] = busy / work * 1e9 if work else 0.0
    singles = by_name.get("kernels.heat_kernel", []) + by_name.get("kernels.heat_kernel_gradient", [])
    m["kernels.single_point.us_p50"] = _median([s.duration for s in singles], 1e6)

    scans = by_name.get("monotonicity.scan", [])
    self_s = kernel_busy = capacity = retried = checked = scan_wall = 0.0
    for s in scans:
        kids = children.get(s.id, [])
        self_s += s.duration - _covered(s, kids)
        evals_in = [c for c in kids if c.name in _EVALUATORS]
        retries = [c for c in evals_in if c.attrs["eps"] < s.attrs["eps"] * (1.0 - 1e-12)]
        # one first-pass evaluation per (base, time) task; a lone task runs inline
        tasks = len(evals_in) - len(retries)
        kernel_busy += sum(c.duration for c in evals_in)
        capacity += s.duration * (min(s.attrs["workers"], tasks) if tasks > 1 else 1)
        retried += sum(c.attrs["points"] for c in retries)
        checked += s.attrs["points"]
        scan_wall += s.duration
    m["monotonicity.scan.self_s"] = self_s
    m["monotonicity.scan.samples_per_s"] = checked / scan_wall if scan_wall else 0.0
    m["monotonicity.retry_share"] = retried / checked if checked else 0.0
    m["monotonicity.workers"] = max((s.attrs["workers"] for s in scans), default=0)
    m["monotonicity.thread_utilisation"] = kernel_busy / capacity if capacity else 0.0
    m["monotonicity.witnesses"] = sum(s.attrs["witnesses"] for s in scans)
    m["monotonicity.counterexample.us_p50"] = _median(
        [s.duration for n in _COUNTEREXAMPLES for s in by_name.get(n, [])], 1e6)
    census = by_name.get("monotonicity.critical_point_census", [])
    m["monotonicity.census.ms_p50"] = _median([s.duration for s in census], 1e3)
    m["monotonicity.census.kernel_calls"] = len(under([s.id for s in census], _EVALUATORS))

    for stage_name in ("pde.gaussian_state", "pde.evolve", "pde.reference"):
        m[f"{stage_name}.busy_s"] = sum(s.duration for s in by_name.get(stage_name, []))
    m["pde.euler_steps"] = sum(s.attrs["steps"] for s in by_name.get("pde.evolve", []))
    m["cli.self_us_p50"] = _median(
        [s.duration - _covered(s, children.get(s.id, [])) for s in by_name.get("cli.main", [])],
        1e6)
    m["trace.overhead_share"] = math.nan
    return m
