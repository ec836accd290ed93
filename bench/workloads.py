"""The four workloads: seeded inputs, the program calls they time, and the checks.

Each workload is a closed loop with one caller: the next call starts only
after the previous one has returned.  Work comes in rounds.  Round ``r`` of a
seed draws its inputs from ``default_rng([seed, workload id, r])``, so a round
is the same whenever it is replayed, and every round has the same make-up.

The program is reached through module attributes at call time
(``fh.heat_kernel``, ``fh.kernels.heat_values``), so that a traced pass sees
the wrappers ``tracing.instrument`` puts in place.  Checks compare against
``references`` or against properties the method must have; none of them
compares against a stored copy of an earlier output.
"""
from __future__ import annotations

import contextlib
import io
import json
import math
import time
import traceback
from pathlib import Path

import numpy as np

import flatheat as fh
import flatheat.cli
import flatheat.kernels
import jsonschema
import yaml

import references as ref
from tracing import stage

HONEYCOMB_B = math.sqrt(3.0) / 2.0
# one log-uniform draw from each bin: two below the image/spectral switch
# (t = area / 4 pi, between 0.07 and 0.15 here) and two above it
TIME_BINS = ((0.012, 0.025), (0.035, 0.055), (0.2, 0.45), (0.6, 1.5))


class CheckFailed(Exception):
    """An output of the program disagrees with a reference or a property."""


def check(condition, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


class Recorder:
    """Counts operations and failures, and times the program calls.

    ``timings`` holds one entry per timed call: (end, seconds, round, work,
    point).  ``work`` marks the calls that make up the workload's operations;
    ``point`` marks single-point kernel requests.  Checks are not timed.
    Before each operation ``speed.tick()`` may time a calibration loop.
    """

    def __init__(self, speed=None, tracer=None):
        self.speed = speed
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []
        self.round = 0
        self.timings: list[tuple] = []

    @contextlib.contextmanager
    def operation(self, label: str):
        if self.speed is not None:
            self.speed.tick()
        self.attempted += 1
        if self.tracer is not None:
            self.tracer.request += 1
        try:
            yield
        except Exception as exc:  # a failed operation is counted; the run goes on
            self.failed += 1
            if len(self.notes) < 10:
                self.notes.append(f"{label}: {type(exc).__name__}: {exc}\n"
                                  + traceback.format_exc(limit=4))

    def call(self, fn, *args, work=True, point=False, **kwargs):
        started = time.perf_counter()
        result = fn(*args, **kwargs)
        ended = time.perf_counter()
        self.timings.append((ended, ended - started, self.round, work, point))
        return result


# ---------------------------------------------------------------------------
# shared input helpers


class Draws:
    """Parameters of round r, stratified so that every run covers their ranges alike.

    Each range is cut into ``strata`` equal parts.  The k-th parameter drawn
    in round r comes from part ``order_k[r mod strata]`` of its range, where
    ``order_k`` is a fixed permutation, at a seeded position inside that part.
    Any ``strata`` consecutive rounds visit every part of every range once,
    so the work in a run depends little on the seed, while each seed still
    gives other inputs.
    """

    def __init__(self, seed: int, ident: int, r: int, strata: int):
        self._rng = np.random.default_rng([seed, ident, r, 0xD1A5])
        self._r = r
        self._strata = strata
        self._k = 0

    def unit(self) -> float:
        order = np.random.default_rng([self._k, self._strata]).permutation(self._strata)
        self._k += 1
        return (order[self._r % self._strata] + self._rng.uniform()) / self._strata

    def uniform(self, lo: float, hi: float) -> float:
        return lo + (hi - lo) * self.unit()

    def log_uniform(self, lo: float, hi: float) -> float:
        return math.exp(self.uniform(math.log(lo), math.log(hi)))

    def times(self, bins=None) -> tuple:
        """One time from each bin (by default, of TIME_BINS)."""
        return tuple(self.log_uniform(lo, hi) for lo, hi in (bins or TIME_BINS))

    def klein_points(self, b: float, m: int) -> tuple:
        """m points of the Klein bottle's domain [0, 1) x [0, b), one in each
        row and each column of an m x m grid (a seeded Latin square)."""
        cols = self._rng.permutation(m)
        return tuple((float((cols[j] + self._rng.uniform()) / m),
                      float((j + self._rng.uniform()) / m * b)) for j in range(m))


def program_surface(desc):
    return fh.torus(desc[1], desc[2]) if desc[0] == "torus" else fh.klein_bottle(desc[1])


def domain_points(rng, desc, m: int) -> np.ndarray:
    """Uniform points of the fundamental domain."""
    coords = rng.uniform(0.0, 1.0, (m, 2))
    if desc[0] == "torus":
        return coords @ ref.rows_of(desc)
    return coords * np.array([1.0, desc[1]])


def unit(angle: float) -> np.ndarray:
    return np.array([math.cos(angle), math.sin(angle)])


def check_kernel(desc, t, x, y, out, grad, eps):
    """A single-point program result against the brute-force reference."""
    check(out.error_bound <= eps,
          f"error_bound {out.error_bound:g} exceeds the requested epsilon {eps:g}")
    value = out.gradient if grad else out.value
    excess = ref.kernel_mismatch(desc, t, x, y, value, out.error_bound, grad,
                                 out.representation_used)
    check(excess <= 0.0, f"{'gradient' if grad else 'value'} off the reference by "
                         f"{excess:.3g} beyond bound and rounding ({desc}, t={t:g})")


def recheck_radial(rec, desc, surface, t, base, u, s, eps):
    """Single-point gradient request at base + s u; returns the reference radial
    derivative and its rounding allowance after checking the program's value."""
    y = base + s * u
    query = fh.KernelQuery(surface=surface, x=tuple(base), y=tuple(y), t=t,
                           epsilon=eps)
    out = rec.call(fh.heat_kernel_gradient, query, work=False, point=True)
    check_kernel(desc, t, base, y, out, True, eps)
    grad, mag = ref.kernel(desc, t, base, y, grad=True)
    return float(grad @ u), float(ref.rounding_allowance(mag))


# ---------------------------------------------------------------------------
# requests: a seeded mix of single requests


def _surface_pool(d: Draws) -> list:
    """One surface of each torus class, and Klein bottles below, at and above b = 1."""
    a_iso = d.uniform(0.15, 0.4)
    return [
        ("torus", 0.0, 1.0),
        ("torus", 0.0, d.uniform(1.2, 1.8)),
        ("torus", a_iso, math.sqrt(1.0 - a_iso * a_iso)),
        ("torus", 0.5, HONEYCOMB_B),
        ("torus", d.uniform(0.2, 0.35), d.uniform(1.1, 1.4)),
        ("klein", d.uniform(0.6, 0.85)),
        ("klein", 1.0),
        ("klein", d.uniform(1.2, 1.6)),
    ]


_CLASS_OF_POOL = ("Square", "Rectangular", "Isosceles", "Honeycomb", "Generic")
_REQUEST_MIX = (
    ("value", 40), ("gradient", 30), ("value-rep", 4), ("gradient-rep", 4),
    ("geodesic-torus", 4), ("geodesic-klein", 4),
    ("cx-generic", 1), ("cx-isosceles", 1), ("cx-klein", 1), ("cx-klein-small", 1),
    ("census-square", 1), ("census-honeycomb", 1),
    ("cli-reduce", 1), ("cli-classify", 1), ("cli-kernel", 1), ("cli-counterexample", 1),
    ("cli-scan", 1), ("cli-pde-check", 1), ("cli-bad-time", 1), ("cli-usage", 1),
)
_EPSILONS = (1e-6, 1e-10, 1e-13)


class Requests:
    name = "requests"
    ident = 1
    rounds_per_trace_pass = 2

    def __init__(self, seed: int, root: Path):
        self.seed = seed
        schema = json.loads((root / "src" / "flatheat" / "report_schema.json").read_text())
        self.validator = jsonschema.Draft7Validator(schema)

    def inputs(self, r: int) -> list:
        rng = np.random.default_rng([self.seed, self.ident, r])
        d = Draws(self.seed, self.ident, r, 16)
        pool = _surface_pool(d)
        reqs = []
        for kind, count in _REQUEST_MIX:
            # Kernel requests of one kind take every surface of the pool and
            # every epsilon in turn, and one time from each of `count` equal
            # slices of log t, so that each round asks for the same mix.  The
            # explicit ones alternate image and spectral, each with one time
            # in each half of the range, placed by the stratified draws: image
            # sums at large t are the slowest requests and set the p99.
            if kind.endswith("-rep"):
                units = [(i // 2 + d.unit()) / 2 for i in range(count)]
            else:
                units = (rng.permutation(count) + rng.uniform(size=count)) / count
            turn = int(rng.integers(len(pool) * len(_EPSILONS)))
            reqs.extend(self._draw(kind, rng, pool, i, units[i], turn + i)
                        for i in range(count))
        return [reqs[i] for i in rng.permutation(len(reqs))]

    def _draw(self, kind, rng, pool, i, t_unit, turn):
        req = {"kind": kind}
        if kind in ("value", "gradient", "value-rep", "gradient-rep", "cli-kernel"):
            desc = pool[turn % len(pool)]
            x, y = domain_points(rng, desc, 2)
            req.update(surface=desc, x=x, y=y,
                       t=math.exp(math.log(0.01) + t_unit * math.log(1000.0)),
                       eps=_EPSILONS[turn // len(pool) % len(_EPSILONS)],
                       rep=("image", "spectral")[i % 2] if kind.endswith("-rep") else "auto")
        elif kind.startswith("geodesic"):
            desc = pool[int(rng.integers(5))] if kind.endswith("torus") else pool[5 + i % 3]
            req.update(surface=desc, base=domain_points(rng, desc, 1)[0],
                       angle=rng.uniform(0.0, 2.0 * math.pi))
        elif kind == "cx-generic" or kind == "cli-counterexample":
            req.update(a=pool[4][1], b=pool[4][2])
        elif kind == "cx-isosceles":
            req.update(a=pool[2][1])
        elif kind == "cx-klein":
            req.update(b=pool[6 + int(rng.integers(2))][1], xi=rng.uniform(0.1, 0.4))
        elif kind == "cx-klein-small":
            req.update(b=pool[5][1], xi=rng.uniform(0.1, 0.4))
        elif kind.startswith("census"):
            req.update(t=rng.uniform(0.1, 1.0))
        elif kind == "cli-reduce":
            while True:
                u, v = rng.normal(size=2), rng.normal(size=2)
                if abs(u[0] * v[1] - u[1] * v[0]) > 0.2 * np.hypot(*u) * np.hypot(*v):
                    break
            req.update(u=u, v=v)
        elif kind == "cli-classify":
            index = int(rng.integers(5))
            req.update(index=index, surface=pool[index])
        elif kind == "cli-scan":
            req.update(a=pool[4][1], b=pool[4][2])
        elif kind == "cli-pde-check":
            req.update(t=rng.uniform(0.005, 0.02))
        elif kind == "cli-bad-time":
            req.update(t=-rng.uniform(0.1, 1.0))
        return req

    def warmup(self, rec: Recorder) -> None:
        seen = set()
        for req in self.inputs(0):
            if req["kind"] not in seen:
                seen.add(req["kind"])
                self.run_one(req, rec)

    def run_round(self, reqs, rec: Recorder) -> None:
        for req in reqs:
            self.run_one(req, rec)

    def run_one(self, req, rec: Recorder) -> None:
        kind = req["kind"]
        with rec.operation(kind):
            if kind in ("value", "gradient", "value-rep", "gradient-rep"):
                self._kernel(req, rec)
            elif kind.startswith("geodesic"):
                self._geodesic(req, rec)
            elif kind.startswith("cx-"):
                self._counterexample(req, rec)
            elif kind.startswith("census"):
                self._census(req, rec)
            else:
                self._cli(req, rec)

    def _kernel(self, req, rec):
        desc, t, eps = req["surface"], req["t"], req["eps"]
        grad = req["kind"].startswith("gradient")
        query = fh.KernelQuery(surface=program_surface(desc), x=tuple(req["x"]),
                               y=tuple(req["y"]), t=t, epsilon=eps,
                               representation=req["rep"])
        fn = fh.heat_kernel_gradient if grad else fh.heat_kernel
        out = rec.call(fn, query, point=True)
        if req["rep"] != "auto":
            check(out.representation_used == req["rep"],
                  f"asked for {req['rep']}, got {out.representation_used}")
        check_kernel(desc, t, req["x"], req["y"], out, grad, eps)

    def _geodesic(self, req, rec):
        desc, base = req["surface"], req["base"]
        u = unit(req["angle"])
        geo = rec.call(fh.minimal_geodesic, program_surface(desc), tuple(base), tuple(u))
        s_max = geo.s_max
        if desc[0] == "torus":
            closed = ref.cut_distance(desc[1], desc[2], u)
            check(abs(s_max - closed) <= 1e-12 * closed,
                  f"torus s_max {s_max!r} differs from the closed form {closed!r}")
        inside = s_max * (1.0 - 1e-6)
        d_in = ref.orbit_distance(desc, base, base + inside * u)
        check(abs(d_in - inside) <= 1e-10,
              f"distance {d_in!r} just inside s_max differs from the arc {inside!r}")
        beyond = s_max * (1.0 + 1e-4)
        d_out = ref.orbit_distance(desc, base, base + beyond * u)
        check(d_out < beyond - 1e-9,
              f"distance {d_out!r} just beyond s_max is not below the arc {beyond!r}")

    def _counterexample(self, req, rec):
        kind = req["kind"]
        if kind == "cx-generic":
            a, b = req["a"], req["b"]
            record = rec.call(fh.counterexample_generic, a, b)
            check(abs(record.s_star - ref.generic_s_star(a, b)) <= 1e-12,
                  f"s_star {record.s_star!r} is not (a^2+b^2)/(2b^2)")
            expected = ref.generic_projection(b, record.s_values)
        elif kind == "cx-isosceles":
            a = req["a"]
            record = rec.call(fh.counterexample_isosceles, a)
            expected = ref.isosceles_projection(math.sqrt(1.0 - a * a), record.s_values)
        elif kind == "cx-klein":
            b, xi = req["b"], req["xi"]
            record = rec.call(fh.counterexample_klein, b, xi)
            check(abs(record.s_star - ref.klein_s_star(b, xi)) <= 1e-12,
                  f"Klein s_star {record.s_star!r} is not (g^2+b^2)/(2b^2)")
            expected = ref.klein_projection(b, xi, record.s_values)
        else:
            self._klein_asymptotic(req, rec)
            return
        dev = float(np.max(np.abs(np.asarray(record.p_values) - expected)))
        check(dev <= 1e-11, f"{kind}: p_values off the closed form by {dev:.3g}")
        check(record.increase > 0.0, f"{kind}: no increase")
        check(record.witness.radial_derivative > record.witness.error_bound,
              f"{kind}: witness not certified")

    def _klein_asymptotic(self, req, rec):
        """b < 1: the record holds heat values along a segment at t_threshold."""
        b = req["b"]
        desc = ("klein", b)
        record = rec.call(fh.counterexample_klein, b, req["xi"])
        check(record.kind == "klein-asymptotic", f"b={b} gave {record.kind}")
        ex = record.extras
        t = ex["t_threshold"]
        x, y = np.array(ex["x"]), np.array(ex["y"])
        (kxy, kxx), mags = ref.kernel(desc, t, x, np.stack([y, x]))
        check(kxy - kxx > float(ref.rounding_allowance(mags.sum())),
              f"reference does not show K(x,y) > K(x,x) at t={t:g}")
        w = record.witness
        u = np.array(w.direction)
        pts = np.array(w.base) + np.asarray(record.s_values)[:, None] * u
        grads, mag = ref.kernel(desc, t, np.array(w.base), pts, grad=True)
        radial = grads @ u
        dev = np.abs(np.asarray(record.dp_values) - radial) - (
            math.sqrt(2.0) * w.error_bound + ref.rounding_allowance(mag))
        check(float(dev.max()) <= 0.0, f"dp_values off the reference by {dev.max():.3g}")
        k = int(np.argmin(np.abs(np.asarray(record.s_values) - w.s)))
        check(radial[k] + float(ref.rounding_allowance(mag[k])) > 0.0,
              "reference radial derivative at the witness is not positive")

    def _census(self, req, rec):
        square = req["kind"] == "census-square"
        surface = fh.torus(0.0, 1.0) if square else fh.torus(0.5, HONEYCOMB_B)
        census = rec.call(fh.critical_point_census, surface, req["t"], grid=64)
        expected = (1, 1, 2) if square else (1, 2, 3)
        check(census.counts == expected, f"census counts {census.counts} != {expected}")
        check(census.index_sum == 0, f"index sum {census.index_sum} != 0")
        nmax, nmin, nsad = census.counts
        check(nmax + nmin - nsad == 0, "Poincare-Hopf fails on the listed points")

    # -- CLI subcommands, run in-process ------------------------------------

    def _cli(self, req, rec):
        kind = req["kind"]
        argv, expected_code = self._cli_argv(req)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = rec.call(fh.cli.main, argv)
        check(code == expected_code, f"{kind}: exit code {code}, expected {expected_code}")
        if expected_code in (1, 2):
            check(out.getvalue() == "" and "error" in err.getvalue(),
                  f"{kind}: expected an error message and no report")
            return
        doc = yaml.safe_load(out.getvalue())
        self.validator.validate(doc)
        res = doc["results"]
        if kind == "cli-reduce":
            u, v = req["u"], req["v"]
            cross = abs(u[0] * v[1] - u[1] * v[0])
            check(abs(res["b"] * res["scale"] ** 2 - cross) <= 1e-9 * cross,
                  "reduced covolume differs from the input's")
            shortest = ref.shortest_vector(np.array([u, v]))
            check(abs(res["scale"] - shortest) <= 1e-9 * shortest,
                  "scale is not the length of the shortest lattice vector")
        elif kind == "cli-classify":
            expected = _CLASS_OF_POOL[req["index"]]
            check(res["lattice_class"] == expected,
                  f"classified {res['lattice_class']}, built {expected}")
        elif kind == "cli-kernel":
            desc = req["surface"]
            excess = ref.kernel_mismatch(desc, req["t"], req["x"], req["y"], res["value"],
                                         res["error_bound"], False,
                                         res["representation_used"])
            check(excess <= 0.0, f"cli kernel value off the reference by {excess:.3g}")
        elif kind == "cli-scan":
            check(res["verdict"] == "violated", f"scan verdict {res['verdict']}")
        elif kind == "cli-pde-check":
            ulp = float(np.spacing(res["mass_initial"]))
            check(abs(res["mass_drift"]) <= 16 * ulp,
                  f"mass drift {res['mass_drift']:g} exceeds 16 ulps")

    @staticmethod
    def _cli_argv(req):
        def f(v):
            return repr(float(v))
        kind = req["kind"]
        if kind == "cli-reduce":
            u, v = req["u"], req["v"]
            return ["reduce", f"--u={f(u[0])},{f(u[1])}", f"--v={f(v[0])},{f(v[1])}"], 0
        if kind == "cli-classify":
            _, a, b = req["surface"]
            return ["classify", "--a", f(a), "--b", f(b)], 0
        if kind == "cli-kernel":
            desc, x, y = req["surface"], req["x"], req["y"]
            flags = (["--klein", "--b", f(desc[1])] if desc[0] == "klein"
                     else ["--a", f(desc[1]), "--b", f(desc[2])])
            # "--x=-0.1,0.2": a pair with a leading minus would read as an option
            return (["kernel"] + flags + [f"--x={f(x[0])},{f(x[1])}", f"--y={f(y[0])},{f(y[1])}",
                                          "--t", f(req["t"]), "--eps", f(req["eps"])], 0)
        if kind == "cli-counterexample":
            return ["counterexample", "generic", "--a", f(req["a"]), "--b", f(req["b"])], 0
        if kind == "cli-scan":
            return ["scan", "--a", f(req["a"]), "--b", f(req["b"]), "--t-list", "0.2",
                    "--dirs", "24", "--samples", "16", "--expect", "monotone"], 3
        if kind == "cli-pde-check":
            return ["pde-check", "--a", "0", "--b", "1", "--t", f(req["t"]), "--n", "16"], 0
        if kind == "cli-bad-time":
            return ["kernel", "--b", "1", "--x", "0,0", "--y", "0.25,0.5",
                    "--t", f(req["t"])], 2
        return ["kernel", "--x", "0,0"], 1


# ---------------------------------------------------------------------------
# scans


def scan_operation(rec, desc, cfg, expected, n_forced, sub, n_queries):
    """One scan, the checks on its report, and its re-check queries.

    The re-check queries go to the scan's smallest time, where every query
    costs about the same (an image sum), so that their latency percentiles
    do not depend on the mix of times.  If the scan found witnesses there,
    the queries go to a seeded sample of them, and the reference radial
    derivative must not be at or below the tolerance.  Otherwise they go to
    random points inside the cut locus; on a monotone torus the reference
    radial derivative must not exceed the tolerance there.  The report is
    dropped before the queries, as a caller that keeps only a sample would:
    its witness objects (up to ~30,000) would otherwise lengthen every
    garbage collection the queries trigger.
    """
    surface = program_surface(desc)
    report = rec.call(fh.scan, surface, fh.Heat(), cfg)
    check(report.verdict.value == expected,
          f"{desc}: verdict {report.verdict.value}, expected {expected}")
    if expected == "monotone":
        check(report.inconclusive_count == 0,
              f"{desc}: {report.inconclusive_count} inconclusive samples")
    n_bases = len(cfg.base_points) if cfg.base_points else 1
    implied = (cfg.n_directions + n_forced) * cfg.n_arc_samples * len(cfg.t_values) * n_bases
    check(report.points_checked == implied,
          f"{desc}: points_checked {report.points_checked} != {implied}")
    rng = np.random.default_rng(sub)
    tol, t = cfg.derivative_tolerance, min(cfg.t_values)
    found = [w for w in report.witnesses if w.t == t]
    sample = [found[int(k)] for k in rng.integers(len(found), size=n_queries)] if found else []
    del report, found
    for w in sample:
        radial, allow = recheck_radial(rec, desc, surface, t, np.array(w.base),
                                       np.array(w.direction), w.s, cfg.kernel_epsilon)
        check(radial + allow > tol, f"{desc}: reference radial derivative {radial:g} "
                                    "at a witness is not above the tolerance")
    for k in range(n_queries - len(sample)):
        base = np.array(cfg.base_points[k % n_bases]) if cfg.base_points else np.zeros(2)
        u = unit(rng.uniform(0.0, 2.0 * math.pi))
        # on a Klein bottle every other point of the orbit of the base is at
        # least min(1, b) away, so s below half of that is minimal
        smax = (ref.cut_distance(desc[1], desc[2], u) if desc[0] == "torus"
                else 0.5 * min(1.0, desc[1]))
        s = rng.uniform(0.02, 1.0) * smax
        radial, allow = recheck_radial(rec, desc, surface, t, base, u, s, cfg.kernel_epsilon)
        if expected == "monotone":
            check(radial - allow <= tol, f"{desc}: reference radial derivative {radial:g} "
                                         f"increases at s={s:g}, t={t:g}")


class TorusScan:
    name = "torus-scan"
    ident = 2
    rounds_per_trace_pass = 1
    queries_per_scan = 32

    def __init__(self, seed: int, root: Path):
        self.seed = seed

    def inputs(self, r: int) -> list:
        rng = np.random.default_rng([self.seed, self.ident, r])
        d = Draws(self.seed, self.ident, r, 8)
        a_iso = d.uniform(0.15, 0.4)
        members = [
            (("torus", 0.0, 1.0), "monotone"),
            (("torus", 0.0, d.uniform(1.2, 1.8)), "monotone"),
            (("torus", 0.5, HONEYCOMB_B), "monotone"),
            (("torus", a_iso, math.sqrt(1.0 - a_iso * a_iso)), "violated"),
            (("torus", d.uniform(0.2, 0.35), d.uniform(1.1, 1.4)), "violated"),
            (("torus", d.uniform(0.15, 0.4), 1.2), "violated"),
        ]
        return [(desc, expected, d.times(), int(rng.integers(2 ** 31)))
                for desc, expected in members]

    def warmup(self, rec: Recorder) -> None:
        desc, expected, times, sub = self.inputs(0)[0]
        self.run_round([(desc, expected, times[:1], sub)], rec)

    def run_round(self, scans, rec: Recorder) -> None:
        for desc, expected, times, sub in scans:
            with rec.operation(f"scan {desc}"):
                scan_operation(rec, desc, fh.ScanConfig(t_values=times), expected, 5, sub,
                               self.queries_per_scan)


class KleinScan:
    """Scans of Klein bottles from a seeded Latin square of base points.

    Which base points a scan starts from moves its cost by +-20% (the
    witness count changes with them), so each scan averages over six, at
    three times: two below the image/spectral switch and one above it.
    """

    name = "klein-scan"
    ident = 3
    rounds_per_trace_pass = 1
    queries_per_scan = 72
    bases = 6

    def __init__(self, seed: int, root: Path):
        self.seed = seed

    def inputs(self, r: int) -> list:
        rng = np.random.default_rng([self.seed, self.ident, r])
        d = Draws(self.seed, self.ident, r, 4)
        out = []
        for b in (d.uniform(0.65, 0.8), 1.0, d.uniform(1.2, 1.6)):
            out.append((("klein", b), d.klein_points(b, self.bases), d.times(TIME_BINS[:3]),
                        int(rng.integers(2 ** 31))))
        return out

    def warmup(self, rec: Recorder) -> None:
        desc, bases, times, sub = self.inputs(0)[0]
        self._scan(rec, desc, bases[:1], times[:1], sub)

    def run_round(self, scans, rec: Recorder) -> None:
        for desc, bases, times, sub in scans:
            self._scan(rec, desc, bases, times, sub)

    def _scan(self, rec, desc, bases, times, sub):
        with rec.operation(f"scan {desc}"):
            scan_operation(rec, desc, fh.ScanConfig(t_values=times, base_points=bases),
                           "violated", 2, sub, self.queries_per_scan)


# ---------------------------------------------------------------------------
# PDE oracle ladder

PDE_T = 0.05
PDE_RUNGS = (24, 32, 48, 64)
PDE_LATTICES = (("torus", 0.0, 1.0), ("torus", 0.5, HONEYCOMB_B))


class PdeOracle:
    """gaussian_state -> evolve -> analytic reference, at each n of the ladder.

    The bump width sigma is fixed along a ladder (drawn from [0.09, 0.12]), so
    every rung solves the same problem and the error falls as h^2 from n = 24
    on; with the default sigma = 4h the rungs below n = 96 are not yet in the
    asymptotic range.  Each rung is one operation.
    """

    name = "pde-oracle"
    ident = 4
    rounds_per_trace_pass = 1
    queries_per_rung = 16

    def __init__(self, seed: int, root: Path):
        self.seed = seed

    def inputs(self, r: int) -> list:
        rng = np.random.default_rng([self.seed, self.ident, r])
        d = Draws(self.seed, self.ident, r, 4)
        return [(PDE_LATTICES[i], d.uniform(0.09, 0.12), int(rng.integers(2 ** 31)))
                for i in rng.permutation(len(PDE_LATTICES))]

    def warmup(self, rec: Recorder) -> None:
        desc, sigma, sub = self.inputs(0)[0]
        with rec.operation(f"rung {desc} n={PDE_RUNGS[0]}"):
            self._rung(rec, desc, sigma, PDE_RUNGS[0], np.random.default_rng(sub))

    def run_round(self, ladders, rec: Recorder) -> None:
        for desc, sigma, sub in ladders:
            rng = np.random.default_rng(sub)
            errors = {}
            for prev, n in zip((None,) + PDE_RUNGS, PDE_RUNGS):
                with rec.operation(f"rung {desc} n={n}"):
                    errors[n] = self._rung(rec, desc, sigma, n, rng)
                    if prev in errors:
                        order = math.log(errors[prev] / errors[n]) / math.log(n / prev)
                        check(order >= 1.9, f"{desc}: order {order:.3f} between "
                                            f"n={prev} and n={n}")
                    if n == PDE_RUNGS[-1]:
                        check(errors[n] <= 0.01,
                              f"{desc}: finest relative error {errors[n]:.3g}")

    def _rung(self, rec, desc, sigma, n, rng):
        surface = program_surface(desc)
        lat = surface.lattice
        state = rec.call(fh.gaussian_state, lat, n, sigma=sigma)
        evolved = rec.call(fh.evolve, state, PDE_T)
        t_ref = PDE_T + 0.5 * sigma * sigma
        nodes = evolved.nodes_plane
        with stage(rec.tracer, "pde.reference"):
            vals, err, _, _ = rec.call(fh.kernels.heat_values, surface, t_ref,
                                       np.zeros(2), nodes, eps=1e-14)
        drift = evolved.mass - state.mass
        check(abs(drift) <= 16 * float(np.spacing(state.mass)),
              f"{desc} n={n}: mass drift {drift:g} exceeds 16 ulps")
        bf, mag = ref.kernel(desc, t_ref, np.zeros(2), nodes)
        over = np.abs(vals - bf) - err - ref.rounding_allowance(mag)
        check(float(over.max()) <= 0.0,
              f"{desc} n={n}: kernel reference off by {over.max():.3g} beyond its bound")
        flat = nodes.reshape(-1, 2)
        for k in rng.integers(len(flat), size=self.queries_per_rung):
            y = flat[int(k)]
            query = fh.KernelQuery(surface=surface, x=(0.0, 0.0), y=tuple(y), t=t_ref,
                                   epsilon=1e-12)
            out = rec.call(fh.heat_kernel, query, work=False, point=True)
            check_kernel(desc, t_ref, np.zeros(2), y, out, False, 1e-12)
        return float(np.abs(evolved.field - bf).max() / np.abs(bf).max())


WORKLOADS = {w.name: w for w in (Requests, TorusScan, KleinScan, PdeOracle)}
