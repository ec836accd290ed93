"""Quick tests of the benchmark's references and checks.

Run from the root of the repository:

    python3 -m pytest -q bench/test_references.py
"""
import dataclasses
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import flatheat as fh  # noqa: E402
import references as ref  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from workloads import CheckFailed  # noqa: E402

SURFACES = [("torus", 0.0, 1.0), ("torus", 0.3, math.sqrt(0.91)),
            ("torus", 0.5, math.sqrt(3.0) / 2.0), ("torus", 0.25, 1.4),
            ("klein", 0.6), ("klein", 1.0), ("klein", 1.7)]


@pytest.mark.parametrize("desc", SURFACES)
@pytest.mark.parametrize("grad", [False, True])
def test_image_and_eigen_sums_agree(desc, grad):
    """Poisson summation: both brute-force sums give one kernel."""
    rng = np.random.default_rng(7)
    x = workloads.domain_points(rng, desc, 20)
    y = workloads.domain_points(rng, desc, 20)
    for t in (0.03, 0.2, 0.5, 1.5):
        a, ma = ref.kernel(desc, t, x, y, grad=grad, representation="image")
        b, mb = ref.kernel(desc, t, x, y, grad=grad, representation="spectral")
        diff = np.abs(a - b).max(axis=-1) if grad else np.abs(a - b)
        assert np.all(diff <= ref.rounding_allowance(ma + mb))


def test_klein_kernel_is_symmetric_and_glide_invariant():
    desc = ("klein", 0.8)
    rng = np.random.default_rng(3)
    x, y = workloads.domain_points(rng, desc, 2)
    gy = np.array([1.0 - y[0], y[1] + 0.8])
    for t in (0.05, 1.0):
        kxy, _ = ref.kernel(desc, t, x, y)
        kyx, _ = ref.kernel(desc, t, y, x)
        kgy, _ = ref.kernel(desc, t, x, gy)
        assert abs(kxy - kyx) <= 1e-13 * abs(kxy)
        assert abs(kxy - kgy) <= 1e-13 * abs(kxy)


def _query(desc, t, eps, rep="auto"):
    rng = np.random.default_rng(11)
    x, y = workloads.domain_points(rng, desc, 2)
    surface = workloads.program_surface(desc)
    q = fh.KernelQuery(surface=surface, x=tuple(x), y=tuple(y), t=t, epsilon=eps,
                       representation=rep)
    return x, y, q


@pytest.mark.parametrize("desc", SURFACES)
@pytest.mark.parametrize("t,rep", [(0.02, "auto"), (0.02, "spectral"), (3.0, "image"),
                                   (3.0, "auto")])
def test_kernel_check_passes_the_program_and_catches_a_perturbation(desc, t, rep):
    x, y, q = _query(desc, t, 1e-10, rep)
    out = fh.heat_kernel(q)
    workloads.check_kernel(desc, t, x, y, out, False, 1e-10)
    # off by ten times the requested epsilon
    bad = dataclasses.replace(out, value=out.value + 1e-9)
    with pytest.raises(CheckFailed):
        workloads.check_kernel(desc, t, x, y, bad, False, 1e-10)

    g = fh.heat_kernel_gradient(q)
    workloads.check_kernel(desc, t, x, y, g, True, 1e-10)
    bad = dataclasses.replace(g, gradient=(g.gradient[0], g.gradient[1] - 1e-9))
    with pytest.raises(CheckFailed):
        workloads.check_kernel(desc, t, x, y, bad, True, 1e-10)


def test_kernel_check_rejects_a_bound_above_epsilon():
    desc = ("torus", 0.0, 1.0)
    x, y, q = _query(desc, 0.2, 1e-6)
    out = fh.heat_kernel(q)
    with pytest.raises(CheckFailed):
        workloads.check_kernel(desc, 0.2, x, y, dataclasses.replace(out, error_bound=2e-6),
                               False, 1e-6)


def test_cut_distance_closed_form():
    # square: the cell is [-1/2, 1/2]^2
    for ang in np.linspace(0.0, 2.0 * math.pi, 37):
        u = workloads.unit(ang)
        expected = 0.5 / max(abs(u[0]), abs(u[1]))
        assert abs(ref.cut_distance(0.0, 1.0, u) - expected) <= 1e-14
    # the program's torus cut distance agrees on a honeycomb and a generic lattice
    for a, b in ((0.5, math.sqrt(3.0) / 2.0), (0.3, 1.2)):
        lat = fh.torus(a, b).lattice
        for ang in np.linspace(0.1, 6.2, 23):
            u = workloads.unit(ang)
            assert abs(ref.cut_distance(a, b, u) - fh.cut_distance(lat, u)) <= 1e-12


def test_orbit_distance():
    desc = ("klein", 1.3)
    x = np.array([0.2, 0.1])
    assert ref.orbit_distance(desc, x, x) == 0.0
    # the glide image of x is the same point of the Klein bottle
    gx = np.array([1.0 - x[0], x[1] + 1.3])
    assert ref.orbit_distance(desc, x, gx) <= 1e-15
    assert abs(ref.orbit_distance(("torus", 0.0, 1.0), np.zeros(2), np.array([0.9, 0.0]))
               - 0.1) <= 1e-15


def _requests():
    return workloads.Requests(1, BENCH.parent)


@pytest.mark.parametrize("desc", [("torus", 0.3, 1.2), ("klein", 0.7), ("klein", 1.4)])
def test_geodesic_check_catches_a_wrong_cut(desc, monkeypatch):
    rec = workloads.Recorder()
    req = {"kind": "geodesic", "surface": desc, "base": np.array([0.1, 0.2]), "angle": 1.0}
    _requests()._geodesic(req, rec)
    real = fh.minimal_geodesic

    for factor in (1.001, 0.999):
        def wrong(surface, base, direction, factor=factor):
            g = real(surface, base, direction)
            return dataclasses.replace(g, s_max=g.s_max * factor)
        monkeypatch.setattr(fh, "minimal_geodesic", wrong)
        with pytest.raises(CheckFailed):
            _requests()._geodesic(req, rec)


def test_counterexample_checks_catch_a_perturbation(monkeypatch):
    rec = workloads.Recorder()
    reqs = [{"kind": "cx-generic", "a": 0.3, "b": 1.2},
            {"kind": "cx-isosceles", "a": 0.3},
            {"kind": "cx-klein", "b": 1.0, "xi": 0.2},
            {"kind": "cx-klein", "b": 1.5, "xi": 0.3}]
    for req in reqs:
        _requests()._counterexample(req, rec)
    for name in ("counterexample_generic", "counterexample_isosceles",
                 "counterexample_klein"):
        real = getattr(fh, name)

        def shifted(*args, real=real):
            record = real(*args)
            p = np.array(record.p_values)
            p[len(p) // 2] += 1e-9
            return dataclasses.replace(record, p_values=tuple(p))
        monkeypatch.setattr(fh, name, shifted)
    for req in reqs:
        with pytest.raises(CheckFailed):
            _requests()._counterexample(req, rec)


def test_every_workload_round_passes_its_checks():
    """Round 0 of each workload, cut down to a few operations, on seed 2."""
    for cls in workloads.WORKLOADS.values():
        wl = cls(2, BENCH.parent)
        rec = workloads.Recorder()
        wl.warmup(rec)
        assert rec.failed == 0, rec.notes
        assert rec.attempted > 0


def test_covered_time_is_the_union_of_child_intervals():
    parent = tracing.Span(1, "p", 0.0, None, 0)
    parent.end = 10.0
    kids = []
    for lo, hi in ((1.0, 3.0), (2.0, 4.0), (6.0, 7.0), (9.5, 12.0)):
        s = tracing.Span(2, "c", lo, 1, 0)
        s.end = hi
        kids.append(s)
    assert tracing._covered(parent, kids) == pytest.approx(3.0 + 1.0 + 0.5)


def test_benchmark_json_lists_the_metrics_the_run_prints():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == tracing.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
