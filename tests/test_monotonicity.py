"""Geodesic monotonicity scans, counterexample records, and the census."""
import dataclasses
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import flatheat
from flatheat import (Heat, InvalidParameter, NotSimple, Projection,
                      ScanConfig, Verdict, WrongLatticeClass,
                      asymptotic_violation, counterexample_generic,
                      counterexample_isosceles, counterexample_klein,
                      critical_point_census, klein_bottle, minimal_geodesic,
                      principal_eigenvalue, radial_curve, revalidate, scan,
                      torus)
from flatheat import kernels, monotonicity, surfaces

HONEYCOMB_B = math.sqrt(3.0) / 2.0


def test_scan_config_validation():
    with pytest.raises(InvalidParameter):
        ScanConfig(n_directions=3)
    with pytest.raises(InvalidParameter):
        ScanConfig(n_arc_samples=4)
    with pytest.raises(InvalidParameter):
        ScanConfig(t_values=(0.1, -1.0))
    with pytest.raises(InvalidParameter):
        ScanConfig(derivative_tolerance=0.0)


_TIME_ENTRIES = {
    "scan": lambda t: scan(torus(0.3, 1.2), Heat(t), ScanConfig(n_directions=8, n_arc_samples=8)),
    "radial_curve": lambda t: radial_curve(torus(0.3, 1.2), Heat(t), (0, 0), (0, 1), n=4),
    "ScanConfig": lambda t: ScanConfig(t_values=(t,)),
}


@pytest.mark.parametrize("entry", list(_TIME_ENTRIES))
def test_times_are_checked_once_for_every_entry(entry):
    """Heat and ScanConfig convert a time with float and refuse a non-number,
    non-finite or non-positive one with InvalidParameter."""
    for bad in ("x", [0.5], math.inf, math.nan, 0.0, -1.0):
        with pytest.raises(InvalidParameter):
            _TIME_ENTRIES[entry](bad)
    _TIME_ENTRIES[entry]("0.5")
    _TIME_ENTRIES[entry](np.float32(0.5))
    if entry == "ScanConfig":
        for bad in (0.5, "0.5", ()):
            with pytest.raises(InvalidParameter):
                ScanConfig(t_values=bad)
        assert ScanConfig(t_values=["0.5", 2]).t_values == (0.5, 2.0)
    else:
        assert Heat("0.5") == Heat(0.5) and type(Heat(np.float32(0.5)).t) is float


def test_scan_config_rejects_non_integer_sizes():
    for bad in (8.5, 8.0, "8"):
        with pytest.raises(InvalidParameter):
            ScanConfig(n_directions=bad)
        with pytest.raises(InvalidParameter):
            ScanConfig(n_arc_samples=bad)
    cfg = ScanConfig(n_directions=np.int64(8), n_arc_samples=np.int32(8), t_values=(0.5,))
    assert (cfg.n_directions, cfg.n_arc_samples) == (8, 8)
    assert scan(torus(0.0, 1.0), Heat(), cfg).points_checked == (8 + 5) * 8


def test_scan_config_refuses_more_samples_than_the_work_budget(monkeypatch):
    monkeypatch.setattr(kernels, "TERM_BUDGET", 100)
    assert ScanConfig(n_directions=12, n_arc_samples=8).n_directions == 12
    for n_dirs, n_arc in ((13, 8), (4, 26)):
        with pytest.raises(InvalidParameter):
            ScanConfig(n_directions=n_dirs, n_arc_samples=n_arc)


def test_scan_config_rejects_non_finite_base_points():
    for bad in (float("nan"), float("inf"), -float("inf")):
        with pytest.raises(InvalidParameter):
            ScanConfig(base_points=[(0.1, 0.2), (bad, 0.0)])


def test_scan_config_rejects_non_finite_tolerances():
    # an infinite derivative tolerance would certify every sample as monotone
    for bad in (float("nan"), float("inf")):
        with pytest.raises(InvalidParameter):
            ScanConfig(derivative_tolerance=bad)
        with pytest.raises(InvalidParameter):
            ScanConfig(kernel_epsilon=bad)


def test_worker_count_follows_cpu_affinity(monkeypatch):
    monkeypatch.delenv("FLAT_HEAT_THREADS", raising=False)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert monotonicity.worker_count() == 1
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(16)), raising=False)
    assert monotonicity.worker_count() == 4
    monkeypatch.setenv("FLAT_HEAT_THREADS", "3")
    assert monotonicity.worker_count() == 3


def test_honeycomb_heat_scan_is_monotone_quick(honeycomb_torus):
    cfg = ScanConfig(n_directions=48, n_arc_samples=16, t_values=(0.05, 0.5, 5.0))
    report = scan(honeycomb_torus, Heat(), cfg)
    assert report.verdict is Verdict.MONOTONE
    assert report.witnesses == ()
    assert report.inconclusive_count == 0
    # 48 uniform directions plus 5 forced lattice-aligned ones
    assert report.points_checked == (48 + 5) * 16 * 3
    assert len(report.notes) == 2


def test_rectangular_heat_scans_are_monotone_quick():
    for b in (1.0, 1.5, 2.0):
        cfg = ScanConfig(n_directions=24, n_arc_samples=12, t_values=(0.1, 1.0))
        report = scan(torus(0.0, b), Heat(), cfg)
        assert report.verdict is Verdict.MONOTONE, b
        assert not report.witnesses


def test_generic_projection_scan_finds_vertical_witnesses(generic_torus):
    mode = principal_eigenvalue(generic_torus)
    cfg = ScanConfig(n_directions=48, n_arc_samples=32)
    report = scan(generic_torus, Projection(mode), cfg)
    assert report.verdict is Verdict.VIOLATED
    assert len(report.witnesses) > 0
    # every witness needs a strong vertical component (the mode only varies
    # in x2), and the exactly vertical direction must be among them
    for w in report.witnesses:
        assert abs(w.direction[1]) > 0.8
        assert w.t == math.inf
        assert w.kernel == "projection"
        assert w.radial_derivative - w.error_bound > cfg.derivative_tolerance
    assert any(abs(w.direction[0]) < 1e-12 and abs(abs(w.direction[1]) - 1) < 1e-12
               for w in report.witnesses)


def test_witnesses_revalidate_at_tighter_epsilon(generic_torus):
    mode = principal_eigenvalue(generic_torus)
    cfg = ScanConfig(n_directions=24, n_arc_samples=16)
    report = scan(generic_torus, Projection(mode), cfg)
    for w in report.witnesses[:5]:
        deriv, err = revalidate(generic_torus, w, cfg.kernel_epsilon / 4.0)
        assert deriv > 0.0
        assert abs(deriv - w.radial_derivative) <= w.error_bound + err + 1e-15


def test_revalidate_reproduces_scan_witnesses_bitwise():
    """At the scan's own epsilon, revalidate rebuilds a witness the first pass
    certified from the same sample point and the same derivative form, and
    evaluates it as one row of a two-row batch.  A point's bits do not depend
    on its batch, so the derivative comes back bit for bit: heat and
    projection scans on the generic, isosceles and honeycomb tori and on a
    Klein bottle.  A witness taken from the epsilon/16 retry carries a
    smaller bound and is skipped."""
    cfg = ScanConfig(n_directions=24, n_arc_samples=12, t_values=(0.02, 0.3, 1.0, 2.0),
                     base_points=((0.1, 0.2), (0.3, 0.5)))
    surfaces = [(torus(0.3, 1.2), 10), (torus(0.3, math.sqrt(1 - 0.09)), 10),
                (torus(0.5, HONEYCOMB_B), 0), (klein_bottle(0.8), 10)]
    for surface, least in surfaces:
        modes = flatheat.enumerate_modes(surface, 400)
        for kernel in (Heat(), Projection(modes[1]), Projection(modes[3])):
            checked = 0
            for w in scan(surface, kernel, cfg).witnesses:
                deriv, err = revalidate(surface, w, cfg.kernel_epsilon)
                if err != w.error_bound:
                    continue
                assert deriv == w.radial_derivative, w
                checked += 1
            assert checked >= least, (surface, kernel)


def test_counterexample_witnesses_revalidate_bitwise():
    """Each hand-built witness is sampled as revalidate rebuilds it."""
    records = [counterexample_generic(0.3, 1.2), counterexample_klein(1.5),
               counterexample_klein(0.8)]
    records += [counterexample_isosceles(a) for a in (0.02, 0.08, 0.1, 0.3, 0.45)]
    for rec in records:
        w = rec.witness
        eps = 1e-13
        if w.kernel == "heat":  # the epsilon the Klein b < 1 segment ran at
            lam = principal_eigenvalue(rec.surface).eigenvalue
            eps = max(math.exp(-lam * w.t) * 1e-8, 1e-280)
        assert revalidate(rec.surface, w, eps) == (w.radial_derivative, w.error_bound), rec.kind


def test_heat_scan_violated_on_generic_at_unit_time(generic_torus):
    cfg = ScanConfig(n_directions=24, n_arc_samples=16, t_values=(1.0,))
    report = scan(generic_torus, Heat(), cfg)
    assert report.verdict is Verdict.VIOLATED
    assert all(w.t == 1.0 for w in report.witnesses)


def test_scan_reports_inconclusive_when_error_swamps_tolerance(honeycomb_torus):
    # force sloppy kernel evaluation so no sample can be certified either way
    cfg = ScanConfig(n_directions=8, n_arc_samples=8, t_values=(0.5,),
                     derivative_tolerance=1e-280, kernel_epsilon=0.5)
    report = scan(honeycomb_torus, Heat(), cfg)
    assert report.verdict is Verdict.INCONCLUSIVE
    assert report.inconclusive_count > 0
    assert not report.witnesses


def test_scan_deterministic(generic_torus):
    mode = principal_eigenvalue(generic_torus)
    cfg = ScanConfig(n_directions=16, n_arc_samples=12)
    r1 = scan(generic_torus, Projection(mode), cfg)
    r2 = scan(generic_torus, Projection(mode), cfg)
    assert r1.witnesses == r2.witnesses
    assert r1.points_checked == r2.points_checked


def reference_witnesses(surface, kernel, cfg):
    """Witnesses built one sample at a time and sorted on their own fields.

    The derivatives come from the scan's own evaluation of the same sample
    arrays; this checks which samples become witnesses, their fields and
    their order.
    """
    dirs = monotonicity._scan_directions(surface, cfg.n_directions)
    t_list = list(cfg.t_values) if isinstance(kernel, Heat) else [math.inf]
    ns, tol = cfg.n_arc_samples, cfg.derivative_tolerance
    witnesses = []
    for base in np.array(cfg.base_points):
        smax = surfaces._s_max(surface, base, dirs)
        for t in t_list:
            target = Heat(t) if isinstance(kernel, Heat) else kernel
            S = smax[:, None] * (np.arange(1, ns + 1) / ns)[None, :]
            Y = base[None, None, :] + S[:, :, None] * dirs[:, None, :]
            X = np.broadcast_to(base, Y.shape)
            dirs_b = np.broadcast_to(dirs[:, None, :], Y.shape)
            deriv, err0 = monotonicity._eval_radial(surface, target, X, Y, dirs_b,
                                                    cfg.kernel_epsilon)
            err = np.full(deriv.shape, err0)
            ambiguous = (deriv - err <= tol) & (deriv + err > tol)
            if ambiguous.any():
                d2, e2 = monotonicity._eval_radial(
                    surface, target, X[ambiguous], Y[ambiguous], dirs_b[ambiguous],
                    cfg.kernel_epsilon / 16.0)
                deriv[ambiguous] = np.atleast_1d(d2)
                err[ambiguous] = e2
            for i, j in np.argwhere(deriv - err > tol):
                witnesses.append(flatheat.ViolationWitness(
                    base=(float(base[0]), float(base[1])),
                    direction=(float(dirs[i, 0]), float(dirs[i, 1])),
                    s=float(S[i, j]), t=t, radial_derivative=float(deriv[i, j]),
                    error_bound=float(err[i, j]),
                    kernel="heat" if isinstance(kernel, Heat) else "projection",
                    eigenvalue=None if isinstance(kernel, Heat) else kernel.mode.eigenvalue))
    witnesses.sort(key=lambda w: (w.t, w.base, math.atan2(w.direction[1], w.direction[0]),
                                  w.s))
    return tuple(witnesses)


def test_scan_witnesses_match_per_sample_reference(generic_torus):
    (p, q), (r, _) = np.random.default_rng(5).uniform(0, 1, (2, 2)) * [1.0, 0.7]
    cases = [
        # two bases share x1, so x2 orders them; a duplicated base point's
        # witnesses tie on every sort key
        (klein_bottle(0.7), Heat(),
         ScanConfig(n_directions=40, n_arc_samples=12, t_values=(0.05, 0.5, 2.0),
                    base_points=((p, q), (r, 0.6), (p, 0.1), (p, q)))),
        (generic_torus, Projection(principal_eigenvalue(generic_torus)),
         ScanConfig(n_directions=40, n_arc_samples=12,
                    base_points=((0.1, 0.3), (0.0, 0.0), (0.1, 0.0)))),
    ]
    for surface, kernel, cfg in cases:
        report = scan(surface, kernel, cfg)
        expected = reference_witnesses(surface, kernel, cfg)
        assert len({w.base for w in expected}) >= 2
        assert len({(w.t, w.direction) for w in expected}) >= 2
        assert report.witnesses == expected


def test_default_base_torus_scans_mirror_antipodes_exactly():
    """A torus scanned from the origin with an even ring evaluates each
    antipodal pair once and reads -u from u.  Its report equals the per
    sample reference built from every direction, for heat and projection
    kernels, with even and odd rings (the odd ones evaluate every
    direction), and every witness revalidates bit for bit at the epsilon
    that certified it."""
    for a, b in ((0.0, 1.5), (0.3, math.sqrt(1 - 0.09)), (0.5, HONEYCOMB_B), (0.3, 1.2)):
        surface = torus(a, b)
        for n in (24, 25):
            cfg = ScanConfig(n_directions=n, n_arc_samples=12, t_values=(0.02, 0.3))
            ref_cfg = dataclasses.replace(cfg, base_points=((0.0, 0.0),))
            for kernel in (Heat(), Projection(principal_eigenvalue(surface))):
                report = scan(surface, kernel, cfg)
                assert report.witnesses == reference_witnesses(surface, kernel, ref_cfg)
                assert report.points_checked == (n + 5) * 12 * (2 if kernel == Heat() else 1)
                for w in report.witnesses:
                    got = revalidate(surface, w, cfg.kernel_epsilon)
                    if got[1] != w.error_bound:  # certified by the epsilon/16 retry
                        got = revalidate(surface, w, cfg.kernel_epsilon / 16.0)
                    assert got == (w.radial_derivative, w.error_bound), w
    src = monotonicity._mirror_rows(torus(0.3, 1.2), np.zeros(2), 24,
                                    np.ones(29))
    assert src.tolist() == list(range(12)) * 2 + list(range(24, 29))
    for base, n in (((0.1, 0.0), 24), ((0.0, 0.0), 25)):
        assert monotonicity._mirror_rows(torus(0.3, 1.2), np.array(base), n,
                                         np.ones(n + 5)).tolist() == list(range(n + 5))
    assert monotonicity._mirror_rows(klein_bottle(0.8), np.zeros(2), 24,
                                     np.ones(26)).tolist() == list(range(26))


def test_radial_curve_shapes_and_derivative_consistency(honeycomb_torus):
    s, vals, derivs, errs = radial_curve(honeycomb_torus, Heat(0.3),
                                         (0.0, 0.0), (1.0, 1.0), n=101)
    assert s.shape == vals.shape == derivs.shape == errs.shape == (101,)
    fd = np.gradient(vals, s)
    assert np.abs(fd[2:-2] - derivs[2:-2]).max() < 1e-3


def test_radial_curve_of_a_projection_follows_its_closed_form():
    """Vertically from the origin of torus(0.3, 1.2), the principal projection
    is (2/b) cos(2 pi s/b); its curve carries projection_gradient's bound."""
    surface = torus(0.3, 1.2)
    mode = principal_eigenvalue(surface)
    kernel = Projection(mode)
    s, vals, derivs, errs = radial_curve(surface, kernel, (0.0, 0.0), (0.0, 1.0), n=41)
    b, w = 1.2, 2.0 * math.pi / 1.2
    assert np.abs(vals - (2.0 / b) * np.cos(w * s)).max() <= 1e-12
    assert np.abs(derivs + (2.0 / b) * w * np.sin(w * s)).max() <= 1e-12
    Y = np.stack([np.zeros_like(s), s], axis=1)
    _, bound = kernels.projection_gradient(surface, mode, np.zeros_like(Y), Y)
    assert np.array_equal(errs, np.full(41, bound))
    # the target's time is a read-only property, not a field
    assert kernel.t == math.inf
    with pytest.raises(AttributeError):
        kernel.t = 1.0
    assert [f.name for f in dataclasses.fields(Projection)] == ["mode"]
    assert kernel == Projection(mode) and hash(kernel) == hash(Projection(mode))
    assert repr(kernel) == f"Projection(mode={mode!r})"


@pytest.mark.parametrize("n", [2.5, -3, 0, "8"])
def test_radial_curve_refuses_bad_sample_counts(n):
    with pytest.raises(InvalidParameter, match="n must be an integer"):
        radial_curve(torus(0.3, 1.2), Heat(0.5), (0, 0), (1, 0), n=n)


def test_radial_curve_refuses_more_samples_than_the_budget(monkeypatch):
    monkeypatch.setattr(kernels, "TERM_BUDGET", 100)
    assert len(radial_curve(torus(0.3, 1.2), Heat(0.5), (0, 0), (1, 0), n=100)[0]) == 100
    with pytest.raises(InvalidParameter, match="budget of 100"):
        radial_curve(torus(0.3, 1.2), Heat(0.5), (0, 0), (1, 0), n=101)


def test_radial_curve_of_the_heat_kernel_needs_a_time():
    with pytest.raises(InvalidParameter, match="time"):
        radial_curve(klein_bottle(0.8), Heat(), (0.1, 0.2), (0, 1))


def test_scans_do_not_depend_on_the_worker_count(monkeypatch):
    """One worker runs the tasks in the calling thread, three run them in a
    pool: a three-base, three-time Klein heat scan and a three-base torus
    projection scan give the same witnesses, counts and verdicts either way."""
    gen = torus(0.3, 1.2)
    size = dict(n_directions=24, n_arc_samples=16)
    jobs = [(klein_bottle(0.8), Heat(),
             ScanConfig(t_values=(0.05, 0.5, 4.0),
                        base_points=((0.1, 0.2), (0.3, 0.55), (0.45, 0.9)), **size)),
            (gen, Projection(principal_eigenvalue(gen)),
             ScanConfig(base_points=((0.0, 0.0), (0.2, 0.1), (0.4, 0.7)), **size))]
    reports = {}
    for threads in (1, 3):
        monkeypatch.setenv("FLAT_HEAT_THREADS", str(threads))
        assert flatheat.worker_count() == threads
        reports[threads] = [scan(*job) for job in jobs]
    for one, three in zip(reports[1], reports[3]):
        assert one.witnesses and one.witnesses == three.witnesses
        assert (one.verdict, one.inconclusive_count, one.points_checked) == \
            (three.verdict, three.inconclusive_count, three.points_checked)


@pytest.mark.parametrize("kernel", ["heat", None])
def test_radial_curve_refuses_other_kernels_as_scan_does(kernel):
    with pytest.raises(InvalidParameter, match=r"Heat\(\.\.\.\) or Projection"):
        radial_curve(torus(0.3, 1.2), kernel, (0, 0), (1, 0), n=8)


def test_radial_curve_ends_at_minimal_geodesic():
    kb = klein_bottle(1.3)
    for base, direction in (((3.2, 0.4), (0.6, 0.35)), ((-0.7, 1.1), (-0.2, 1.0))):
        s, _, _, _ = radial_curve(kb, Heat(0.5), base, direction, n=16)
        assert s[-1] == minimal_geodesic(kb, base, direction).s_max


# ---------------------------------------------------------------------------
# closed-form counterexamples


def test_generic_counterexample_record(generic_torus):
    rec = counterexample_generic(0.3, 1.2)
    assert rec.kind == "generic"
    # cut distance along the vertical: (a^2 + b^2) / (2 b), normalized by b
    assert abs(rec.s_star - (0.3 ** 2 + 1.2 ** 2) / (2 * 1.2 ** 2)) < 1e-12
    assert abs(rec.s_star - 0.53125) < 1e-12
    assert rec.formula_deviation <= 1e-12
    assert rec.increase > 0.0
    assert rec.witness.radial_derivative > rec.witness.error_bound
    assert len(rec.s_values) == 100


def test_generic_counterexample_small_a():
    # s_star - 1/2 = a^2 / (2 b^2) shrinks quadratically with the skew
    rec = counterexample_generic(0.01, 2.0)
    assert abs(rec.s_star - 0.5 - 0.01 ** 2 / (2 * 2.0 ** 2)) < 1e-12
    assert rec.increase > 0.0


def test_generic_counterexample_rejects_other_classes():
    with pytest.raises(WrongLatticeClass):
        counterexample_generic(0.5, HONEYCOMB_B)
    with pytest.raises(WrongLatticeClass):
        counterexample_generic(0.0, 1.0)
    with pytest.raises(WrongLatticeClass):
        counterexample_generic(0.3, math.sqrt(1 - 0.09))


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_generic_counterexample_huge_b_ends_in_a_typed_error():
    # b^2 overflows; the closed form must not square b, and what fails after
    # it (the principal eigenvalue underflows to 0) fails with a typed error
    with pytest.raises(InvalidParameter):
        counterexample_generic(0.3, 1e200)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_large_time_constructions_across_the_moduli_space():
    """On tori a in {0.1, 0.3}, b from 2 to 1e12 and Klein bottles of heights
    1e-8 to 1e12, counterexample_generic and asymptotic_violation each
    return their record or raise a FlatHeatError, and nothing warns.  Up to
    b = 1e2 the generic counterexample certifies; from 1e3 on its samples
    differ by a few ulps and "expected strict increase" fails (rounding is
    not yet part of the certificate)."""
    certified = []
    for a in (0.1, 0.3):
        for b in [2.0, 10.0] + [10.0 ** k for k in range(2, 13)]:
            try:
                counterexample_generic(a, b)
                certified.append(b)
            except flatheat.FlatHeatError:
                pass
            with pytest.raises(NotSimple):
                asymptotic_violation(torus(a, b))
    assert {2.0, 10.0, 100.0} <= set(certified)
    for k in range(-8, 13):
        try:
            rec = asymptotic_violation(klein_bottle(10.0 ** k))
        except flatheat.FlatHeatError:
            continue
        assert rec.difference > rec.error_sum


def test_revalidate_projects_onto_lambda_1_on_a_long_torus():
    """On torus(0.3, 2e5), lambda_1 = (2 pi / b)^2 is below 1e-9.  A
    projection witness carrying it revalidates with the lambda_1 mode,
    whose projection P(0, (0, s)) = (2 / b) cos(2 pi s / b) has the
    derivative -(4 pi / b^2) sin(2 pi s / b) along the vertical geodesic."""
    b = 2e5
    surface = torus(0.3, b)
    mode = principal_eigenvalue(surface)
    s = 0.6 * b
    deriv, err = monotonicity._radial_at(surface, Projection(mode), np.zeros(2),
                                         np.array([0.0, 1.0]), s, None)
    witness = flatheat.ViolationWitness(
        base=(0.0, 0.0), direction=(0.0, 1.0), s=s, t=math.inf, radial_derivative=deriv,
        error_bound=err, kernel="projection", eigenvalue=mode.eigenvalue)
    assert revalidate(surface, witness, 1e-12) == (deriv, err)
    closed = -(4.0 * math.pi / b ** 2) * math.sin(2.0 * math.pi * s / b)
    assert deriv > 0 and abs(deriv - closed) <= 1e-9 * closed


def test_isosceles_counterexample_records():
    for a in (0.1, 0.3, 0.45):
        rec = counterexample_isosceles(a)
        b = math.sqrt(1 - a * a)
        assert rec.kind == "isosceles"
        assert abs(rec.extras["xi_dot_eta"]) <= 1e-14
        assert rec.formula_deviation <= 1e-12
        assert rec.extras["directional_derivative"] > 0.0
        # the reported center is equidistant from 0 and both unit-cell corners
        z = np.array(rec.extras["z_star"])
        r0 = np.hypot(*z)
        for corner in ((-a, b), (1 - a, b)):
            assert abs(np.hypot(*(z - corner)) - r0) < 1e-12
        # certified positive: derivative beats the scaled error bound
        assert (rec.extras["directional_derivative"]
                > 10.0 * r0 * rec.witness.error_bound)


def test_isosceles_rejects_wrong_class():
    with pytest.raises(WrongLatticeClass):
        counterexample_isosceles(0.0)


_INFLATED_BOUND_SCRIPT = """
import sys
from flatheat import CertificationFailed, monotonicity
if not sys.flags.optimize:
    sys.exit(4)  # the point is to run with asserts stripped
real = monotonicity.projection_gradient
def inflated(*args, **kwargs):
    grad, _ = real(*args, **kwargs)
    return grad, 1e6  # error bound far above any derivative
monotonicity.projection_gradient = inflated
try:
    monotonicity.counterexample_isosceles(0.3)
except CertificationFailed as exc:
    print(exc)
    sys.exit(0)
sys.exit(3)
"""


def test_certificate_survives_optimize_flag():
    # python -O strips asserts; an uncertified witness must still be refused
    src = os.path.dirname(os.path.dirname(os.path.abspath(flatheat.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-O", "-c", _INFLATED_BOUND_SCRIPT],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "not certifiably positive" in proc.stdout


def test_klein_counterexample_wide():
    rec = counterexample_klein(1.5, xi=0.2)
    assert rec.kind == "klein-projection"
    gap = min(2 * 0.2, 1 - 2 * 0.2)
    assert abs(rec.s_star - (gap ** 2 + 1.5 ** 2) / (2 * 1.5 ** 2)) < 1e-9
    assert rec.formula_deviation <= 1e-12
    assert rec.increase > 0.0


def test_klein_counterexample_square_width():
    rec = counterexample_klein(1.0, xi=0.25)
    assert rec.kind == "klein-projection"
    assert abs(rec.s_star - 0.625) < 1e-9
    assert rec.formula_deviation <= 1e-12
    # at xi = 1/4 the horizontal eigenfunction vanishes on the geodesic, so
    # the projection restricts to 2 cos(2 pi s)
    s = np.asarray(rec.s_values)
    assert np.abs(np.asarray(rec.p_values) - 2 * np.cos(2 * math.pi * s)).max() < 1e-12


def test_klein_counterexample_narrow_uses_asymptotic():
    rec = counterexample_klein(0.8)
    assert rec.kind == "klein-asymptotic"
    assert rec.witness.kernel == "heat"
    assert rec.witness.t == rec.extras["t_threshold"]
    assert rec.witness.radial_derivative > rec.witness.error_bound
    assert rec.increase > 0.0


def test_asymptotic_violation_klein_narrow():
    out = asymptotic_violation(klein_bottle(0.8))
    assert abs(out.t_threshold - 0.125) < 1e-12
    assert 0.0 < out.phi_x < out.phi_y
    assert out.difference > out.error_sum


def test_asymptotic_violation_requires_simple_eigenvalue():
    with pytest.raises(NotSimple):
        asymptotic_violation(torus(0.0, 1.0))
    with pytest.raises(NotSimple):
        asymptotic_violation(klein_bottle(1.5))


# ---------------------------------------------------------------------------
# critical-point census


def test_census_honeycomb_counts_and_locations(honeycomb_torus):
    res = critical_point_census(honeycomb_torus, 0.5, grid=128)
    assert res.counts == (1, 2, 3)
    assert res.index_sum == 0
    assert np.abs(np.array(res.maxima[0])).max() < 1e-9
    minima = np.array(res.minima)
    expected_min = np.array([[1 / 3, 2 / 3], [2 / 3, 1 / 3]])
    assert np.abs(np.sort(minima, axis=0) - np.sort(expected_min, axis=0)).max() < 1e-9
    saddles = np.array(res.saddles)
    expected_sad = np.array([[0.0, 0.5], [0.5, 0.0], [0.5, 0.5]])
    assert np.abs(np.sort(saddles, axis=0) - np.sort(expected_sad, axis=0)).max() < 1e-9


def test_census_square_counts(square_torus):
    res = critical_point_census(square_torus, 0.4, grid=64)
    assert res.counts == (1, 1, 2)
    assert res.index_sum == 0
    assert np.abs(np.array(res.minima) - [[0.5, 0.5]]).max() < 1e-9


def test_census_generic_counts(generic_torus):
    res = critical_point_census(generic_torus, 0.3, grid=128)
    assert res.counts == (1, 1, 2)
    assert res.index_sum == 0


def test_census_stable_under_grid_refinement(honeycomb_torus):
    coarse = critical_point_census(honeycomb_torus, 0.2, grid=256)
    fine = critical_point_census(honeycomb_torus, 0.2, grid=512)
    assert coarse.counts == fine.counts
    for group in ("maxima", "minima", "saddles"):
        c = np.sort(np.array(getattr(coarse, group)), axis=0)
        f = np.sort(np.array(getattr(fine, group)), axis=0)
        assert np.abs(c - f).max() < 1e-8


def test_census_rejects_bad_inputs(square_torus, klein13):
    with pytest.raises(InvalidParameter):
        critical_point_census(square_torus, 0.5, grid=32)
    with pytest.raises(InvalidParameter):
        critical_point_census(klein13, 0.5)


def test_census_refuses_grids_over_the_work_budget(square_torus, monkeypatch):
    monkeypatch.setattr(kernels, "TERM_BUDGET", 64 * 64 - 1)
    with pytest.raises(InvalidParameter):
        critical_point_census(square_torus, 0.5, grid=64)


def test_census_rejects_non_integer_grid(square_torus):
    for grid in (64.0, 128.5, "64"):
        with pytest.raises(InvalidParameter):
            critical_point_census(square_torus, 0.5, grid=grid)
    assert critical_point_census(square_torus, 0.4, grid=np.int64(64)).counts == (1, 1, 2)


def _census_per_cell(surface, t, grid):
    """Reference census: Newton refinement one seed cell at a time, one
    5-point gradient call per step, as the census did before batching."""
    B = surface.lattice.basis
    Binv = np.linalg.inv(B)
    lam1 = principal_eigenvalue(surface).eigenvalue
    eps = max(math.exp(-lam1 * t) * math.sqrt(lam1) / surface.area * 1e-9, 1e-280)
    coords = np.stack(np.meshgrid(np.arange(grid) / grid, np.arange(grid) / grid,
                                  indexing="ij"), axis=-1)
    G, _ = monotonicity._census_gradient(surface, t, coords @ B, eps)
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
    found = []
    for i, j in np.argwhere(cells):
        y = (np.array([i + 0.5, j + 0.5]) / grid) @ B
        converged = False
        for _ in range(monotonicity._NEWTON_STEPS):
            g5, _ = monotonicity._census_gradient(surface, t, y[None, :] + offsets, eps)
            g0 = g5[0]
            H = np.stack([(g5[1] - g5[2]) / (2 * h), (g5[3] - g5[4]) / (2 * h)], axis=1)
            H = 0.5 * (H + H.T)
            try:
                step = np.linalg.solve(H, g0)
            except np.linalg.LinAlgError:
                break
            y = y - step
            if np.hypot(*step) < 1e-12:
                converged = True
                break
        if not converged or np.hypot(*g0) > 1e-5 * gscale:
            continue
        c = (y @ Binv) % 1.0
        c[c > 1.0 - 1e-9] = 0.0
        if any(monotonicity._torus_coord_gap(c, c0) < 1e-6 for c0, _ in found):
            continue
        found.append((c, H))
    groups = {"maxima": [], "minima": [], "saddles": []}
    for c, H in found:
        det = float(np.linalg.det(H))
        kind = ("saddles" if det < 0 else
                "maxima" if float(np.trace(H)) < 0 else "minima")
        groups[kind].append((float(c[0]), float(c[1])))
    return {kind: sorted(points) for kind, points in groups.items()}


@pytest.mark.parametrize("a,b", [(0.0, 1.0), (0.5, HONEYCOMB_B), (0.3, 1.2),
                                 (0.3, math.sqrt(1 - 0.09))])
def test_census_matches_per_cell_newton(a, b):
    surface = torus(a, b)
    for t in (0.1, 0.5, 1.0):
        got = critical_point_census(surface, t, grid=64)
        want = _census_per_cell(surface, t, 64)
        for kind, points in want.items():
            assert len(getattr(got, kind)) == len(points), (a, b, t, kind)
            if points:
                assert np.abs(np.array(getattr(got, kind)) - points).max() <= 1e-12


def test_census_gradient_calls_bounded(monkeypatch, honeycomb_torus, square_torus):
    batches = []
    original = monotonicity._census_gradient

    def counted(surface, t, pts, eps):
        batches.append(np.asarray(pts).size // 2)
        return original(surface, t, pts, eps)

    monkeypatch.setattr(monotonicity, "_census_gradient", counted)
    for surface, grid in ((honeycomb_torus, 128), (square_torus, 64), (square_torus, 256)):
        batches.clear()
        critical_point_census(surface, 0.5, grid=grid)
        assert len(batches) <= 1 + monotonicity._NEWTON_STEPS
        assert batches[0] == grid * grid
        assert batches[1] > 5 * 6  # every seed cell of the census in one call


def test_newton_solve_drops_only_singular_cells():
    H = np.array([[[2.0, 1.0], [1.0, 3.0]], [[1.0, 2.0], [2.0, 4.0]], [[4.0, 0.0], [0.0, -1.0]]])
    g = np.array([[1.0, 2.0], [1.0, 1.0], [2.0, 3.0]])
    steps, ok = monotonicity._newton_steps(H, g)
    assert ok.tolist() == [True, False, True]
    for k in (0, 2):
        assert np.array_equal(steps[k], np.linalg.solve(H[k], g[k]))
    steps, ok = monotonicity._newton_steps(H[[0, 2]], g[[0, 2]])
    assert ok.tolist() == [True, True]
    assert np.array_equal(steps, np.stack([np.linalg.solve(H[k], g[k]) for k in (0, 2)]))
