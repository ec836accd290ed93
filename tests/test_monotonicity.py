"""Geodesic monotonicity scans, counterexample records, and the census."""
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


def test_radial_curve_shapes_and_derivative_consistency(honeycomb_torus):
    s, vals, derivs, errs = radial_curve(honeycomb_torus, Heat(0.3),
                                         (0.0, 0.0), (1.0, 1.0), n=101)
    assert s.shape == vals.shape == derivs.shape == errs.shape == (101,)
    fd = np.gradient(vals, s)
    assert np.abs(fd[2:-2] - derivs[2:-2]).max() < 1e-3


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
