"""Command line interface: report structure, exit codes, determinism."""
import json
import math
import re
from pathlib import Path

import jsonschema
import numpy as np
import pytest
import yaml

from flatheat import cli, counterexample_klein, kernels
from flatheat.cli import main, render_report
from flatheat.errors import InvalidParameter

try:
    from importlib.resources import files
except ImportError:  # pragma: no cover
    files = None

SCHEMA = json.loads(files("flatheat").joinpath("report_schema.json").read_text())

HC = f"{math.sqrt(3.0) / 2.0!r}"


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_valid(capsys, argv):
    code, out, err = run(capsys, argv)
    assert code == 0, err
    doc = yaml.safe_load(out)
    jsonschema.validate(doc, SCHEMA)
    return doc


def test_reduce_report(capsys):
    doc = run_valid(capsys, ["reduce", "--u", "3,1", "--v", "1,2"])
    r = doc["results"]
    assert doc["command"] == "reduce"
    assert r["lattice_class"] == "Square"
    assert abs(r["a"]) < 1e-12
    assert abs(r["b"] - 1.0) < 1e-12
    assert abs(r["scale"] - math.sqrt(5.0)) < 1e-12
    assert r["reconstruction_error"] < 1e-12
    assert all(isinstance(x, int) for row in r["basis_change"] for x in row)


def test_classify_report(capsys):
    doc = run_valid(capsys, ["classify", "--a", "0.5", "--b", HC])
    assert doc["results"]["lattice_class"] == "Honeycomb"
    assert doc["surface"]["kind"] == "torus"
    assert abs(doc["surface"]["a"] - 0.5) < 1e-15


def test_kernel_report_both_representations(capsys):
    base = ["kernel", "--a", "0", "--b", "1", "--x", "0,0", "--y", "0.25,0.25",
            "--t", "0.5", "--eps", "1e-11"]
    docs = [run_valid(capsys, base + ["--rep", rep])
            for rep in ("spectral", "image")]
    assert {d["results"]["representation_used"] for d in docs} == \
        {"spectral", "image"}
    vals = [d["results"]["value"] for d in docs]
    assert abs(vals[0] - vals[1]) <= sum(d["results"]["error_bound"]
                                         for d in docs)


def test_kernel_klein_surface_block(capsys):
    doc = run_valid(capsys, ["kernel", "--klein", "--b", "1.5", "--x", "0,0",
                             "--y", "0,0.9", "--t", "0.3"])
    assert doc["surface"]["kind"] == "klein"
    assert doc["results"]["value"] > 0


def test_scan_monotone_report(capsys):
    doc = run_valid(capsys, ["scan", "--a", "0.5", "--b", HC,
                             "--t-list", "0.1,1", "--dirs", "24",
                             "--samples", "12"])
    r = doc["results"]
    assert r["verdict"] == "monotone"
    assert r["witness_count"] == 0
    assert r["points_checked"] == (24 + 5) * 12 * 2


def test_scan_violated_exit_code(capsys):
    code, out, err = run(capsys, ["scan", "--a", "0.3", "--b", "1.2",
                                  "--t-list", "1,2", "--dirs", "24",
                                  "--samples", "16", "--expect", "monotone"])
    assert code == 3
    doc = yaml.safe_load(out)
    jsonschema.validate(doc, SCHEMA)
    assert doc["results"]["verdict"] == "violated"
    assert doc["results"]["witness_count"] > 0
    w = doc["results"]["witnesses"][0]
    assert w["radial_derivative"] > w["error_bound"]


def test_counterexample_reports(capsys):
    for argv, kind in [
        (["counterexample", "generic", "--a", "0.3", "--b", "1.2"], "generic"),
        (["counterexample", "isosceles", "--a", "0.3"], "isosceles"),
        (["counterexample", "klein", "--b", "1.5"], "klein-projection"),
        (["counterexample", "klein", "--b", "0.8"], "klein-asymptotic"),
    ]:
        doc = run_valid(capsys, argv)
        assert doc["results"]["kind"] == kind
        assert doc["results"]["increase"] > 0


def test_projection_diag_report(capsys):
    doc = run_valid(capsys, ["projection-diag", "--klein", "--b", "1.3",
                             "--lambda-index", "1", "--grid", "32"])
    r = doc["results"]
    assert r["multiplicity"] == 2
    assert abs(r["eigenvalue"] - (2 * math.pi / 1.3) ** 2) < 1e-9
    assert r["spread"] < 1e-10  # index 1 has a constant diagonal


def test_census_report(capsys):
    doc = run_valid(capsys, ["census", "--a", "0.5", "--b", HC,
                             "--t", "0.5", "--grid", "128"])
    counts = doc["results"]["counts"]
    assert (counts["maxima"], counts["minima"], counts["saddles"]) == (1, 2, 3)
    assert doc["results"]["index_sum"] == 0


def test_pde_check_report(capsys):
    doc = run_valid(capsys, ["pde-check", "--a", "0", "--b", "1",
                             "--t", "0.02", "--n", "32"])
    r = doc["results"]
    assert abs(r["mass_drift"]) < 1e-10
    assert r["rel_linf_error"] < 5e-3


def test_selftest_passes(capsys):
    doc = run_valid(capsys, ["selftest"])
    assert doc["results"]["failed"] == 0
    assert doc["results"]["passed"] == len(doc["results"]["checks"]) == 12
    assert all(c["status"] == "ok" for c in doc["results"]["checks"])


def test_reports_are_deterministic(capsys):
    argv = ["scan", "--a", "0.3", "--b", "1.2", "--t-list", "1",
            "--dirs", "12", "--samples", "8"]
    _, first, _ = run(capsys, argv)
    _, second, _ = run(capsys, argv)
    assert first == second


def test_timing_flag_adds_wall_time(capsys):
    doc = run_valid(capsys, ["classify", "--a", "0", "--b", "1", "--timing"])
    assert doc["wall_time_seconds"] >= 0
    doc = run_valid(capsys, ["classify", "--a", "0", "--b", "1"])
    assert "wall_time_seconds" not in doc


def test_csv_output(capsys, tmp_path):
    path = tmp_path / "curve.csv"
    run_valid(capsys, ["kernel", "--a", "0", "--b", "1", "--x", "0,0",
                       "--y", "0,0.3", "--t", "0.25", "--csv", str(path)])
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "s,value,derivative,error_bound"
    assert len(lines) > 50
    first = lines[1].split(",")
    assert len(first) == 4
    float(first[1])  # parseable numbers


def test_counterexample_csv_writes_the_record_samples(capsys, tmp_path):
    path = tmp_path / "klein.csv"
    doc = run_valid(capsys, ["counterexample", "klein", "--b", "1.5", "--csv", str(path)])
    rec = counterexample_klein(1.5)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "s,value,derivative,error_bound"
    rows = [tuple(map(float, line.split(","))) for line in lines[1:]]
    assert len(rows) == len(rec.s_values) == doc["results"]["sample_count"]
    assert [r[:3] for r in rows] == list(zip(rec.s_values, rec.p_values, rec.dp_values))
    assert all(r[3] == rec.witness.error_bound for r in rows)


def test_csv_rejected_for_non_curve_commands(capsys, tmp_path):
    code, _, err = run(capsys, ["classify", "--a", "0", "--b", "1",
                                "--csv", str(tmp_path / "x.csv")])
    assert code == 1
    assert "--csv" in err


def test_usage_errors_exit_1(capsys):
    code, _, _ = run(capsys, ["kernel", "--a", "0", "--b", "1"])
    assert code == 1
    code, _, _ = run(capsys, ["scan", "--a", "0", "--b", "1",
                              "--t-list", "not-a-number"])
    assert code == 1
    code, _, _ = run(capsys, ["no-such-command"])
    assert code == 1


def test_negative_number_lists_as_separate_tokens(capsys):
    kernel = ["kernel", "--a", "0.3", "--b", "1.2", "--y", "0.1,0.1", "--t", "0.5"]
    code, spaced, err = run(capsys, kernel + ["--x", "-0.3,0.2"])
    assert code == 0, err
    _, joined, _ = run(capsys, kernel + ["--x=-0.3,0.2"])
    assert spaced == joined
    assert yaml.safe_load(spaced)["parameters"]["x"] == [-0.3, 0.2]
    doc = run_valid(capsys, ["reduce", "--u", "-3,1", "--v", "-1,-2"])
    assert abs(doc["results"]["scale"] - math.sqrt(5.0)) < 1e-12
    # a negative time list reaches the evaluator: domain error, not usage error
    code, _, _ = run(capsys, ["scan", "--a", "0", "--b", "1", "--t-list", "-1,2"])
    assert code == 2
    # a genuinely missing value is still a usage error
    code, _, _ = run(capsys, kernel + ["--x"])
    assert code == 1
    code, _, err = run(capsys, ["kernel", "--a", "0.3", "--b", "1.2", "--x",
                                "--y", "0.1,0.1", "--t", "0.5"])
    assert code == 1
    assert "--x" in err


def test_domain_errors_exit_2(capsys):
    code, _, err = run(capsys, ["kernel", "--a", "0", "--b", "1", "--x", "0,0",
                                "--y", "0,0", "--t", "-1"])
    assert code == 2
    assert "NonPositiveTime" in err
    code, _, err = run(capsys, ["census", "--a", "0.3", "--b", "1.2",
                                "--t", "0.5", "--grid", "32"])
    assert code == 2
    point = ["--x", "0,0", "--y", "0.1,0.1", "--t", "0.5"]
    for argv in (["classify", "--a", "0.25", "--b", "0.968"],
                 ["classify", "--a", "0", "--b", "1", "--tol", "nan"],
                 ["classify", "--a", "0", "--b", "1", "--tol", "-1"],
                 ["kernel", "--a", "0.6", "--b", "1"] + point,
                 ["kernel", "--b", "nan"] + point,
                 ["kernel", "--a", "0", "--b", "inf"] + point,
                 ["counterexample", "generic", "--b", "0.5"],
                 ["counterexample", "generic", "--a", "0.3", "--b", "1e200"],
                 ["projection-diag", "--b", "1", "--lambda-index", "1", "--grid", "0"],
                 ["projection-diag", "--b", "1", "--lambda-index", "1", "--grid", "-3"],
                 ["pde-check", "--a", "0", "--b", "1", "--t", "0.05", "--n", "0"],
                 ["pde-check", "--a", "0", "--b", "1", "--t", "nan", "--n", "16"],
                 ["pde-check", "--a", "0", "--b", "1", "--t", "inf", "--n", "16"]):
        code, out, err = run(capsys, argv)
        assert (code, out) == (2, ""), argv
        assert err.startswith("error: InvalidParameter: "), (argv, err)


def test_census_at_a_large_negative_time_exits_2(capsys):
    """The census checks t before it forms e^{-lambda_1 t}, which overflows
    at t = -1000."""
    code, out, err = run(capsys, ["census", "--a", "0", "--b", "1", "--t", "-1000",
                                  "--grid", "64"])
    assert (code, out) == (2, "")
    assert err.startswith("error: NonPositiveTime: ")


def test_pde_check_past_a_float_step_count_exits_2(capsys):
    """At t = 1e308 the count of Euler steps overflows to inf; t = 1e300 runs."""
    code, out, err = run(capsys, ["pde-check", "--a", "0", "--b", "1", "--t", "1e308",
                                  "--n", "16"])
    assert (code, out) == (2, "")
    assert err.startswith("error: InvalidParameter: the step count")
    run_valid(capsys, ["pde-check", "--a", "0", "--b", "1", "--t", "1e300", "--n", "16"])


def test_pde_check_over_the_work_budget_exits_2(capsys, monkeypatch):
    monkeypatch.setattr(kernels, "TERM_BUDGET", 32 * 32 - 1)
    code, out, err = run(capsys, ["pde-check", "--a", "0", "--b", "1",
                                  "--t", "0.02", "--n", "32"])
    assert (code, out) == (2, "")
    assert err.startswith("error: InvalidParameter: grid resolution 32")


def test_long_torus_spectral_commands(capsys):
    """At b = 1e6, lambda_1 = (2 pi / b)^2 is about 4e-11.  projection-diag
    finds it by index, and the generic counterexample ends in a typed error
    (its certificate, not yet rounding-aware, fails), never in a traceback.
    An index whose enumeration passes the point budget exits 2."""
    doc = run_valid(capsys, ["projection-diag", "--a", "0.3", "--b", "1e6",
                             "--lambda-index", "1", "--grid", "8"])
    r = doc["results"]
    assert r["multiplicity"] == 2
    assert abs(r["eigenvalue"] - (2 * math.pi / 1e6) ** 2) <= 1e-12 * r["eigenvalue"]
    code, out, err = run(capsys, ["counterexample", "generic", "--a", "0.3", "--b", "1e6"])
    assert (code, out) == (2, "")
    assert err.startswith("error: CertificationFailed: ")
    code, out, err = run(capsys, ["projection-diag", "--b", "1", "--lambda-index", "1" + "0" * 400])
    assert (code, out) == (2, "")
    assert err.startswith("error: InvalidParameter: ")


def test_projection_diag_over_the_work_budget_exits_2(capsys, monkeypatch):
    monkeypatch.setattr(kernels, "TERM_BUDGET", 32 * 32 - 1)
    code, out, err = run(capsys, ["projection-diag", "--b", "1", "--lambda-index", "1",
                                  "--grid", "32"])
    assert (code, out) == (2, "")
    assert err.startswith("error: InvalidParameter: grid size 32")


def test_kernel_over_the_work_budget_exits_2(capsys, monkeypatch):
    monkeypatch.setattr(kernels, "WORK_BUDGET", 10)
    code, out, err = run(capsys, ["kernel", "--a", "0.3", "--b", "1.2", "--x", "0,0",
                                  "--y", "0.25,0.1", "--t", "0.2", "--rep", "spectral"])
    assert (code, out) == (2, "")
    assert err.startswith("error: ToleranceUnreachable: ")
    assert "more than the budget of 10" in err


def test_reduce_huge_basis(capsys):
    doc = run_valid(capsys, ["reduce", "--u", "1e300,0", "--v", "0,1e300"])
    assert doc["results"]["lattice_class"] == "Square"
    assert doc["results"]["scale"] == 1e300


def test_reduce_far_apart_vector_lengths(capsys):
    # |v| / |u| = 1e-170 makes p . p underflow to 0 in the common frame
    doc = run_valid(capsys, ["reduce", "--u", "1,0", "--v", "0,1e-170"])
    assert doc["results"]["a"] == 0.0
    assert doc["results"]["lattice_class"] == "Rectangular"
    assert abs(doc["results"]["b"] / 1e170 - 1.0) < 1e-15
    assert abs(doc["results"]["scale"] / 1e-170 - 1.0) < 1e-15
    # b beyond the float range, and a basis change beyond int64, are refused
    for argv in (["reduce", "--u", "1,0", "--v", "0,1e-310"],
                 ["reduce", "--u", "1e-150,0", "--v", "0.5,0.5"]):
        code, out, err = run(capsys, argv)
        assert (code, out) == (2, ""), argv
        assert err.startswith("error: InvalidParameter: "), (argv, err)


def test_parser_built_once(capsys, monkeypatch):
    built = []
    original = cli.argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        if kwargs.get("prog") == "flatheat":
            built.append(self)
        original(self, *args, **kwargs)

    monkeypatch.setattr(cli.argparse.ArgumentParser, "__init__", counted)
    cli.build_parser.cache_clear()
    try:
        codes = [run(capsys, argv)[0] for argv in (
            ["classify", "--a", "0", "--b", "1"], ["no-such-command"],
            ["reduce", "--u", "3,1", "--v", "1,2"], ["classify", "--a", "0", "--b", "1"])]
    finally:
        cli.build_parser.cache_clear()
    assert codes == [0, 1, 0, 0]
    assert len(built) == 1


def test_version_exits_zero(capsys):
    code, out, _ = run(capsys, ["--version"])
    assert code == 0


def test_render_report_exact_bytes():
    envelope = {
        "schema": "flatheat-report/1",
        "nested": {"inner": {"n": 1, "empty_list": [], "empty_dict": {}}},
        "rows": [{"a": 1.5, "b": [1, 2.0]}, {"c": None, "d": {"e": "x"}}],
        "flow": [1, np.float64(2.5), np.int64(-3), math.inf, -math.inf, math.nan],
        "items": [[], {}, [0.5, 1e-10], "true", True, None, np.arange(2)],
        "strings": {"plain": "abc def", "kw": "true", "num": "1e5", "colon": "a: b"},
        "scalars": {"none": None, "yes": True, "no": False, "f64": np.float64(0.1),
                    "i64": np.int64(7), "inf": math.inf, "ninf": -math.inf,
                    "nan": math.nan, "big": 1e20, "tiny": 2.5e-12, "whole": 3.0},
    }
    assert render_report(envelope) == """\
schema: flatheat-report/1
nested:
  inner:
    n: 1
    empty_list: []
    empty_dict: {}
rows:
  - a: 1.5
    b: [1, 2.0]
  - c: null
    d:
      e: x
flow: [1, 2.5, -3, .inf, -.inf, .nan]
items:
  - []
  - {}
  - [0.5, 1.0e-10]
  - "true"
  - true
  - null
  - [0, 1]
strings:
  plain: abc def
  kw: "true"
  num: "1e5"
  colon: "a: b"
scalars:
  none: null
  yes: true
  no: false
  f64: 0.1
  i64: 7
  inf: .inf
  ninf: -.inf
  nan: .nan
  big: 1.0e+20
  tiny: 2.5e-12
  whole: 3.0
"""
    with pytest.raises(InvalidParameter):
        render_report({"rows": [["a", "b"]]})
    for bad in (object(), [object()]):
        with pytest.raises(InvalidParameter):
            render_report({"value": bad})



def test_render_errors_exit_2(capsys, monkeypatch):
    monkeypatch.setattr(cli, "_cmd_classify",
                        lambda args: ({"kind": "torus"}, {}, {"bad": object()}))
    code, out, err = run(capsys, ["classify", "--a", "0", "--b", "1"])
    assert (code, out) == (2, "")
    assert err.startswith("error: InvalidParameter: cannot serialize")


def _assert_matches(got, want, path="report"):
    if isinstance(want, float):
        assert math.isclose(got, want, rel_tol=1e-12), path
    elif isinstance(want, dict):
        assert list(got) == list(want), path
        for key in want:
            _assert_matches(got[key], want[key], f"{path}.{key}")
    elif isinstance(want, list):
        assert len(got) == len(want), path
        for i, (g, w) in enumerate(zip(got, want)):
            _assert_matches(g, w, f"{path}[{i}]")
    else:
        assert (type(got), got) == (type(want), want), path


def test_readme_sample_output(capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    argv = ["kernel", "--a", "0.5", "--b", "0.8660254037844386", "--x", "0,0",
            "--y", "0.25,0.1", "--t", "0.2"]
    assert "flatheat " + " ".join(argv) + "\n" in readme
    sample = re.search(r"Sample output:\n\n```yaml\n(.*?)```", readme, re.S).group(1)
    _assert_matches(run_valid(capsys, argv), yaml.safe_load(sample))
