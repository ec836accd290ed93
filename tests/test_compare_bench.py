"""scripts/compare_bench.py: run checks, medians, pairs won and verdicts against a bound."""
import importlib.util
import json
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "compare_bench", Path(__file__).resolve().parents[1] / "scripts" / "compare_bench.py")
compare_bench = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(compare_bench)

LOWER = {"name": "kernel_query_us_p50", "better": "lower", "bound": 0.25}
HIGHER = {"name": "requests_per_s", "better": "higher", "bound": 0.25}


@pytest.mark.parametrize("metric, parent, change, verdict, won", [
    (LOWER, [100, 101, 102, 103, 104], [110, 111, 112, 113, 114], "within bound", 0),
    (LOWER, [100, 101, 102, 103, 104], [130, 131, 132, 133, 134], "worse beyond bound", 0),
    (LOWER, [60, 70, 102, 140, 160], [90, 91, 92, 93, 94], "unresolved", 3),
    (LOWER, [100, 130, 150, 170, 190], [50, 60, 75, 90, 95], "better", 5),
    (HIGHER, [60, 70, 80, 90, 100], [101, 130, 150, 170, 190], "better", 5),
    (HIGHER, [100, 101, 102, 103, 104], [70, 71, 72, 73, 74], "worse beyond bound", 0),
    (HIGHER, [100, 101, 102, 103, 104], [90, 91, 120, 93, 94], "within bound", 1),
])
def test_verdicts_against_the_bound(metric, parent, change, verdict, won):
    row = compare_bench.compare(metric, dict(enumerate(parent)), dict(enumerate(change)))
    assert row["verdict"] == verdict
    assert row["won"] == won and row["pairs"] == 5
    assert row["ratio"] == pytest.approx(sorted(change)[2] / sorted(parent)[2])


def _write(tmp_path, runs):
    bench = tmp_path / "BENCH_1.json"
    bench.write_text(json.dumps({"runs": runs}))
    spec = tmp_path / "BENCHMARK.json"
    spec.write_text(json.dumps({"end_to_end": [HIGHER, LOWER]}))
    return ["--benchmark", str(spec), str(bench)]


def _runs(workloads=("requests", "klein-scan"), seeds=(1, 2, 3)):
    return [{"workload": w, "seed": seed, "side": side,
             "result": {"correct": True, "attempted": 10, "failed": 0,
                        "metrics": {"requests_per_s": {"value": value, "unit": "1/s"}}}}
            for w in workloads for seed in seeds
            for side, value in (("parent", 10.0 + seed), ("change", 11.0 + seed))]


def test_prints_one_row_per_workload_and_metric(tmp_path, capsys):
    assert compare_bench.main(_write(tmp_path, _runs())) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].endswith("BENCH_1.json: 12 runs, ok; median [q1, q3] per side, "
                             "ratio change/parent, pairs won by the change")
    assert len(lines[1:]) == 2  # no kernel_query_us_p50 runs, so no row for it
    assert all("ratio 1.083 (+8.3%)  won 3/3  within bound" in line for line in lines[1:])


def test_unpaired_run_exits_1_and_still_prints_rows(tmp_path, capsys):
    runs = _runs(workloads=("requests",))
    runs += [dict(runs[0], seed=4)]  # a parent run with no change run
    assert compare_bench.main(_write(tmp_path, runs)) == 1
    out = capsys.readouterr().out
    assert ("error: " in out
            and "requests seed 4 has runs ['parent'], not one parent and one change" in out)
    assert "problems found" in out and "won 3/3" in out


@pytest.mark.parametrize("result", [{"correct": False, "failed": 0}, {"correct": True, "failed": 2},
                                    {"failed": 0}])
def test_failed_or_incorrect_run_exits_1(tmp_path, capsys, result):
    runs = _runs(workloads=("requests",))
    runs[3]["result"].update(result)
    if "correct" not in result:
        del runs[3]["result"]["correct"]
    assert compare_bench.main(_write(tmp_path, runs)) == 1
    out = capsys.readouterr().out
    assert f"error: {tmp_path / 'BENCH_1.json'}: requests seed 2 change: " in out
    assert "problems found" in out
