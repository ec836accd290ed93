"""scripts/compare_bench.py: medians, pairs won and verdicts against a bound."""
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


def test_prints_one_row_per_workload_and_metric(tmp_path, capsys):
    runs = [{"workload": w, "seed": seed, "side": side,
             "result": {"metrics": {"requests_per_s": {"value": value, "unit": "1/s"}}}}
            for w in ("requests", "klein-scan") for seed in (1, 2, 3)
            for side, value in (("parent", 10.0 + seed), ("change", 11.0 + seed))]
    bench = tmp_path / "BENCH_1.json"
    bench.write_text(json.dumps({"runs": runs}))
    spec = tmp_path / "BENCHMARK.json"
    spec.write_text(json.dumps({"end_to_end": [HIGHER, LOWER]}))
    assert compare_bench.main(["--benchmark", str(spec), str(bench)]) == 0
    lines = capsys.readouterr().out.splitlines()[1:]
    assert len(lines) == 2  # no kernel_query_us_p50 runs, so no row for it
    assert all("ratio 1.083 (+8.3%)  won 3/3  within bound" in line for line in lines)
