#!/usr/bin/env python3
"""Check and compare the parent and change runs of committed benchmark files (BENCH_*.json).

Each file holds runs of bench/run.py on a parent commit and on a change.  For
every (workload, seed) there must be exactly one parent run and one change
run, and every run must be correct with no failed operation.  Each problem
is printed as an error line.

For each workload and each end-to-end metric that BENCHMARK.json declares, it
prints the median and the quartiles of the parent runs and of the change
runs, the change/parent ratio of the medians, the pairs the change won
(runs matched by seed; a tie wins for neither side) and a verdict against
the metric's bound:

- "worse" is the relative move in the metric's bad direction: the ratio - 1
  for a metric where lower is better, 1 - the ratio where higher is better;
- "better" when every change run reads better than every parent run, however
  wide the spread;
- else "unresolved" when either side's interquartile range, relative to its
  median, is wider than the bound, so the runs cannot place the move;
- else "worse beyond bound" when worse > bound, and "within bound" otherwise.

The rows are the scaled metrics that bench/run.py stores.  A run may also
carry an "unscaled" block, added by hand from what bench/run.py prints:
requests_per_s before scaling and calibration_factor_median.  For each
workload whose parent and change runs carry it, one more row prints the
unscaled requests_per_s the same way, then each side's median calibration
factor; files without the block print no such row.

The comparison rows only print.  The exit code is 1 when a file cannot be
read or has a problem above, else 0.

Usage:
  python3 scripts/compare_bench.py BENCH_*.json
  python3 scripts/compare_bench.py --benchmark BENCHMARK.json BENCH_16.json
"""
import argparse
import collections
import json
import math
import statistics
import sys


def quartiles(values: list) -> tuple[float, float, float]:
    """(q1, median, q3), the quartiles by linear interpolation between runs."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, med, q3


def compare(metric: dict, parent: dict, change: dict) -> dict:
    """The comparison row of one metric; parent and change map seed -> value."""
    lower = metric["better"] == "lower"
    p, c = quartiles(sorted(parent.values())), quartiles(sorted(change.values()))
    ratio = c[1] / p[1]
    worse = ratio - 1.0 if lower else 1.0 - ratio
    spread = max((q[2] - q[0]) / q[1] for q in (p, c))
    seeds = sorted(set(parent) & set(change))
    won = sum((change[s] < parent[s]) if lower else (change[s] > parent[s]) for s in seeds)
    if (max(change.values()) < min(parent.values()) if lower
            else min(change.values()) > max(parent.values())):
        verdict = "better"
    elif spread > metric["bound"]:
        verdict = "unresolved"
    elif worse > metric["bound"]:
        verdict = "worse beyond bound"
    else:
        verdict = "within bound"
    return {"parent": p, "change": c, "ratio": ratio, "won": won, "pairs": len(seeds),
            "spread": spread, "verdict": verdict}


def problems(path: str, runs: list) -> list:
    """Unpaired (workload, seed) entries, and runs that are not correct or failed."""
    found = []
    sides = collections.defaultdict(list)
    for run in runs:
        sides[run["workload"], run["seed"]].append(run["side"])
        result = run["result"]
        if result.get("correct") is not True or result.get("failed") != 0:
            found.append(f"{path}: {run['workload']} seed {run['seed']} {run['side']}: "
                         f"correct={result.get('correct')}, failed={result.get('failed')}")
    for (workload, seed), got in sorted(sides.items()):
        if sorted(got) != ["change", "parent"]:
            found.append(f"{path}: {workload} seed {seed} has runs {sorted(got)}, "
                         "not one parent and one change")
    return found


def rows(runs: list, metrics: list) -> list:
    """(workload, metric, row) for every workload of the runs and declared metric."""
    values = collections.defaultdict(dict)  # (workload, side, metric) -> {seed: value}
    for run in runs:
        for name, entry in run["result"]["metrics"].items():
            values[run["workload"], run["side"], name][run["seed"]] = entry["value"]
    out = []
    for workload in dict.fromkeys(run["workload"] for run in runs):
        for metric in metrics:
            parent = values.get((workload, "parent", metric["name"]))
            change = values.get((workload, "change", metric["name"]))
            if parent and change:
                out.append((workload, metric, compare(metric, parent, change)))
    return out


def unscaled_rows(runs: list, metrics: list) -> list:
    """(workload, metric, row, parent and change median calibration factors)
    for every workload whose parent and change runs carry an "unscaled" block;
    the row compares its requests_per_s as the declared requests_per_s metric."""
    metric = next((m for m in metrics if m["name"] == "requests_per_s"), None)
    rates = collections.defaultdict(dict)    # (workload, side) -> {seed: unscaled rate}
    factors = collections.defaultdict(list)  # (workload, side) -> calibration factors
    for run in runs:
        block = run.get("unscaled", {})
        if "requests_per_s" in block:
            rates[run["workload"], run["side"]][run["seed"]] = block["requests_per_s"]
        if "calibration_factor_median" in block:
            factors[run["workload"], run["side"]].append(block["calibration_factor_median"])
    out = []
    for workload in dict.fromkeys(run["workload"] for run in runs):
        parent, change = rates.get((workload, "parent")), rates.get((workload, "change"))
        if metric and parent and change:
            medians = tuple(statistics.median(factors[workload, side])
                            if factors[workload, side] else math.nan
                            for side in ("parent", "change"))
            out.append((workload, metric, compare(metric, parent, change), medians))
    return out


def _fmt(q: tuple) -> str:
    return f"{q[1]:.4g} [{q[0]:.4g}, {q[2]:.4g}]"


def _fmt_row(row: dict, metric: dict) -> str:
    return (f"parent {_fmt(row['parent'])}  change {_fmt(row['change'])}  "
            f"ratio {row['ratio']:.3f} ({100.0 * (row['ratio'] - 1.0):+.1f}%)  "
            f"won {row['won']}/{row['pairs']}  "
            f"{row['verdict']} (bound {metric['bound']:g}, spread {row['spread']:.3f})")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("files", nargs="+", help="BENCH_*.json files")
    p.add_argument("--benchmark", default="BENCHMARK.json",
                   help="the file declaring the end-to-end metrics and their bounds")
    args = p.parse_args(argv)
    try:
        with open(args.benchmark, encoding="utf-8") as fh:
            metrics = json.load(fh)["end_to_end"]
        files = []
        for path in args.files:
            with open(path, encoding="utf-8") as fh:
                runs = json.load(fh)["runs"]
            files.append((path, len(runs), problems(path, runs), rows(runs, metrics),
                          unscaled_rows(runs, metrics)))
    except (OSError, KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for path, count, found, table, unscaled in files:
        for line in found:
            print(f"error: {line}")
        print(f"{path}: {count} runs, {'problems found' if found else 'ok'}; "
              "median [q1, q3] per side, ratio change/parent, pairs won by the change")
        for workload, metric, row in table:
            print(f"  {workload:<11} {metric['name']:<20} {_fmt_row(row, metric)}")
        for workload, metric, row, (f_parent, f_change) in unscaled:
            print(f"  {workload:<11} unscaled {metric['name']} {_fmt_row(row, metric)}; "
                  f"calibration factor median parent {f_parent:.4g}, change {f_change:.4g}")
    return 1 if any(found for _, _, found, _, _ in files) else 0


if __name__ == "__main__":
    sys.exit(main())
