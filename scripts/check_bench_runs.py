#!/usr/bin/env python3
"""Check committed benchmark comparisons (BENCH_*.json) for complete, clean pairs.

Each file holds runs of bench/run.py on a parent commit and on a change.  For
every (workload, seed) there must be exactly one parent run and one change
run, and every run must be correct with no failed operation.  Prints each
problem and exits 1 if there is one, else prints a summary line per file.

Usage:
  python3 scripts/check_bench_runs.py BENCH_*.json
"""
import argparse
import collections
import json
import sys


def problems(path: str) -> tuple[int, list]:
    """The number of runs in the file and the problems found in it."""
    with open(path, encoding="utf-8") as fh:
        runs = json.load(fh)["runs"]
    found = []
    sides = collections.defaultdict(list)
    for run in runs:
        where = f"{path}: {run['workload']} seed {run['seed']} {run['side']}"
        sides[run["workload"], run["seed"]].append(run["side"])
        result = run["result"]
        if result.get("correct") is not True or result.get("failed") != 0:
            found.append(f"{where}: correct={result.get('correct')}, failed={result.get('failed')}")
    for (workload, seed), got in sorted(sides.items()):
        if sorted(got) != ["change", "parent"]:
            found.append(f"{path}: {workload} seed {seed} has runs {sorted(got)}, "
                         "not one parent and one change")
    return len(runs), found


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("files", nargs="+", help="BENCH_*.json files")
    args = p.parse_args(argv)
    bad = False
    for path in args.files:
        count, found = problems(path)
        for line in found:
            print(f"error: {line}")
        bad = bad or bool(found)
        print(f"{path}: {count} runs, {'problems found' if found else 'ok'}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
