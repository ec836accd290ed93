#!/usr/bin/env python3
"""Run a fixed corpus of flatheat CLI invocations and print a digest of each.

Every invocation runs in this process through ``flatheat.cli.main`` of the
flatheat that Python imports, so PYTHONPATH chooses the checkout.  For each
one the script prints its expected and actual exit codes and a SHA-256 of its
stdout, of its stderr and of the CSV it writes ("-" when it writes none).
Two checkouts render byte-identical reports, errors and CSVs exactly when
their printouts are the same:

    diff <(PYTHONPATH=/path/to/other/src python3 scripts/cli_corpus.py) \\
         <(PYTHONPATH=src python3 scripts/cli_corpus.py)

Exits 1 if an exit code differs from the one listed beside its invocation.
No report is run with --timing, whose wall time differs from run to run.
"""
import contextlib
import hashlib
import io
import shlex
import sys
import tempfile
from pathlib import Path

from flatheat import cli

# (expected exit code, arguments); "{csv}" stands for a fresh CSV path
CORPUS = [
    (0, "reduce --u 3,1 --v 1,2"),
    (0, "classify --a 0.5 --b 0.8660254037844386"),
    (0, "kernel --a 0.5 --b 0.8660254037844386 --x 0,0 --y 0.25,0.1 --t 0.2 --csv {csv}"),
    (0, "kernel --klein --b 0.8 --x 0.1,0.2 --y 0.1,0.2 --t 0.3 --csv {csv}"),
    (0, "kernel --a 0.3 --b 1.2 --x 0,0 --y 0.4,0.5 --t 0.05 --rep image"),
    (0, "scan --a 0.3 --b 1.2 --t-list 1,2 --dirs 24 --samples 16 --csv {csv}"),
    (0, "scan --klein --b 0.8 --t-list 0.05,0.5 --dirs 12 --samples 8 --csv {csv}"),
    (0, "scan --a 0.5 --b 0.8660254037844386 --t-list 0.5 --dirs 24 --samples 16 --csv {csv}"),
    (0, "scan --a 0.3 --b 1.2 --t-list 0.05,1 --dirs 25 --samples 16 --csv {csv}"),
    (0, "scan --a 0 --b 1.5 --t-list 0.02,0.5 --dirs 24 --samples 16 --csv {csv}"),
    (3, "scan --a 0.3 --b 1.2 --t-list 1,2 --dirs 24 --samples 16 --expect monotone"),
    (0, "counterexample generic --a 0.3 --b 1.2 --csv {csv}"),
    (0, "counterexample isosceles --a 0.3 --csv {csv}"),
    (0, "counterexample klein --b 1.5 --xi 0.2 --csv {csv}"),
    (0, "counterexample klein --b 1 --csv {csv}"),
    (0, "counterexample klein --b 0.8 --csv {csv}"),
    (0, "projection-diag --klein --b 1.3 --lambda-index 2"),
    (0, "projection-diag --a 0.3 --b 1e6 --lambda-index 1 --grid 8"),
    (0, "census --a 0.5 --b 0.8660254037844386 --t 0.5"),
    (0, "pde-check --a 0 --b 1 --t 0.05 --n 32"),
    (0, "selftest"),
    (1, "classify --a 0.5"),
    (2, "counterexample generic --a 0 --b 1.2"),
    (2, "counterexample generic --a 0.3 --b 1e200"),
    (2, "counterexample generic --a 0.3 --b 1e6"),
]


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run(expected: int, line: str, tmp: Path) -> bool:
    """Run one invocation, print its digest line, and say whether its exit
    code is the expected one."""
    csv_path = tmp / "out.csv"
    csv_path.unlink(missing_ok=True)
    argv = [arg.replace("{csv}", str(csv_path)) for arg in shlex.split(line)]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    csv_digest = _digest(csv_path.read_bytes()) if csv_path.exists() else "-"
    print(f"{line}\n  exit {code} (expected {expected})  "
          f"stdout {_digest(out.getvalue().encode())}\n  "
          f"stderr {_digest(err.getvalue().encode())}  csv {csv_digest}")
    return code == expected


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        ok = [run(expected, line, Path(tmp)) for expected, line in CORPUS]
    if not all(ok):
        print(f"error: {ok.count(False)} exit code(s) differ from the expected ones",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
