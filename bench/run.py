#!/usr/bin/env python3
"""flatheat benchmark: one workload per run, end-to-end or per-layer metrics.

Usage (from the root of a checkout):

    python3 bench/run.py --workload requests --seed 1 --seconds 20 --trace 0

Workloads: requests, torus-scan, klein-scan, pde-oracle (see bench/README.md).
The program is imported from the checkout's ``src/``.  The run sets up (import,
inputs for round 0, one warm-up pass), then replays seeded rounds until
``--seconds`` have passed, checking every output.  It prints a summary and,
as its last line, one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``.  With ``--trace 0`` the metrics are the end-to-end ones;
with ``--trace 1`` the per-layer ones, from traced passes over the seed's
first rounds, each paired with an untraced pass over the same rounds to give
the tracing overhead.  The exit code is 0 only when no operation failed.
"""
import time

_STARTED = time.perf_counter()  # set-up time counts from here, before numpy loads

import argparse  # noqa: E402
import bisect  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SETUP_SAMPLES = 5  # this process plus four fresh ones; setup_s is their median

# Timings are expressed at a reference speed.  The host's speed drifts by
# +-15% over tens of seconds (other tenants share its cores), which no run
# length here averages out.  So the run times a fixed calibration loop every
# CALIBRATION_EVERY_S between operations, and scales each timing by
# CALIBRATION_REF_S / (median loop time within CALIBRATION_WINDOW_S of it).
CALIBRATION_REF_S = 0.005
CALIBRATION_EVERY_S = 0.25
CALIBRATION_LOOPS = 3
CALIBRATION_WINDOW_S = 5.0

END_TO_END = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("requests_per_s", "1/s"),
    ("kernel_query_us_p50", "us"),
]


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=("requests", "torus-scan", "klein-scan", "pde-oracle"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="set up, print the set-up time as JSON and exit")
    return p.parse_args(argv)


def _prepare_environment():
    """Import the checkout's flatheat and fix the thread counts.

    BLAS is held to one thread so that the scan's worker threads are the
    only parallelism; the scan keeps the program's default worker count
    unless that exceeds the CPUs this process may use.
    """
    src = ROOT / "src"
    if not (src / "flatheat" / "__init__.py").is_file():
        raise SystemExit(f"error: no flatheat sources under {src}")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    os.environ.pop("FLAT_HEAT_THREADS", None)
    sys.path[:0] = [str(src), str(BENCH_DIR)]
    import flatheat
    if Path(flatheat.__file__).resolve().parent != (src / "flatheat").resolve():
        raise SystemExit(f"error: imported flatheat from {flatheat.__file__}, not {src}")
    nproc = len(os.sched_getaffinity(0))
    if flatheat.worker_count() > nproc:
        os.environ["FLAT_HEAT_THREADS"] = str(nproc)
    return nproc


class Speed:
    """Calibration samples over the run, and the scale factors they give."""

    def __init__(self):
        import numpy as np
        rng = np.random.default_rng(0)
        self._data = rng.uniform(-1.0, 1.0, 16384)
        self._block = rng.uniform(-1.0, 1.0, (2048, 64))
        self._grid = rng.uniform(-1.0, 1.0, (64, 64))
        self.times: list[float] = []
        self.loops: list[float] = []
        self._last = -1e9

    def _loop(self) -> float:
        """A fixed mix like the workloads': interpreted Python, numpy
        transcendental functions on a cache-sized array and on a block the
        size of a scan's evaluation chunk (1 MB), many small array steps."""
        import numpy as np
        data = self._data
        started = time.perf_counter()
        acc = 0
        for i in range(4000):
            acc += i * i
        for _ in range(3):
            (np.cos(3.0 * data) * np.exp(-data * data)).sum()
        block = self._block
        (np.exp(-block * block) * block).sum(axis=-1)
        u = self._grid
        for _ in range(40):
            up = np.pad(u, 1, mode="wrap")
            u = u + 1e-3 * (up[2:, 1:-1] + up[:-2, 1:-1] - 2.0 * u)
        return time.perf_counter() - started

    def sample(self) -> None:
        """Time the loop CALIBRATION_LOOPS times and keep the fastest: the
        first run after a large scan pays for caches the scan evicted."""
        self.loops.append(min(self._loop() for _ in range(CALIBRATION_LOOPS)))
        self.times.append(time.perf_counter())
        self._last = time.perf_counter()

    def tick(self) -> None:
        if time.perf_counter() - self._last >= CALIBRATION_EVERY_S:
            self.sample()

    def factor(self, t0: float, t1: float | None = None) -> float:
        """Scale factor for work done in [t0, t1], from the loops near it."""
        t1 = t0 if t1 is None else t1
        lo = bisect.bisect_left(self.times, t0 - CALIBRATION_WINDOW_S)
        hi = bisect.bisect_right(self.times, t1 + CALIBRATION_WINDOW_S)
        near = self.loops[lo:hi]
        if len(near) < 3:  # too few: the closest ones
            mid = 0.5 * (t0 + t1)
            order = sorted(range(len(self.times)), key=lambda i: abs(self.times[i] - mid))
            near = [self.loops[i] for i in order[:3]]
        return CALIBRATION_REF_S / statistics.median(near)


def _percentile(values, q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _child_setups(args) -> list:
    """Set-up time of fresh processes, run one after another."""
    times = []
    for _ in range(SETUP_SAMPLES - 1):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-only"],
            capture_output=True, text=True, timeout=120, cwd=ROOT)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up process failed: {proc.stderr.strip()}")
        times.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return times


def _measure(workload, seconds, rec, speed):
    """Replay rounds 0, 1, 2, ... until the time is up."""
    started = time.perf_counter()
    while rec.round == 0 or time.perf_counter() - started < seconds:
        workload.run_round(workload.inputs(rec.round), rec)
        rec.round += 1
    speed.sample()


def _end_to_end(rec, speed, setups, peak_rss_mb):
    rounds = [0.0] * rec.round
    raw_rounds = [0.0] * rec.round
    queries = []
    for end, seconds, r, work, point in rec.timings:
        scaled = seconds * speed.factor(end - seconds, end)
        if work:
            rounds[r] += scaled
            raw_rounds[r] += seconds
        if point:
            queries.append(scaled * 1e6)
    values = {
        "setup_s": statistics.median(setups),
        "peak_rss_mb": peak_rss_mb,
        "requests_per_s": rec.attempted / sum(rounds),
        "kernel_query_us_p50": statistics.median(queries),
    }
    factors = [CALIBRATION_REF_S / x for x in speed.loops]
    print(f"rounds {len(rounds)}, median {statistics.median(rounds):.6g} s  "
          f"single-point queries {len(queries)}, p99 {_percentile(queries, 99):.6g} us  "
          f"set-up samples {len(setups)}")
    print(f"calibration loops {len(factors)}: factor median "
          f"{statistics.median(factors):.3f}, range {min(factors):.3f}-{max(factors):.3f}; "
          f"unscaled requests_per_s {rec.attempted / sum(raw_rounds):.6g}, "
          f"median round {statistics.median(raw_rounds):.6g} s")
    return values


def _scaled(metrics, units, f):
    out = dict(metrics)
    for name, unit in units:
        if unit in ("s", "ms", "us", "ns"):
            out[name] = metrics[name] * f
        elif unit == "1/s":
            out[name] = metrics[name] / f
    return out


def _trace_passes(workload, seconds, rec, speed):
    """Untraced and traced passes over the seed's first rounds, alternating."""
    import tracing
    rounds = [workload.inputs(r) for r in range(workload.rounds_per_trace_pass)]

    def one_pass():
        """Scaled program time of one pass over the rounds, and its factor."""
        first = len(rec.timings)
        t0 = time.perf_counter()
        for inputs in rounds:
            workload.run_round(inputs, rec)
        speed.sample()
        f = speed.factor(t0, time.perf_counter())
        return sum(t[1] for t in rec.timings[first:] if t[3]) * f, f

    plain, traced, layers = [], [], []
    started = time.perf_counter()
    while not traced or time.perf_counter() - started < seconds:
        plain.append(one_pass()[0])
        tracer = tracing.Tracer()
        rec.tracer = tracer
        replaced = tracing.instrument(tracer)
        try:
            busy, f = one_pass()
        finally:
            tracing.restore(replaced)
            rec.tracer = None
        traced.append(busy)
        layers.append(_scaled(tracing.layer_metrics(tracer.spans), tracing.PER_LAYER, f))
    metrics = {name: statistics.median(m[name] for m in layers)
               for name, _ in tracing.PER_LAYER}
    metrics["trace.overhead_share"] = statistics.median(traced) / statistics.median(plain) - 1.0
    print(f"passes {len(traced)} of {len(rounds)} round(s) each, traced and untraced")
    return metrics


def main(argv=None) -> int:
    args = _parse(argv)
    nproc = _prepare_environment()
    import numpy
    import flatheat
    import tracing
    from workloads import WORKLOADS, Recorder

    workload = WORKLOADS[args.workload](args.seed, ROOT)
    warm = Recorder()
    workload.warmup(warm)
    setup_raw = time.perf_counter() - _STARTED
    if warm.failed:
        print("error: the warm-up pass failed", *warm.notes, sep="\n", file=sys.stderr)
        return 1
    speed = Speed()
    speed.sample()
    setup_s = setup_raw * speed.factor(time.perf_counter())
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}")
    print(f"nproc {nproc}  scan workers {flatheat.worker_count()}  "
          f"python {sys.version.split()[0]}  numpy {numpy.__version__}")
    rec = Recorder(speed)
    if args.trace:
        values = _trace_passes(workload, args.seconds, rec, speed)
        names = tracing.PER_LAYER
    else:
        _measure(workload, args.seconds, rec, speed)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        setups = [setup_s] + _child_setups(args)
        values = _end_to_end(rec, speed, setups, peak_rss_mb)
        names = END_TO_END
    for name, unit in names:
        print(f"  {name:<44} {values[name]:>16.6g} {unit}")
    print(f"attempted {rec.attempted}  failed {rec.failed}")
    for note in rec.notes:
        print(note, file=sys.stderr)
    result = {
        "correct": rec.failed == 0,
        "attempted": rec.attempted,
        "failed": rec.failed,
        "metrics": {name: {"value": float(values[name]), "unit": unit}
                    for name, unit in names},
    }
    print(json.dumps(result))
    return 0 if rec.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
