"""Time-to-verdict benchmark for expanderlab.

    python3 perfbench/run.py --workload {certify,construct}
                             --seed N --seconds S --trace {0,1}

Run from the root of a checkout; the package is imported from its `src`.
With --trace 0 the run times whole jobs and prints the end-to-end metrics;
with --trace 1 it alternates untraced and traced jobs and prints the
per-layer metrics.  Every verdict is checked against a reference; any
mismatch makes the exit code 1.  The last line of stdout is one JSON object.
See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

import tracing

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK_PREFIX = ".perfbench-"  # temporary directory in the checkout for graph files and --out

MIN_JOBS = 3  # medians need at least this many jobs, even past --seconds
MIN_TRACED_PAIRS = 2  # a traced run's untraced-plus-traced pairs, even past --seconds
SETUP_PROBES = 9  # fresh processes timed from spawn to ready; setup_s is their median


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=["certify", "construct"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=60.0)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help="internal: set up once, print the ready time and exit")
    return p.parse_args(argv)


def blas_threads() -> str:
    """OpenBLAS's thread count, read from the library numpy loaded."""
    import ctypes
    import glob

    import numpy as np

    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in glob.glob(str(libdir / "*openblas*")):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return str(fn())
    return os.environ.get("OPENBLAS_NUM_THREADS", "unknown")


def setup_probe(args) -> int:
    """Do the workload's whole set-up in this fresh process, then report readiness."""
    from workloads import WORKLOADS

    with tempfile.TemporaryDirectory(prefix=WORK_PREFIX, dir=ROOT) as tmp:
        WORKLOADS[args.workload](args.seed, Path(tmp))
        print(time.perf_counter(), flush=True)
    return 0


def time_setup(args) -> list[float]:
    """Seconds from spawning a fresh process until its set-up is done, SETUP_PROBES times.

    perf_counter reads CLOCK_MONOTONIC on Linux, so the child's ready time is
    comparable with the parent's spawn time.
    """
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    samples = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
        samples.append(float(done.stdout.split()[-1]) - t0)
    return samples


def verdict_bound() -> float:
    """verdict_s's regression bound, from BENCHMARK.json at the root of the checkout."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return next(m["bound"] for m in spec["end_to_end"] if m["name"] == "verdict_s")


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


class Tally:
    """Verdicts attempted and failed over every job of the run."""

    def __init__(self):
        self.attempted = 0
        self.failed: list[str] = []

    def add(self, verdicts) -> None:
        for name, ok in verdicts:
            self.attempted += 1
            if not ok:
                self.failed.append(name)


def untraced_window(wl, seconds: float, tally: Tally) -> list[float]:
    times: list[float] = []
    deadline = time.perf_counter() + seconds
    while True:
        t0 = time.perf_counter()
        outcome = wl.run()
        times.append(time.perf_counter() - t0)
        tally.add(wl.check(outcome))
        if len(times) >= MIN_JOBS and time.perf_counter() + statistics.median(times) > deadline:
            return times


def traced_window(wl, seconds: float, tally: Tally):
    """Alternate untraced and traced jobs; returns both times and each traced job's metrics."""
    plain: list[float] = []
    traced: list[tuple[float, dict]] = []
    deadline = time.perf_counter() + seconds
    tracer = tracing.Tracer()
    while True:
        for with_trace in ((False, True) if len(plain) % 2 == 0 else (True, False)):
            t0 = time.perf_counter()
            if with_trace:
                with tracer:
                    outcome = wl.run()
                elapsed = time.perf_counter() - t0
                metrics = tracing.layer_metrics(tracer.take_spans())
                metrics["product.audit_conclusive_ratio"] = wl.audit_conclusive_ratio(outcome)
                traced.append((elapsed, metrics))
            else:
                outcome = wl.run()
                plain.append(time.perf_counter() - t0)
            tally.add(wl.check(outcome))
        pair = statistics.median(plain) + statistics.median(t for t, _ in traced)
        if len(plain) >= MIN_TRACED_PAIRS and time.perf_counter() + pair > deadline:
            return plain, traced


def count_mismatches(traced) -> int:
    """Compare the exact counts of each traced job of this run with the first one's.

    A mismatch is flagged on stdout and counted.  Across runs the counts are
    compared as per-layer metrics.
    """
    reference = {k: traced[0][1][k] for k in tracing.EXACT_COUNTS}
    bad = 0
    for i, (_, metrics) in enumerate(traced[1:], start=1):
        for key, want in reference.items():
            if metrics[key] != want:
                bad += 1
                print(f"FLAG: traced job {i}: {key} = {metrics[key]}, traced job 0 gave {want}")
    return bad


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "expanderlab" / "__init__.py").is_file():
        print(f"error: no expanderlab package under {SRC}; run from a checkout of the repo",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.setup_probe:
        return setup_probe(args)

    setup = [] if args.trace else time_setup(args)

    import mpmath
    import numpy as np

    from workloads import WORKLOADS

    print(f"machine: cpus={os.cpu_count()} python={platform.python_version()} "
          f"numpy={np.__version__} mpmath={mpmath.__version__} blas_threads={blas_threads()}")
    print(f"run: workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    tally = Tally()
    with tempfile.TemporaryDirectory(prefix=WORK_PREFIX, dir=ROOT) as tmp:
        wl = WORKLOADS[args.workload](args.seed, Path(tmp))
        setup_peak_mb = peak_rss_mb()
        if args.trace:
            plain, traced = traced_window(wl, args.seconds, tally)
        else:
            times = untraced_window(wl, args.seconds, tally)

    fail_ratio = len(tally.failed) / tally.attempted
    for name, jobs in Counter(tally.failed).items():
        print(f"MISMATCH: {name} (in {jobs} jobs)")
    print(f"verdicts: {tally.attempted} attempted, {len(tally.failed)} failed, "
          f"fail_ratio={fail_ratio:.6g}")

    if args.trace:
        ordered = sorted(traced, key=lambda t: t[0])
        verdict_traced, metrics = ordered[len(ordered) // 2]
        verdict_plain = statistics.median(plain)
        metrics["trace.verdict_s"] = verdict_traced
        metrics["trace.overhead_s"] = verdict_traced - verdict_plain
        metrics["trace.count_mismatches"] = count_mismatches(traced)
        self_sum = metrics["trace.self_sum_s"]
        print(f"trace: {len(traced)} traced and {len(plain)} untraced jobs; median traced job "
              f"{verdict_traced:.4f} s = layer self times {self_sum:.4f} s + "
              f"{verdict_traced - self_sum:.4f} s outside any span; untraced median "
              f"{verdict_plain:.4f} s, overhead {verdict_traced - verdict_plain:+.4f} s")
        result = {k: {"value": v, "unit": tracing.unit(k)} for k, v in sorted(metrics.items())}
    else:
        peak_mb = peak_rss_mb()
        print(f"verdict_s: median {statistics.median(times):.4f} s over {len(times)} jobs "
              f"(min {min(times):.4f}, max {max(times):.4f}); no percentile above the median "
              f"has ten jobs beyond it at this count")
        print(f"jobs: {' '.join(f'{t:.4f}' for t in times)}")
        q1, _, q3 = statistics.quantiles(times, n=4)
        spread, bound = (q3 - q1) / statistics.median(times), verdict_bound()
        print(f"verdict_s spread: job quartiles {q1:.4f}-{q3:.4f} s, {spread:.1%} of the median; "
              + (f"UNRESOLVED in this run, above the {bound:.0%} bound: the machine's noise hides "
                 f"a change of that size" if spread > bound else f"within the {bound:.0%} bound"))
        print(f"peak_rss_mb: {peak_mb:.1f} MB over the run; {setup_peak_mb:.1f} MB by the end of set-up")
        print(f"setup_s: median {statistics.median(setup):.4f} s over {len(setup)} fresh processes "
              f"({', '.join(f'{s:.4f}' for s in setup)})")
        result = {
            "verdict_s": {"value": statistics.median(times), "unit": "s"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "peak_rss_mb": {"value": peak_mb, "unit": "MB"},
            "pass_ratio": {"value": 1 - fail_ratio, "unit": "ratio"},
        }
    print(json.dumps({"correct": not tally.failed, "attempted": tally.attempted,
                      "failed": len(tally.failed), "metrics": result}))
    return 1 if tally.failed else 0


if __name__ == "__main__":
    sys.exit(main())
