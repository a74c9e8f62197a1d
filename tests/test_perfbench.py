"""The benchmark harness runs both workloads and ends with a well-formed result.

A run with --seconds 0 does the minimum number of jobs, so this checks the
output format, not the timings: exit code 0, a last stdout line that is
strict JSON (no bare NaN or Infinity) and every verdict correct.  An untraced
run reports every end-to-end metric that BENCHMARK.json names with a finite
value and no failed job.  A traced run reports every per-layer metric with a
finite value (spectral.zero_margin below 1e300) and the same work counts
from every traced job (trace.count_mismatches is 0).  It also pins the work
counts of the seed-0 jobs, so that a speed-up which skips work (fewer search
nodes, audit trials or lemma checks) fails here.
"""

import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


WORK_COUNTS = {
    "certify": {"params.qhat_failures_found": 2623, "nbwalk.lemma6_evals": 100_000,
                "nbwalk.lemma8_checks": 20},
    "construct": {"gadget.subsets_checked": 1457, "product.inheritance_checks": 1000,
                  "product.audit_conclusive_ratio": 1.0},
}


def _reject_constant(name):
    raise ValueError(f"non-finite JSON constant {name}")


def _run(workload, trace):
    """The metrics of one --seconds 0 run, after checking its exit and last line."""
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--trace", trace,
         "--seconds", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    result = json.loads(done.stdout.splitlines()[-1], parse_constant=_reject_constant)
    assert result["correct"] is True
    return result["metrics"], done.stdout


@pytest.mark.parametrize("workload", ["certify", "construct"])
def test_untraced_run_reports_every_end_to_end_metric(workload):
    metrics, _ = _run(workload, "0")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for entry in spec["end_to_end"]:
        value = metrics[entry["name"]]["value"]
        assert isinstance(value, (int, float)) and math.isfinite(value), entry["name"]
    assert metrics["pass_ratio"]["value"] == 1.0


@pytest.mark.parametrize("workload", ["certify", "construct"])
def test_traced_run_prints_a_strict_json_result(workload):
    metrics, stdout = _run(workload, "1")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for entry in spec["per_layer"]:
        value = metrics[entry["name"]]["value"]
        assert isinstance(value, (int, float)) and math.isfinite(value), entry["name"]
    assert metrics["trace.count_mismatches"]["value"] == 0, stdout
    # finite is not enough: once every zero singular value is exact,
    # zero_margin is tolerance / float_min = 4.5e301, which measures nothing
    assert metrics["spectral.zero_margin"]["value"] < 1e300
    assert {name: metrics[name]["value"] for name in WORK_COUNTS[workload]} == WORK_COUNTS[workload]
