"""The benchmark harness runs both workloads and ends with a well-formed result.

A traced run with --seconds 0 does the minimum number of jobs, so this checks
the output format, not the timings: exit code 0, a last stdout line that is
strict JSON (no bare NaN or Infinity), every verdict correct, every
per-layer metric that BENCHMARK.json names present with a finite value, and
the same work counts from every traced job (trace.count_mismatches is 0).
It also pins the work counts of the seed-0 jobs, so that a speed-up which
skips work (fewer search nodes, audit trials or lemma checks) fails here.
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


@pytest.mark.parametrize("workload", ["certify", "construct"])
def test_traced_run_prints_a_strict_json_result(workload):
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--trace", "1",
         "--seconds", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    result = json.loads(done.stdout.splitlines()[-1], parse_constant=_reject_constant)
    assert result["correct"] is True
    metrics = result["metrics"]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for entry in spec["per_layer"]:
        value = metrics[entry["name"]]["value"]
        assert isinstance(value, (int, float)) and math.isfinite(value), entry["name"]
    assert metrics["trace.count_mismatches"]["value"] == 0, done.stdout
    assert {name: metrics[name]["value"] for name in WORK_COUNTS[workload]} == WORK_COUNTS[workload]
