"""The benchmark harness runs both workloads and ends with a well-formed result.

A traced run with --seconds 0 does the minimum number of jobs, so this checks
the output format, not the timings: exit code 0, a last stdout line that is
strict JSON (no bare NaN or Infinity), every verdict correct, every
per-layer metric that BENCHMARK.json names present with a finite value, and
the same work counts from every traced job (trace.count_mismatches is 0).
"""

import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


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
