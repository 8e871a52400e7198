"""Each benchmark workload (perfbench/workload.py) runs for one second
and passes its correctness gate, so a query change that breaks the
benchmark's check against the oracles fails the test suite too."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_output_is_correct(workload):
    proc = subprocess.run(
        [sys.executable, "perfbench/workload.py", "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"], result["problems"]
    assert result["failed"] == 0
