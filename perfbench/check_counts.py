"""The benchmark's own test: traced count metrics repeat exactly.

    python3 perfbench/check_counts.py [--workload NAME ...] [--seed N] [--seconds S]

Runs the traced workload twice per workload with one seed, each in a
fresh process, and compares every per-layer count metric. The traced
run does a fixed amount of work, so counts such as lock acquisitions
per line, relation keys read per line, eviction passes and frames,
ways scanned and segments projected per match, snapshot entries per
row and query_frames calls per query must be identical. Exits non-zero
on any difference or wrong output.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("station-stream", "city-feed", "district-query")
EXACT = ("B/frame", "count")


def traced(workload: str, seed: int, seconds: float) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "workload.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "1"],
        capture_output=True, text=True, timeout=300,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"traced {workload} run exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="check that traced count metrics repeat exactly")
    ap.add_argument("--workload", action="append", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=6)
    args = ap.parse_args(argv)
    failures = 0
    for workload in args.workload or WORKLOADS:
        a, b = traced(workload, args.seed, args.seconds), traced(workload, args.seed, args.seconds)
        for run in (a, b):
            if not run["correct"]:
                print(f"{workload}: wrong output: {run['problems']}")
                failures += 1
        for name, (value, unit, _) in a["per_layer"].items():
            if unit not in EXACT:
                continue
            other = b["per_layer"][name][0]
            same = value == other
            failures += not same
            print(f"{workload:15s} {name:40s} {value!r:>22} {other!r:>22} {'same' if same else 'DIFFERENT'}")
    print("counts repeat exactly" if not failures else f"{failures} problem(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
