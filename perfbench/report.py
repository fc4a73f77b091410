"""Print the end-to-end metrics of every workload, by name and unit.

    python3 perfbench/report.py

Run from the repository root.  Runs run.py once per workload, untraced, with
seed 1 and the run_seconds of BENCHMARK.json, and prints its readable table:
the six metrics of BENCHMARK.json and failed_share.  Exits 1 if any run is
not correct.
"""
from __future__ import annotations

import json
import os
import subprocess
import sys

import run

SEED = 1


def main() -> int:
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        seconds = json.load(fh)["run_seconds"]
    ok = True
    for workload in run.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.join(run.HERE, "run.py"), "--workload", workload,
             "--seed", str(SEED), "--seconds", str(seconds), "--trace", "0"],
            cwd=run.ROOT, capture_output=True, text=True, timeout=600)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        print(proc.stderr, end="", file=sys.stderr)
        ok = ok and proc.returncode == 0 and json.loads(lines[-1])["correct"]
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
