"""Self-test of the benchmark.

    python3 perfbench/selftest.py

Run from the repository root.  Checks, each in fresh processes:

- BENCHMARK.json names exactly the workloads and metrics run.py reports;
- the oracles know the free Lie algebra dimensions and reject a barcode
  with one bar removed;
- two traced runs of each workload agree exactly on every count metric and
  are correct, which includes that every traced pass emitted the same bytes
  as the untraced passes (all are compared with the pinned digests);
- one pass of each workload gives the same output digest under two
  PYTHONHASHSEED values.

Takes about two minutes on a 2-core x86 host.
"""
from __future__ import annotations

import json
import os
import subprocess
import sys

import gen
import oracle
import run
import spans

SEED = 7


def bench(workload: str, trace: int, env=None) -> tuple[dict, list[str]]:
    proc = subprocess.run(
        [sys.executable, os.path.join(run.HERE, "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", "0", "--trace", str(trace)],
        cwd=run.ROOT, capture_output=True, text=True, timeout=600,
        env=dict(os.environ, **(env or {})))
    if proc.returncode != 0:
        raise SystemExit(f"{workload}: exit {proc.returncode}: {proc.stderr}")
    lines = proc.stdout.splitlines()
    return json.loads(lines[-1]), lines


def check(ok: bool, what: str, failures: list[str]):
    print(f"{'ok  ' if ok else 'FAIL'} {what}", flush=True)
    if not ok:
        failures.append(what)


def main() -> int:
    failures: list[str] = []
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    check([w["name"] for w in spec["workloads"]] == list(run.WORKLOADS),
          "BENCHMARK.json workloads match run.py", failures)
    check([m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
          and all(m["unit"] == run.END_TO_END[m["name"]] for m in spec["end_to_end"]),
          "BENCHMARK.json end-to-end metrics match run.py", failures)
    check([m["name"] for m in spec["per_layer"]] == list(spans.PER_LAYER),
          "BENCHMARK.json per-layer metrics match spans.py", failures)

    check(oracle.free_lie_dims(2, 7)[1:] == [2, 3, 2, 3, 6, 11, 18],
          "free Lie algebra dimensions on two odd generators", failures)
    doc = gen.wedge_tower(2, 4)
    bars = [{"degree": 2, "birth": "0", "death": None},
            {"degree": 2, "birth": "0", "death": "1"},
            {"degree": 3, "birth": "0", "death": None}] + [
           {"degree": 3, "birth": "0", "death": "1"}] * 2 + [
           {"degree": 4, "birth": "0", "death": "1"}] * 2
    check(oracle.check_barcode(doc, bars) == [],
          "oracle accepts the W_2 barcode at cap 4", failures)
    check(oracle.check_barcode(doc, bars[1:]) != [],
          "oracle rejects the W_2 barcode with one bar removed", failures)

    for workload in run.WORKLOADS:
        first, _ = bench(workload, 1)
        second, _ = bench(workload, 1)
        check(first["correct"] and second["correct"],
              f"{workload}: traced runs are correct", failures)
        differ = [name for name in spans.COUNT_METRICS
                  if first["metrics"][name] != second["metrics"][name]]
        check(not differ, f"{workload}: count metrics repeat across two traced runs"
              + (f" (differ: {differ})" if differ else ""), failures)
        digests = []
        for hash_seed in ("0", "4242"):
            result, lines = bench(workload, 0, {"PYTHONHASHSEED": hash_seed})
            digests.append([ln for ln in lines if ln.startswith("outputs digest")])
            check(result["correct"], f"{workload}: correct under PYTHONHASHSEED={hash_seed}",
                  failures)
        check(digests[0] == digests[1] and digests[0] != [],
              f"{workload}: same output digest under two PYTHONHASHSEED values", failures)
    print("self-test", "FAILED" if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
