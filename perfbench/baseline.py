"""Reprint the ROADMAP Baseline table: one untraced build per row.

    python3 perfbench/baseline.py

Run from the repository root.  Rows: the paper fixtures in tests/fixtures at
their own caps, W_2 at caps 7-9 and W_3 at caps 5-6 (gen.wedge_tower).  Each
row is a single shot of build_persistent_minimal_model and validate_model
after json.loads + io.load_input, as in the table; validate_model must pass.
Outside the gated workloads because W_2 at cap 9 and W_3 at cap 6 take
about a minute each.
"""
from __future__ import annotations

import json
import os
import sys
import time

import gen
import run

FIXTURES = ("example1_case1", "example1_case2", "example2", "example3",
            "sphere2", "sphere3")
WEDGES = ((2, 7), (2, 8), (2, 9), (3, 5), (3, 6))


def measure(doc: dict) -> tuple[float, float, int]:
    from pmm import io, pminimal
    tower = io.load_input(json.loads(json.dumps(doc)))
    t0 = time.perf_counter()
    model = pminimal.build_persistent_minimal_model(tower)
    t1 = time.perf_counter()
    report = pminimal.validate_model(model)
    t2 = time.perf_counter()
    if not report["ok"]:
        raise SystemExit("validate_model failed")
    return t1 - t0, t2 - t1, len(model.gen_records)


def main() -> int:
    sys.path.insert(0, os.path.join(run.ROOT, "src"))
    rows = []
    for name in FIXTURES:
        with open(os.path.join(run.ROOT, "tests", "fixtures", f"{name}.json")) as fh:
            doc = json.load(fh)
        rows.append((name, doc["degree_cap"], doc))
    rows += [(f"W_{k}", cap, gen.wedge_tower(k, cap)) for k, cap in WEDGES]
    print(f"Python {sys.version.split()[0]}, single shots, no profiler")
    print("| workload | cap | build s | validate_model s | generators |")
    print("|---|---|---|---|---|")
    for name, cap, doc in rows:
        build, validate, gens = measure(doc)
        print(f"| {name} | {cap} | {build:.2f} | {validate:.2f} | {gens} |", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
