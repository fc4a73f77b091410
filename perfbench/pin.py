"""Regenerate pinned.json: input and output digests of every workload input set.

    python3 perfbench/pin.py

Run from the repository root, at a commit whose outputs are the reference
(the digests in the repository were made at the commit that added the
benchmark).  Every tower must pass validate_model, the check of its
reloaded model and the barcode oracle, or nothing is written.  Takes about
five minutes for all workloads on a 2-core x86 host.
"""
from __future__ import annotations

import json
import os
import sys

import run


def pin(workload: str) -> dict:
    pool = run.WORKLOADS[workload][1]
    out = {}
    outdir = os.path.join(run.OUT, workload)
    os.makedirs(outdir, exist_ok=True)
    for key in range(pool):
        texts, _ = run.documents(workload, key)
        runner = run.Runner(texts, None, outdir)
        runner.run_pass()
        if runner.failures:
            raise SystemExit(f"{workload} set {key}: {runner.failures[0]}")
        out[str(key)] = [list(r) for r in runner.results]
        print(f"{workload} set {key}: {sum(r[2] for r in runner.results)} generators",
              flush=True)
    return out


def main() -> int:
    sys.path.insert(0, os.path.join(run.ROOT, "src"))
    pinned = {name: pin(name) for name in sorted(run.WORKLOADS)}
    lines = []
    for name in sorted(pinned):
        sets = [f'  "{key}": {json.dumps(pinned[name][key])}'
                for key in sorted(pinned[name], key=int)]
        lines.append(f'"{name}": {{\n' + ",\n".join(sets) + "\n}")
    with open(run.PINNED, "w") as fh:
        fh.write("{\n" + ",\n".join(lines) + "\n}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
