"""pmm benchmark: time from a JSON tower to a verified, emitted model.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the engine is imported from `src/`.  Closed
loop, one client: a single thread takes each tower of the workload through
the library calls `pmm build` makes (json.loads + io.load_input, build,
validate_model, emit barcode/presentation/report/model) and then through
the `pmm check` path on the emitted model (io.load_model +
validate_model(against=...)).  Passes over the workload's towers repeat
while another pass still fits in S seconds.  Each pass runs in a fresh
process, which this one starts and waits for, so no state of the program
carries over from one build of a tower to the next build of the same tower,
as none does between two `pmm build` commands.

Every tower is checked: validate_model must pass, the check on the reloaded
model must pass, the barcode must match an independent oracle (oracle.py),
and the digests of the input document and of the emitted barcode,
presentation and model bytes must equal the ones pinned in pinned.json.  A
failed check, or an exception, counts the tower as failed.

Timings are per tower: each tower's median sample over the run's passes,
then the interquartile mean (or a tail percentile) over the towers.  Other tenants of a
shared host slow every instruction by up to 1.8x for seconds to minutes at a
time, so every time reported is normalized by the median time of a fixed
reference kernel (calib.py) timed throughout the same run: it estimates the
time the run would have taken on a host that runs the kernel in REF_S
seconds (see README.md).

With --trace 0 the last line of output is a JSON object with the end-to-end
metrics; with --trace 1 the passes alternate untraced and traced (spans.py)
and it holds the per-layer metrics instead.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
PINNED = os.path.join(HERE, "pinned.json")
OUT = os.path.join(ROOT, ".perfbench_out")

import calib  # noqa: E402
import gen  # noqa: E402
import oracle  # noqa: E402

# Seeds map onto a pool of this many input sets, whose digests are pinned.
POOL = 32
# Longest one pass may take; a whole run must end within 180 s.
PASS_TIMEOUT = 150


def _wedge_deep(seed: int) -> list[dict]:
    return [gen.wedge_tower(2, 7)]


def _sullivan_batch(seed: int) -> list[dict]:
    return gen.sullivan_batch(seed % POOL)


def _longgrid_flicker(seed: int) -> list[dict]:
    return [gen.longgrid_tower(seed % POOL)]


# name -> (documents of a seed, number of distinct input sets)
WORKLOADS = {
    "wedge-deep": (_wedge_deep, 1),
    "sullivan-batch": (_sullivan_batch, POOL),
    "longgrid-flicker": (_longgrid_flicker, POOL),
}

END_TO_END = {
    "setup_s": "s",
    "verified_model_s": "s",
    "verified_model_tail_s": "s",
    "models_per_s": "1/s",
    "check_s": "s",
    "peak_rss_mb": "MB",
}


def digest(*blobs: bytes) -> str:
    h = hashlib.sha256()
    for b in blobs:
        h.update(hashlib.sha256(b).digest())
    return h.hexdigest()[:16]


def documents(workload: str, seed: int) -> tuple[list[str], str]:
    """The workload's input documents as JSON text, and their pool key."""
    make, pool = WORKLOADS[workload]
    texts = [json.dumps(doc, sort_keys=True) for doc in make(seed)]
    return texts, str(seed % pool)


def tail(values: list[float]) -> tuple[float, str]:
    """The highest of p99/p95/p90/p75 with at least ten values beyond it.

    Nearest rank.  With fewer than eleven values no percentile qualifies,
    and the maximum is returned.
    """
    ordered = sorted(values)
    n = len(ordered)
    for p in (99, 95, 90, 75):
        rank = math.ceil(p / 100 * n)
        if n - rank >= 10:
            return ordered[rank - 1], f"p{p}, {n - rank} beyond it"
    return ordered[-1], "max: fewer than 11 values"


class Samples:
    """Timing samples of one kind of pass, one list per tower."""

    KINDS = ("setup", "verified", "check", "iteration")

    def __init__(self, towers: int):
        for kind in self.KINDS:
            setattr(self, kind, [[] for _ in range(towers)])

    def count(self) -> int:
        return sum(len(s) for s in self.verified)

    def extend(self, other: dict):
        for kind in self.KINDS:
            for mine, theirs in zip(getattr(self, kind), other[kind]):
                mine.extend(theirs)


def midmean(values: list[float]) -> float:
    """Mean of the middle half (interquartile mean); one value is its own.

    Steadier than the median when the values have a gap in the middle, as
    the tower times of sullivan-batch do.
    """
    ordered = sorted(values)
    cut = len(ordered) // 4
    middle = ordered[cut:len(ordered) - cut]
    return sum(middle) / len(middle)


def typical(per_tower: list[list[float]]) -> list[float]:
    """Each tower's median sample; towers whose every attempt raised have none."""
    return [statistics.median(s) for s in per_tower if s]


class Runner:
    """Runs towers through the build and check paths and records samples."""

    def __init__(self, texts: list[str], pinned: list | None, outdir: str,
                 tracer=None):
        from pmm import io, pminimal
        self.io, self.pminimal = io, pminimal
        self.tracer = tracer
        self.texts = texts
        self.pinned = pinned
        self.outdir = outdir
        self.samples = Samples(len(texts))
        self.attempted = 0
        self.failures: list[str] = []
        self.results: list[tuple[str, str, int]] = []
        self.kernel_s: list[float] = []

    def run_pass(self, number: int = 0):
        """One pass over the towers, recording samples and failures.

        The reference kernel is timed before the first tower, before each
        tower and after the last (calib.py), to track the host's speed.
        """
        calib.kernel()  # warm-up, untimed
        self.kernel_s += calib.timings()
        for i, text in enumerate(self.texts):
            self.attempted += 1
            self.kernel_s += calib.timings(1)
            if self.tracer is not None:
                self.tracer.request = f"{number}/{i}"
            try:
                problems = self._tower(i, text)
            except Exception as exc:  # any raise is a failed operation
                problems = [f"{type(exc).__name__}: {exc}"]
            if problems:
                self.failures.append(f"pass {number}, tower {i}: {problems[0]}")
        self.kernel_s += calib.timings()

    def _tower(self, i: int, text: str) -> list[str]:
        io, pminimal, clock = self.io, self.pminimal, time.perf_counter
        paths = [os.path.join(self.outdir, name) for name in (
            "barcode.json", "presentation.txt", "report.json", "model.json")]

        t0 = clock()
        doc = json.loads(text)
        tower = io.load_input(doc)
        t1 = clock()
        model = pminimal.build_persistent_minimal_model(tower)
        report = pminimal.validate_model(model)
        t2 = clock()
        io.emit_barcode(model, paths[0])
        io.emit_presentation(model, paths[1])
        io.emit_report(report, paths[2])
        io.dump_json(io.model_payload(model, doc), paths[3])
        t3 = clock()

        blobs = []
        for p in (paths[0], paths[1], paths[3]):
            with open(p, "rb") as fh:
                blobs.append(fh.read())
        problems = [] if report["ok"] else ["validate_model: ok is false"]
        problems += oracle.check_barcode(doc, json.loads(blobs[0]))
        result = (digest(text.encode()), digest(*blobs), len(model.gen_records))
        self.results.append(result)
        if self.pinned is not None and list(result) != self.pinned[i]:
            problems.append(f"digests {list(result)} differ from pinned {self.pinned[i]}")

        t4 = clock()
        tower2, model2 = io.load_model(json.loads(blobs[2]))
        report2 = pminimal.validate_model(model2, against=tower2)
        t5 = clock()
        if not report2["ok"]:
            problems.append("check of the reloaded model: ok is false")

        s = self.samples
        s.setup[i].append(t1 - t0)
        s.verified[i].append(t2 - t1)
        s.check[i].append(t5 - t4)
        s.iteration[i].append(t3 - t0 + t5 - t4)
        return problems


def spans_path(workload: str, seed: int) -> str:
    return os.path.join(OUT, workload, f"spans-seed{seed}.jsonl")


def one_pass(workload: str, seed: int, traced: bool, number: int) -> dict:
    """Pass `number` of a run, in this process: its samples, results and failures."""
    texts, key = documents(workload, seed)
    with open(PINNED) as fh:
        pinned = json.load(fh)[workload][key]
    outdir = os.path.join(OUT, workload)
    os.makedirs(outdir, exist_ok=True)
    tracer = None
    if traced:
        from spans import Tracer
        tracer = Tracer()
        tracer.install()
    runner = Runner(texts, pinned, outdir, tracer)
    try:
        runner.run_pass(number)
    finally:
        if traced:
            tracer.uninstall()
    out = {"samples": {kind: getattr(runner.samples, kind) for kind in Samples.KINDS},
           "kernel_s": runner.kernel_s,
           "results": runner.results, "failures": runner.failures,
           "attempted": runner.attempted,
           "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
    if traced:
        out["summary"] = tracer.summary()
        tracer.dump(spans_path(workload, seed))
    return out


def spawn_pass(workload: str, seed: int, traced: bool, number: int) -> dict:
    """Run `one_pass` in a fresh process and wait for it to end."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload,
           "--seed", str(seed), "--seconds", "0", "--trace", str(int(traced)),
           "--one-pass", str(number)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=PASS_TIMEOUT)
    except subprocess.TimeoutExpired:
        raise SystemExit(f"pass {number} took more than {PASS_TIMEOUT} s")
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"pass {number} exited with code {proc.returncode}:\n"
                         f"{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    texts, key = documents(workload, seed)
    towers = len(texts)
    if trace and os.path.exists(spans_path(workload, seed)):
        os.remove(spans_path(workload, seed))
    untraced, traced = Samples(towers), Samples(towers)
    summaries: list[dict] = []
    failures: list[str] = []
    first_pass: list = []
    attempted, passes, rss_mb = 0, 0, 0.0
    kernel_s: list[float] = []
    pass_times: list[float] = []
    start = time.perf_counter()
    # Start a pass only if a typical pass still ends within the time given,
    # so a run takes about `seconds` however long a pass is.
    while (passes == 0 or (trace and not summaries) or
           time.perf_counter() - start + statistics.median(pass_times) <= seconds):
        pass_start = time.perf_counter()
        is_traced = trace and passes % 2 == 1
        got = spawn_pass(workload, seed, is_traced, passes)
        kernel_s += got["kernel_s"]
        (traced if is_traced else untraced).extend(got["samples"])
        if is_traced:
            summaries.append(got["summary"])
        first_pass = first_pass or got["results"]
        failures += got["failures"]
        attempted += got["attempted"]
        rss_mb = max(rss_mb, got["rss_mb"])
        passes += 1
        pass_times.append(time.perf_counter() - pass_start)

    if not untraced.count() or (trace and not traced.count()):
        raise SystemExit(f"every tower failed: {failures[0]}")
    factor = calib.factor(kernel_s)
    if trace:
        metrics = per_layer(summaries, traced, untraced, failures, factor)
    else:
        metrics = end_to_end(untraced, rss_mb, factor)
        report_human(workload, seed, key, passes, attempted, failures, untraced, metrics,
                     factor)
    print(f"outputs digest {digest(*(' '.join(map(str, r)).encode() for r in first_pass))}")
    for line in failures[:10]:
        print(f"FAILED {line}", file=sys.stderr)
    units = END_TO_END if not trace else None
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value,
                           "unit": units[name] if units else per_layer_unit(name)}
                    for name, value in metrics.items()},
    }


def end_to_end(s: Samples, rss_mb: float, factor: float) -> dict:
    """The end-to-end metrics, times normalized by `factor` (calib.py)."""
    verified = typical(s.verified)
    return {
        "setup_s": midmean(typical(s.setup)) * factor,
        "verified_model_s": midmean(verified) * factor,
        "verified_model_tail_s": tail(verified)[0] * factor,
        "models_per_s": len(verified) / sum(typical(s.iteration)) / factor,
        "check_s": midmean(typical(s.check)) * factor,
        "peak_rss_mb": rss_mb,
    }


def per_layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    return "ratio" if name.endswith("_share") or name.endswith("_use") else "count"


def per_layer(summaries: list[dict], traced: Samples, untraced: Samples,
              failures: list[str], factor: float) -> dict:
    """Median per-layer times over traced passes, normalized by `factor`;
    counts, which must repeat."""
    from spans import COUNT_METRICS, PER_LAYER
    out = {}
    for name in PER_LAYER:
        if name == "trace.overhead_s":
            out[name] = (midmean(typical(traced.verified))
                         - midmean(typical(untraced.verified))) * factor
        elif name in COUNT_METRICS:
            values = {s[name] for s in summaries}
            if len(values) != 1:
                failures.append(f"count {name} differs between passes: {sorted(values)}")
            out[name] = summaries[0][name]
        else:
            out[name] = statistics.median(s[name] for s in summaries) * factor
    return out


def report_human(workload, seed, key, passes, attempted, failures, s: Samples, metrics,
                 factor):
    towers = len(s.verified)
    each = f"median of {s.count() // towers} per tower"
    print(f"workload {workload}, seed {seed} (input set {key}): {towers} tower(s) "
          f"per pass, {passes} passes, each in a fresh process, {attempted} attempted, "
          f"{len(failures)} failed")
    print(f"  times are normalized to a {calib.REF_S * 1000:g} ms reference kernel "
          f"(calib.py): measured times x {factor:.4f}")
    notes = {
        "setup_s": f"midmean over {towers} tower(s), {each}",
        "verified_model_s": f"midmean over {towers} tower(s), {each}",
        "verified_model_tail_s": f"{tail(typical(s.verified))[1]}; {towers} tower(s), {each}",
        "models_per_s": f"{towers} tower(s) / sum of their median full iterations",
        "check_s": f"midmean over {towers} tower(s), {each}",
        "peak_rss_mb": "largest ru_maxrss of the pass processes",
    }
    for name, value in metrics.items():
        print(f"  {name:22s} {value:12.6g} {END_TO_END[name]:4s} {notes[name]}")
    print(f"  {'failed_share':22s} {len(failures) / attempted:12.6g} ratio")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--one-pass", type=int, metavar="N", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    try:
        import pmm
    except ImportError as exc:
        print(f"cannot import pmm from {src}: {exc}", file=sys.stderr)
        return 2
    if not os.path.abspath(pmm.__file__).startswith(src + os.sep):
        print(f"pmm was imported from {pmm.__file__}, not from {src}", file=sys.stderr)
        return 2
    if not os.path.exists(PINNED):
        print(f"missing {PINNED}; run perfbench/pin.py at the pinned commit",
              file=sys.stderr)
        return 2
    if args.one_pass is not None:
        result = one_pass(args.workload, args.seed, bool(args.trace), args.one_pass)
    else:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
