"""Outside-in tracing of `pmm`, installed from the benchmark's side.

`Tracer.install` replaces the public functions of each `pmm` layer with
wrappers that record a span (name, start, end, parent span, request) and
a few counters, and `Tracer.uninstall` puts the originals back.  A function
imported with `from .x import f` is bound in every importing module, so each
binding is replaced.  Nothing inside `src/` changes.

A tracer lives in the process of one pass of the workload.  Spans are kept in
memory; `summary` turns them into per-layer metrics and `dump` appends them
to a file as JSON lines.
"""
from __future__ import annotations

import json
import sys
import time
from collections import defaultdict

# Per-layer time metric -> the span names it covers.  A metric's value is
# inclusive busy time: the duration of its spans, not counting a span whose
# ancestor is also one of its spans.
TIME_METRICS = {
    "exactla.rref_s": ("exactla.rref",),
    "exactla.matmul_s": ("exactla.matmul",),
    "pcomplex.validate_s": ("pcomplex.validate",),
    "homotopy.check_chain_map_s": ("homotopy.check_chain_map",),
    "homotopy.cone_d_matrix_s": ("homotopy.cone_d_matrix",),
    "homotopy.cone_map_matrix_s": ("homotopy.cone_map_matrix",),
    "pminimal.surgery_step_s": ("pminimal.surgery_step",),
    "pminimal.tame_cone_s": ("pminimal.tame_cone",),
    "pminimal.extend_state_s": ("pminimal.extend_state",),
    "pminimal.verify_surgery_s": ("pminimal.verify_surgery",),
    "pminimal.death_solve_s": ("pminimal.death_solve",),
    "pminimal.validate_model_s": ("pminimal.validate_model",),
    "cochain.compute_cohomology_s": ("cochain.compute_cohomology",),
    "cochain.class_of_s": ("cochain.class_of",),
    "persistence.interval_decompose_s": ("persistence.interval_decompose",),
    "cdga.validate_morphism_s": ("cdga.validate_morphism",),
    "minimal.check_minimality_s": ("minimal.check_minimality",),
    "io.load_input_s": ("io.load_input",),
    "io.load_model_s": ("io.load_model",),
    "io.emit_s": ("io.emit_barcode", "io.emit_presentation", "io.emit_report",
                  "io.model_payload", "io.dump_json"),
    "expressions.parse_s": ("expressions.parse",),
    "expressions.render_s": ("expressions.render",),
}

# Per-layer call counts -> the span name counted.
CALL_METRICS = {
    "exactla.rref_calls": "exactla.rref",
    "exactla.matmul_calls": "exactla.matmul",
    "pcomplex.validate_calls": "pcomplex.validate",
    "pminimal.death_solve_calls": "pminimal.death_solve",
    "cochain.compute_cohomology_calls": "cochain.compute_cohomology",
    "cochain.class_of_calls": "cochain.class_of",
    "cdga.validate_morphism_calls": "cdga.validate_morphism",
}

LAYERS = ("exactla", "pcomplex", "homotopy", "pminimal", "cochain",
          "persistence", "cdga", "minimal", "io", "expressions")

COUNT_METRICS = (tuple(CALL_METRICS) + (
    "exactla.rref_cells", "exactla.rref_max_cells", "exactla.rref_nonzero_share",
    "exactla.rref_repeat_share", "exactla.matmul_madds", "persistence.bars",
    "pminimal.tame_cone_degree_use"))

PER_LAYER = tuple(TIME_METRICS) + COUNT_METRICS + tuple(
    f"{layer}.self_s" for layer in LAYERS) + ("trace.overhead_s",)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []      # [name, start, end, parent, request]
        self.stack: list[int] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.request = None
        self._seen_rref: set[int] = set()
        self._cone_reads: set[tuple] = set()
        self._cones = 0
        self._patches: list[tuple] = []

    # -- wrapping ---------------------------------------------------------------

    def _wrap(self, name, fn, before=None, after=None):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def wrapper(*args, **kwargs):
            if before is not None:
                before(*args)
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.request]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if after is not None:
                after(result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _set(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _replace_everywhere(self, fn, wrapper):
        """Rebind `fn` in every loaded pmm module that binds it."""
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "pmm" or mod_name.startswith("pmm.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    self._set(mod, attr, wrapper)

    def install(self):
        from pmm import (cdga, cochain, exactla, expressions, homotopy, io,
                         minimal, pcomplex, persistence, pminimal)

        functions = [
            (exactla.rref, "exactla.rref", self._on_rref, None),
            (cochain.compute_cohomology, "cochain.compute_cohomology", None, None),
            (persistence.interval_decompose, "persistence.interval_decompose",
             None, self._on_bars),
            (cdga.validate_morphism, "cdga.validate_morphism", None, None),
            (minimal.check_minimality, "minimal.check_minimality", None, None),
            (pminimal.build_persistent_minimal_model, "pminimal.build", None, None),
            (pminimal.surgery_step, "pminimal.surgery_step", None, None),
            (pminimal.tame_cone, "pminimal.tame_cone", None, self._on_tame_cone),
            (pminimal._extend_state, "pminimal.extend_state", None, None),
            (pminimal._verify_surgery, "pminimal.verify_surgery", None, None),
            (pminimal.validate_model, "pminimal.validate_model", None, None),
            (io.load_input, "io.load_input", None, None),
            (io.load_model, "io.load_model", None, None),
            (io.emit_barcode, "io.emit_barcode", None, None),
            (io.emit_presentation, "io.emit_presentation", None, None),
            (io.emit_report, "io.emit_report", None, None),
            (io.model_payload, "io.model_payload", None, None),
            (io.dump_json, "io.dump_json", None, None),
            (expressions.parse_expression, "expressions.parse", None, None),
            (expressions.render_element, "expressions.render", None, None),
        ]
        for fn, name, before, after in functions:
            self._replace_everywhere(fn, self._wrap(name, fn, before, after))
        # The only solve surgery makes is the death solve.
        self._set(pminimal, "solve", self._wrap("pminimal.death_solve", pminimal.solve))

        methods = [
            (exactla.QMatrix, "__matmul__", "exactla.matmul", self._on_matmul),
            (pcomplex.PersistentComplex, "validate", "pcomplex.validate", None),
            (homotopy.ConeMap, "check_chain_map", "homotopy.check_chain_map", None),
            (homotopy.ConeComplex, "d_matrix", "homotopy.cone_d_matrix", None),
            (homotopy.ConeMap, "matrix", "homotopy.cone_map_matrix", None),
            (cochain.CohomologySpace, "class_of", "cochain.class_of", None),
        ]
        for cls, attr, name, before in methods:
            self._set(cls, attr, self._wrap(name, getattr(cls, attr), before))

        for attr, kind in (("d_mat", "d"), ("sigma_mat", "sigma")):
            self._set(pcomplex.PersistentComplex, attr,
                      self._count_reads(kind, getattr(pcomplex.PersistentComplex, attr)))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- counters -----------------------------------------------------------------

    def _on_rref(self, m, *_):
        cells = m.rows * m.cols
        c = self.counts
        c["rref_cells"] += cells
        c["rref_max_cells"] = max(c["rref_max_cells"], cells)
        c["rref_nonzero"] += sum(1 for row in m.data for x in row if x)
        key = hash(m)
        if key in self._seen_rref:
            c["rref_repeats"] += 1
        else:
            self._seen_rref.add(key)

    def _on_matmul(self, a, b):
        self.counts["matmul_madds"] += a.rows * a.cols * b.cols

    def _on_bars(self, result):
        self.counts["bars"] += len(result[0])

    def _on_tame_cone(self, result):
        tc = result[0]
        self._cones += 1
        tc._perfbench_cone = self._cones
        n, degrees = len(tc.grid), tc.max_degree + 1
        self.counts["cone_matrices"] += n * degrees + (n - 1) * degrees

    def _count_reads(self, kind, fn):
        """Record which tame-cone matrices are read after assembly."""
        reads = self._cone_reads

        def wrapper(pc, r, k):
            cone_id = getattr(pc, "_perfbench_cone", None)
            if cone_id is not None and 0 <= k <= pc.max_degree:
                reads.add((cone_id, kind, r, k))
            return fn(pc, r, k)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- results ------------------------------------------------------------------

    def summary(self) -> dict[str, float]:
        """Per-layer metrics of the spans and counters recorded so far."""
        spans = self.spans
        dur = [s[2] - s[1] for s in spans]
        child = [0.0] * len(spans)
        calls: dict[str, int] = defaultdict(int)
        for i, s in enumerate(spans):
            calls[s[0]] += 1
            if s[3] >= 0:
                child[s[3]] += dur[i]
        out: dict[str, float] = {}
        for metric, names in TIME_METRICS.items():
            total = 0.0
            for i, s in enumerate(spans):
                if s[0] in names and not self._nested_in(i, names):
                    total += dur[i]
            out[metric] = total
        layer_self: dict[str, float] = {layer: 0.0 for layer in LAYERS}
        for i, s in enumerate(spans):
            layer = s[0].split(".", 1)[0]
            layer_self[layer] += dur[i] - child[i]
        for layer, value in layer_self.items():
            out[f"{layer}.self_s"] = value
        for metric, name in CALL_METRICS.items():
            out[metric] = calls[name]
        c = self.counts
        rref_calls = calls["exactla.rref"]
        out["exactla.rref_cells"] = c["rref_cells"]
        out["exactla.rref_max_cells"] = c["rref_max_cells"]
        out["exactla.rref_nonzero_share"] = c["rref_nonzero"] / max(c["rref_cells"], 1)
        out["exactla.rref_repeat_share"] = c["rref_repeats"] / max(rref_calls, 1)
        out["exactla.matmul_madds"] = c["matmul_madds"]
        out["persistence.bars"] = c["bars"]
        out["pminimal.tame_cone_degree_use"] = (
            len(self._cone_reads) / max(c["cone_matrices"], 1))
        return out

    def _nested_in(self, i: int, names) -> bool:
        p = self.spans[i][3]
        while p >= 0:
            if self.spans[p][0] in names:
                return True
            p = self.spans[p][3]
        return False

    def dump(self, path: str):
        """Append the spans as JSON lines, times in seconds.

        `parent` is the id of the enclosing span within the same pass.
        """
        with open(path, "a") as fh:
            for i, (name, start, end, parent, request) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start,
                                     "end": end, "parent": parent,
                                     "request": request}) + "\n")
