"""Command-line driver.

Subcommands:
  build      input tower -> barcode, presentation, report (and model file)
  check      re-run the full invariant suite on an input or saved model
  decompose  persistence-module or persistent-complex file -> barcode
  factor     injective persistent-complex map file -> factorization certificate

Exit codes: 0 success, 1 validation failure, 2 parse/schema error (a bad
command line included), 3 internal invariant violation.
"""
from __future__ import annotations

import argparse
import json
import os
import sys

from .errors import InternalError, SchemaError, ValidationError
from .io import (
    SCHEMA_VERSION, barcode_payload, dump_json, emit_barcode,
    emit_presentation, emit_report, load_input, load_model,
    load_pcomplex, load_pcomplex_map, load_persistence_module, model_payload,
)
from .persistence import INF, interval_decompose
from .pminimal import (
    build_persistent_minimal_model, homotopy_barcode, presentation,
    validate_model,
)
from .pcomplex import cohomology as pcomplex_cohomology
from .pcomplex import factor_cofibration

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_SCHEMA = 2
EXIT_INTERNAL = 3


def _load_json(path: str) -> dict:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except FileNotFoundError as exc:
        raise SchemaError(f"{path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:
        # JSONDecodeError, an integer past int()'s digit limit, or arrays and
        # objects nested past the recursion limit
        raise SchemaError(f"{path}: not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise SchemaError(f"{path}: the document must be a JSON object")
    return doc


def _outpath(args, name: str) -> str:
    os.makedirs(args.output, exist_ok=True)
    return os.path.join(args.output, name)


def _with_cap(doc: dict, args) -> dict:
    doc = dict(doc)
    if args.degree_cap is not None:
        doc["degree_cap"] = args.degree_cap
    elif "degree_cap" not in doc:
        doc["degree_cap"] = 6
    return doc


def cmd_build(args) -> int:
    emits = [e.strip() for e in args.emit.split(",") if e.strip()]
    for kind in emits:
        if kind not in ("barcode", "presentation", "report", "model"):
            raise SchemaError(f"unknown emit kind {kind!r}")
    doc = _with_cap(_load_json(args.input), args)
    tower = load_input(doc)
    model = build_persistent_minimal_model(tower)
    report = validate_model(model)
    for kind in emits:
        if kind == "barcode":
            emit_barcode(model, _outpath(args, "barcode.json"))
        elif kind == "presentation":
            emit_presentation(model, _outpath(args, "presentation.txt"),
                              verbose=args.verbose_relations)
        elif kind == "report":
            emit_report(report, _outpath(args, "report.json"))
        elif kind == "model":
            dump_json(model_payload(model, doc), _outpath(args, "model.json"))
    if args.format == "text":
        print(presentation(model).text(verbose=args.verbose_relations))
        for b in homotopy_barcode(model).bars:
            death = "inf" if b.death == INF else str(model.grid.times[int(b.death)])
            print(f"pi_{b.degree}: [{model.grid.times[b.birth]}, {death})")
    else:
        print(json.dumps({
            "barcode": barcode_payload(homotopy_barcode(model).bars, model.grid),
            "presentation": presentation(model).text(),
            "ok": report["ok"],
        }, sort_keys=True))
    if not report["ok"]:
        return EXIT_INTERNAL
    return EXIT_OK


def cmd_check(args) -> int:
    doc = _load_json(args.input)
    if "model" in doc:
        if args.degree_cap is not None:
            raise SchemaError("--degree-cap applies to an input document; "
                              "a saved model keeps its own degree_cap")
        tower, model = load_model(doc)
        report = validate_model(model, against=tower)
    else:
        tower = load_input(_with_cap(doc, args))
        model = build_persistent_minimal_model(tower)
        report = validate_model(model)
    if args.format == "text":
        for key, value in sorted(report.items()):
            print(f"{key}: {value}")
    else:
        print(json.dumps(report, sort_keys=True, default=str))
    emit_report(report, _outpath(args, "report.json"))
    return EXIT_OK if report["ok"] else EXIT_VALIDATION


def cmd_decompose(args) -> int:
    doc = _load_json(args.input)
    bars_out = []
    if "dims" in doc:
        module = load_persistence_module(doc)
        bars, _ = interval_decompose(module)
        grid = module.grid
        bars_out = barcode_payload(bars, grid)
    elif "max_degree" in doc:
        x = load_pcomplex(doc)
        all_bars = []
        for k in range(x.max_degree + 1):
            module = pcomplex_cohomology(x, k)
            bars, _ = interval_decompose(module)
            for b in bars:
                all_bars.append(type(b)(b.birth, b.death, k))
        bars_out = barcode_payload(all_bars, x.grid)
    else:
        raise SchemaError("decompose input must be a persistence module "
                          "(dims/maps) or a persistent complex (max_degree)")
    dump_json(bars_out, _outpath(args, "barcode.json"))
    print(json.dumps(bars_out, sort_keys=True))
    return EXIT_OK


def cmd_factor(args) -> int:
    doc = _load_json(args.input)
    f = load_pcomplex_map(doc)
    cert = factor_cofibration(f)

    def data_payload(d):
        return {
            "degree": d.degree, "birth": d.birth,
            "death": None if d.death == INF else int(d.death),
            "cocycle": [str(c) for c in d.cocycle],
            "bounding": None if d.bounding is None else [str(c) for c in d.bounding],
            "label": d.label,
        }

    payload = {
        "schema_version": SCHEMA_VERSION,
        "stage1": [data_payload(d) for d in cert.stage1],
        "stage2": [data_payload(d) for d in cert.stage2],
        "iso": [{str(k): [[str(x) for x in row] for row in m.data]
                 for k, m in stage.items()} for stage in cert.iso],
        "verified": cert.verified,
    }
    dump_json(payload, _outpath(args, "factorization.json"))
    print(json.dumps({"verified": cert.verified,
                      "stage1_cells": len(cert.stage1),
                      "stage2_cells": len(cert.stage2)}, sort_keys=True))
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """argparse, with a bad command line raised as a SchemaError: `main`
    returns 2 and prints one `schema error:` line, not a usage and exit."""

    def error(self, message):
        raise SchemaError(message)


def make_parser() -> argparse.ArgumentParser:
    p = _Parser(
        prog="pmm",
        description="Persistent Sullivan minimal models of tame persistent "
                    "CDGAs over Q")
    sub = p.add_subparsers(dest="command", required=True)
    parsers = {}
    for name, fn in (("build", cmd_build), ("check", cmd_check),
                     ("decompose", cmd_decompose), ("factor", cmd_factor)):
        sp = parsers[name] = sub.add_parser(name)
        sp.add_argument("--input", required=True, help="input JSON file")
        sp.add_argument("--output", default=".", help="output directory")
        sp.set_defaults(fn=fn)
    for name in ("build", "check"):
        parsers[name].add_argument(
            "--degree-cap", type=int, default=None,
            help="override the input document's degree cap (default 6 when "
                 "the document omits it; not for a saved model)")
        parsers[name].add_argument("--format", choices=("json", "text"), default="json")
    parsers["build"].add_argument("--emit", default="barcode,presentation,report",
                                  help="comma list: barcode,presentation,report,model")
    parsers["build"].add_argument("--verbose-relations", action="store_true",
                                  help="include trivial relations in presentations")
    return p


def main(argv=None) -> int:
    try:
        args = make_parser().parse_args(argv)
        return args.fn(args)
    except SchemaError as exc:
        print(f"schema error: {exc}", file=sys.stderr)
        return EXIT_SCHEMA
    except ValidationError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except InternalError as exc:
        print(f"internal invariant violation: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except Exception as exc:  # the exit-code contract: never a raw traceback
        message = " ".join(f"{type(exc).__name__}: {exc}".splitlines())
        print(f"internal error: {message}", file=sys.stderr)
        return EXIT_INTERNAL


def entry():
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
