"""JSON interchange: input towers, barcodes, presentations, reports, models.

One canonical machine format; rational numbers travel as exact strings
("1/3", never decimals), outputs are deterministic (sorted keys, fixed
orderings, no timestamps), and every document carries enough structure to
be reloaded and re-validated.
"""
from __future__ import annotations

import json
import re
from fractions import Fraction

from .cdga import (
    Algebra, CdgaElement, CdgaMorphism, FiniteCDGA, FreeCDGA, free_cdga,
    )
from .errors import ParseError, SchemaError, ValidationError
from .expressions import parse_expression, render_element
from .exactla import QMatrix
from .homotopy import CdgaHomotopy, IntervalElement
from .persistence import INF, Bar, Grid, PersistenceModule
from .pcomplex import PComplexMap, PersistentComplex
from .pminimal import (
    INTERNAL_HEADROOM, PersistentCDGA, TameMinimalModel, homotopy_barcode,
    presentation,
)

SCHEMA_VERSION = 1
# Exact, short numbers only: Fraction("1e99999999") would build 10^99999999.
_RATIONAL = re.compile(r"-?[0-9]+(\.[0-9]+|/0*[1-9][0-9]*)?", re.ASCII)


def _rational(s, where="") -> Fraction:
    """A JSON integer, or a string "[-]digits", "[-]digits.digits" or
    "[-]digits/digits" (nonzero denominator), at most 100 characters long."""
    text = str(s) if type(s) is int else s if isinstance(s, str) else ""
    if len(text) > 100 or not _RATIONAL.fullmatch(text):
        raise SchemaError(f"bad rational {s!r:.60} {where}: want an integer, decimal or p/q")
    return Fraction(text)


def _int(x, where: str) -> int:
    if type(x) is not int:  # a JSON integer: not a bool, a float or a numeric string
        raise SchemaError(f"bad integer {x!r} in {where}")
    return x


def _key(key: str, where: str, top: int = 999_999) -> int:
    """An integer in 0..top written as a JSON object key, such as "2"; its
    length is checked first, as int() refuses strings of over 4,300 digits."""
    if not key.isdecimal() or len(key) > len(str(top)) or int(key) > top:
        raise SchemaError(f"bad integer key {key!r:.60} in {where}")
    return int(key)


def _name(x, where: str) -> str:
    """A generator name or basis label: a JSON string."""
    if not isinstance(x, str):
        raise SchemaError(f"bad name {x!r:.60} in {where}: want a JSON string")
    return x


def _exact_keys(spec: dict, names, where: str):
    """spec, keyed by the domain's generators or labels, has each of `names`
    as a key and no other key."""
    missing, unknown = sorted(set(names) - set(spec)), sorted(set(spec) - set(names))
    if missing:
        raise SchemaError(f"{where}: missing entries for {missing}")
    if unknown:
        raise SchemaError(f"{where}: {unknown} name no generator or label of the domain")


def _need(doc, key: str, where: str, kind: type):
    if not isinstance(doc, dict):
        raise SchemaError(f"{where}: expected a JSON object, got {doc!r:.40}")
    if key not in doc:
        raise SchemaError(f"missing key {key!r} in {where}")
    if not isinstance(doc[key], kind):
        raise SchemaError(f"{key!r} in {where} must be a JSON "
                          f"{'array' if kind is list else 'object'}")
    return doc[key]


def _objects(doc, key: str, where: str, count: int) -> list:
    """The array doc[key], which must hold exactly `count` JSON objects."""
    items = _need(doc, key, where, list)
    if len(items) != count or not all(isinstance(x, dict) for x in items):
        raise SchemaError(f"{key!r} in {where} must be {count} JSON objects")
    return items


def _optional(doc, key: str, where: str, kind: type):
    """Like _need, but an absent key reads as an empty array or object."""
    return kind() if isinstance(doc, dict) and key not in doc else _need(doc, key, where, kind)


# -- input documents ---------------------------------------------------------

def load_grid(doc) -> Grid:
    times = [_rational(t, "in grid") for t in doc]
    if not times:
        raise SchemaError("grid must be nonempty")
    try:
        return Grid(tuple(times))
    except ValidationError as exc:
        raise SchemaError(str(exc)) from exc


def _build_free_stage(spec: dict, cap: int, where: str) -> FreeCDGA:
    gens = []
    d_src = {}
    for g in _need(spec, "generators", where, list):
        name = _name(_need(g, "name", where, object), where)
        degree = _int(_need(g, "degree", where, object), where)
        gens.append((name, degree))
        d_src[name] = str(g.get("d", "0"))
    scratch = free_cdga(gens, {}, cap)
    diffs = {}
    for name, src in d_src.items():
        try:
            elem = parse_expression(src, scratch, require_homogeneous=True)
        except ParseError as exc:
            raise SchemaError(f"{where}: d({name}): {exc}") from exc
        diffs[name] = elem.terms
    try:
        return free_cdga(gens, diffs, cap)
    except ValidationError as exc:
        raise ValidationError(f"{where}: {exc}") from exc


def _build_finite_stage(spec: dict, cap: int, where: str) -> FiniteCDGA:
    basis: dict[int, list[str]] = {}
    for entry in _need(spec, "basis", where, list):
        basis[_int(_need(entry, "degree", where, object), where)] = \
            [_name(lab, where) for lab in _need(entry, "labels", where, list)]
    unit = _name(_need(spec, "unit", where, object), where)
    scratch = FiniteCDGA(basis={k: v for k, v in basis.items()}, unit=unit,
                         products={}, differential={}, degree_cap=cap)
    products = {}
    for entry in _optional(spec, "products", where, list):
        left = _name(_need(entry, "left", where, object), where)
        right = _name(_need(entry, "right", where, object), where)
        value = parse_expression(str(_need(entry, "value", where, object)), scratch)
        products[(left, right)] = {scratch.label_of(k): c for k, c in value.terms.items()}
    differential = {}
    for entry in _optional(spec, "differentials", where, list):
        lab = _name(_need(entry, "of", where, object), where)
        value = parse_expression(str(_need(entry, "value", where, object)), scratch)
        differential[lab] = {scratch.label_of(k): c for k, c in value.terms.items()}
    try:
        return FiniteCDGA(basis=basis, unit=unit, products=products,
                          differential=differential, degree_cap=cap)
    except ValidationError as exc:
        raise ValidationError(f"{where}: {exc}") from exc


def _build_stage_map(spec: dict, dom: Algebra, cod: Algebra, where: str) -> CdgaMorphism:
    images_spec = _need(spec, "images", where, dict)
    images = {}
    for name, src in images_spec.items():
        try:
            images[name] = parse_expression(str(src), cod)
        except ParseError as exc:
            raise SchemaError(f"{where}: image of {name!r}: {exc}") from exc
    if dom.kind == "free":
        _exact_keys(images, [g.name for g in dom.generators], where)
        return CdgaMorphism.on_generators(dom, cod, images)
    images.setdefault(dom.unit_label, cod.one())
    _exact_keys(images, [dom.label_of(k) for n in range(dom.degree_cap + 1)
                         for k in dom.basis_keys(n)], where)
    return CdgaMorphism.on_basis(dom, cod, images)


def load_input(doc: dict) -> PersistentCDGA:
    """Parse and validate a persistent-CDGA input document."""
    grid = load_grid(_need(doc, "grid", "input", list))
    user_cap = _int(_need(doc, "degree_cap", "input", object), "input")
    if user_cap < 2:
        raise SchemaError("degree_cap must be at least 2")
    cap = user_cap + INTERNAL_HEADROOM
    stage_specs = _objects(doc, "stages", "input", len(grid))
    stages = []
    for r, spec in enumerate(stage_specs):
        where = f"stage {r}"
        kind = _need(spec, "type", where, object)
        if kind == "free":
            stages.append(_build_free_stage(spec, cap, where))
        elif kind == "finite":
            stages.append(_build_finite_stage(spec, cap, where))
        else:
            raise SchemaError(f"{where}: unknown stage type {kind!r}")
    map_specs = _objects(doc, "maps", "input", len(grid) - 1)
    maps = [_build_stage_map(spec, stages[r], stages[r + 1], f"map {r}")
            for r, spec in enumerate(map_specs)]
    return PersistentCDGA(grid, stages, maps, user_cap)


# -- persistence modules and complexes ---------------------------------------

def load_matrix(rows, want_rows: int, want_cols: int, where: str) -> QMatrix:
    data = [[_rational(x, where) for x in row] for row in rows]
    if len(data) != want_rows or any(len(r) != want_cols for r in data):
        raise SchemaError(f"{where}: matrix shape mismatch, "
                          f"want {want_rows}x{want_cols}")
    return QMatrix(want_rows, want_cols, data)


def load_persistence_module(doc: dict) -> PersistenceModule:
    grid = load_grid(_need(doc, "grid", "module", list))
    dims = [_int(x, "dims") for x in _need(doc, "dims", "module", list)]
    if len(dims) != len(grid):
        raise SchemaError("dims must match grid length")
    map_specs = _need(doc, "maps", "module", list)
    maps = [load_matrix(spec, dims[r + 1], dims[r], f"module map {r}")
            for r, spec in enumerate(map_specs)]
    try:
        return PersistenceModule(grid, tuple(dims), tuple(maps))
    except ValidationError as exc:
        raise SchemaError(str(exc)) from exc


def load_pcomplex(doc: dict) -> PersistentComplex:
    grid = load_grid(_need(doc, "grid", "complex", list))
    max_degree = _int(_need(doc, "max_degree", "complex", object), "complex")
    stage_specs = _objects(doc, "stages", "complex", len(grid))
    labels = []
    for spec in stage_specs:
        basis = _need(spec, "basis", "complex stage", dict)
        labels.append([list(_optional(basis, str(k), "complex stage", list))
                       for k in range(max_degree + 1)])
    d = []
    for r, spec in enumerate(stage_specs):
        dd = {}
        for key, rows in _optional(spec, "d", "complex stage", dict).items():
            k = _key(key, f"d of stage {r}", max_degree - 1)
            dd[k] = load_matrix(rows, len(labels[r][k + 1]), len(labels[r][k]),
                                f"d({r},{k})")
        d.append(dd)
    sigma = []
    for r, spec in enumerate(_objects(doc, "maps", "complex", len(grid) - 1)):
        ss = {}
        for key, rows in spec.items():
            k = _key(key, f"map {r}", max_degree)
            ss[k] = load_matrix(rows, len(labels[r + 1][k]), len(labels[r][k]),
                                f"sigma({r},{k})")
        sigma.append(ss)
    try:
        return PersistentComplex(grid, max_degree, labels, d, sigma)
    except ValidationError as exc:
        raise ValidationError(f"complex invalid: {exc}") from exc


def load_pcomplex_map(doc: dict) -> PComplexMap:
    source = load_pcomplex(_need(doc, "source", "map document", dict))
    target = load_pcomplex(_need(doc, "target", "map document", dict))
    comp_specs = _objects(doc, "components", "map document", len(source.grid))
    comps = []
    for r, spec in enumerate(comp_specs):
        cc = {}
        for key, rows in spec.items():
            k = _key(key, f"component {r}", source.max_degree)
            cc[k] = load_matrix(rows, target.dim(r, k), source.dim(r, k),
                                f"component ({r},{k})")
        comps.append(cc)
    try:
        return PComplexMap(source, target, comps)
    except ValidationError as exc:
        raise ValidationError(f"map invalid: {exc}") from exc


# -- emission -----------------------------------------------------------------

def barcode_payload(bars, grid: Grid) -> list[dict]:
    out = []
    for b in sorted(bars, key=Bar.sort_key):
        out.append({
            "degree": b.degree,
            "birth": str(grid.times[b.birth]),
            "death": None if b.death == INF else str(grid.times[int(b.death)]),
        })
    return out


def presentation_payload(model: TameMinimalModel) -> dict:
    pres = presentation(model)
    return {
        "generators": [{
            "name": e.name, "degree": e.degree,
            "birth": str(e.birth_time),
            "death": None if e.death_time is None else str(e.death_time),
            "differential": e.differential,
            "endpoint": e.endpoint,
        } for e in pres.entries],
        "text": pres.text(),
    }


def model_payload(model: TameMinimalModel, input_doc: dict) -> dict:
    """Self-contained serialization: the input tower plus the model data."""
    n = len(model.grid)
    gens = []
    for g in model.generators:
        gens.append({
            "name": g.name, "degree": g.degree, "birth": g.birth,
            "death": None if g.death == INF else int(g.death),
            "d": render_element(g.birth_differential),
            "endpoint": None if g.endpoint_image is None
            else render_element(g.endpoint_image),
        })
    stage_models = []
    for r in range(n):
        stage_models.append({
            name: render_element(img)
            for name, img in sorted(model.models[r].gen_images.items())})
    homos = []
    for r in range(n - 1):
        stage = {}
        for name in sorted(model.homotopies[r].assignment):
            iv = model.homotopies[r].assignment[name]
            stage[name] = {
                "poly": {str(k): render_element(v) for k, v in sorted(iv.poly.items())},
                "dt": {str(k): render_element(v) for k, v in sorted(iv.dt.items())},
            }
        homos.append(stage)
    return {
        "schema_version": SCHEMA_VERSION,
        "input": input_doc,
        "model": {"degree_cap": model.target.user_cap, "generators": gens,
                  "stage_models": stage_models, "homotopies": homos},
    }


def load_model(doc: dict) -> tuple[PersistentCDGA, TameMinimalModel]:
    """Rebuild a TameMinimalModel from its serialized form (and its input)."""
    target = load_input(_need(doc, "input", "model document", dict))
    spec = _need(doc, "model", "model document", dict)
    if _int(_need(spec, "degree_cap", "model", object), "model") != target.user_cap:
        raise SchemaError(f"model degree_cap differs from the input's {target.user_cap}")
    n = len(target.grid)
    icap = target.internal_cap
    entries = _need(spec, "generators", "model", list)
    where = "model generator"
    for e in entries:
        _name(_need(e, "name", where, object), where)
        _need(e, "d", where, object)
        _int(_need(e, "degree", where, object), where)
        birth = _int(_need(e, "birth", where, object), where)
        death = _need(e, "death", where, object)
        if not 0 <= birth < n or (death is not None and not birth < _int(death, where) < n):
            raise SchemaError(f"{where} {e['name']!r}: lifespan outside the grid")

    def alive(e, r):
        death = e["death"]
        return e["birth"] <= r and (death is None or r < death)

    algebras: list[FreeCDGA] = []
    sigmas: list[CdgaMorphism] = []
    prev = None
    for r in range(n):
        live = [e for e in entries if alive(e, r)]
        gens = [(e["name"], e["degree"]) for e in live]
        scratch = free_cdga(gens, {}, icap)
        d_terms = {}
        sigma_images_scratch = {}
        if r > 0:
            for e in entries:
                if not alive(e, r - 1):
                    continue
                if alive(e, r):
                    sigma_images_scratch[e["name"]] = scratch.gen(e["name"])
                else:
                    src = e.get("endpoint") or "0"
                    sigma_images_scratch[e["name"]] = parse_expression(src, scratch)
            bridge = CdgaMorphism.on_generators(prev, scratch, sigma_images_scratch)
        for e in live:
            if e["birth"] == r:
                d_terms[e["name"]] = parse_expression(str(e["d"]), scratch).terms
            else:
                pushed = bridge.apply(prev.generator_diff(e["name"]))
                d_terms[e["name"]] = pushed.terms
        try:
            alg = free_cdga(gens, d_terms, icap)
        except ValidationError as exc:
            raise ValidationError(f"model stage {r}: {exc}") from exc
        if r > 0:
            images = {name: CdgaElement(alg, el.terms)
                      for name, el in sigma_images_scratch.items()}
            sigmas.append(CdgaMorphism.on_generators(prev, alg, images))
        algebras.append(alg)
        prev = alg

    models = []
    for r, stage in enumerate(_objects(spec, "stage_models", "model", n)):
        _exact_keys(stage, [g.name for g in algebras[r].generators], f"stage model {r}")
        images = {name: parse_expression(str(src), target.stages[r])
                  for name, src in stage.items()}
        models.append(CdgaMorphism.on_generators(algebras[r], target.stages[r], images))

    homotopies = []
    for r, stage in enumerate(_objects(spec, "homotopies", "model", n - 1)):
        _exact_keys(stage, [g.name for g in algebras[r].generators], f"homotopy {r}")
        assignment = {}
        for name, parts in stage.items():
            cod = target.stages[r + 1]
            where = f"homotopy {r} of {name!r}"
            poly = {_key(k, where): parse_expression(str(src), cod)
                    for k, src in _optional(parts, "poly", where, dict).items()}
            dt = {_key(k, where): parse_expression(str(src), cod)
                  for k, src in _optional(parts, "dt", where, dict).items()}
            assignment[name] = IntervalElement(cod, poly, dt)
        homotopies.append(CdgaHomotopy(algebras[r], target.stages[r + 1], assignment))

    records = []
    for e in entries:
        birth_alg = algebras[e["birth"]]
        v = parse_expression(str(e["d"]), birth_alg)
        u = None
        if e["death"] is not None:
            u = parse_expression(str(e.get("endpoint") or "0"), algebras[e["death"]])
        records.append({
            "name": e["name"], "degree": e["degree"], "birth": e["birth"],
            "death": INF if e["death"] is None else e["death"], "v": v, "u": u})
    model = TameMinimalModel(target, algebras, sigmas, models, homotopies, records,
                             target.user_cap)
    return target, model


def dump_json(payload, path: str):
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def emit_barcode(model: TameMinimalModel, path: str):
    dump_json(barcode_payload(homotopy_barcode(model).bars, model.grid), path)


def emit_presentation(model: TameMinimalModel, path: str, verbose: bool = False):
    with open(path, "w") as fh:
        fh.write(presentation(model).text(verbose=verbose))
        fh.write("\n")


def emit_report(report: dict, path: str):
    report = dict(report)
    report.setdefault("schema_version", SCHEMA_VERSION)
    dump_json(report, path)
