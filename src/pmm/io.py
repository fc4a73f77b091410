"""JSON interchange: input towers, barcodes, presentations, reports, models.

One canonical machine format; rational numbers travel as exact strings
("1/3", never decimals), outputs are deterministic (sorted keys, fixed
orderings, no timestamps), and every document carries enough structure to
be reloaded and re-validated.  A degree-keyed object of matrices (a complex's
d and maps, a map document's components) has one reader, `_matrices`.
"""
from __future__ import annotations

import json
import re
from fractions import Fraction

from .cdga import (
    Algebra, CdgaMorphism, FiniteCDGA, FreeCDGA, free_cdga,
    )
from .errors import ParseError, SchemaError, ValidationError
from .expressions import parse_expression, render_element
from .exactla import QMatrix
from .persistence import INF, Bar, Grid, PersistenceModule
from .pcomplex import PComplexMap, PersistentComplex
from .pminimal import (
    INTERNAL_HEADROOM, PersistentCDGA, PersistentGenerator, TameMinimalModel,
    _attach_generators, homotopy_barcode, presentation,
)

SCHEMA_VERSION = 1
# A complex document holds one label list per (stage, degree) slot.
MAX_COMPLEX_SLOTS = 100_000
# A module's sections are sparse Rows, so its cost is the elimination: total
# dimension 2,000 (1,000 + 1,000, a 1,000-entry map): 0.9 s, 28 MB, 2-core x86_64.
MAX_MODULE_DIM = 2_000
# A complex's basis labels cost the same, one kernel vector each.
MAX_COMPLEX_LABELS = 2_000
# Elimination fills in: random square maps with 1,500 nonzero entries took up
# to 11 s to decompose, with 1,000 up to 3.2 s (2-core x86_64, Python 3.11.7).
MAX_MODULE_NONZEROS = 1_000
# So do a complex's d and maps together (1,000 entries: up to 3.7 s; 2,000:
# up to 18 s), and a map document's components.
MAX_COMPLEX_NONZEROS = 1_000
# Exact, short numbers only: Fraction("1e99999999") would build 10^99999999.
_RATIONAL = re.compile(r"-?[0-9]+(\.[0-9]+|/0*[1-9][0-9]*)?", re.ASCII)


def _rational(s, where="") -> Fraction:
    """A JSON integer, or a string "[-]digits", "[-]digits.digits" or
    "[-]digits/digits" (nonzero denominator), at most 100 characters long."""
    if type(s) is int and -10**99 < s < 10**100:  # str(s) is at most 100 characters
        return Fraction(s)
    text = str(s) if type(s) is int else s if isinstance(s, str) else ""
    if len(text) > 100 or not _RATIONAL.fullmatch(text):
        raise SchemaError(f"bad rational {s!r:.60} {where}: want an integer, decimal or p/q")
    return Fraction(text)


def _int(x, where: str) -> int:
    if type(x) is not int:  # a JSON integer: not a bool, a float or a numeric string
        raise SchemaError(f"bad integer {x!r} in {where}")
    return x


def _key(key: str, where: str, top: int = 999_999) -> int:
    """An integer in 0..top written as a JSON object key in its one ASCII
    decimal form str(n), such as "2".  "02" or non-ASCII digits would name
    the same integer as another key of the object, so they are refused.  The
    length is checked before int(), which refuses strings of over 4,300 digits."""
    if (not (key.isascii() and key.isdecimal()) or len(key) > len(str(top))
            or str(int(key)) != key or int(key) > top):
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


def _parse_entry(src, algebra: Algebra, where: str, require_homogeneous: bool = False):
    """An expression of a stage or map entry, read in `algebra`; a ParseError
    is refused as a SchemaError that names the entry, `where`."""
    try:
        return parse_expression(str(src), algebra, require_homogeneous)
    except ParseError as exc:
        raise SchemaError(f"{where}: {exc}") from exc


def _build_free_stage(spec: dict, cap: int, where: str) -> FreeCDGA:
    gens = []
    d_src = {}
    for g in _need(spec, "generators", where, list):
        name = _name(_need(g, "name", where, object), where)
        degree = _int(_need(g, "degree", where, object), where)
        gens.append((name, degree))
        d_src[name] = g.get("d", "0")
    scratch = free_cdga(gens, {}, cap)
    diffs = {name: _parse_entry(src, scratch, f"{where}: d({name})",
                                require_homogeneous=True).terms
             for name, src in d_src.items()}
    try:
        return free_cdga(gens, diffs, cap)
    except ValidationError as exc:
        raise ValidationError(f"{where}: {exc}") from exc


def _once(table: dict, key, value, where: str, kind: str, name: str):
    """table[key] = value, refusing a second `kind` entry for the same key:
    which of the two is meant cannot be told."""
    if key in table:
        raise SchemaError(f"{where}: two {kind} entries for {name}")
    table[key] = value


def _build_finite_stage(spec: dict, cap: int, where: str) -> FiniteCDGA:
    basis: dict[int, list[str]] = {}
    for entry in _need(spec, "basis", where, list):
        degree = _int(_need(entry, "degree", where, object), where)
        _once(basis, degree, [_name(lab, where) for lab in _need(entry, "labels", where, list)],
              where, "basis", f"degree {degree}")
    unit = _name(_need(spec, "unit", where, object), where)
    scratch = FiniteCDGA(basis={k: v for k, v in basis.items()}, unit=unit,
                         products={}, differential={}, degree_cap=cap)
    products = {}
    for entry in _optional(spec, "products", where, list):
        left = _name(_need(entry, "left", where, object), where)
        right = _name(_need(entry, "right", where, object), where)
        value = _parse_entry(_need(entry, "value", where, object), scratch,
                             f"{where}: product {left},{right}")
        _once(products, (left, right), {scratch.label_of(k): c for k, c in value.terms.items()},
              where, "products", f"{left},{right}")
    differential = {}
    for entry in _optional(spec, "differentials", where, list):
        lab = _name(_need(entry, "of", where, object), where)
        value = _parse_entry(_need(entry, "value", where, object), scratch, f"{where}: d({lab})")
        _once(differential, lab, {scratch.label_of(k): c for k, c in value.terms.items()},
              where, "differentials", lab)
    try:
        return FiniteCDGA(basis=basis, unit=unit, products=products,
                          differential=differential, degree_cap=cap)
    except ValidationError as exc:
        raise ValidationError(f"{where}: {exc}") from exc


def _build_stage_map(spec: dict, dom: Algebra, cod: Algebra, where: str) -> CdgaMorphism:
    images_spec = _need(spec, "images", where, dict)
    images = {name: _parse_entry(src, cod, f"{where}: image of {name!r}")
              for name, src in images_spec.items()}
    if dom.kind == "free":
        _exact_keys(images, [g.name for g in dom.generators], where)
        return CdgaMorphism.on_generators(dom, cod, images)
    images.setdefault(dom.unit_label, cod.one())
    _exact_keys(images, [dom.label_of(k) for n in range(dom.degree_cap + 1)
                         for k in dom.basis_keys(n)], where)
    return CdgaMorphism.on_basis(dom, cod, images)


def _same_json(a, b) -> bool:
    """Whether a and b are equal under == and the same JSON: 2, 2.0 and true
    are equal, but only 2 is an integer to `_int`.  False when either cannot
    be compared or written as JSON (too deep), so the caller reads b itself."""
    try:
        return a == b and json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)
    except (TypeError, ValueError, RecursionError):
        return False


def load_input(doc: dict) -> PersistentCDGA:
    """Parse and validate a persistent-CDGA input document.

    A stage document equal to an earlier one, type for type (`_same_json`),
    gives that stage's algebra object again: it is parsed and checked once,
    and the build sees the equal stages as one.  A stage is refused at its
    first occurrence, in its own words."""
    grid = load_grid(_need(doc, "grid", "input", list))
    user_cap = _int(_need(doc, "degree_cap", "input", object), "input")
    if user_cap < 2:
        raise SchemaError("degree_cap must be at least 2")
    cap = user_cap + INTERNAL_HEADROOM
    stage_specs = _objects(doc, "stages", "input", len(grid))
    stages, built = [], []  # built: (document, stage) of each distinct stage
    for r, spec in enumerate(stage_specs):
        where = f"stage {r}"
        stage = next((a for s, a in built if _same_json(s, spec)), None)
        if stage is None:
            kind = _need(spec, "type", where, object)
            if kind == "free":
                stage = _build_free_stage(spec, cap, where)
            elif kind == "finite":
                stage = _build_finite_stage(spec, cap, where)
            else:
                raise SchemaError(f"{where}: unknown stage type {kind!r}")
            built.append((spec, stage))
        stages.append(stage)
    map_specs = _objects(doc, "maps", "input", len(grid) - 1)
    maps = [_build_stage_map(spec, stages[r], stages[r + 1], f"map {r}")
            for r, spec in enumerate(map_specs)]
    return PersistentCDGA(grid, stages, maps, user_cap)


# -- persistence modules and complexes ---------------------------------------

def load_matrix(rows, want_rows: int, want_cols: int, where: str) -> QMatrix:
    """A dense JSON matrix read into sparse rows: every entry is checked, a
    bad one refused before the shape, but a JSON-integer zero or the string
    "0" makes no Fraction."""
    if not isinstance(rows, list) or not all(isinstance(row, list) for row in rows):
        raise SchemaError(f"{where}: a matrix must be a JSON array of arrays")
    data = []
    for row in rows:
        sparse = {}
        for j, x in enumerate(row):
            if x != "0" and (type(x) is not int or x):
                c = _rational(x, where)
                if c:
                    sparse[j] = c
        data.append(sparse)
    if len(rows) != want_rows or any(len(r) != want_cols for r in rows):
        raise SchemaError(f"{where}: matrix shape mismatch, "
                          f"want {want_rows}x{want_cols}")
    return QMatrix._of(want_rows, want_cols, tuple(data))


def _matrices(spec: dict, where: str, top: int, shape, name: str) -> dict[int, QMatrix]:
    """An object of matrices keyed by degree, each key (k in 0..top, else
    refused in `where`) read before its matrix, of shape(k), named f"{name},{k})"."""
    out = {}
    for key, rows in spec.items():
        k = _key(key, where, top)
        out[k] = load_matrix(rows, *shape(k), f"{name},{k})")
    return out


def _bound_nonzeros(mats, bound: int, what: str, entries: str):
    nonzeros = sum(m.nonzeros() for m in mats)
    if nonzeros > bound:
        raise SchemaError(f"{what} too large: {nonzeros} nonzero {entries} entries is over {bound}")


def load_persistence_module(doc: dict) -> PersistenceModule:
    grid = load_grid(_need(doc, "grid", "module", list))
    dims = [_int(x, "dims") for x in _need(doc, "dims", "module", list)]
    if len(dims) != len(grid):
        raise SchemaError("dims must match grid length")
    if min(dims) < 0:
        raise SchemaError(f"module dimension {min(dims)} is negative")
    if sum(dims) > MAX_MODULE_DIM:
        raise SchemaError(f"module too large: total dimension {sum(dims)} is over {MAX_MODULE_DIM}")
    map_specs = _need(doc, "maps", "module", list)
    if len(map_specs) != len(grid) - 1:
        raise SchemaError(f"module has {len(map_specs)} maps for {len(grid) - 1} stage pairs")
    maps = [load_matrix(spec, dims[r + 1], dims[r], f"module map {r}")
            for r, spec in enumerate(map_specs)]
    _bound_nonzeros(maps, MAX_MODULE_NONZEROS, "module", "map")
    return PersistenceModule(grid, tuple(dims), tuple(maps))


def load_pcomplex(doc: dict) -> PersistentComplex:
    grid = load_grid(_need(doc, "grid", "complex", list))
    max_degree = _int(_need(doc, "max_degree", "complex", object), "complex")
    if max_degree < 0:
        raise SchemaError(f"complex max_degree {max_degree} is negative")
    if len(grid) * (max_degree + 1) > MAX_COMPLEX_SLOTS:
        raise SchemaError(f"complex too large: {len(grid)} stages x {max_degree + 1} degrees "
                          f"is over {MAX_COMPLEX_SLOTS} (stage, degree) slots")
    stage_specs = _objects(doc, "stages", "complex", len(grid))
    labels = []
    for spec in stage_specs:
        basis = _need(spec, "basis", "complex stage", dict)
        for key in basis:
            _key(key, "complex stage basis", max_degree)
        labels.append([[_name(lab, "complex stage basis")
                        for lab in _optional(basis, str(k), "complex stage", list)]
                       for k in range(max_degree + 1)])
    total = sum(len(labs) for stage in labels for labs in stage)
    if total > MAX_COMPLEX_LABELS:
        raise SchemaError(f"complex too large: {total} basis labels is over {MAX_COMPLEX_LABELS}")
    d = [_matrices(_optional(spec, "d", "complex stage", dict), f"d of stage {r}",
                   max_degree - 1, lambda k: (len(labels[r][k + 1]), len(labels[r][k])), f"d({r}")
         for r, spec in enumerate(stage_specs)]
    sigma = [_matrices(spec, f"map {r}", max_degree,
                       lambda k: (len(labels[r + 1][k]), len(labels[r][k])), f"sigma({r}")
             for r, spec in enumerate(_objects(doc, "maps", "complex", len(grid) - 1))]
    _bound_nonzeros([m for mats in d + sigma for m in mats.values()],
                    MAX_COMPLEX_NONZEROS, "complex", "d and map")
    try:
        return PersistentComplex(grid, max_degree, labels, d, sigma)
    except ValidationError as exc:
        raise ValidationError(f"complex invalid: {exc}") from exc


def load_pcomplex_map(doc: dict) -> PComplexMap:
    source = load_pcomplex(_need(doc, "source", "map document", dict))
    target = load_pcomplex(_need(doc, "target", "map document", dict))
    comps = [_matrices(spec, f"component {r}", source.max_degree,
                       lambda k: (target.dim(r, k), source.dim(r, k)), f"component ({r}")
             for r, spec in enumerate(_objects(doc, "components", "map document",
                                               len(source.grid)))]
    _bound_nonzeros([m for cc in comps for m in cc.values()],
                    MAX_COMPLEX_NONZEROS, "map", "component")
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
    for h in model.homotopies:
        stage = {}
        for name in sorted(h.gen_images):
            parts = h.codomain.components(h.gen_images[name])
            stage[name] = {key: {str(j): render_element(b) for (e, j), b in parts.items()
                                 if e == dt} for dt, key in enumerate(("poly", "dt"))}
        homos.append(stage)
    return {
        "schema_version": SCHEMA_VERSION,
        "input": input_doc,
        "model": {"degree_cap": model.target.user_cap, "generators": gens,
                  "stage_models": stage_models, "homotopies": homos},
    }


def load_model(doc: dict) -> tuple[PersistentCDGA, TameMinimalModel]:
    """Rebuild a TameMinimalModel from its serialized form (and its input).

    The saved generators are attached degree by degree, from the unit
    algebras up, by the build's own step (_attach_generators): each "d" is
    read in the birth stage's algebra and each "endpoint" in the death
    stage's, as attached below its degree.  Stage models and homotopies are
    read as saved.  Nothing derived from the model's data is reused from a
    build; bases, a function of the generator degrees alone, are shared by
    every free algebra alive in the process (`pmm.cdga`).
    """
    target = load_input(_need(doc, "input", "model document", dict))
    spec = _need(doc, "model", "model document", dict)
    if _int(_need(spec, "degree_cap", "model", object), "model") != target.user_cap:
        raise SchemaError(f"model degree_cap differs from the input's {target.user_cap}")
    n = len(target.grid)
    entries = _need(spec, "generators", "model", list)
    where = "model generator"
    for e in entries:
        _name(_need(e, "name", where, object), where)
        _need(e, "d", where, object)
        _int(_need(e, "degree", where, object), where)
        birth = _int(_need(e, "birth", where, object), where)
        death = _need(e, "death", where, object)
        try:
            target.grid.check_lifespan(birth, INF if death is None else _int(death, where),
                                       f"{where} {e['name']!r}")
        except ValidationError as exc:
            raise SchemaError(str(exc)) from exc

    trivial = TameMinimalModel.trivial(target)
    algebras, sigmas, records = trivial.algebras, trivial.sigmas, []
    for k in sorted({e["degree"] for e in entries}):
        cells = [PersistentGenerator(
            e["name"], k, e["birth"], INF if e["death"] is None else e["death"],
            parse_expression(str(e["d"]), algebras[e["birth"]]),
            None if e["death"] is None else
            parse_expression(str(e.get("endpoint") or "0"), algebras[e["death"]]))
            for e in entries if e["degree"] == k]
        try:
            algebras, sigmas = _attach_generators(algebras, sigmas, k, cells)
        except ValidationError as exc:
            raise ValidationError(f"model generators of degree {k}: {exc}") from exc
        records += cells

    models = []
    for r, stage in enumerate(_objects(spec, "stage_models", "model", n)):
        _exact_keys(stage, [g.name for g in algebras[r].generators], f"stage model {r}")
        images = {name: parse_expression(str(src), target.stages[r])
                  for name, src in stage.items()}
        models.append(CdgaMorphism.on_generators(algebras[r], target.stages[r], images))

    homotopies = []
    for r, stage in enumerate(_objects(spec, "homotopies", "model", n - 1)):
        _exact_keys(stage, [g.name for g in algebras[r].generators], f"homotopy {r}")
        path = target.stages[r + 1].path
        values = {}
        for name, parts in stage.items():
            where = f"homotopy {r} of {name!r}"
            values[name] = path.zero()
            for dt, key in enumerate(("poly", "dt")):
                part = {_key(j, where): parse_expression(str(src), path.base)
                        for j, src in _optional(parts, key, where, dict).items()}
                for j, b in part.items():
                    values[name] = values[name] + path.tensor(b, j, dt)
        homotopies.append(CdgaMorphism.on_generators(algebras[r], path, values))

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
    dump_json(report, path)
