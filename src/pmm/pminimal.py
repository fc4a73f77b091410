"""Persistent minimal models of tame persistent CDGAs.

The builder sweeps degrees 2..cap.  At degree k it reads H^k of the tame cone
(stage mapping cones glued by the cone maps of the atomic homotopies) from the
stage cones and the degree-k cone maps, decomposes it into interval summands
with exactly-propagated sections, and attaches one persistent generator per
bar: the section's cone cocycle gives the birth differential and the stage
model values; at a finite death the propagated cocycle is bounded by a
deterministic solve whose two components become the endpoint image and the
homotopy correction term.

One step body, attach_classes, attaches generators for surgery and for the
models of maps (minimal.map_model_step): a caller only chooses the classes,
as cells (name, lifespan, cone cocycles, end point or None).  A generator
has one record, PersistentGenerator, kept in gen_records.

Stage algebras carry an internal degree cap two above the requested cap:
degree-cap surgery reads cone cocycles one degree up, whose cocycle
condition reads one degree further.

Surgery at degree k adjoins generators of degree k only, so each step carries
from the last what lies below k (_extend_state): d-matrices, with bases built
from the last step's (hirsch_extend), map and homotopy blocks (inherit), and
stage cone cohomology (ConeComplex.carry_cohomology, after checking that the
cone's d-matrices there equal the previous cone's, or are stacked from the
same block objects); by the same rule a stage cone takes the d(n) and H^n
of the latest stage cone over its two algebra objects where its m(n+1) is
equal.  A model is its generators: _attach_generators makes the stage
algebras and structure maps from the degree-k ones (lifespan, birth
differential, end point), for the build and for io.load_model alike, each
stage algebra looked up in one table by the algebra it extends and the new
(name, pushed differential) pairs.  From io.load_input's one object per
distinct stage and the trivial model's one unit algebra, each distinct stage
algebra is then one object wherever it recurs.

The build checks each generator once, in the step that adds it; the
`inherit` guards show that the old generators' differentials, images and
homotopy values did not change.  validate_model checks every generator.

Verification (README "Verification" has each invariant).  _audit is the one
home of the first six checks, each failure under its report [key]: the build
runs it on the new generators after each step (_verify_surgery raises its
first failure), validate_model on every generator.
- minimality: every stage algebra (check_minimality) [minimality]
- stage models and sigmas are CDGA maps (validate_morphism) [structure]
- squares commute up to H (HomotopySquare.validate) [homotopy_identities];
  the end points of H are then CDGA maps, being equal to composites of CDGA maps
- integration identity through k (check_homotopy_identity), on every
  monomial or on the new generators' columns [homotopy_identities]
- stage cones acyclic through k [connectivity]: the build reduces H^{k-2..k}
  and carries H^{<=k-3} after the equal-matrix check; stage_cones() reuses a
  cone only while its model map is the same object, so validate_model reads
  the build's cones
- each homotopy is a CDGA map into the path algebra (validate_morphism):
  _audit without a window; in the build, _extend_state on the new generators
  [homotopy_identities]
- d^2 = 0: hirsch_extend, on the new generators
- d phi = phi d: ConeMap.check_chain_map, trusting its square, in degrees 1
  and 2 at the first step and k after it, so each degree once (cone_classes)
  [implied by homotopy_identities and structure; cone_maps() without a
  window checks every degree]
- bars die exactly: the death-solve, bar_sections [endpoint_law, hirsch_certificates]
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cmp_to_key
from fractions import Fraction
from typing import Optional, Sequence

from .cdga import (
    Algebra, CdgaElement, CdgaMorphism, FreeCDGA, check_minimality,
    differential, free_cdga, hirsch_extend, validate_morphism,
)
from .errors import InternalError, ValidationError
from .exactla import Row, solve
from .homotopy import (
    ConeComplex, ConeMap, HomotopySquare, check_homotopy_identity, cone,
    connectivity_failures, extend_homotopy,
)
from .persistence import INF, Bar, Grid
from .pcomplex import PersistentComplex, bar_sections

INTERNAL_HEADROOM = 2


class PersistentCDGA:
    """Strict tame diagram of simply-connected CDGAs over a grid."""

    def __init__(self, grid: Grid, stages: Sequence[Algebra],
                 maps: Sequence[CdgaMorphism], user_cap: int):
        self.grid = grid
        self.stages = tuple(stages)
        self.maps = tuple(maps)
        self.user_cap = user_cap
        if len(self.stages) != len(grid):
            raise ValidationError("need one stage algebra per grid time")
        if len(self.maps) != len(grid) - 1:
            raise ValidationError("need one structure map per consecutive pair")
        self.validate()

    @property
    def internal_cap(self) -> int:
        return self.user_cap + INTERNAL_HEADROOM

    def validate(self):
        for r, alg in enumerate(self.stages):
            if alg.degree_cap < self.internal_cap:
                raise ValidationError(
                    f"stage {r} algebra cap {alg.degree_cap} below required "
                    f"{self.internal_cap} (user cap + {INTERNAL_HEADROOM})")
            if not alg.is_simply_connected():
                raise ValidationError(f"stage {r} is not simply-connected")
        for r, f in enumerate(self.maps):
            if f.domain is not self.stages[r] or f.codomain is not self.stages[r + 1]:
                raise ValidationError(f"map {r} does not connect stages {r},{r + 1}")
            problems = validate_morphism(f)
            if problems:
                raise ValidationError(f"stage map {r} invalid: {problems}")


@dataclass
class PersistentGenerator:
    """One cell of the persistent model: lifespan plus attaching data, over
    the algebras it was attached to or any whose generators extend them."""

    name: str
    degree: int
    birth: int
    death: float                      # grid index or INF
    birth_differential: CdgaElement   # over the model stage algebra at birth
    endpoint_image: Optional[CdgaElement]  # over the stage algebra at death

    def bar(self) -> Bar:
        return Bar(self.birth, self.death, self.degree)

    def alive_at(self, r: int) -> bool:
        return self.birth <= r < self.death


class TameMinimalModel:
    """Stagewise minimal models with atomic homotopies between stages.

    Stage r carries the model algebra algebras[r] with its model map
    models[r] into the target stage; sigmas[r] and homotopies[r] (a map into
    the path algebra of target stage r + 1) fill the square over the
    target's structure map r.  gen_records holds each PersistentGenerator
    with its elements as attached; degree_done is the degree through which
    surgery has run.
    """

    def __init__(self, target: PersistentCDGA, algebras: list[FreeCDGA],
                 sigmas: list[CdgaMorphism], models: list[CdgaMorphism],
                 homotopies: list[CdgaMorphism], gen_records: list[PersistentGenerator],
                 degree_done: int):
        self.target = target
        self.grid = target.grid
        self.algebras = algebras
        self.sigmas = sigmas
        self.models = models
        self.homotopies = homotopies
        self.gen_records = gen_records
        self.degree_done = degree_done
        self._cones: list = [None] * len(models)

    @classmethod
    def trivial(cls, target: PersistentCDGA) -> "TameMinimalModel":
        """The 1-minimal model: one unit algebra at every stage."""
        n = len(target.grid)
        algebras = [free_cdga([], {}, target.internal_cap)] * n
        sigmas = [CdgaMorphism.on_generators(algebras[r], algebras[r + 1], {})
                  for r in range(n - 1)]
        models = [CdgaMorphism.on_generators(algebras[r], target.stages[r], {})
                  for r in range(n)]
        homotopies = [CdgaMorphism.on_generators(algebras[r], target.stages[r + 1].path, {})
                      for r in range(n - 1)]
        return cls(target, algebras, sigmas, models, homotopies, [], 1)

    # -- derived views -------------------------------------------------------

    @property
    def generators(self) -> list[PersistentGenerator]:
        """The cells with their elements embedded in the final stage algebras."""
        def embed(x: CdgaElement, r) -> CdgaElement:
            return x.algebra.embed_terms(x, self.algebras[int(r)])

        return [replace(g, birth_differential=embed(g.birth_differential, g.birth),
                        endpoint_image=None if g.endpoint_image is None
                        else embed(g.endpoint_image, g.death))
                for g in self.gen_records]

    def pushforward(self, elem: CdgaElement, r_from: int, r_to: int) -> CdgaElement:
        out = elem
        for r in range(r_from, r_to):
            out = self.sigmas[r].apply(out)
        return out

    def stage_cones(self) -> list[ConeComplex]:
        """The mapping cone of each stage model, reused while models[r] is the
        same object; a new one may take the d(n) and H^n of the latest cone
        over the same domain and target objects (ConeComplex `like`)."""
        latest: dict = {}
        for r, m in enumerate(self.models):
            c, key = self._cones[r], (m.domain, m.codomain)
            self._cones[r] = latest[key] = (c if c is not None and c.m is m
                                            else cone(m, latest.get(key)))
        return self._cones

    def cone_maps(self, degrees: Optional[Sequence[int]] = None) -> list[ConeMap]:
        """The cone map of each stage square, checked to commute with d in
        `degrees` (default: every degree); ConeMap trusts the square
        (_verify_surgery checks it)."""
        squares, cones = self.stage_squares(), self.stage_cones()
        return [ConeMap(sq, cones[r], cones[r + 1], degrees) for r, sq in enumerate(squares)]

    def stage_squares(self) -> list[HomotopySquare]:
        return [HomotopySquare(top=self.sigmas[r], bottom=self.target.maps[r],
                               left=self.models[r], right=self.models[r + 1],
                               homotopy=self.homotopies[r])
                for r in range(len(self.grid) - 1)]


def tame_cone(model: TameMinimalModel
              ) -> tuple[PersistentComplex, list[ConeComplex], list[ConeMap]]:
    """The persistent complex of stage cones glued by the homotopy cone maps.

    Returns the validated complex together with the per-stage ConeComplex
    objects whose packing order defines its coordinates (degree -1 is dropped
    in the persistent rendering; stage cones keep it for honest H^0), and the
    cone maps between them.  The build reads the cones and maps directly.
    """
    cones, maps = model.stage_cones(), model.cone_maps()
    degrees = range(model.target.internal_cap)
    labels = [[[f"M:{c.domain.key_repr(key)}" for key in c.domain.basis_keys(deg + 1)]
               + [f"A:{c.target.key_repr(key)}" for key in c.target.basis_keys(deg)]
               for deg in degrees] for c in cones]
    d = [{deg: c.d_matrix(deg) for deg in degrees} for c in cones]
    sigma = [{deg: phi.matrix(deg) for deg in degrees} for phi in maps]
    return PersistentComplex(model.grid, degrees[-1], labels, d, sigma), cones, maps


def cone_classes(model: TameMinimalModel, k: int) -> tuple[list, list]:
    """The degree-k cone-map matrices and H^k of each stage cone.

    phi(k) maps cocycles to cocycles and boundaries to boundaries once phi
    commutes with d in degrees k-1 and k.  The first step checks both, each
    later one degree k only: its degree-(k-1) equation is the one the step
    before checked, padded with zero rows.  C^{k-1} = M^k + A^{k-1} gains no
    column from the degree-(k-1) generators W, as W·M^1 = 0; the rows gained
    in C^k are zero on both sides, as d and sigma of an old monomial involve
    no new generator; the `inherit` guards pin the old generators' data the
    other entries are built from.  tame_cone checks every degree."""
    sigmas = [phi.matrix(k) for phi in model.cone_maps((k - 1, k) if k == 2 else (k,))]
    return sigmas, [c.cohomology_space(k) for c in model.stage_cones()]


def surgery_step(model: TameMinimalModel, k: int) -> TameMinimalModel:
    """Attach one persistent generator per bar of H^k of the tame cone."""
    if k != model.degree_done + 1:
        raise ValidationError(f"surgery degree {k} out of order "
                              f"(done through {model.degree_done})")
    sigmas, spaces = cone_classes(model, k)
    bars, reps, sections = bar_sections(model.grid, sigmas, spaces)
    order = sorted(range(len(bars)), key=lambda i: (
        bars[i].birth, bars[i].death == INF, bars[i].death,
        _dense_order(reps[i].vectors[bars[i].birth])))
    return attach_classes(model, k, sigmas, [
        (f"x{k}_{counter}", bars[i].birth, bars[i].death, sections[i], None)
        for counter, i in enumerate(order)])


@cmp_to_key
def _dense_order(u: Row, v: Row) -> int:
    """Order Rows of one length as their dense tuples: by the entries at the
    first coordinate where they differ."""
    j = min((j for j in u.keys() | v.keys() if u.get(j) != v.get(j)), default=None)
    return 0 if j is None else -1 if u.get(j, 0) < v.get(j, 0) else 1


def attach_classes(model: TameMinimalModel, k: int, sigmas: Sequence,
                   cells: list[tuple]) -> TameMinimalModel:
    """Adjoin one degree-k generator per chosen cone class, then check it.

    Each cell is (name, birth, death, {r: cone cocycle}, end point or None),
    its cocycles a section over its lifespan.  A finite death with no end
    point is solved for one: the class pushed into the death stage is
    bounded there, and the bounding cochain's two components become the end
    point and the homotopy correction.  `sigmas` are the degree-k cone-map
    matrices.
    """
    cones = model.stage_cones()
    gens, parts = [], []
    for name, birth, death, z, end in cells:
        sections = {r: cones[r].unpack(k, z[r]) for r in z}
        correction = None
        if death != INF and end is None:
            q = int(death)
            sol = solve(cones[q].d_matrix(k - 1), sigmas[q - 1].apply(z[q - 1]))
            if sol is None:
                raise InternalError("dead bar class fails to bound at its death")
            end, correction = cones[q].unpack(k - 1, sol)
        gens.append(PersistentGenerator(name, k, birth, death, sections[birth][0], end))
        parts.append((sections, correction))
    out = _extend_state(model, k, gens, parts)
    _verify_surgery(out, k, [g.name for g in gens])
    return out


def _extend_state(model: TameMinimalModel, k: int, gens: list[PersistentGenerator],
                  parts: list[tuple]) -> TameMinimalModel:
    """Adjoin the degree-k generators at every stage (_attach_generators),
    with their stage model values and homotopies; parts[i] holds gens[i]'s
    unpacked sections {r: (model value v, target value a)} and its homotopy
    correction at death (or None).

    Each Hirsch extension is a sub-CDGA of the next, so below degree k nothing
    changes: the new algebras, maps and homotopies take the old ones' blocks
    through degree k-1 (every degree at a stage that gained no generator; each
    carry guarded by `inherit`), and the new stage cones take the old cones'
    H^n, n <= k-3, whose d(n-1) and d(n) they share.  The chain condition of
    each homotopy is checked on its new generators.
    """
    n = len(model.grid)
    target = model.target
    new_algs, sigmas = _attach_generators(model.algebras, model.sigmas, k, gens)

    models = []
    for r in range(n):
        images = dict(model.models[r].gen_images)
        for g, (sections, _) in zip(gens, parts):
            if g.alive_at(r):
                images[g.name] = sections[r][1]
        models.append(CdgaMorphism.on_generators(new_algs[r], target.stages[r], images))
        models[r].inherit(model.models[r])

    homotopies = []
    for r, old in enumerate(model.homotopies):
        values = dict(old.gen_images)
        for g, (sections, correction) in zip(gens, parts):
            if g.alive_at(r):
                v_elem, a_elem = sections[r]
                values[g.name] = extend_homotopy(
                    target.maps[r], old, v_elem, a_elem,
                    None if g.alive_at(r + 1) else correction)
        h = CdgaMorphism.on_generators(new_algs[r], old.codomain, values)
        h.inherit(old)
        problems = validate_morphism(h, [x for x in values if x not in old.gen_images])
        if problems:
            raise ValidationError(f"homotopy: {problems[0]} at stage {r}")
        homotopies.append(h)

    out = TameMinimalModel(target, new_algs, sigmas, models, homotopies,
                           model.gen_records + gens, k)
    for new, old in zip(out.stage_cones(), model.stage_cones()):
        new.carry_cohomology(old)
    return out


def _attach_generators(algebras: Sequence[FreeCDGA], sigmas: Sequence[CdgaMorphism],
                       k: int, cells: list[PersistentGenerator]
                       ) -> tuple[list[FreeCDGA], list[CdgaMorphism]]:
    """Attach the degree-k cells as Hirsch extensions, each birth
    differential over the birth stage's algebra.

    Stage r adjoins the cells alive there, each with its birth differential
    pushed along the old structure maps; structure map r sends a surviving
    cell to itself and a dying one to its end point, embedded by generator
    name.  A new algebra is looked up by the algebra object it extends and the
    new names, in order, then by equal pushed differentials (compared, not
    hashed), so equal stages get one object wherever they sit; a stage that
    gains no generator keeps its algebra.  A map between two kept algebras
    is kept; the others inherit the old map's blocks.
    """
    new_algs, diffs, made = [], {}, {}
    for r, alg in enumerate(algebras):
        diffs = {c.name: c.birth_differential if c.birth == r
                 else sigmas[r - 1].apply(diffs[c.name]) for c in cells if c.alive_at(r)}
        alike = made.setdefault((alg, tuple(diffs)), [])
        new = next((b for d, b in alike if d == diffs), None)
        if new is None:
            new = hirsch_extend(alg, [(x, k, v) for x, v in diffs.items()])[0] if diffs else alg
            alike.append((diffs, new))
        new_algs.append(new)
    new_sigmas = []
    for r, sigma in enumerate(sigmas):
        dom, cod = new_algs[r], new_algs[r + 1]
        if dom is algebras[r] and cod is algebras[r + 1]:
            new_sigmas.append(sigma)
            continue
        images = {g.name: algebras[r + 1].embed_terms(sigma.gen_images[g.name], cod)
                  for g in algebras[r].generators}
        for c in cells:
            if c.alive_at(r):
                u = c.endpoint_image
                images[c.name] = (cod.gen(c.name) if c.alive_at(r + 1)
                                  else u.algebra.embed_terms(u, cod))
        new_sigmas.append(CdgaMorphism.on_generators(dom, cod, images))
        new_sigmas[r].inherit(sigma)
    return new_algs, new_sigmas


def _verify_surgery(model: TameMinimalModel, k: int, new_names: list[str]):
    """The build's audit after degree-k surgery, on the new generators only
    (the `inherit` guards of _extend_state pin the old ones, and
    _extend_state checks the new homotopy values): the first failure raises.
    H^{j <= k-3} of the stage cones is carried by _extend_state."""
    names = [[name for name in new_names if name in alg.index_of] for alg in model.algebras]
    failures = [f for fs in _audit(model, model.target, k, names).values() for f in fs]
    if failures:
        raise InternalError(f"after degree-{k} surgery: {failures[0]}")


def _audit(model: TameMinimalModel, target: PersistentCDGA, through: int,
           names: Optional[list] = None) -> dict[str, list[str]]:
    """The failures of each invariant class the module docstring marks, in
    the report's wording and the order the build raises them, through degree
    `through`, on every generator or on names[r] at stage r."""
    window = names if names is not None else [None] * len(model.algebras)
    structure = []
    for r, m in enumerate(model.models):
        structure.extend(f"m({r}): {p}" for p in validate_morphism(m, window[r]))
        if m.codomain is not target.stages[r]:
            structure.append(f"m({r}) does not land in the given target")
    for r, sigma in enumerate(model.sigmas):
        structure.extend(f"sigma({r}): {p}" for p in validate_morphism(sigma, window[r]))
    identities = []
    for r, square in enumerate(model.stage_squares()):
        try:
            problems = ([f"homotopy: {p}" for p in validate_morphism(square.homotopy)]
                        if names is None else []) or square.validate(window[r])
            if problems:
                raise InternalError(f"{problems[0]} at stage {r}")
            identities.extend(f"stage {r}: {p}" for p in check_homotopy_identity(
                square.homotopy, through, window[r]))
        except (InternalError, ValidationError) as exc:
            identities.append(f"stage {r}: {exc}")
    return {"structure": structure,
            "minimality": next((f for alg in model.algebras if (f := check_minimality(alg))), []),
            "homotopy_identities": identities,
            "connectivity": connectivity_failures(model.stage_cones(), through)}


def build_persistent_minimal_model(a: PersistentCDGA, cap: Optional[int] = None
                                   ) -> TameMinimalModel:
    """Run interval surgery for every degree 2..cap from the trivial model."""
    cap = cap if cap is not None else a.user_cap
    if cap > a.user_cap:
        raise ValidationError("requested cap exceeds the input's declared cap")
    model = TameMinimalModel.trivial(a)
    for k in range(2, cap + 1):
        model = surgery_step(model, k)
    return model


@dataclass
class PresentationEntry:
    name: str
    degree: int
    birth_time: Fraction
    death_time: Optional[Fraction]     # None encodes infinity
    differential: str                  # rendered expression at the birth stage
    endpoint: Optional[str]            # rendered expression at the death stage


@dataclass
class Presentation:
    entries: list[PresentationEntry]

    def text(self, verbose: bool = False) -> str:
        gens = []
        rels = []
        for e in self.entries:
            death = "inf" if e.death_time is None else str(e.death_time)
            gens.append(f"{e.name} : deg {e.degree} on [{e.birth_time},{death})")
            if verbose or e.differential != "0":
                rels.append(f"d {e.name} = {e.differential}")
            if e.endpoint is not None and (verbose or e.endpoint != "0"):
                rels.append(f"{e.name}@{death} = {e.endpoint}")
        body = " ; ".join(gens)
        if rels:
            return f"pΛ( {body} | {' ; '.join(rels)} )"
        return f"pΛ( {body} )"


def presentation(model: TameMinimalModel) -> Presentation:
    from .expressions import render_element

    entries = []
    gens = sorted(model.generators, key=lambda g: (g.degree, g.birth, g.name))
    for g in gens:
        death_time = None if g.death == INF else model.grid.times[int(g.death)]
        endpoint = None
        if g.endpoint_image is not None:
            endpoint = render_element(g.endpoint_image)
        entries.append(PresentationEntry(
            name=g.name, degree=g.degree, birth_time=model.grid.times[g.birth],
            death_time=death_time, differential=render_element(g.birth_differential),
            endpoint=endpoint))
    return Presentation(entries)


@dataclass
class PiBarcode:
    bars: list[Bar]

    def as_multiset(self):
        return sorted((b.degree, b.birth, b.death) for b in self.bars)


def homotopy_barcode(model: TameMinimalModel) -> PiBarcode:
    """One bar per persistent generator: the homotopy-group barcode."""
    bars = [g.bar() for g in sorted(model.generators,
                                    key=lambda g: (g.degree, g.birth, g.name))]
    return PiBarcode(bars)


def validate_model(model: TameMinimalModel,
                   against: Optional[PersistentCDGA] = None) -> dict:
    """Machine-readable pass/fail per invariant class: the audit of every
    generator (_audit), the endpoint law and the Hirsch certificates."""
    cap = model.degree_done
    audit = _audit(model, against if against is not None else model.target, cap)
    gens = model.generators
    endpoint = [f"endpoint law fails for {g.name}" for g in gens if g.death != INF
                and model.pushforward(g.birth_differential, g.birth, int(g.death))
                != differential(g.endpoint_image)]
    certs = []
    for k in sorted({g.degree for g in gens}):
        layer = [g for g in gens if g.degree == k]
        problems = _hirsch_certificate_problems(model, k, layer)
        certs.append({
            "degree": k,
            "generators": [{"name": g.name,
                            "birth": str(model.grid.times[g.birth]),
                            "death": None if g.death == INF
                            else str(model.grid.times[int(g.death)])}
                           for g in layer],
            "status": "pass" if not problems else "fail",
            "failures": problems,
        })

    def status(failures):
        return {"status": "pass" if not failures else "fail", "failures": failures}

    identities = audit["homotopy_identities"]
    return {
        "schema_version": 1,
        "minimality": status(audit["minimality"]),
        "connectivity": {"status": "fail" if audit["connectivity"] else "pass",
                         "checked_through_degree": cap, "failures": audit["connectivity"]},
        "homotopy_identities": "pass" if not identities else status(identities),
        "endpoint_law": "pass" if not endpoint else status(endpoint),
        "hirsch_certificates": certs,
        "structure": status(audit["structure"]),
        "ok": not any(audit.values()) and not endpoint
        and all(c["status"] == "pass" for c in certs),
    }


def _hirsch_certificate_problems(model: TameMinimalModel, k: int,
                                 gens: list[PersistentGenerator]) -> list[str]:
    """Re-derive the degree-k layer from the attaching data and compare.

    Checks that each stage algebra's degree-k generator set matches the
    lifespans, that differentials are the pushed birth differentials, and
    that structure maps act by survival or by the endpoint image.
    """
    n = len(model.grid)
    problems = []
    for r in range(n):
        expect = sorted(g.name for g in gens if g.alive_at(r))
        got = sorted(g.name for g in model.algebras[r].generators if g.degree == k)
        if expect != got:
            problems.append(f"stage {r}: degree-{k} generators {got}, expected {expect}")
    for g in gens:
        last = n - 1 if g.death == INF else int(g.death) - 1
        expected_d = g.birth_differential
        for r in range(g.birth, last + 1):
            actual = model.algebras[r].generator_diff(g.name)
            if actual.terms != expected_d.terms:
                problems.append(f"{g.name}: differential at stage {r} is not "
                                "the pushed birth differential")
                break
            if r < last:
                expected_d = model.sigmas[r].apply(expected_d)
        for r in range(g.birth, last):
            img = model.sigmas[r].gen_images[g.name]
            if img != model.algebras[r + 1].gen(g.name):
                problems.append(f"{g.name}: does not survive stage {r} by identity")
        if g.death != INF:
            img = model.sigmas[int(g.death) - 1].gen_images[g.name]
            if img.terms != g.endpoint_image.terms:
                problems.append(f"{g.name}: structure map at death is not the "
                                "endpoint image")
    return problems
