"""Minimal models of single CDGAs and of maps between them.

The Sullivan minimal model of one CDGA is the persistent minimal model over
a one-point grid (`build_min_model` runs `pminimal.build_persistent_minimal_model`
on a one-stage tower), so each degree-k step kills the degree-k cone
cohomology by a Hirsch extension whose generators carry chosen cone cocycle
representatives, and the build's checks are those of `pminimal`.  A model is
"k-minimal" here in the operational sense that the mapping cone of the model
map has vanishing cohomology through degree k.

For maps, both sides extend at once and the connecting homotopy extends by
the explicit formula of `homotopy.extend_homotopy`, with a correction term
d(y (x) t) on kernel classes.  The user's map is checked on entry; each step
checks the three extended maps, the square, the homotopy's chain condition,
minimality, H^k of both cones and Q^k(g) = H^k(phi).
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional

from .cdga import (
    Algebra, CdgaMorphism, FreeCDGA, check_minimality, free_cdga,
    hirsch_extend, linear_part, validate_morphism,
)
from .errors import InternalError, ValidationError
from .exactla import ONE, QMatrix, adapted_split, solve
from .homotopy import (
    CdgaHomotopy, ConeComplex, ConeMap, HomotopySquare, cone, extend_homotopy,
)
from .persistence import Grid
from .pminimal import (
    INTERNAL_HEADROOM, PersistentCDGA, build_persistent_minimal_model,
)


@dataclass
class MinModel:
    """m: M -> A with M minimal and H^j(C_m) = 0 for all j <= k."""

    m: CdgaMorphism
    k: int

    @property
    def algebra(self) -> FreeCDGA:
        return self.m.domain

    @property
    def target(self) -> Algebra:
        return self.m.codomain


def build_min_model(a: Algebra, cap: int) -> MinModel:
    """The persistent minimal model of a one-stage tower on `a`, through `cap`.

    The tower's internal cap is the target's degree cap: computing H^cap of
    the cone reads two degrees above, so a.degree_cap >= cap + 2 is required
    (build_persistent_minimal_model refuses a larger cap).
    """
    tower = PersistentCDGA(Grid((0,)), [a], [], a.degree_cap - INTERNAL_HEADROOM)
    model = build_persistent_minimal_model(tower, cap)
    return MinModel(model.models[0], model.degree_done)


@dataclass
class StepReport:
    """Verification data recorded by one map-model step."""

    degree: int
    psi: QMatrix                 # H^k(phi) in the chosen cohomology bases
    q_matrix: QMatrix            # Q^k(g) in the new-generator bases
    psi_adapted: QMatrix         # psi expressed in the adapted bases
    new_domain_gens: list[str]
    new_codomain_gens: list[str]


@dataclass
class MapModel:
    """k-minimal model of f: A -> B: a square commuting up to a homotopy."""

    g: CdgaMorphism              # M -> N
    m: CdgaMorphism              # M -> A
    n: CdgaMorphism              # N -> B
    f: CdgaMorphism              # A -> B
    homotopy: CdgaHomotopy       # from f o m to n o g
    k: int
    reports: list[StepReport] = field(default_factory=list)

    def square(self) -> HomotopySquare:
        return HomotopySquare(top=self.g, bottom=self.f, left=self.m,
                              right=self.n, homotopy=self.homotopy)

    @cached_property
    def cones(self) -> tuple[ConeComplex, ConeComplex]:
        """The mapping cones of m and n, built once and shared with the next step."""
        return cone(self.m), cone(self.n)


def trivial_map_model(f: CdgaMorphism, degree_cap: Optional[int] = None) -> MapModel:
    """The 1-minimal square Q -> Q over f between simply-connected algebras."""
    for label, alg in (("domain", f.domain), ("codomain", f.codomain)):
        if not alg.is_simply_connected():
            raise ValidationError(f"{label} is not simply-connected")
    cap = degree_cap if degree_cap is not None else f.domain.degree_cap
    unit_m = free_cdga([], {}, cap)
    unit_n = free_cdga([], {}, cap)
    g = CdgaMorphism.on_generators(unit_m, unit_n, {})
    m = CdgaMorphism.on_generators(unit_m, f.domain, {})
    n = CdgaMorphism.on_generators(unit_n, f.codomain, {})
    h = CdgaHomotopy(unit_m, f.codomain, {})
    return MapModel(g=g, m=m, n=n, f=f, homotopy=h, k=1)


def map_model_step(mm: MapModel) -> MapModel:
    """One inductive extension of a map model, from degree k-1 to k.

    Bases of H^k of the two cones are adapted to psi = H^k(phi): coimage
    classes transport by phi, kernel classes bound by solving in the target
    cone, cokernel classes get fresh generators.  All four maps and the
    homotopy extend by the explicit assignments; the postconditions
    H^k C = 0 on both sides and Q^k(g) = psi are verified before returning.
    """
    k = mm.k + 1
    c_m, c_n = mm.cones
    phi = ConeMap(mm.square(), c_m, c_n)
    v_space = c_m.cohomology_space(k)
    w_space = c_n.cohomology_space(k)

    psi_cols = [w_space.class_of(phi.matrix(k).apply(rep)) for rep in v_space.reps]
    psi = QMatrix.from_columns(psi_cols, w_space.dim)
    split = adapted_split(psi)

    # Domain-side data: coimage classes (eps) then kernel classes (alpha).
    dom_diffs = []     # d-images in M of the new generators
    m_images = []      # images under the extended model map
    cone_reps = []     # packed cone cocycles, for transport / solving
    for h_coords in split.coimage + split.kernel:
        z = v_space.rep_of_class(h_coords)
        v, a = c_m.unpack(k, z)
        dom_diffs.append(v)
        m_images.append(a)
        cone_reps.append(z)

    r = split.rank
    solved = []
    for j in range(r, len(dom_diffs)):
        target_vec = phi.matrix(k).apply(cone_reps[j])
        sol = solve(c_n.d_matrix(k - 1), target_vec)
        if sol is None:
            raise InternalError("kernel class is not bounded in the target cone")
        solved.append(c_n.unpack(k - 1, sol))  # (x_j, y_j)

    # Codomain-side data: transported images (psi eps) then cokernel (beta).
    cod_diffs = []
    n_images = []
    for i in range(r):
        gv, b = c_n.unpack(k, phi.matrix(k).apply(cone_reps[i]))
        cod_diffs.append(gv)
        n_images.append(b)
    for h_coords in split.cokernel:
        w, b = c_n.unpack(k, w_space.rep_of_class(h_coords))
        cod_diffs.append(w)
        n_images.append(b)

    dom_names = [f"x{k}_{i}" for i in range(len(dom_diffs))]
    cod_names = [f"y{k}_{i}" for i in range(len(cod_diffs))]
    mbar_alg, _ = hirsch_extend(mm.m.domain, [(nm, k, v) for nm, v in zip(dom_names, dom_diffs)])
    nbar_alg, _ = hirsch_extend(mm.n.domain, [(nm, k, w) for nm, w in zip(cod_names, cod_diffs)])

    old_m: FreeCDGA = mm.m.domain  # type: ignore[assignment]
    old_n: FreeCDGA = mm.n.domain  # type: ignore[assignment]

    gbar_images = {g.name: old_n.embed_terms(mm.g.gen_images[g.name], nbar_alg)
                   for g in old_m.generators}
    for i in range(r):
        gbar_images[dom_names[i]] = nbar_alg.gen(cod_names[i])
    for j, (x_j, _) in enumerate(solved):
        gbar_images[dom_names[r + j]] = old_n.embed_terms(x_j, nbar_alg)
    gbar = CdgaMorphism.on_generators(mbar_alg, nbar_alg, gbar_images)

    mbar_images = {g.name: mm.m.gen_images[g.name] for g in old_m.generators}
    for nm, a in zip(dom_names, m_images):
        mbar_images[nm] = a
    mbar = CdgaMorphism.on_generators(mbar_alg, mm.m.codomain, mbar_images)

    nbar_images = {g.name: mm.n.gen_images[g.name] for g in old_n.generators}
    for nm, b in zip(cod_names, n_images):
        nbar_images[nm] = b
    nbar = CdgaMorphism.on_generators(nbar_alg, mm.n.codomain, nbar_images)

    h_assign = {g.name: mm.homotopy.assignment[g.name] for g in old_m.generators}
    for i, name in enumerate(dom_names):
        h_assign[name] = extend_homotopy(mm.f, mm.homotopy, dom_diffs[i], m_images[i],
                                         solved[i - r][1] if i >= r else None)
    hbar = CdgaHomotopy(mbar_alg, mm.f.codomain, h_assign)
    hbar.check_chain_condition()

    for label, mor in (("g", gbar), ("m", mbar), ("n", nbar)):
        problems = validate_morphism(mor)
        if problems:
            raise InternalError(f"extended {label} is not a morphism: {problems}")
    new_mm = MapModel(g=gbar, m=mbar, n=nbar, f=mm.f, homotopy=hbar, k=k,
                      reports=list(mm.reports))
    problems = new_mm.square().validate()
    if problems:
        raise InternalError(f"extended square: {problems[0]}")

    new_c_m, new_c_n = new_mm.cones
    if new_c_m.h_dim(k) or new_c_n.h_dim(k):
        raise InternalError(f"degree-{k} cone cohomology survives the map extension")
    check_minimality(mbar_alg)
    check_minimality(nbar_alg)

    q = linear_part(gbar, dom_names, cod_names)
    expected = QMatrix(len(cod_names), len(dom_names),
                       [[ONE if (i == j and i < r) else 0
                         for j in range(len(dom_names))] for i in range(len(cod_names))])
    if q != expected:
        raise InternalError("Q^k of the extended map differs from H^k(phi)")
    psi_adapted = (split.codomain_change_inv @ psi @ split.domain_change
                   if psi.rows and psi.cols else psi)
    new_mm.reports.append(StepReport(
        degree=k, psi=psi, q_matrix=q, psi_adapted=psi_adapted,
        new_domain_gens=dom_names, new_codomain_gens=cod_names))
    return new_mm


def build_map_model(f: CdgaMorphism, cap: int) -> MapModel:
    """Approximation telescope of a map, from the trivial square to degree cap."""
    problems = validate_morphism(f)
    if problems:
        raise ValidationError(f"f is not a CDGA map: {problems[0]}")
    for alg in (f.domain, f.codomain):
        if alg.degree_cap < cap + 2:
            raise ValidationError(
                f"degree cap {alg.degree_cap} too small for model cap {cap}; "
                f"need at least {cap + 2}")
    mm = trivial_map_model(f)
    for k in range(2, cap + 1):
        mm = map_model_step(mm)
    return mm
