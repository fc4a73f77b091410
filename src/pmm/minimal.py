"""Minimal models of single CDGAs and of maps between them.

Both are persistent minimal models of short towers, built and checked by the
one step body of `pminimal` (`attach_classes`).  The Sullivan minimal model
of one CDGA is the persistent minimal model over a one-point grid
(`build_min_model` runs `pminimal.build_persistent_minimal_model` on a
one-stage tower).  A model is "k-minimal" here in the operational sense that
the mapping cone of the model map has vanishing cohomology through degree k.

A model of a map f: A -> B is the two-stage tame model of the tower A -> B
over the grid (0, 1), as the relative Sullivan model of a map is built from
the same Hirsch extensions (Felix-Halperin-Thomas, section 14): M, N, g, m,
n and the homotopy H from f o m to n o g are the stage algebras, sigma,
stage models and homotopy of that model.  Only the choice of generators is
the map's own: `map_model_step` adapts bases of H^k of the two cones to
psi = H^k(phi) and turns each class into a cell (lifespan, cone cocycle, end
point); `pminimal.attach_classes`, the step surgery runs on the bars of the
tame cone, attaches the cells and checks each new generator once.  The map
step itself checks that the adapted bases split psi and that Q^k(g) = psi.
`pminimal.validate_model(mm.model)` is the full audit.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from .cdga import (  # check_minimality: perfbench/spans.py wraps minimal.check_minimality
    Algebra, CdgaMorphism, FreeCDGA, check_minimality, free_cdga, linear_part,
)
from .cochain import induced_map
from .errors import InternalError, ValidationError
from .exactla import ONE, QMatrix, adapted_split
from .homotopy import HomotopySquare
from .persistence import INF, Grid
from .pminimal import (
    INTERNAL_HEADROOM, PersistentCDGA, TameMinimalModel, attach_classes,
    build_persistent_minimal_model, cone_classes,
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
    """k-minimal model of f: A -> B: the two-stage tame model of the tower
    A -> B, a square M -> N over f commuting up to a homotopy."""

    model: TameMinimalModel
    reports: list[StepReport] = field(default_factory=list)

    g = property(lambda self: self.model.sigmas[0])             # M -> N
    m = property(lambda self: self.model.models[0])             # M -> A
    n = property(lambda self: self.model.models[1])             # N -> B
    f = property(lambda self: self.model.target.maps[0])        # A -> B
    homotopy = property(lambda self: self.model.homotopies[0])  # from f o m to n o g
    k = property(lambda self: self.model.degree_done)

    def square(self) -> HomotopySquare:
        return self.model.stage_squares()[0]


def trivial_map_model(f: CdgaMorphism) -> MapModel:
    """The 1-minimal square Q -> Q over f: the trivial model of the tower
    A -> B, whose constructor checks f and that A and B are simply-connected."""
    cap = min(f.domain.degree_cap, f.codomain.degree_cap) - INTERNAL_HEADROOM
    tower = PersistentCDGA(Grid((0, 1)), [f.domain, f.codomain], [f], cap)
    return MapModel(TameMinimalModel.trivial(tower))


def map_model_step(mm: MapModel) -> MapModel:
    """One inductive extension of a map model, from degree k-1 to k.

    Bases of H^k of the two cones are adapted to psi = H^k(phi).  Each class
    becomes one cell of the persistent step (`pminimal.attach_classes`): a
    coimage class a bar [0,1) whose end point is the new codomain generator
    it transports to, a kernel class a bar [0,1) whose death is solved for
    in the target cone, and a transported or cokernel class a bar [1,inf).
    The persistent step extends and checks the model; Q^k(g) = psi is
    checked here.
    """
    k = mm.k + 1
    sigmas, (v_space, w_space) = cone_classes(mm.model, k)
    phi = sigmas[0]
    psi = induced_map(phi, v_space, w_space)
    split = adapted_split(psi)
    r = split.rank

    dom_reps = [v_space.rep_of_class(h) for h in split.coimage + split.kernel]
    cod_reps = ([phi.apply(z) for z in dom_reps[:r]]
                + [w_space.rep_of_class(h) for h in split.cokernel])
    dom_names = [f"x{k}_{i}" for i in range(len(dom_reps))]
    cod_names = [f"y{k}_{i}" for i in range(len(cod_reps))]
    # A coimage generator ends at the codomain generator of the same index;
    # end points are embedded by generator name.
    ends = free_cdga([(name, k) for name in cod_names], {}, k)
    cells = [(name, 0, 1, {0: z}, ends.gen(cod_names[i]) if i < r else None)
             for i, (name, z) in enumerate(zip(dom_names, dom_reps))]
    cells += [(name, 1, INF, {1: w}, None) for name, w in zip(cod_names, cod_reps)]
    model = attach_classes(mm.model, k, sigmas, cells)

    # In the adapted bases psi is the rank block [[I, 0], [0, 0]].
    block = QMatrix(len(cod_names), len(dom_names),
                    [[ONE if (i == j and i < r) else 0
                      for j in range(len(dom_names))] for i in range(len(cod_names))])
    if split.codomain_change @ block != psi @ split.domain_change:
        raise InternalError("adapted bases do not split H^k(phi)")
    q = linear_part(model.sigmas[0], dom_names, cod_names)
    if q != block:
        raise InternalError("Q^k of the extended map differs from H^k(phi)")
    return MapModel(model, mm.reports + [StepReport(
        degree=k, psi=psi, q_matrix=q, psi_adapted=block,
        new_domain_gens=dom_names, new_codomain_gens=cod_names)])


def build_map_model(f: CdgaMorphism, cap: int) -> MapModel:
    """Approximation telescope of a map, from the trivial square to degree cap."""
    mm = trivial_map_model(f)
    if cap > mm.model.target.user_cap:
        raise ValidationError("requested cap exceeds the input's declared cap")
    for _ in range(2, cap + 1):
        mm = map_model_step(mm)
    return mm
