import json
import random
import re
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from pmm.cdga import CdgaElement, CdgaMorphism, FiniteCDGA, free_cdga, multiply
from pmm.errors import InternalError, ValidationError
from pmm.homotopy import cone
from pmm.io import load_input
from pmm.persistence import INF, Grid, interval_decompose
from pmm.pcomplex import bar_sections
from pmm.pminimal import (
    PersistentCDGA, TameMinimalModel, _dense_order, _verify_surgery, attach_classes,
    build_persistent_minimal_model, cone_classes, homotopy_barcode, presentation,
    surgery_step, tame_cone, validate_model,
)

from .dense import dense, row
from .gen import indecomposables_module, insert_duplicate_stage
from .test_incremental import wedge_tower

CAP = 5
ICAP = CAP + 2
FIXTURES = Path(__file__).parent / "fixtures"
TOWERS = ("example1_case1", "example1_case2", "example2", "example3",
          "sphere2", "sphere2_bounded", "sphere3")


def fixture_tower(name):
    with open(FIXTURES / f"{name}.json") as fh:
        return load_input(json.load(fh))


def assert_tame_cone_shared_and_valid(model):
    """The tame cone reads the model's own stage cones and is a valid complex.

    The build reads the stage cones and cone maps without assembling the
    tame cone; tame_cone validates what it assembles.
    """
    tc, cones, maps = tame_cone(model)
    assert all(c is s for c, s in zip(cones, model.stage_cones(), strict=True))
    for r, phi in enumerate(maps):
        assert phi.source is cones[r]
        assert phi.target is cones[r + 1]


def example_one(case=1, cap=CAP):
    icap = cap + 2
    A0 = free_cdga([("alpha", 2)], {}, icap)
    if case == 1:
        s1 = free_cdga([("alpha", 2), ("beta", 3)], {}, icap)
        A1 = free_cdga([("alpha", 2), ("beta", 3)],
                       {"beta": multiply(s1.gen("alpha"), s1.gen("alpha"))}, icap)
    else:
        A1 = free_cdga([("alpha", 2), ("beta", 3)], {}, icap)
    A2 = free_cdga([("beta", 3)], {}, icap)
    A3 = free_cdga([], {}, icap)
    maps = [
        CdgaMorphism.on_generators(A0, A1, {"alpha": A1.gen("alpha")}),
        CdgaMorphism.on_generators(A1, A2, {"alpha": A2.zero(), "beta": A2.gen("beta")}),
        CdgaMorphism.on_generators(A2, A3, {"beta": A3.zero()}),
    ]
    return PersistentCDGA(Grid((0, 1, 2, 3)), [A0, A1, A2, A3], maps, cap)


def example_three(cap=CAP):
    icap = cap + 2
    C0 = free_cdga([("gamma", 4)], {}, icap)
    C1 = free_cdga([("gamma", 4), ("alpha", 2)], {}, icap)
    C2 = free_cdga([("alpha", 2)], {}, icap)
    C3 = free_cdga([], {}, icap)
    maps = [
        CdgaMorphism.on_generators(C0, C1, {"gamma": C1.gen("gamma")}),
        CdgaMorphism.on_generators(C1, C2, {
            "gamma": multiply(C2.gen("alpha"), C2.gen("alpha")),
            "alpha": C2.gen("alpha")}),
        CdgaMorphism.on_generators(C2, C3, {"alpha": C3.zero()}),
    ]
    return PersistentCDGA(Grid((0, 1, 2, 3)), [C0, C1, C2, C3], maps, cap)


def constant_tower(alg, n=2, cap=6):
    g = Grid(tuple(range(n)))
    return PersistentCDGA(g, [alg] * n,
                          [CdgaMorphism.identity(alg)] * (n - 1), cap)


def finite_s2(cap=8):
    return FiniteCDGA(basis={0: ["one"], 2: ["a"]}, unit="one",
                      products={("a", "a"): {}}, differential={}, degree_cap=cap)


def test_example_one_nonformal():
    model = build_persistent_minimal_model(example_one(1))
    assert homotopy_barcode(model).as_multiset() == [(2, 0, 2), (3, 1, 3)]
    pres = presentation(model)
    y = next(e for e in pres.entries if e.degree == 3)
    a = next(e for e in pres.entries if e.degree == 2)
    assert y.differential != "0"
    assert a.name in y.differential and "^2" in y.differential
    assert validate_model(model)["ok"]


def test_example_one_formal_same_barcode_different_relations():
    model = build_persistent_minimal_model(example_one(2))
    assert homotopy_barcode(model).as_multiset() == [(2, 0, 2), (3, 1, 3)]
    pres = presentation(model)
    y = next(e for e in pres.entries if e.degree == 3)
    assert y.differential == "0"
    assert validate_model(model)["ok"]


def test_example_three_endpoint_relation():
    model = build_persistent_minimal_model(example_three())
    assert homotopy_barcode(model).as_multiset() == [(2, 1, 3), (4, 0, 2)]
    pres = presentation(model)
    g4 = next(e for e in pres.entries if e.degree == 4)
    a2 = next(e for e in pres.entries if e.degree == 2)
    # Death at index 2 (time 2), endpoint image alpha-generator squared.
    assert g4.death_time == 2
    assert g4.endpoint is not None and a2.name in g4.endpoint and "^2" in g4.endpoint
    assert validate_model(model)["ok"]


def test_constant_sphere_towers():
    model = build_persistent_minimal_model(constant_tower(finite_s2()))
    assert homotopy_barcode(model).as_multiset() == [(2, 0, INF), (3, 0, INF)]
    y = next(e for e in presentation(model).entries if e.degree == 3)
    assert "^2" in y.differential

    s3 = FiniteCDGA(basis={0: ["one"], 3: ["b"]}, unit="one",
                    products={("b", "b"): {}}, differential={}, degree_cap=8)
    model = build_persistent_minimal_model(constant_tower(s3))
    assert homotopy_barcode(model).as_multiset() == [(3, 0, INF)]


def test_trivial_tower():
    q = free_cdga([], {}, 8)
    model = build_persistent_minimal_model(constant_tower(q, cap=6))
    assert homotopy_barcode(model).as_multiset() == []
    assert presentation(model).entries == []


def test_tame_cone_acyclic_after_build():
    for tower in [example_one(1)] + [fixture_tower(name) for name in TOWERS]:
        model = build_persistent_minimal_model(tower)
        assert_tame_cone_shared_and_valid(model)
        for c in model.stage_cones():
            for j in range(0, tower.user_cap + 1):
                assert c.h_dim(j) == 0


def test_surgery_steps_are_connective():
    for tower in [example_one(1)] + [fixture_tower(name) for name in TOWERS]:
        model = TameMinimalModel.trivial(tower)
        for k in range(2, tower.user_cap + 1):
            model = surgery_step(model, k)
            assert_tame_cone_shared_and_valid(model)
            for r in range(len(tower.grid)):
                c = cone(model.models[r])
                for j in range(0, k + 1):
                    assert c.h_dim(j) == 0


def built_through_three():
    model = TameMinimalModel.trivial(example_one(1))
    for k in range(2, 4):
        model = surgery_step(model, k)
    return model


def test_verify_surgery_rejects_broken_stage_model():
    # d*d = 0 on a stage cone rests on the stage model commuting with d.  The
    # build checks it on each generator once, after the step that adds the
    # generator; validate_model checks every generator.
    model = built_through_three()
    r, name = next((r, g.name) for r, m in enumerate(model.models)
                   for g in m.domain.generators
                   if g.degree == 3 and not m.gen_images[g.name].is_zero())
    _verify_surgery(model, 3, [name])
    m = model.models[r]
    images = dict(m.gen_images)
    images[name] = images[name].scale(2)  # m(d x) stays, d m(x) doubles
    model.models[r] = CdgaMorphism.on_generators(m.domain, m.codomain, images)
    problem = f"m({r}): d-compatibility fails on generator {name}"
    with pytest.raises(InternalError, match=re.escape(problem)):
        _verify_surgery(model, 3, [name])
    report = validate_model(model)
    assert problem in report["structure"]["failures"]
    assert report["connectivity"]["failures"] == [
        f"C_m({r}): boundary is not a cocycle: d*d != 0 upstream"]


def test_verify_surgery_rejects_an_indecomposable_differential():
    # d(b) = a is a linear term: the stage algebra is free but not minimal.
    model = built_through_three()
    model.algebras[0] = free_cdga([("b", 2), ("a", 3)], {"b": {((1, 1),): 1}}, ICAP)
    new = [g.name for g in model.gen_records if g.degree == 3]
    with pytest.raises(InternalError, match=re.escape(
            "after degree-3 surgery: d(b) has an indecomposable term")):
        _verify_surgery(model, 3, new)


def test_verify_surgery_rejects_altered_homotopy_start():
    # Squares are checked once, by _verify_surgery on the step's new
    # generators (ConeMap trusts them); validate_model checks every generator.
    def shifted_start(degree):
        model = built_through_three()
        r, name = next((r, g.name) for r, h in enumerate(model.homotopies)
                       for g in h.domain.generators
                       if g.degree == degree
                       and (0, 0) in h.codomain.components(h.gen_images[g.name]))
        h = model.homotopies[r]
        start = h.codomain.components(h.gen_images[name])[(0, 0)]
        h.gen_images[name] = h.gen_images[name] + h.codomain.tensor(start)
        return model, r, name

    model, r, name = shifted_start(3)
    with pytest.raises(InternalError, match=f"homotopy start mismatch on {name} at stage {r}"):
        _verify_surgery(model, 3, [name])
    model, r, name = shifted_start(2)  # a generator the degree-3 step did not add
    _verify_surgery(model, 3, [g.name for g in model.gen_records if g.degree == 3])
    report = validate_model(model)
    assert (f"stage {r}: homotopy start mismatch on {name} at stage {r}"
            in report["homotopy_identities"]["failures"])


def test_validate_model_rebuilds_cone_of_replaced_stage_model():
    # A stage model swapped after the build gets a fresh cone, not the memo.
    model = build_persistent_minimal_model(example_one(1))
    assert validate_model(model)["ok"]
    m = model.models[0]
    model.models[0] = CdgaMorphism.on_generators(
        m.domain, m.codomain, {g.name: m.codomain.zero() for g in m.domain.generators})
    rep = validate_model(model)
    assert rep["connectivity"]["status"] == "fail"
    assert "H^2 C_m(0) has dimension 1" in rep["connectivity"]["failures"]


def test_validate_model_audits_through_the_degree_built():
    # example3 at cap 6, built through 3 only: the audit reads the stage
    # cones through degree 3, not through the input's cap.
    with open(FIXTURES / "example3.json") as fh:
        tower = load_input(dict(json.load(fh), degree_cap=6))
    report = validate_model(build_persistent_minimal_model(tower, 3))
    assert report["connectivity"]["checked_through_degree"] == 3
    assert report["ok"], report


def test_attach_classes_refuses_a_class_that_does_not_bound_at_its_death():
    # H^2 of the trivial model's cones of H*(S^2 v S^2) -> H*(S^2): a0 lives
    # on [0, inf) and a1 on [0, 1).  Given a death at 1, a0's class, which
    # survives there, has no bounding cochain to solve for.
    model = TameMinimalModel.trivial(wedge_tower(5))
    sigmas, spaces = cone_classes(model, 2)
    bars, _, sections = bar_sections(model.grid, sigmas, spaces)
    assert sorted((b.birth, b.death) for b in bars) == [(0, 1), (0, INF)]
    cells = [(f"x2_{i}", b.birth, b.death, z, None) for i, (b, z) in enumerate(zip(bars, sections))]
    tampered = [(name, s, 1, z, end) for name, s, t, z, end in cells]
    with pytest.raises(InternalError, match="^dead bar class fails to bound at its death$"):
        attach_classes(model, 2, sigmas, tampered)
    assert len(attach_classes(model, 2, sigmas, cells).gen_records) == 2


def test_bars_are_ordered_as_their_dense_birth_vectors():
    # surgery_step orders the bars of one lifespan by their birth vectors as
    # dense tuples compare; the Rows must sort the same way.
    rng = random.Random(2626)
    for n in range(7):
        rows = [row([rng.choice([0, 0, 0, 1, -1, 2, Fraction(1, 2)]) for _ in range(n)])
                for _ in range(40)]
        assert [dense(r, n) for r in sorted(rows, key=_dense_order)] == \
            sorted(dense(r, n) for r in rows)


def test_surgery_out_of_order_rejected():
    model = TameMinimalModel.trivial(example_one(1))
    with pytest.raises(ValidationError):
        surgery_step(model, 3)


def test_barcode_matches_indecomposables_module():
    for build in (example_one(1), example_one(2), example_three()):
        model = build_persistent_minimal_model(build)
        got = Counter()
        for k in range(2, CAP + 1):
            bars, _ = interval_decompose(indecomposables_module(model, k))
            for b in bars:
                got[(k, b.birth, b.death)] += 1
        want = Counter((b.degree, b.birth, b.death)
                       for b in homotopy_barcode(model).bars)
        assert got == want


def test_validate_model_negative_controls():
    model = build_persistent_minimal_model(example_three())
    assert validate_model(model)["ok"]

    # Tamper with an endpoint image: endpoint law and certificates fail.
    gen = next(g for g in model.gen_records if g.endpoint_image is not None
               and not g.endpoint_image.is_zero())
    original = gen.endpoint_image
    gen.endpoint_image = original.scale(2)
    rep = validate_model(model)
    assert not rep["ok"]
    assert rep["endpoint_law"] != "pass" or any(
        c["status"] == "fail" for c in rep["hirsch_certificates"])
    gen.endpoint_image = original
    assert validate_model(model)["ok"]


def _shift_birth(model):
    # x2_0 of example three lives on [1, 3); a record born at 2 no longer
    # matches stage 1's generator set.
    next(g for g in model.gen_records if g.name == "x2_0").birth = 2


def _double_birth_differential(model):
    gen = next(g for g in model.gen_records if g.name == "x3_0")  # d x3_0 = x2_0^2 at 1
    gen.birth_differential = gen.birth_differential.scale(2)


def _double_sigma_image(r, name):
    def tamper(model):
        sigma = model.sigmas[r]
        sigma.gen_images[name] = sigma.gen_images[name].scale(2)
        sigma._images.clear()
        sigma._mat_cache.clear()
    return tamper


def _stage_model_into_a_twin(model):
    # An equal stage algebra that is not the target's own object.
    m, twin = model.models[0], example_three().stages[0]
    model.models[0] = CdgaMorphism.on_generators(
        m.domain, twin, {name: CdgaElement._of(twin, img.terms)
                         for name, img in m.gen_images.items()})


@pytest.mark.parametrize("make, tamper, where, failure", [
    (example_three, _shift_birth, "hirsch_certificates",
     "stage 1: degree-2 generators ['x2_0'], expected []"),
    (lambda: example_one(1), _double_birth_differential, "hirsch_certificates",
     "x3_0: differential at stage 1 is not the pushed birth differential"),
    (lambda: example_one(1), _double_sigma_image(1, "x3_0"), "hirsch_certificates",
     "x3_0: does not survive stage 1 by identity"),
    (example_three, _double_sigma_image(1, "x4_0"), "hirsch_certificates",
     "x4_0: structure map at death is not the endpoint image"),
    (example_three, _stage_model_into_a_twin, "structure",
     "m(0) does not land in the given target")],
    ids=["generator-set", "pushed-differential", "survival-image", "death-image",
         "stage-model-codomain"])
def test_validate_model_reports_each_tampered_certificate_and_target(make, tamper, where,
                                                                     failure):
    model = build_persistent_minimal_model(make())
    assert validate_model(model)["ok"]
    tamper(model)
    report = validate_model(model)
    assert report["ok"] is False
    section = report[where]
    failures = ([f for c in section for f in c["failures"]] if where == "hirsch_certificates"
                else section["failures"])
    assert failure in failures, failures


def test_validate_model_homotopy_tamper():
    model = build_persistent_minimal_model(example_one(1))
    h = model.homotopies[0]
    name = next(g.name for g in model.algebras[0].generators)
    p = h.codomain
    original = h.gen_images[name]
    h.gen_images[name] = original + p.tensor(
        model.target.stages[1].one().scale(0), 0)  # no-op first: still passes
    assert validate_model(model)["ok"]
    start = p.components(original)[(0, 0)]
    bad = original + p.tensor(start, 1) + p.tensor(start.scale(-1), 0)
    h.gen_images[name] = bad
    h._images.clear()
    h._mat_cache.clear()
    rep = validate_model(model)
    assert not rep["ok"]
    h.gen_images[name] = original
    h._images.clear()
    h._mat_cache.clear()
    assert validate_model(model)["ok"]


def test_grid_refinement_stability():
    base = example_one(1)
    model = build_persistent_minimal_model(base)
    base_pres = presentation(model).text(verbose=True)
    base_bars = [(b.degree, model.grid.times[b.birth],
                  None if b.death == INF else model.grid.times[int(b.death)])
                 for b in homotopy_barcode(model).bars]
    from fractions import Fraction
    for idx in range(3):
        refined = insert_duplicate_stage(base, idx, Fraction(2 * idx + 1, 2))
        rmodel = build_persistent_minimal_model(refined)
        bars = [(b.degree, rmodel.grid.times[b.birth],
                 None if b.death == INF else rmodel.grid.times[int(b.death)])
                for b in homotopy_barcode(rmodel).bars]
        assert bars == base_bars
        assert presentation(rmodel).text(verbose=True) == base_pres


def test_multi_generator_same_degree():
    # Wedge-like target: two degree-2 classes with different lifespans.
    icap = 8
    A0 = free_cdga([("u", 2), ("v", 2)], {}, icap)
    A1 = free_cdga([("v", 2)], {}, icap)
    maps = [CdgaMorphism.on_generators(A0, A1, {"u": A1.zero(), "v": A1.gen("v")})]
    tower = PersistentCDGA(Grid((0, 1)), [A0, A1], maps, 4)
    model = build_persistent_minimal_model(tower)
    bars = homotopy_barcode(model).as_multiset()
    assert (2, 0, 1) in bars and (2, 0, INF) in bars
    assert validate_model(model)["ok"]


def test_finite_stage_with_products_and_differential():
    # Lambda(a2, y3; dy = a^2) truncated at degree 5, presented by structure
    # constants: an acyclic-above-degree-0 algebra whose model is trivial in
    # degrees <= 3... rather, its cohomology is that of the 2-sphere's model
    # in low degrees: H^2 = Q a, H^3 = 0, H^4 = 0, H^5 = 0.
    alg = FiniteCDGA(
        basis={0: ["one"], 2: ["a"], 3: ["y"], 4: ["a2"], 5: ["ay"]},
        unit="one",
        products={("a", "a"): {"a2": 1}, ("a", "y"): {"ay": 1},
                  ("a", "a2"): {}, ("a", "ay"): {}, ("y", "a2"): {},
                  ("y", "y"): {}, ("a2", "a2"): {}, ("y", "ay"): {},
                  ("a2", "ay"): {}, ("ay", "ay"): {}},
        differential={"y": {"a2": 1}},
        degree_cap=7)
    assert alg.is_simply_connected()
    from pmm.cdga import cohomology as alg_cohomology
    assert alg_cohomology(alg, 2)[0] == 1
    assert alg_cohomology(alg, 3)[0] == 0
    assert alg_cohomology(alg, 4)[0] == 0

    tower = constant_tower(alg, n=2, cap=5)
    model = build_persistent_minimal_model(tower)
    bars = homotopy_barcode(model).as_multiset()
    # Through degree 3 this looks like the sphere model; the degree-5 basis
    # element a*y is closed in the truncated algebra (its true differential
    # a^3 lies above the stored top), so a genuine degree-5 generator with
    # d = x^3 appears as well.
    assert bars == [(2, 0, INF), (3, 0, INF), (5, 0, INF)]
    pres = {e.degree: e.differential for e in presentation(model).entries}
    assert "^2" in pres[3] and "^3" in pres[5]
    assert validate_model(model)["ok"]


def test_random_towers_full_pipeline():
    # End-to-end stress: random strict towers, full surgery, independent
    # re-validation, and agreement between the generator barcode and the
    # interval decomposition of the indecomposables modules.
    import random as _random
    from .gen import random_tower
    rng = _random.Random(4242)
    for trial in range(30):
        tower = random_tower(rng, user_cap=4,
                             n_stages=rng.randint(1, 3), max_gens=2)
        model = build_persistent_minimal_model(tower)
        report = validate_model(model)
        assert report["ok"], (trial, report)
        got = Counter()
        for k in range(2, 5):
            bars, _ = interval_decompose(indecomposables_module(model, k))
            for b in bars:
                got[(k, b.birth, b.death)] += 1
        want = Counter((b.degree, b.birth, b.death)
                       for b in homotopy_barcode(model).bars)
        assert got == want, trial


@pytest.mark.parametrize("make", ["example3", "random"])
def test_a_built_model_is_freed_without_the_cyclic_collector(make):
    # No algebra sits on a reference cycle: the free algebras cache term
    # dicts, not elements (which hold their algebra), and B.path, which
    # holds B, is held by B only weakly.  So with the collector off, what
    # the build made is freed by reference counting alone.
    import gc
    import random as _random
    from pmm.cdga import FreeCDGA, PathAlgebra
    from .gen import random_tower
    gc.collect()
    gc.disable()
    try:
        tower = fixture_tower("example3") if make == "example3" else \
            random_tower(_random.Random(3), user_cap=4)
        model = build_persistent_minimal_model(tower)
        assert validate_model(model)["ok"]
        assert any(isinstance(a, FreeCDGA) for a in model.algebras)
        del tower, model
        gc.set_debug(gc.DEBUG_SAVEALL)
        gc.collect()
        cyclic = [type(o).__name__ for o in gc.garbage
                  if isinstance(o, (FreeCDGA, FiniteCDGA, PathAlgebra))]
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()
    assert cyclic == []


def _differential_by_name(alg, elem):
    out = {}
    for mono, c in elem.terms.items():
        key = tuple(sorted((alg.generators[i].name, e)
                           for i, e in enumerate(mono) if e))
        out[key] = out.get(key, 0) + c
    return out


def test_differential_substitution_across_deaths():
    # Regression: a surviving generator whose differential involves a dying
    # generator must have the endpoint image substituted in at the crossing.
    import random as _random
    from .gen import random_tower
    rng = _random.Random(31337)
    events = 0
    for trial in range(13):  # trials 5 and 12 exhibit the substitution
        tower = random_tower(rng, user_cap=5, n_stages=rng.randint(2, 4),
                             max_gens=3, max_degree=5)
        model = build_persistent_minimal_model(tower)
        assert validate_model(model)["ok"], trial
        n = len(model.grid)
        for r in range(n - 1):
            cur, nxt = model.algebras[r], model.algebras[r + 1]
            shared = {g.name for g in cur.generators} & \
                     {g.name for g in nxt.generators}
            for name in shared:
                lhs = _differential_by_name(cur, cur.generator_diff(name))
                rhs = _differential_by_name(nxt, nxt.generator_diff(name))
                if lhs != rhs:
                    events += 1
                    # The pushed differential must still be what sigma says.
                    pushed = model.sigmas[r].apply(cur.generator_diff(name))
                    assert pushed == nxt.generator_diff(name)
    assert events >= 2
