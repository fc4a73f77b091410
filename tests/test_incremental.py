"""Incremental surgery: what each step carries from the previous one, what it
still computes and checks, and what catches a carried block that is wrong.

At degree k every Hirsch extension is a sub-CDGA of the next, so the stage
algebras, maps and homotopies take their blocks below degree k from the
previous step, and the stage cones take H^n, n <= k-3.  Each test that alters
a carried block names the check that reports it: the equal-block check of
`ConeComplex.carry_cohomology`, `validate_model`, or the all-degree cone maps.
"""
import json
from collections import Counter
from fractions import Fraction
from functools import partial
from pathlib import Path

import pytest

from pmm import cochain, minimal, pminimal
from pmm.cdga import (
    CdgaMorphism, FiniteCDGA, free_cdga, hirsch_extend, multiply, unchanged_below,
)
from pmm.cochain import CohomologySpace, compute_cohomology
from pmm.errors import InternalError, ValidationError
from pmm.exactla import ONE, QMatrix
from pmm.homotopy import CdgaHomotopy, ConeComplex, ConeMap, HomotopySquare, IntervalElement
from pmm.io import load_input
from pmm.minimal import build_map_model, map_model_step, trivial_map_model
from pmm.persistence import Grid
from pmm.pminimal import (
    PersistentCDGA, TameMinimalModel, build_persistent_minimal_model,
    homotopy_barcode, surgery_step, tame_cone, validate_model,
)

FIXTURES = Path(__file__).parent / "fixtures"


def wedge_tower(cap=5):
    """H*(S^2 v S^2) -> H*(S^2), killing the second sphere."""
    def stage(spheres):
        labels = [f"a{i}" for i in range(spheres)]
        return FiniteCDGA(basis={0: ["one"], 2: labels}, unit="one",
                          products={(x, y): {} for x in labels for y in labels},
                          differential={}, degree_cap=cap + 2)
    a0, a1 = stage(2), stage(1)
    f = CdgaMorphism.on_basis(a0, a1, {"one": a1.one(), "a0": a1.basis_elem("a0"),
                                       "a1": a1.zero()})
    return PersistentCDGA(Grid((0, 1)), [a0, a1], [f], cap)


def built_through(tower, k):
    model = TameMinimalModel.trivial(tower)
    for j in range(2, k + 1):
        model = surgery_step(model, j)
    return model


def bump(m: QMatrix, i=0, j=0) -> QMatrix:
    """m with entry (i, j) raised by one."""
    rows = [list(r) for r in m.data]
    rows[i][j] += 1
    return QMatrix(m.rows, m.cols, rows)


# -- what a step computes and checks -------------------------------------------


def test_each_step_reduces_three_cone_degrees_and_checks_two(monkeypatch):
    computed, checked, in_verify = [], [], [False]
    cohomology_space, check_chain_map = (ConeComplex.cohomology_space,
                                         ConeMap.check_chain_map)
    verify = pminimal._verify_surgery

    def record_cohomology(cone, n):
        if in_verify[0] and n not in cone._h_cache:
            computed.append((cone, n))
        return cohomology_space(cone, n)

    def record_check(phi, degrees=None):
        checked.append(list(range(-1, phi.source.max_degree) if degrees is None
                            else degrees))
        return check_chain_map(phi, degrees)

    def record_verify(model, k, new_records):
        in_verify[0] = True
        try:
            return verify(model, k, new_records)
        finally:
            in_verify[0] = False

    monkeypatch.setattr(ConeComplex, "cohomology_space", record_cohomology)
    monkeypatch.setattr(ConeMap, "check_chain_map", record_check)
    monkeypatch.setattr(pminimal, "_verify_surgery", record_verify)
    for tower in (wedge_tower(6), load_input(json.loads(
            (FIXTURES / "example3.json").read_text()))):
        model = TameMinimalModel.trivial(tower)
        for k in range(2, tower.user_cap + 1):
            computed.clear()
            checked.clear()
            old_gens = [len(a.generators) for a in model.algebras]
            model = surgery_step(model, k)
            assert checked == [[k - 1, k]] * (len(tower.grid) - 1)
            for r, cone in enumerate(model.stage_cones()):
                degrees = sorted(n for c, n in computed if c is cone)
                window = list(range(max(0, k - 2), k + 1))
                if len(model.algebras[r].generators) > old_gens[r]:
                    assert degrees == window, (k, r)
                else:  # nothing changed at this stage: everything carries
                    assert set(degrees) <= set(window), (k, r)
            assert len(computed) == sum(
                1 for c, _ in computed if any(c is s for s in model.stage_cones()))
        assert validate_model(model)["ok"]


def test_each_generator_is_checked_once_by_the_build(monkeypatch):
    # The CDGA-map checks (stage models, sigmas) and the square checks look at
    # each (stage, generator) pair in the step that adds the generator, and
    # never again: the inherit guards pin the old ones.  A map model is built
    # by the same step, so the same holds for its g, m, n and square.
    seen, current = Counter(), []
    validate_morphism, validate_square = pminimal.validate_morphism, HomotopySquare.validate
    verify = pminimal._verify_surgery

    def record_verify(model, k, new_records):
        current[:] = [model]
        return verify(model, k, new_records)

    def record_map(f, names=None):
        if current:  # a tower checks its own structure maps when it is made
            model = current[0]
            role = next((role, r) for role, maps in (("m", model.models),
                                                     ("sigma", model.sigmas))
                        for r, g in enumerate(maps) if g is f)
            seen.update((role, x) for x in (g.name for g in f.domain.generators)
                        if names is None or x in names)
        return validate_morphism(f, names)

    def record_square(square, names=None):
        r = next(r for r, h in enumerate(current[0].homotopies) if h is square.homotopy)
        seen.update((("square", r), x) for x in (g.name for g in square.left.domain.generators)
                    if names is None or x in names)
        return validate_square(square, names)

    towers = (wedge_tower(6), load_input(json.loads((FIXTURES / "example3.json").read_text())))
    builds = [partial(build_persistent_minimal_model, tower) for tower in towers]
    builds.append(lambda: build_map_model(wedge_tower(5).maps[0], 5).model)
    monkeypatch.setattr(pminimal, "_verify_surgery", record_verify)
    monkeypatch.setattr(minimal, "_verify_surgery", record_verify)
    monkeypatch.setattr(pminimal, "validate_morphism", record_map)
    monkeypatch.setattr(HomotopySquare, "validate", record_square)
    for build in builds:
        seen.clear()
        current.clear()
        model = build()
        n = len(model.grid)
        want = [((role, r), g.name)
                for role, stages in (("m", n), ("sigma", n - 1), ("square", n - 1))
                for r in range(stages) for g in model.algebras[r].generators]
        assert want and sorted(seen) == sorted(want)
        assert set(seen.values()) == {1}


def test_map_model_steps_extend_the_previous_step():
    # Each step's algebras extend the previous step's, and each stage cone
    # takes its H^{<=k-3} from the previous cone as the same objects.
    mm = trivial_map_model(wedge_tower(6).maps[0])
    for k in range(2, 7):
        before, mm = mm, map_model_step(mm)
        for r in range(2):
            assert unchanged_below(mm.model.algebras[r], before.model.algebras[r]) >= k
            old, new = before.model.stage_cones()[r], mm.model.stage_cones()[r]
            for n in range(0, k - 2):
                assert new._h_cache[n] is old._h_cache[n], (k, r, n)
    assert validate_model(mm.model)["ok"]


def test_unwindowed_cone_maps_check_every_degree(monkeypatch):
    checked = []
    check_chain_map = ConeMap.check_chain_map

    def record_check(phi, degrees=None):
        checked.append(degrees)
        return check_chain_map(phi, degrees)

    model = build_persistent_minimal_model(wedge_tower(4))
    monkeypatch.setattr(ConeMap, "check_chain_map", record_check)
    tame_cone(model)
    assert checked == [None]


def test_blocks_below_the_step_are_carried_objects():
    tower = wedge_tower(5)
    before = built_through(tower, 3)
    after = surgery_step(before, 4)
    for r in range(len(tower.grid)):
        old, new = before.algebras[r], after.algebras[r]
        for n in range(-1, 3):
            if n in old._dmat_cache:
                assert new._dmat_cache[n] is old._dmat_cache[n]
        for n in range(0, 4):
            if n in before.models[r]._mat_cache:
                assert after.models[r]._mat_cache[n] is before.models[r]._mat_cache[n]
        for n in range(0, 2):
            assert after.stage_cones()[r]._h_cache[n] is before.stage_cones()[r]._h_cache[n]
    for r in range(len(tower.grid) - 1):
        for n in range(0, 4):
            if n in before.homotopies[r]._cache:
                assert after.homotopies[r]._cache[n] is before.homotopies[r]._cache[n]
            if n in before.sigmas[r]._mat_cache:
                assert after.sigmas[r]._mat_cache[n] is before.sigmas[r]._mat_cache[n]


# -- the guards of each carry ----------------------------------------------------


def test_free_cdga_base_must_be_a_prefix():
    base = free_cdga([("a", 2)], {}, 8)
    other = free_cdga([("b", 2)], {}, 8)
    ext, _ = hirsch_extend(base, [("y", 3, multiply(base.gen("a"), base.gen("a")))])
    assert ext.extends(base) and not ext.extends(other)
    with pytest.raises(ValidationError, match="do not extend"):
        type(ext)(ext.generators, {"y": {(2, 0): ONE}}, 8, base=other)


def test_hirsch_extend_checks_the_new_generators_only():
    base = free_cdga([("a", 2), ("y", 3)], {"y": {(2, 0): ONE}}, 8)
    with pytest.raises(ValidationError, match=r"d\(d\(w\)\) != 0"):
        hirsch_extend(base, [("w", 4, multiply(base.gen("a"), base.gen("y")))])
    ext, _ = hirsch_extend(base, [("z", 4, base.zero())])
    # Below degree 4 the extension reads base's basis keys, padded.
    assert ext.basis_keys(3) == tuple(m + (0,) for m in base.basis_keys(3))


def test_morphism_carry_refuses_a_changed_image():
    model = built_through(wedge_tower(5), 3)
    m = model.models[0]
    name = next(g.name for g in m.domain.generators
                if not m.gen_images[g.name].is_zero())
    images = dict(m.gen_images)
    images[name] = images[name].scale(2)
    changed = CdgaMorphism.on_generators(m.domain, m.codomain, images)
    with pytest.raises(InternalError, match=f"the image of {name} changed"):
        changed.inherit(m)
    other = free_cdga([("q", 2)], {}, m.domain.degree_cap)
    with pytest.raises(InternalError, match="cannot carry"):
        CdgaMorphism.on_generators(other, m.codomain, {"q": m.codomain.zero()}).inherit(m)


def test_homotopy_carry_refuses_a_changed_value():
    model = built_through(wedge_tower(5), 3)
    h = model.homotopies[0]
    name = next(x for x, value in h.assignment.items() if not value.is_zero())
    assignment = dict(h.assignment)
    assignment[name] = assignment[name].scale(2)
    with pytest.raises(InternalError, match=f"the homotopy changed on {name}"):
        CdgaHomotopy(h.domain, h.codomain, assignment).inherit(h)


def test_boundaries_read_from_the_degree_below(monkeypatch):
    d0 = QMatrix.from_rows([[1, 0], [2, 0], [0, 0]])
    d1 = QMatrix.from_rows([[0, 0, 1], [2, -1, 0]])
    below = compute_cohomology(d0, None)
    calls = []
    rref = cochain.rref
    monkeypatch.setattr(cochain, "rref", lambda m: calls.append(m) or rref(m))
    fresh = compute_cohomology(d1, d0)
    assert len(calls) == 2
    calls.clear()
    read = compute_cohomology(d1, d0, below)
    assert calls == [d1]
    assert read == fresh and read.boundaries == [(1, 2, 0)]
    with pytest.raises(InternalError, match="boundary is not a cocycle"):
        compute_cohomology(QMatrix.from_rows([[1, 0, 0]]), d0, below)


# -- negative controls: an altered carried block is still reported ---------------


def test_altered_carried_algebra_d_matrix_fails_the_equal_block_check():
    model = built_through(wedge_tower(5), 3)
    alg = model.algebras[0]
    alg._dmat_cache[2] = bump(alg.d_matrix(2))  # carried into degree 4: d(n), n <= 2
    with pytest.raises(InternalError, match=r"cone d\(1\) differs"):
        surgery_step(model, 4)


def test_altered_carried_model_matrix_fails_the_equal_block_check():
    model = built_through(wedge_tower(5), 3)
    m = model.models[0]
    m._mat_cache[2] = bump(m.matrix(2))  # m(2) is a block of the cone's d(1)
    with pytest.raises(InternalError, match=r"cone d\(1\) differs"):
        surgery_step(model, 4)


def test_altered_carried_sigma_matrix_fails_the_all_degree_cone_maps():
    tower = wedge_tower(5)
    model = built_through(tower, 3)
    sigma = model.sigmas[0]
    sigma._mat_cache[2] = bump(sigma.matrix(2))
    for k in range(4, tower.user_cap + 1):
        model = surgery_step(model, k)
    assert model.sigmas[0]._mat_cache[2] is sigma._mat_cache[2]
    with pytest.raises(InternalError, match="cone map fails to be a cochain map"):
        tame_cone(model)


def test_altered_carried_integral_block_fails_validate_model():
    tower = load_input(json.loads((FIXTURES / "sphere2_bounded.json").read_text()))
    model = built_through(tower, 3)
    h = model.homotopies[0]
    h._cache[2] = bump(h.integral_matrix(2))  # I_H(2): M^2 -> B^1 = <w>
    for k in range(4, tower.user_cap + 1):
        model = surgery_step(model, k)
    assert model.homotopies[0]._cache[2] is h._cache[2]
    report = validate_model(model)
    assert not report["ok"]
    assert "stage 0: identity fails on x2_0" in report["homotopy_identities"]["failures"]


def test_altered_carried_cone_d_matrix_fails_the_equal_block_check():
    model = built_through(wedge_tower(5), 4)
    cone = model.stage_cones()[1]
    cone._d_cache[0] = bump(cone.d_matrix(0))
    with pytest.raises(InternalError, match=r"cone d\(0\) differs"):
        surgery_step(model, 5)


def test_altered_carried_cone_cohomology_fails_connectivity():
    model = built_through(wedge_tower(5), 4)
    cone = model.stage_cones()[0]
    h1 = cone.cohomology_space(1)
    cone._h_cache[1] = CohomologySpace(h1.ambient_dim, h1.cocycles, h1.boundaries,
                                       [(Fraction(1),) + (Fraction(0),) * (h1.ambient_dim - 1)],
                                       h1.pivots)
    with pytest.raises(InternalError,
                       match=r"after degree-5 surgery: H\^1 C_m\(0\) has dimension 1"):
        surgery_step(model, 5)


def test_cone_map_block_outside_the_window_fails_validate_model():
    # The last step (k = 5) checked its cone maps in degrees 4 and 5 only;
    # phi(1) holds I_H(2), which validate_model's identity check reads.
    tower = load_input(json.loads((FIXTURES / "sphere2_bounded.json").read_text()))
    model = build_persistent_minimal_model(tower, 5)
    assert validate_model(model)["ok"]
    h = model.homotopies[0]
    h._cache[2] = bump(h.integral_matrix(2))
    report = validate_model(model)
    assert not report["ok"]
    assert report["homotopy_identities"]["failures"] == ["stage 0: identity fails on x2_0"]


# -- a built homotopy that is not constant ------------------------------------------


def test_bounded_sphere_fixture_builds_a_nonconstant_homotopy():
    tower = load_input(json.loads((FIXTURES / "sphere2_bounded.json").read_text()))
    model = built_through(tower, 2)
    i_h2 = model.homotopies[0].integral_matrix(2)
    # x2_0 dies at stage 1, bounded by w: H(x2_0) = a - a t + w dt, so the
    # w (x) dt correction gives a nonzero I_H(2) block.
    assert model.homotopies[0].assignment["x2_0"].dt
    assert not i_h2.is_zero()
    for k in range(3, tower.user_cap + 1):
        model = surgery_step(model, k)
    assert model.homotopies[0].integral_matrix(2) is i_h2
    assert homotopy_barcode(model).as_multiset() == [(2, 0, 1), (3, 0, 1)]
    assert validate_model(model)["ok"]


def test_build_checks_the_integration_identity_on_new_generators():
    tower = load_input(json.loads((FIXTURES / "sphere2_bounded.json").read_text()))
    model = built_through(tower, 2)
    pminimal._verify_surgery(model, 2, [{"name": "x2_0"}])
    h = model.homotopies[0]
    w = h.codomain.basis_elem("w")
    # w (x) dt moves neither end point but moves I_H(x2_0) by w, and dw = a.
    h.assignment["x2_0"] = h.assignment["x2_0"] + IntervalElement.t_power(w, 0, with_dt=True)
    h._cache.clear()
    with pytest.raises(InternalError, match="integration identity fails on x2_0 at stage 0"):
        pminimal._verify_surgery(model, 2, [{"name": "x2_0"}])


def test_build_checks_the_chain_condition_on_new_generators(monkeypatch):
    tower = load_input(json.loads((FIXTURES / "sphere2_bounded.json").read_text()))
    extend_homotopy = pminimal.extend_homotopy

    def off_by_a_t(f, h, v, a, y):
        # a (x) t has d = a (x) dt != 0 = H(d x2_0): no longer a chain map.
        return extend_homotopy(f, h, v, a, y) + IntervalElement.t_power(
            h.codomain.basis_elem("a"), 1)

    monkeypatch.setattr(pminimal, "extend_homotopy", off_by_a_t)
    with pytest.raises(ValidationError, match="homotopy is not a chain map on x2_0"):
        surgery_step(TameMinimalModel.trivial(tower), 2)
