"""Incremental surgery: what each step carries from the previous one, what it
still computes and checks, and what catches a carried block that is wrong.

At degree k every Hirsch extension is a sub-CDGA of the next, so the stage
algebras, maps and homotopies take their blocks below degree k from the
previous step, and the stage cones take H^n, n <= k-3.  Each test that alters
a carried block names the check that reports it: the equal-block check of
`ConeComplex.carry_cohomology`, `validate_model`, or the all-degree cone maps.
"""
import json
import random
from collections import Counter
from functools import partial
from pathlib import Path

import pytest

from pmm import cochain, pminimal
from pmm.cdga import (
    CdgaMorphism, FiniteCDGA, FreeCDGA, _monomials, free_cdga, hirsch_extend, multiply,
    unchanged_below,
)
from pmm.cochain import CohomologySpace, compute_cohomology
from pmm.errors import InternalError, ValidationError
from pmm.exactla import ONE, QMatrix
from pmm.homotopy import ConeComplex, ConeMap, HomotopySquare, integral_matrix
from pmm.io import load_input, load_model, model_payload
from pmm.minimal import build_map_model, map_model_step, trivial_map_model
from pmm.persistence import Grid
from pmm.pminimal import (
    PersistentCDGA, TameMinimalModel, build_persistent_minimal_model,
    homotopy_barcode, presentation, surgery_step, tame_cone, validate_model,
)

from perfbench.gen import longgrid_tower

from .dense import dense_key, sparse_key

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

    def record_verify(model, k, new_names):
        in_verify[0] = True
        try:
            return verify(model, k, new_names)
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
            # The first step checks its cone maps in degrees 1 and 2; each
            # later step in degree k, the one new equation (cone_classes).
            assert checked == [[1, 2] if k == 2 else [k]] * (len(tower.grid) - 1)
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
    # The CDGA-map checks (stage models, sigmas, homotopies) and the square
    # checks look at each (stage, generator) pair in the step that adds the
    # generator, and never again: the inherit guards pin the old ones.  A map
    # model is built by the same step, so the same holds for its g, m, n, H
    # and square.
    seen, current = Counter(), []
    validate_morphism, validate_square = pminimal.validate_morphism, HomotopySquare.validate

    def record_model(step, model, *args):
        current[:] = [model]
        return step(model, *args)

    def record_map(f, names=None):
        if current:  # a tower checks its own structure maps when it is made
            model = current[0]  # _extend_state's input, _verify_surgery's output
            paths = [s.path for s in model.target.stages[1:]]
            role = next((role, r) for role, maps in (("m", model.models),
                                                     ("sigma", model.sigmas),
                                                     ("homotopy", paths))
                        for r, g in enumerate(maps) if g is f or g is f.codomain)
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
    for step in ("_extend_state", "_verify_surgery"):
        monkeypatch.setattr(pminimal, step, partial(record_model, getattr(pminimal, step)))
    monkeypatch.setattr(pminimal, "validate_morphism", record_map)
    monkeypatch.setattr(HomotopySquare, "validate", record_square)
    for build in builds:
        seen.clear()
        current.clear()
        model = build()
        n = len(model.grid)
        want = [((role, r), g.name)
                for role, stages in (("m", n), ("sigma", n - 1), ("homotopy", n - 1),
                                     ("square", n - 1))
                for r in range(stages) for g in model.algebras[r].generators]
        assert want and sorted(seen) == sorted(want)
        assert set(seen.values()) == {1}


def test_each_cone_map_degree_is_checked_once_by_the_build(monkeypatch):
    # Step 2 checks its cone maps in degrees 1 and 2, each later step k in
    # degree k alone (cone_classes): over a build, every degree 1..cap is
    # checked exactly once per stage pair.  tame_cone checks every degree.
    calls = []
    check_chain_map = ConeMap.check_chain_map

    def record_check(phi, degrees=None):
        calls.append(list(range(-1, min(phi.source.max_degree, phi.target.max_degree)))
                     if degrees is None else list(degrees))
        return check_chain_map(phi, degrees)

    monkeypatch.setattr(ConeMap, "check_chain_map", record_check)
    towers = (wedge_tower(6), load_input(json.loads((FIXTURES / "example3.json").read_text())))
    builds = [partial(build_persistent_minimal_model, tower) for tower in towers]
    builds.append(lambda: build_map_model(wedge_tower(5).maps[0], 5).model)
    for build in builds:
        calls.clear()
        model = build()
        pairs, cap = len(model.grid) - 1, model.degree_done
        assert pairs and len(calls) == pairs * (cap - 1)
        for r in range(pairs):
            per_pair = Counter(n for degrees in calls[r::pairs] for n in degrees)
            assert per_pair == Counter(range(1, cap + 1)), r
        calls.clear()
        tame_cone(model)
        assert len(calls) == pairs
        assert all(set(range(-1, cap + 1)) <= set(degrees) for degrees in calls)


@pytest.mark.parametrize("seed", [None, 500, 501, 505, 506])
def test_surgery_extension_bases_match_a_from_scratch_enumeration(seed):
    # Each step's model algebras extend the last step's, and the added
    # generators' monomials are shared across steps and stages by degree
    # tuple.  Every algebra, odd generators included, lists its degree-n
    # monomials as one enumeration over all its generators does, sorted by
    # (total exponent, lexicographic).  Seed None is the wedge tower, with
    # many generators of one degree; the others are seeded free towers.
    from .gen import random_tower

    tower = wedge_tower(6) if seed is None else random_tower(
        random.Random(seed), 6, n_stages=4, max_gens=3)
    model = TameMinimalModel.trivial(tower)
    algebras = [alg for alg in tower.stages if alg.kind == "free"]
    for k in range(2, tower.user_cap + 1):
        model = surgery_step(model, k)
        algebras += model.algebras
    assert any(g.degree % 2 for alg in algebras for g in alg.generators)
    for alg in algebras:
        degrees = [g.degree for g in alg.generators]
        for n in range(alg.degree_cap + 1):
            dense = sorted((dense_key(m, len(degrees)) for m in _monomials(degrees, n)),
                           key=lambda m: (sum(m), m))
            assert list(alg.basis_keys(n)) == [sparse_key(m) for m in dense], (seed, n)


@pytest.mark.parametrize("tower", [None, "example3", 500, 501, 505, "map"])
def test_class_data_matches_its_dense_expansion_through_a_build(monkeypatch, tower):
    # Every cocycle, rep, class_of and rep_of_class answer, bar section and
    # death-solve answer a build reads is a Row equal, expanded, to the dense
    # reference kernels' answer on the expanded inputs (tests/dense.py): on
    # the wedge tower, example3, seeded free towers and a map model.
    from .dense import DenseSpace, dense
    from .dense import apply as dense_apply
    from .dense import solve as dense_solve
    from .gen import random_tower

    refs, seen = {}, Counter()

    def ref(space):
        if id(space) not in refs:
            refs[id(space)] = space, DenseSpace(space)
        return refs[id(space)][1]

    def class_of(space, z, real=CohomologySpace.class_of):
        got = real(space, z)
        assert dense(got, space.dim) == ref(space).class_of(dense(z, space.ambient_dim))
        seen["class_of"] += 1
        return got

    def rep_of_class(space, h, real=CohomologySpace.rep_of_class):
        got = real(space, h)
        assert dense(got, space.ambient_dim) == ref(space).rep_of_class(dense(h, space.dim))
        seen["rep_of_class"] += 1
        return got

    def bar_sections(grid, sigmas, spaces, real=pminimal.bar_sections):
        bars, reps, sections = real(grid, sigmas, spaces)
        for bar, rep, section in zip(bars, reps, sections, strict=True):
            birth = spaces[bar.birth]
            z = ref(birth).rep_of_class(dense(rep.vectors[bar.birth], birth.dim))
            for r in sorted(section):
                if r > bar.birth:
                    z = dense_apply(sigmas[r - 1], z)
                assert dense(section[r], spaces[r].ambient_dim) == z
                seen["section"] += 1
        return bars, reps, sections

    def solve(a, b, real=pminimal.solve):
        got = real(a, b)
        assert (None if got is None else dense(got, a.cols)) == dense_solve(a, dense(b, a.rows))
        seen["death-solve"] += 1
        return got

    monkeypatch.setattr(CohomologySpace, "class_of", class_of)
    monkeypatch.setattr(CohomologySpace, "rep_of_class", rep_of_class)
    monkeypatch.setattr(pminimal, "bar_sections", bar_sections)
    monkeypatch.setattr(pminimal, "solve", solve)
    if tower == "map":
        build_map_model(wedge_tower(6).maps[0], 6)
    else:
        build_persistent_minimal_model(
            wedge_tower(6) if tower is None
            else load_input(json.loads((FIXTURES / f"{tower}.json").read_text()))
            if isinstance(tower, str)
            else random_tower(random.Random(tower), 6, n_stages=4, max_gens=3))
    for space, want in refs.values():
        n = space.ambient_dim
        assert [dense(v, n) for v in space.cocycles] == want.cocycles
        assert [dense(v, n) for v in space.reps] == want.reps
        assert [dense(v, n) for v in space.boundaries] == want.boundaries
    assert refs and seen["class_of"] and seen["rep_of_class"], seen
    assert seen["death-solve"] and (seen["section"] or tower == "map"), seen


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


@pytest.mark.parametrize("cap", [3, 4])
def test_map_model_built_below_the_cap_passes_the_audit(cap):
    # The tower's cap is 5; validate_model reads connectivity through the
    # degree the model was built to.
    mm = build_map_model(wedge_tower(5).maps[0], cap)
    report = validate_model(mm.model)
    assert report["connectivity"]["checked_through_degree"] == cap
    assert report["ok"], report


def test_a_stage_that_gains_no_generator_keeps_its_algebra():
    # example1_case1: x2_0 lives on [0, 2), so degree-2 surgery leaves
    # stages 2 and 3, and the map between them, as they were.
    tower = load_input(json.loads((FIXTURES / "example1_case1.json").read_text()))
    before = TameMinimalModel.trivial(tower)
    after = surgery_step(before, 2)
    kept = [a is b for a, b in zip(after.algebras, before.algebras)]
    assert kept == [False, False, True, True]
    assert [s is t for s, t in zip(after.sigmas, before.sigmas)] == [False, False, True]


def _generator_data(alg):
    return [(g, alg.generator_diff(g.name).terms) for g in alg.generators]


def _longgrid_docs():
    return [json.loads((FIXTURES / "longgrid_runs.json").read_text()), longgrid_tower(1)]


def _built_and_loaded(doc):
    model = build_persistent_minimal_model(load_input(doc))
    _, loaded = load_model(json.loads(json.dumps(model_payload(model, doc))))
    return model, loaded


def _distinct(algebras):
    return len({id(a) for a in algebras})


def test_a_stage_takes_the_previous_stages_algebra_exactly_where_both_extend_one_alike():
    # Any two stages, adjacent or not, get one algebra object exactly when
    # both extend one base object by the same generators with equal pushed
    # differentials; the trivial model has one unit algebra.  An equal stage
    # that comes back after a different one gets the same object again.
    tower = load_input(_longgrid_docs()[0])
    model = TameMinimalModel.trivial(tower)
    assert _distinct(model.algebras) == 1
    seen = Counter()
    pairs = [(q, r) for r in range(len(tower.grid)) for q in range(r)]
    for k in range(2, tower.user_cap + 1):
        before, model = model, surgery_step(model, k)
        for q, r in pairs:
            new = model.algebras
            rule = (before.algebras[q] is before.algebras[r]
                    and _generator_data(new[q]) == _generator_data(new[r]))
            assert (new[q] is new[r]) == rule, (k, q, r)
            seen[rule, r - q > 1 and any(new[p] is not new[r] for p in range(q + 1, r))] += 1
    assert all(seen[rule, apart] for rule in (True, False) for apart in (True, False)), seen


@pytest.mark.parametrize("which, objects", [(0, 8), (1, 7)])
def test_each_distinct_stage_algebra_is_one_object_in_the_build_and_the_reload(which, objects):
    # longgrid_runs.json and perfbench.gen.longgrid_tower(1), 16 stages each:
    # io.load_model attaches the saved generators with the build's own step,
    # so it holds the same objects; unequal algebras stay apart.
    doc = _longgrid_docs()[which]
    for model in _built_and_loaded(doc):
        algs = model.algebras
        assert all((algs[q] is algs[r]) == (_generator_data(algs[q]) == _generator_data(algs[r]))
                   for r in range(len(algs)) for q in range(r))
        assert (len(algs), _distinct(algs)) == (16, objects)
        assert validate_model(model)["ok"]


def test_a_stage_cone_takes_the_previous_stage_cones_equal_d_and_its_cohomology():
    # Each new stage cone has as `like` the latest cone over its domain and
    # target objects, its table donor.  It takes the donor's d(n) exactly
    # where it stacks d(n) from the donor's d_M(n+1) and d_A(n) objects and
    # an equal m(n+1), and the donor's H^n where d(n-1) and d(n) are both
    # taken; the rest it stacks and reduces itself.
    seen = Counter()
    for doc in _longgrid_docs():
        for model in _built_and_loaded(doc):
            assert validate_model(model)["ok"]
            latest = {}
            for c in model.stage_cones():
                donor = c.like
                assert donor is latest.get((c.domain, c.target))
                latest[c.domain, c.target] = c
                if donor is None:
                    continue
                for n, blocks in c._d_blocks.items():
                    record = donor._d_blocks.get(n)
                    equal = (record is not None and record[0] is blocks[0]
                             and record[2] is blocks[2] and record[1] == blocks[1])
                    assert (c._d_cache[n] is donor._d_cache.get(n)) == equal
                    seen["d", equal] += 1
                for n, h in c._h_cache.items():
                    taken = all(c._d_cache.get(j) is donor._d_cache.get(j) for j in (n - 1, n))
                    assert (h is donor._h_cache.get(n)) == taken
                    seen["H", taken] += 1
    assert all(seen[kind, taken] >= 10 for kind in "dH" for taken in (True, False)), seen


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
            if n in before.homotopies[r]._mat_cache:
                assert after.homotopies[r]._mat_cache[n] is before.homotopies[r]._mat_cache[n]
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
    base = free_cdga([("a", 2), ("y", 3)], {"y": {sparse_key((2, 0)): ONE}}, 8)
    with pytest.raises(ValidationError, match=r"d\(d\(w\)\) != 0"):
        hirsch_extend(base, [("w", 4, multiply(base.gen("a"), base.gen("y")))])
    ext, _ = hirsch_extend(base, [("z", 4, base.zero())])
    # Below degree 4 the extension reads base's basis keys, each the same
    # exponent tuple with a zero for z.
    assert [dense_key(m, 3) for m in ext.basis_keys(3)] == [
        dense_key(m, 2) + (0,) for m in base.basis_keys(3)]


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


def test_the_guard_answers_a_verified_base_by_identity(monkeypatch):
    # An extension checked `extends(base)` when it was made; the carry guard
    # answers for that base by identity.  Any other algebra is still run
    # through `extends`: an equal copy of the base passes it, and the
    # extension of a different algebra is refused with `cannot carry`.
    base = free_cdga([("a", 2), ("b", 2)], {}, 8)
    a, b = base.gen("a"), base.gen("b")
    ext, _ = hirsch_extend(base, [("y", 3, multiply(a, b))])
    copy = free_cdga([("a", 2), ("b", 2)], {}, 8)
    other = free_cdga([("a", 2), ("c", 2)], {}, 8)
    other_ext, _ = hirsch_extend(other, [("y", 3, multiply(other.gen("a"), other.gen("c")))])
    calls = []
    extends = FreeCDGA.extends
    monkeypatch.setattr(FreeCDGA, "extends", lambda s, o: calls.append((s, o)) or extends(s, o))
    assert unchanged_below(ext, base) == 3 and calls == []
    assert unchanged_below(ext, copy) == 3 and calls == [(ext, copy)]
    assert unchanged_below(other_ext, base) == 0 and calls[-1] == (other_ext, base)
    m = CdgaMorphism.on_generators(base, base, {"a": a, "b": b})
    m.matrix(2)
    carried = CdgaMorphism.on_generators(ext, ext, {"a": ext.gen("a"), "b": ext.gen("b"),
                                                    "y": ext.gen("y")})
    carried.inherit(m)
    assert carried._mat_cache[2] is m._mat_cache[2] and len(calls) == 2
    refused = CdgaMorphism.on_generators(other_ext, base, {
        name: base.zero() for name in ("a", "c", "y")})
    with pytest.raises(InternalError, match="cannot carry matrices"):
        refused.inherit(m)


def test_the_guard_does_not_answer_an_equal_degree_algebra_by_identity(monkeypatch):
    # `twin` has `base`'s generators and so `base`'s shared basis tables, but
    # another differential.  Its extension's base reference names twin, not
    # base: the guard runs `extends`, which fails, and `inherit` refuses.
    scratch = free_cdga([("a", 2), ("x", 3)], {}, 8)
    base = free_cdga([("a", 2), ("x", 3)], {"x": multiply(scratch.gen("a"), scratch.gen("a"))}, 8)
    twin = free_cdga([("a", 2), ("x", 3)], {}, 8)
    assert twin._basis_cache is base._basis_cache
    twin_ext, _ = hirsch_extend(twin, [("y", 3, twin.zero())])
    assert twin_ext._base_ref() is twin and base._base_ref is None
    calls = []
    extends = FreeCDGA.extends
    monkeypatch.setattr(FreeCDGA, "extends", lambda s, o: calls.append((s, o)) or extends(s, o))
    assert unchanged_below(twin_ext, base) == 0 and calls == [(twin_ext, base)]
    m = CdgaMorphism.on_generators(base, base, {"a": base.gen("a"), "x": base.gen("x")})
    m.matrix(2)
    refused = CdgaMorphism.on_generators(twin_ext, base, {
        "a": base.gen("a"), "x": base.gen("x"), "y": base.zero()})
    with pytest.raises(InternalError, match="cannot carry matrices"):
        refused.inherit(m)


def test_homotopy_carry_refuses_a_changed_value():
    model = built_through(wedge_tower(5), 3)
    h = model.homotopies[0]
    name = next(x for x, value in h.gen_images.items() if not value.is_zero())
    values = dict(h.gen_images)
    values[name] = values[name].scale(2)
    with pytest.raises(InternalError, match=f"the image of {name} changed"):
        CdgaMorphism.on_generators(h.domain, h.codomain, values).inherit(h)


def test_boundaries_read_from_the_degree_below(monkeypatch):
    d0 = QMatrix.from_rows([[1, 0], [2, 0], [0, 0]])
    d1 = QMatrix.from_rows([[0, 0, 1], [2, -1, 0]])
    below = compute_cohomology(d0, None)
    calls = []
    echelon = cochain.echelon
    monkeypatch.setattr(cochain, "echelon", lambda m: calls.append(m) or echelon(m))
    fresh = compute_cohomology(d1, d0)
    assert len(calls) == 2
    calls.clear()
    read = compute_cohomology(d1, d0, below)
    assert calls == [d1]
    assert read == fresh and read.boundaries == [{0: 1, 1: 2}]
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


@pytest.mark.parametrize("stage", [0, 1])
def test_altered_inherited_model_block_fails_the_equal_block_check(stage):
    # m(2) is the lower-left block of the cone's d(1), in the rows that the
    # one-pass assembly joins with -d_A(1); the last entry sits next to it.
    model = built_through(wedge_tower(5), 4)
    m = model.models[stage]
    assert 1 in model.stage_cones()[stage]._d_cache
    m._mat_cache[2] = bump(m.matrix(2), m.matrix(2).rows - 1, m.matrix(2).cols - 1)
    with pytest.raises(InternalError, match=r"cone d\(1\) differs from the previous cone's"):
        surgery_step(model, 5)


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
    h._mat_cache[2] = bump(integral_matrix(h, 2))  # I_H(2): M^2 -> B^1 = <w>
    for k in range(4, tower.user_cap + 1):
        model = surgery_step(model, k)
    assert model.homotopies[0]._mat_cache[2] is h._mat_cache[2]
    report = validate_model(model)
    assert not report["ok"]
    assert "stage 0: identity fails on x2_0" in report["homotopy_identities"]["failures"]


def test_an_equal_replaced_block_is_carried_through_the_comparison():
    # A carried d-matrix replaced by an equal but distinct object is no
    # longer the block old's d(1) was stacked from: the new cone stacks its
    # own d(1), finds it equal and keeps old's, and the build goes on as if
    # nothing had happened.
    tower = wedge_tower(5)
    model = built_through(tower, 3)
    m = model.algebras[0].d_matrix(2)
    copy = QMatrix(m.rows, m.cols, m.data)
    assert copy == m and copy is not m
    model.algebras[0]._dmat_cache[2] = copy
    after = surgery_step(model, 4)
    old, new = model.stage_cones()[0], after.stage_cones()[0]
    assert new._d_blocks[1][0] is copy and new._d_cache[1] is old._d_cache[1]
    for k in range(5, tower.user_cap + 1):
        after = surgery_step(after, k)
    plain = build_persistent_minimal_model(wedge_tower(5))
    assert presentation(after).text(verbose=True) == presentation(plain).text(verbose=True)
    assert validate_model(after)["ok"]


def test_altered_target_d_matrix_fails_the_equal_block_check():
    # B^1 = <w> with dw = a at stage 1: the target's d(1) is a block of each
    # cone's d(1), so an altered one is reported when the next step carries.
    tower = load_input(json.loads((FIXTURES / "sphere2_bounded.json").read_text()))
    model = built_through(tower, 4)
    target = tower.stages[1]
    assert 1 in model.stage_cones()[1]._d_cache and not target.d_matrix(1).is_zero()
    target._dmat_cache[1] = bump(target.d_matrix(1))
    with pytest.raises(InternalError, match=r"cone d\(1\) differs from the previous cone's"):
        surgery_step(model, 5)


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
    assert (h1.dim, h1.pivots, h1.boundaries) == (0, (0, 1), [])
    # Drop d(1)'s last echelon row and pivot: the space now claims rank 1, so dim 1.
    first = h1.pivots[0]
    cone._h_cache[1] = CohomologySpace(h1.d_out, {first: h1._rows[first]}, h1.boundaries)
    assert cone._h_cache[1].dim == 1
    with pytest.raises(InternalError,
                       match=r"after degree-5 surgery: H\^1 C_m\(0\) has dimension 1"):
        surgery_step(model, 5)


def test_cone_map_block_outside_the_window_fails_validate_model():
    # The last step (k = 5) checked its cone maps in degree 5 only;
    # phi(1) holds I_H(2), which validate_model's identity check reads.
    tower = load_input(json.loads((FIXTURES / "sphere2_bounded.json").read_text()))
    model = build_persistent_minimal_model(tower, 5)
    assert validate_model(model)["ok"]
    h = model.homotopies[0]
    h._mat_cache[2] = bump(integral_matrix(h, 2))
    report = validate_model(model)
    assert not report["ok"]
    assert report["homotopy_identities"]["failures"] == ["stage 0: identity fails on x2_0"]


# -- a built homotopy that is not constant ------------------------------------------


def test_bounded_sphere_fixture_builds_a_nonconstant_homotopy():
    tower = load_input(json.loads((FIXTURES / "sphere2_bounded.json").read_text()))
    model = built_through(tower, 2)
    i_h2 = integral_matrix(model.homotopies[0], 2)
    # x2_0 dies at stage 1, bounded by w: H(x2_0) = a - a t + w dt, so the
    # w (x) dt correction gives a nonzero I_H(2) block.
    assert any(e for _, _, e in model.homotopies[0].gen_images["x2_0"].terms)
    assert not i_h2.is_zero()
    for k in range(3, tower.user_cap + 1):
        model = surgery_step(model, k)
    assert integral_matrix(model.homotopies[0], 2) is i_h2
    assert homotopy_barcode(model).as_multiset() == [(2, 0, 1), (3, 0, 1)]
    assert validate_model(model)["ok"]


def test_build_checks_the_integration_identity_on_new_generators():
    tower = load_input(json.loads((FIXTURES / "sphere2_bounded.json").read_text()))
    model = built_through(tower, 2)
    pminimal._verify_surgery(model, 2, ["x2_0"])
    h = model.homotopies[0]
    w = h.codomain.base.basis_elem("w")
    # w (x) dt moves neither end point but moves I_H(x2_0) by w, and dw = a.
    h.gen_images["x2_0"] = h.gen_images["x2_0"] + h.codomain.tensor(w, 0, 1)
    h._images.clear()
    h._mat_cache.clear()
    with pytest.raises(InternalError,
                       match="^after degree-2 surgery: stage 0: identity fails on x2_0$"):
        pminimal._verify_surgery(model, 2, ["x2_0"])
    # d(w dt) = a dt: H is no CDGA map, which the build checks in
    # _extend_state and validate_model before the square and the identity.
    assert validate_model(model)["homotopy_identities"]["failures"] == [
        "stage 0: homotopy: d-compatibility fails on generator x2_0 at stage 0"]


def test_build_checks_the_chain_condition_on_new_generators(monkeypatch):
    tower = load_input(json.loads((FIXTURES / "sphere2_bounded.json").read_text()))
    extend_homotopy = pminimal.extend_homotopy

    def off_by_a_t(f, h, v, a, y):
        # a (x) t has d = a (x) dt != 0 = H(d x2_0): no longer a chain map.
        return extend_homotopy(f, h, v, a, y) + h.codomain.tensor(
            h.codomain.base.basis_elem("a"), 1)

    monkeypatch.setattr(pminimal, "extend_homotopy", off_by_a_t)
    with pytest.raises(ValidationError, match="d-compatibility fails on generator x2_0"):
        surgery_step(TameMinimalModel.trivial(tower), 2)
