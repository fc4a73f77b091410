"""Acceptance suite: one test per criterion, at the stated tolerances.

Every assertion is exact (rational arithmetic, zero tolerance); the timed
criteria also assert their wall-clock budgets.  Each test prints one
PASS line on success (visible with pytest -s).
"""
import json
import random
import time
from collections import Counter
from pathlib import Path

from pmm.exactla import QMatrix, rank
from pmm.homotopy import check_homotopy_identity, cone
from pmm.io import load_input
from pmm.minimal import build_map_model
from pmm.persistence import (
    INF, Grid, PersistenceModule, check_representatives, from_bars,
    interval_decompose, rank_invariant,
)
from pmm.pcomplex import (
    PComplexMap, attach_cell, factor_cofibration, interval_complex,
    interval_disk, is_fibration, is_trivial_fibration, zero_complex,
)
from pmm.pminimal import (
    TameMinimalModel, build_persistent_minimal_model, homotopy_barcode,
    presentation, surgery_step, validate_model, )

from .gen import (
    random_morphism, random_pcomplex, random_pcomplex_map, random_sphere_data,
)

FIXTURES = Path(__file__).parent / "fixtures"


def load_fixture_tower(name, cap=None):
    with open(FIXTURES / f"{name}.json") as fh:
        doc = json.load(fh)
    if cap is not None:
        doc["degree_cap"] = cap
    return doc, load_input(doc)


def bars_times(model):
    return sorted(
        (b.degree, str(model.grid.times[b.birth]),
         None if b.death == INF else str(model.grid.times[int(b.death)]))
        for b in homotopy_barcode(model).bars)


_BUILT = {}


def built(name, cap=None):
    key = (name, cap)
    if key not in _BUILT:
        _, tower = load_fixture_tower(name, cap)
        _BUILT[key] = build_persistent_minimal_model(tower)
    return _BUILT[key]


def test_criterion_01_example_one_nonformal():
    t0 = time.monotonic()
    model = built("example1_case1", 5)
    assert bars_times(model) == [(2, "0", "2"), (3, "1", "3")]
    pres = presentation(model)
    a = next(e for e in pres.entries if e.degree == 2)
    y = next(e for e in pres.entries if e.degree == 3)
    assert y.differential in (f"{a.name}^2", f"-{a.name}^2") or \
        (a.name + "^2" in y.differential and y.differential != "0")
    elapsed = time.monotonic() - t0
    assert elapsed < 5.0
    print(f"criterion 1: PASS ({elapsed:.2f}s)")


def test_criterion_02_example_one_formal():
    t0 = time.monotonic()
    model = built("example1_case2", 5)
    assert bars_times(model) == [(2, "0", "2"), (3, "1", "3")]
    pres = presentation(model)
    y = next(e for e in pres.entries if e.degree == 3)
    assert y.differential == "0"
    elapsed = time.monotonic() - t0
    assert elapsed < 5.0
    print(f"criterion 2: PASS ({elapsed:.2f}s)")


def test_criterion_03_example_two():
    t0 = time.monotonic()
    model = built("example2", 5)
    assert bars_times(model) == [(2, "1", "3"), (3, "0", "2")]
    for e in presentation(model).entries:
        assert e.differential == "0"
        assert e.endpoint in (None, "0")
    elapsed = time.monotonic() - t0
    assert elapsed < 5.0
    print(f"criterion 3: PASS ({elapsed:.2f}s)")


def test_criterion_04_example_three():
    t0 = time.monotonic()
    model = built("example3", 5)
    assert bars_times(model) == [(2, "1", "3"), (4, "0", "2")]
    pres = presentation(model)
    g4 = next(e for e in pres.entries if e.degree == 4)
    a2 = next(e for e in pres.entries if e.degree == 2)
    # Endpoint relation gamma -> alpha^2 at index r (time 2), the corrected
    # index for the bar [p, r).
    assert g4.death_time is not None and str(g4.death_time) == "2"
    assert g4.endpoint is not None and g4.endpoint != "0"
    assert a2.name + "^2" in g4.endpoint
    elapsed = time.monotonic() - t0
    assert elapsed < 10.0
    print(f"criterion 4: PASS ({elapsed:.2f}s)")


def test_criterion_05_classical_sanity():
    t0 = time.monotonic()
    model = built("sphere2")
    assert bars_times(model) == [(2, "0", None), (3, "0", None)]
    gens = sorted(model.generators, key=lambda g: g.degree)
    assert [g.degree for g in gens] == [2, 3]
    a, y = gens
    alg = model.algebras[0]
    square = alg.gen(a.name) * alg.gen(a.name)
    dy = alg.generator_diff(y.name)
    assert dy == square or dy == square.scale(-1)
    elapsed_s2 = time.monotonic() - t0
    assert elapsed_s2 < 2.0

    t0 = time.monotonic()
    model3 = built("sphere3")
    assert bars_times(model3) == [(3, "0", None)]
    assert [g.degree for g in model3.generators] == [3]
    elapsed_s3 = time.monotonic() - t0
    assert elapsed_s3 < 2.0
    print(f"criterion 5: PASS ({elapsed_s2:.2f}s / {elapsed_s3:.2f}s)")


def test_criterion_06_homotopy_identity_suite():
    t0 = time.monotonic()
    # Every homotopy produced in criteria 1-5.
    for name, cap in (("example1_case1", 5), ("example1_case2", 5),
                      ("example2", 5), ("example3", 5),
                      ("sphere2", None), ("sphere3", None)):
        model = built(name, cap)
        capv = model.target.user_cap
        for h in model.homotopies:
            assert check_homotopy_identity(h, capv) == []
    # 200 randomized small map-model builds, each with the full audit.
    rng = random.Random(606)
    for _ in range(200):
        f = random_morphism(rng, 7, max_gens=3, max_degree=5)
        mm = build_map_model(f, 5)
        assert check_homotopy_identity(mm.homotopy, 5) == []
        assert validate_model(mm.model)["ok"]
    elapsed = time.monotonic() - t0
    print(f"criterion 6: PASS ({elapsed:.2f}s)")


def test_criterion_07_connectivity_suite():
    t0 = time.monotonic()
    for name, cap in (("example1_case1", 5), ("example1_case2", 5),
                      ("example2", 5), ("example3", 5),
                      ("sphere2", None), ("sphere3", None)):
        _, tower = load_fixture_tower(name, cap)
        model = TameMinimalModel.trivial(tower)
        for k in range(2, tower.user_cap + 1):
            model = surgery_step(model, k)
            for r in range(len(tower.grid)):
                c = cone(model.models[r])
                for j in range(0, k + 1):
                    assert c.h_dim(j) == 0, (name, k, r, j)
    elapsed = time.monotonic() - t0
    print(f"criterion 7: PASS ({elapsed:.2f}s)")


def test_criterion_08_interval_decomposition_oracle():
    t0 = time.monotonic()
    rng = random.Random(808)
    for trial in range(500):
        n = rng.randint(1, 5)
        grid = Grid(tuple(range(n)))
        dims = tuple(rng.randint(0, 4) for _ in range(n))
        maps = tuple(QMatrix(dims[i + 1], dims[i],
                             [[rng.randint(-2, 2) for _ in range(dims[i])]
                              for _ in range(dims[i + 1])])
                     for i in range(n - 1))
        module = PersistenceModule(grid, dims, maps)
        bars, reps = interval_decompose(module)
        check_representatives(module, bars, reps)
        for i in range(n):
            for j in range(i, n):
                alive = sum(1 for b in bars if b.birth <= i and b.death > j)
                assert alive == rank_invariant(module, i, j)
        back, _ = interval_decompose(from_bars(grid, bars))
        assert Counter((b.birth, b.death) for b in back) == \
            Counter((b.birth, b.death) for b in bars)
    elapsed = time.monotonic() - t0
    assert elapsed < 30.0
    print(f"criterion 8: PASS ({elapsed:.2f}s)")


def test_criterion_09_cone_exactness():
    t0 = time.monotonic()
    rng = random.Random(909)
    cap = 5
    for _ in range(200):
        f = random_morphism(rng, cap + 2, max_gens=2, max_degree=4)
        a, b = f.domain, f.codomain
        c = cone(f)
        for n in range(1, cap + 1):
            ha = a.cohomology_space(n)
            hb = b.cohomology_space(n)
            hc = c.cohomology_space(n)
            hc_prev = c.cohomology_space(n - 1)
            ha_next = a.cohomology_space(n + 1)
            # H^n(f), H^nB -> H^nC, delta: H^{n-1}C -> H^nA, H^nC -> H^{n+1}A
            f_mat = QMatrix.from_columns(
                [hb.class_of(b.to_vector(f.apply(a.from_vector(n, r)), n))
                 for r in ha.reps], hb.dim)
            to_cone = QMatrix.from_columns(
                [hc.class_of(c.include_target(b.from_vector(n, r), n))
                 for r in hb.reps], hc.dim)
            delta_prev = QMatrix.from_columns(
                [ha.class_of(a.to_vector(c.unpack(n - 1, r)[0], n))
                 for r in hc_prev.reps], ha.dim)
            delta = QMatrix.from_columns(
                [ha_next.class_of(a.to_vector(c.unpack(n, r)[0], n + 1))
                 for r in hc.reps], ha_next.dim)
            # Composites vanish and ranks match kernels: exact at each spot.
            if ha.dim and hc_prev.dim:
                assert (f_mat @ delta_prev).is_zero()
            if hb.dim and ha.dim:
                assert (to_cone @ f_mat).is_zero()
            if hc.dim and hb.dim:
                assert (delta @ to_cone).is_zero()
            assert ha.dim - rank(f_mat) == rank(delta_prev)      # at H^nA
            assert hb.dim - rank(to_cone) == rank(f_mat)         # at H^nB
            assert hc.dim - rank(delta) == rank(to_cone)         # at H^nC
    elapsed = time.monotonic() - t0
    print(f"criterion 9: PASS ({elapsed:.2f}s)")


def test_criterion_10_model_structure_predicates():
    t0 = time.monotonic()
    # (a) the quotient D^k_s -> D^k_s/D^k_t fails with a concrete witness.
    from pmm.pcomplex import PersistentComplex
    g = Grid((0, 1, 2))
    s_idx, t_idx = 0, 1
    dsk = interval_disk(g, 2, s_idx)
    labels = [[list(l) for l in dsk.labels[r]] for r in range(3)]
    d = [dict(dsk._d[r]) for r in range(3)]
    for r in range(t_idx, 3):
        labels[r] = [[] for _ in range(3)]
        d[r] = {}
    sig = []
    for r in range(2):
        sig.append({k: QMatrix.zero(len(labels[r + 1][k]), len(labels[r][k]))
                    for k in range(3)})
    quo = PersistentComplex(g, 2, labels, d, sig)
    comps = []
    for r in range(3):
        comps.append({k: (QMatrix.identity(quo.dim(r, k))
                          if quo.dim(r, k) == dsk.dim(r, k)
                          else QMatrix.zero(quo.dim(r, k), dsk.dim(r, k)))
                     for k in range(3)})
    res = is_fibration(PComplexMap(dsk, quo, comps))
    assert not res.holds
    assert res.witness["kind"] == "corner map not surjective"
    i, j = res.witness["pair"]
    assert i <= s_idx < t_idx <= j or (i < t_idx <= j)

    # (b) agreement of the two trivial-fibration characterizations, on maps
    # between distinct complexes, on random self-maps (where the identity
    # guarantees a rich Hom space), and on identities (the True branch).
    rng = random.Random(1010)
    for trial in range(200):
        x = random_pcomplex(rng, g, 3, cells=3)
        if trial % 4 == 0:
            f = PComplexMap.identity(x)
        elif trial % 4 == 1:
            f = random_pcomplex_map(rng, x, x)
        else:
            y = random_pcomplex(rng, g, 3, cells=2)
            f = random_pcomplex_map(rng, x, y)
        is_trivial_fibration(f, cross_check=True)  # raises on disagreement

    # (c) factorization certificates, including the two fixtures.
    g4 = Grid((0, 1, 2, 3))
    target = interval_complex(g4, 2, 1, 3, max_degree=3)
    z = zero_complex(g4, 3)
    comps = [{k: QMatrix.zero(target.dim(r, k), 0) for k in range(4)}
             for r in range(4)]
    assert factor_cofibration(PComplexMap(z, target, comps)).verified

    target = interval_disk(g4, 2, 1, max_degree=3)
    comps = [{k: QMatrix.zero(target.dim(r, k), 0) for k in range(4)}
             for r in range(4)]
    assert factor_cofibration(PComplexMap(z, target, comps)).verified

    done = 0
    attempts = 0
    while done < 100:
        attempts += 1
        x = random_pcomplex(rng, g, 3, cells=2)
        y = x
        for j in range(rng.randint(1, 2)):
            k = rng.randint(1, 3)
            s = rng.randint(0, 2)
            t = rng.choice([INF] + list(range(s + 1, 3)))
            data = random_sphere_data(rng, y, k, s, t, label=f"e{j}")
            y = attach_cell(y, data, label=f"e{j}")
        comps = []
        for r in range(3):
            comps.append({k: QMatrix(y.dim(r, k), x.dim(r, k),
                                     [[1 if i == jj else 0
                                       for jj in range(x.dim(r, k))]
                                      for i in range(y.dim(r, k))])
                          for k in range(4)})
        cert = factor_cofibration(PComplexMap(x, y, comps))
        assert cert.verified
        done += 1
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0
    print(f"criterion 10: PASS ({elapsed:.2f}s)")


def test_criterion_11_map_model_postcondition():
    t0 = time.monotonic()
    rng = random.Random(1111)
    for _ in range(100):
        f = random_morphism(rng, 6, max_gens=2, max_degree=4)
        mm = build_map_model(f, 4)
        for rep in mm.reports:
            # Q^k of the extended map equals H^k(phi) in the adapted bases,
            # both computed independently.
            assert rep.q_matrix == rep.psi_adapted
    elapsed = time.monotonic() - t0
    print(f"criterion 11: PASS ({elapsed:.2f}s)")


def test_criterion_12_grid_refinement_stability():
    t0 = time.monotonic()
    from fractions import Fraction
    for name in ("example1_case1", "example1_case2", "example2", "example3"):
        _, tower = load_fixture_tower(name, 5)
        base_model = build_persistent_minimal_model(tower)
        base_bars = bars_times(base_model)
        base_pres = presentation(base_model).text(verbose=True)
        for idx in range(len(tower.grid)):
            new_time = tower.grid.times[idx] + Fraction(1, 2)
            refined = tower.insert_duplicate_stage(idx, new_time)
            model = build_persistent_minimal_model(refined)
            assert bars_times(model) == base_bars, (name, idx)
            assert presentation(model).text(verbose=True) == base_pres, (name, idx)
    elapsed = time.monotonic() - t0
    print(f"criterion 12: PASS ({elapsed:.2f}s)")
