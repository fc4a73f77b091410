import random
import re
from collections import Counter

import pytest

from pmm import pcomplex
from pmm.errors import InternalError, ValidationError
from pmm.exactla import ONE, QMatrix, hstack, kernel_basis, rank, solve
from pmm.persistence import INF, Grid, interval_decompose
from pmm.pcomplex import (
    PComplexMap, PersistentComplex, SphereMapData, _fiber_product, _gap_map_epi,
    attach_cell, cohomology, factor_cofibration, hom_from_disk, hom_from_sphere,
    interval_complex, interval_disk, interval_sphere, is_fibration,
    is_pointwise_quasi_iso, is_trivial_fibration, zero_complex,
)

from .dense import dense, row
from .gen import attach_cells, random_pcomplex, random_pcomplex_map, random_sphere_data


def grid_of(n):
    return Grid(tuple(range(n)))


def bars_of(module):
    bars, _ = interval_decompose(module)
    return Counter((b.birth, b.death) for b in bars)


def test_sphere_cohomology_is_a_bar():
    g = grid_of(4)
    s = interval_sphere(g, 2, 1, 3)
    assert bars_of(cohomology(s, 2)) == Counter({(1, 3): 1})
    assert bars_of(cohomology(s, 1)) == Counter()


def test_sphere_immortal():
    g = grid_of(3)
    s = interval_sphere(g, 3, 1, INF)
    assert bars_of(cohomology(s, 3)) == Counter({(1, INF): 1})


@pytest.mark.parametrize("s, t", [(0, 2), (1, 3), (2, INF)])
def test_the_zero_sphere_is_the_degree_zero_interval(s, t):
    # S^0_[s,t) is a degree-0 line on [s,t); D^0 = 0 kills it afterwards.
    g = grid_of(4)
    sphere, interval = interval_sphere(g, 0, s, t), interval_complex(g, 0, s, t)
    assert (sphere.max_degree, sphere.labels) == (interval.max_degree, interval.labels)
    degrees = range(sphere.max_degree + 1)
    assert all(sphere.d_mat(r, k) == interval.d_mat(r, k) for r in range(4) for k in degrees)
    assert all(sphere.sigma_mat(r, k) == interval.sigma_mat(r, k)
               for r in range(3) for k in degrees)
    assert bars_of(cohomology(sphere, 0)) == Counter({(s, t): 1})


def test_disk_acyclic():
    g = grid_of(3)
    d = interval_disk(g, 2, 0)
    assert bars_of(cohomology(d, 1)) == Counter()
    # Degree 2 is the top degree: its cocycle is the boundary of degree 1.
    assert d.max_degree == 2
    assert cohomology(d, 2).dims == (0, 0, 0)


def test_disk0_is_zero():
    g = grid_of(2)
    d = interval_disk(g, 0, 0)
    assert all(d.dim(r, k) == 0 for r in range(2) for k in range(d.max_degree + 1))


def test_hom_from_disk_dimension():
    g = grid_of(3)
    x = interval_disk(g, 2, 0)
    assert hom_from_disk(x, 3, 1) == x.dim(1, 2)
    assert hom_from_disk(x, 2, 1) == x.dim(1, 1)


def test_hom_from_sphere_identity_exists():
    g = grid_of(4)
    s = interval_sphere(g, 2, 1, 3)
    dim, basis = hom_from_sphere(s, 2, 1, 3)
    assert dim >= 1
    # The identity is among the maps: cocycle = the sphere's own generator.
    assert any(not all(c == 0 for c in b.cocycle) for b in basis)


def test_hom_from_sphere_into_disk():
    g = grid_of(4)
    d = interval_disk(g, 2, 1)
    dim, _ = hom_from_sphere(d, 2, 1, 3)
    assert dim == 1


def test_hom_from_sphere_infinite_death():
    g = grid_of(3)
    s = interval_sphere(g, 2, 0, INF)
    dim, basis = hom_from_sphere(s, 2, 0, INF)
    assert dim == 1 and basis[0].bounding is None


@pytest.mark.parametrize("s, t, message", [
    (-1, 2, "birth s=-1"), (3, INF, "birth s=3"),
    (0, 5, "death t=5"), (1, 1, "death t=1"),
    (2, 1, "death t=1"), (0, 1.5, "death t=1.5")],
    ids=["birth-before-grid", "birth-after-grid", "death-after-grid", "death-at-birth",
         "death-before-birth", "fractional-death"])
def test_hom_from_sphere_refuses_a_lifespan_outside_the_grid(s, t, message):
    # A lifespan [s, t) needs grid indices s < t (or t = INF).  Maps out of
    # a sphere, the sphere itself, an interval and attaching data share one
    # check, and its refusal names the kind of cell.
    g = grid_of(3)
    x = interval_sphere(g, 2, 0, 2, max_degree=3)
    for cell, call in (("sphere", lambda: hom_from_sphere(x, 2, s, t)),
                       ("sphere", lambda: interval_sphere(g, 2, s, t)),
                       ("interval", lambda: interval_complex(g, 2, s, t)),
                       ("attached cell", lambda: attach_cell(x, SphereMapData(2, s, t, (), ())))):
        with pytest.raises(ValidationError, match=f"^{re.escape(f'invalid {cell} {message}')}"):
            call()


@pytest.mark.parametrize("make, message", [
    (lambda g: interval_sphere(g, 5, 0, 2, max_degree=3),
     "invalid cell degree k=5: need 0 <= k <= max_degree 3"),
    (lambda g: interval_disk(g, 5, 0, max_degree=3),
     "invalid cell degree k=5: need 0 <= k <= max_degree 3"),
    (lambda g: interval_complex(g, 2, 2, 1),
     "invalid interval death t=1: need a grid index after s"),
    (lambda g: interval_complex(g, 5, 0, 2, max_degree=3),
     "invalid cell degree k=5: need 0 <= k <= max_degree 3")],
    ids=["sphere-above-max-degree", "disk-above-max-degree", "interval-death-before-birth",
         "interval-above-max-degree"])
def test_interval_cells_refuse_a_bad_lifespan_or_degree(make, message):
    # A degree past max_degree is not indexed into the degree lists, and an
    # empty lifespan is not built as the zero complex.
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        make(grid_of(3))


@pytest.mark.parametrize("s, message", [
    (-1, "invalid disk birth s=-1"), (3, "invalid disk birth s=3")],
    ids=["birth-before-grid", "birth-after-grid"])
def test_disks_and_maps_out_of_a_disk_refuse_a_birth_outside_the_grid(s, message):
    # A disk lives on [s, INF): hom_from_disk checks its birth as interval_disk
    # does, instead of indexing a stage that is not there.
    g = grid_of(3)
    x = interval_sphere(g, 2, 0, 2, max_degree=3)
    for call in (lambda: hom_from_disk(x, 2, s), lambda: interval_disk(g, 2, s)):
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            call()


def test_a_zero_disk_refuses_a_negative_max_degree():
    with pytest.raises(ValidationError, match=re.escape("need 0 <= k <= max_degree -1")):
        interval_disk(grid_of(2), 0, 0, max_degree=-1)


@pytest.mark.parametrize("k", [0, 5], ids=["degree-0", "above-max-degree-plus-one"])
def test_attach_cell_refuses_a_degree_off_1_to_max_degree_plus_one(k):
    # Attaching along S^k adds an element of degree k - 1, which must be one
    # of the complex's degrees 0..max_degree (3 here).
    x = interval_sphere(grid_of(3), 2, 0, 2, max_degree=3)
    with pytest.raises(ValidationError, match=f"^invalid cell degree k={k}: "
                       + re.escape("need 1 <= k <= max_degree 3 + 1") + "$"):
        attach_cell(x, SphereMapData(k, 0, INF, (), None))
    assert attach_cell(x, SphereMapData(4, 0, INF, (), None)).dim(0, 3) == 1


@pytest.mark.parametrize("data, message", [
    (SphereMapData(2, 0, INF, (1, 0), None), "cocycle has the wrong length"),
    (SphereMapData(1, 0, INF, (1,), None), "attaching element is not a cocycle"),
    (SphereMapData(2, 0, INF, (1,), (0,)), "bounding element given for an immortal cell"),
    (SphereMapData(2, 0, 1, (1,), (1, 0)), "bounding element has the wrong length"),
    (SphereMapData(2, 0, 1, (1,), None), "bounding element has the wrong length"),
    (SphereMapData(2, 0, 1, (1,), (2,)), "bounding element does not bound the pushed cocycle"),
], ids=["cocycle-length", "not-a-cocycle", "immortal-bounding", "bounding-length",
        "no-bounding", "does-not-bound"])
def test_attach_cell_refuses_bad_attaching_data(data, message):
    # D^2_0: x in degree 2 and y in degree 1 with d y = x, from stage 0 on.
    # y is no cocycle; x is one, and at stage 1 it is d y, not d (2 y).
    disk = interval_disk(grid_of(3), 2, 0)
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        attach_cell(disk, data)
    ok = SphereMapData(2, 0, 1, (1,), (1,))
    assert attach_cell(disk, ok).dim(0, 1) == 2


def test_fiber_product_is_a_basis_of_the_pullback():
    # {(u, v) : a u = b v} has dimension cols(a) + cols(b) - rank([a | -b]);
    # the pairs must satisfy the equation and be independent.  Empty a or b
    # (no columns) and zero rows are included.
    rng = random.Random(1717)
    shapes = Counter()
    for _ in range(150):
        rows, p, q = rng.randint(0, 4), rng.randint(0, 4), rng.randint(0, 4)
        a, b = (QMatrix(rows, c, [[rng.choice([0, 0, 1, -1, 2]) for _ in range(c)]
                                  for _ in range(rows)]) for c in (p, q))
        pairs = _fiber_product(a, b)
        assert len(pairs) == p + q - rank(hstack([a, b.scale(-1)]))
        for u, v in pairs:
            assert max(u, default=-1) < p and max(v, default=-1) < q and a.apply(u) == b.apply(v)
        assert rank(QMatrix(len(pairs), p + q, [dense(u, p) + dense(v, q) for u, v in pairs])) \
            == len(pairs)
        shapes["empty a" if p == 0 else "empty b" if q == 0 else "both"] += 1
    assert min(shapes.values()) >= 10, shapes


def test_attach_to_zero_finite_death_gives_interval():
    g = grid_of(4)
    x = zero_complex(g, 3)
    data = SphereMapData(3, 1, 3, (), ())
    out = attach_cell(x, data)
    # Cofiber of 0 -> out is out itself: the interval I^2_[1,3).
    want = interval_complex(g, 2, 1, 3, max_degree=3)
    assert [out.dim(r, 2) for r in range(4)] == [want.dim(r, 2) for r in range(4)]
    assert bars_of(cohomology(out, 2)) == Counter({(1, 3): 1})


def test_attach_to_zero_immortal_gives_interval():
    g = grid_of(3)
    x = zero_complex(g, 3)
    out = attach_cell(x, SphereMapData(3, 1, INF, (), None))
    assert bars_of(cohomology(out, 2)) == Counter({(1, INF): 1})


def test_attach_kills_cohomology_class():
    # Attach a cell along a living class: the class dies over the支 support.
    g = grid_of(3)
    s = interval_sphere(g, 2, 0, INF, max_degree=3)
    dim, basis = hom_from_sphere(s, 3, 0, INF)
    # No degree-3 cocycles in the sphere: instead attach along its degree-2
    # class by a degree-3 cell whose cocycle is d-trivial... use the hom space
    # of the sphere in degree 2 shifted: attach along (x, -) with x the
    # degree-2 generator means a degree-3 cell.
    dim2, basis2 = hom_from_sphere(s, 3, 1, INF)
    assert dim2 == 0  # nothing to attach in degree 3: Z^3 = 0
    # Build a complex with a nonzero degree-3 cocycle to kill instead.
    x = zero_complex(g, 4)
    x = attach_cell(x, SphereMapData(4, 0, INF, (), None), label="z3")
    assert bars_of(cohomology(x, 3)) == Counter({(0, INF): 1})
    # Kill it from stage 1 on: a degree-3 sphere whose cocycle is the class
    # attaches a degree-2 element bounding it.
    dim3, basis3 = hom_from_sphere(x, 3, 1, INF)
    assert dim3 == 1
    killed = attach_cell(x, basis3[0], label="killer")
    assert bars_of(cohomology(killed, 3)) == Counter({(0, 1): 1})


def test_attach_cofiber_structure():
    rng = random.Random(31)
    g = grid_of(3)
    for _ in range(25):
        x = random_pcomplex(rng, g, 3, cells=3)
        k = rng.randint(1, 3)
        s = rng.randint(0, 2)
        t = rng.choice([INF] + list(range(s + 1, 3)))
        data = random_sphere_data(rng, x, k, s, t)
        out = attach_cell(x, data, label="new")
        for r in range(3):
            extra = 1 if (s <= r and (t == INF or r < t)) else 0
            assert out.dim(r, k - 1) == x.dim(r, k - 1) + extra
        # Quotient by the old complex: d of the new cell lands in old span,
        # and the crossing image lies in the old span, so the cofiber is the
        # interval I^{k-1}_[s,t) pointwise.
        if t != INF:
            cross = out.sigma_mat(int(t) - 1, k - 1)
            newcol = cross.column(out.dim(int(t) - 1, k - 1) - 1)
            # maps into old basis only
            assert cross.rows == x.dim(int(t), k - 1) and max(newcol, default=-1) < cross.rows


def test_fibration_counterexample_quotient_of_disks():
    # q: D^k_s -> D^k_s / D^k_t is pointwise surjective but not a fibration.
    g = grid_of(3)
    s, t = 0, 1
    dsk = interval_disk(g, 2, s)
    quo_labels = [[list(l) for l in dsk.labels[r]] for r in range(3)]
    d = [dict(dsk._d[r]) for r in range(3)]
    sig = [dict(dsk._sigma[r]) for r in range(2)]
    for r in range(t, 3):
        quo_labels[r] = [[] for _ in range(dsk.max_degree + 1)]
        d[r] = {}
    for r in range(2):
        src = quo_labels[r]
        sig[r] = {}
        for k in range(dsk.max_degree + 1):
            rows = len(quo_labels[r + 1][k])
            cols = len(quo_labels[r][k])
            sig[r][k] = QMatrix.zero(rows, cols)
    quo = PersistentComplex(g, 2, quo_labels, d, sig)
    comps = []
    for r in range(3):
        stage = {}
        for k in range(3):
            rows, cols = quo.dim(r, k), dsk.dim(r, k)
            stage[k] = QMatrix.identity(rows) if rows == cols and rows else \
                QMatrix.zero(rows, cols)
        comps.append(stage)
    q = PComplexMap(dsk, quo, comps)
    res = is_fibration(q)
    assert not res.holds
    assert res.witness["kind"] == "corner map not surjective"
    i, j = res.witness["pair"]
    assert i < t <= j


def first_unhit_unit(m, dim):
    """The first e_j outside the column span of m, one solve per unit vector."""
    for j in range(dim):
        e = {j: ONE}
        if solve(QMatrix.from_columns(m.columns(), dim), e) is None:
            return e
    return None


def inclusion_matrix(x, y, r, k):
    """X^k(r) -> Y^k(r) sending each cell to the cell of the same label."""
    return QMatrix(y.dim(r, k), x.dim(r, k),
                   [[int(a == b) for b in x.labels[r][k]] for a in y.labels[r][k]])


def test_not_pointwise_surjective_witness_is_the_first_unhit_unit_vector():
    # A zero map into a sphere misses its cell: the witness is e_0 at the
    # first stage and degree where the target is nonzero.
    g = grid_of(3)
    s = interval_sphere(g, 2, 1, INF)
    z = zero_complex(g, 2)
    res = is_fibration(PComplexMap(z, s, [{k: QMatrix.zero(s.dim(r, k), 0) for k in range(3)}
                                          for r in range(3)]))
    assert res.witness == {"kind": "not pointwise surjective", "stage": 1, "degree": 2,
                           "target_element": {0: ONE}}
    # Random maps x -> y = x with one more cell: the inclusion plus a random
    # map, so the image is a generic subspace that misses the new cell.
    # The witness is the first unit vector outside the image at the first
    # (stage, degree) where the map is not onto.
    rng = random.Random(2024)
    found = Counter()
    for _ in range(40):
        x = random_pcomplex(rng, g, 3, cells=4)
        deg, s = rng.randint(2, 3), rng.randint(0, 2)
        t = rng.choice([INF] + list(range(s + 1, 3)))
        y = attach_cell(x, random_sphere_data(rng, x, deg, s, t, label="new"), label="new")
        h = random_pcomplex_map(rng, x, y)
        f = PComplexMap(x, y, [{k: inclusion_matrix(x, y, r, k).add(h.mat(r, k))
                                for k in range(4)} for r in range(3)])
        misses = [(r, k, first_unhit_unit(f.mat(r, k), y.dim(r, k)))
                  for r in range(3) for k in range(4)]
        r, k, e = next(m for m in misses if m[2] is not None)
        assert is_fibration(f).witness == {"kind": "not pointwise surjective", "stage": r,
                                           "degree": k, "target_element": e}
        found[min(e)] += 1
    assert found[0] >= 5 and sum(found.values()) - found[0] >= 5, found


def test_isomorphism_is_fibration():
    rng = random.Random(5)
    g = grid_of(3)
    x = random_pcomplex(rng, g, 3, cells=3)
    assert is_fibration(PComplexMap.identity(x)).holds
    assert is_trivial_fibration(PComplexMap.identity(x)).holds


def test_disk_to_zero_is_trivial_fibration_iff_born_at_zero():
    g = grid_of(3)
    z = zero_complex(g, 2)
    # Born at index 0: every corner is onto (structure maps epi), acyclic.
    d0 = interval_disk(g, 2, 0)
    comps = [{k: QMatrix.zero(0, d0.dim(r, k)) for k in range(3)} for r in range(3)]
    f0 = PComplexMap(d0, z, comps)
    assert is_trivial_fibration(f0).holds
    # Born later: the corner from the earlier stage fails.
    d1 = interval_disk(g, 2, 1)
    comps = [{k: QMatrix.zero(0, d1.dim(r, k)) for k in range(3)} for r in range(3)]
    f1 = PComplexMap(d1, z, comps)
    assert not is_fibration(f1).holds
    assert is_pointwise_quasi_iso(f1).holds
    # The unliftable square sits at k = 3 = max_degree + 1, which the gap-map
    # side of the cross-check must reach.
    assert not is_trivial_fibration(f1).holds


def test_trivial_fibration_always_runs_the_gap_map_cross_check(monkeypatch):
    # Negative control: with every gap map reported not onto, the direct
    # characterization says no while fibration + quasi-iso says yes on an
    # identity, and is_trivial_fibration raises without being asked to check.
    x = random_pcomplex(random.Random(5), grid_of(3), 3, cells=3)
    assert is_trivial_fibration(PComplexMap.identity(x)).holds
    monkeypatch.setattr(pcomplex, "_gap_map_epi", lambda f, i, j, k: False)
    with pytest.raises(InternalError, match="gap-map characterization disagrees"):
        is_trivial_fibration(PComplexMap.identity(x))


def test_gap_maps_reduce_each_cocycle_matrix_once(monkeypatch):
    # d(i, k) and the cocycle data built from it depend on (i, k) alone, not
    # on the second stage j of the gap map: one rref per (i, k) visited.
    x = random_pcomplex(random.Random(3), grid_of(5), 3, cells=8)
    reduced = []
    rref = pcomplex.rref
    monkeypatch.setattr(pcomplex, "rref", lambda m: reduced.append(m) or rref(m))
    assert is_trivial_fibration(PComplexMap.identity(x)).holds
    assert len(reduced) == 5 * 4  # every (i, k), k = 1..max_degree + 1
    assert len({(m.rows, m.cols, tuple(m.data)) for m in reduced}) == 4


def test_sphere_to_zero_not_trivial_fibration():
    # The sphere's degree-2 class goes to zero: no quasi-isomorphism.
    g = grid_of(3)
    s = interval_sphere(g, 2, 0, 2, max_degree=3)
    z = zero_complex(g, 3)
    comps = [{k: QMatrix.zero(0, s.dim(r, k)) for k in range(4)} for r in range(3)]
    f = PComplexMap(s, z, comps)
    assert not is_pointwise_quasi_iso(f).holds
    assert not is_trivial_fibration(f).holds


def test_trivial_fibration_agreement_random():
    rng = random.Random(77)
    g = grid_of(3)
    checked = 0
    for _ in range(40):
        x = random_pcomplex(rng, g, 3, cells=3)
        y = random_pcomplex(rng, g, 3, cells=2)
        f = random_pcomplex_map(rng, x, y)
        is_trivial_fibration(f)  # raises on disagreement
        checked += 1
    assert checked == 40


def test_factor_cofibration_identity():
    rng = random.Random(9)
    g = grid_of(3)
    x = random_pcomplex(rng, g, 3, cells=3)
    cert = factor_cofibration(PComplexMap.identity(x))
    assert cert.verified
    assert cert.stage1 == [] and cert.stage2 == []


def test_factor_cofibration_zero_to_interval():
    g = grid_of(4)
    target = interval_complex(g, 2, 1, 3, max_degree=3)
    z = zero_complex(g, 3)
    comps = [{k: QMatrix.zero(target.dim(r, k), 0) for k in range(4)} for r in range(4)]
    cert = factor_cofibration(PComplexMap(z, target, comps))
    assert cert.verified
    # Z of the interval is the interval: one stage-1 cell along S^3_[1,3)
    # with trivial data, nothing in stage 2.
    assert len(cert.stage1) == 1 and cert.stage2 == []
    c = cert.stage1[0]
    assert (c.degree, c.birth, c.death) == (3, 1, 3)
    assert all(v == 0 for v in c.cocycle)


def test_factor_cofibration_zero_to_disk():
    g = grid_of(3)
    target = interval_disk(g, 2, 1)
    z = zero_complex(g, 2)
    comps = [{k: QMatrix.zero(target.dim(r, k), 0) for k in range(3)} for r in range(3)]
    cert = factor_cofibration(PComplexMap(z, target, comps))
    assert cert.verified
    # Stage 1 adds the degree-2 cocycle line (bar [1, inf)), stage 2 the
    # degree-1 line bounding it.
    assert len(cert.stage1) == 1 and len(cert.stage2) == 1
    assert cert.stage1[0].degree == 3 and cert.stage1[0].death == INF
    assert cert.stage2[0].degree == 2 and cert.stage2[0].death == INF


def test_factor_cofibration_random_inclusions():
    rng = random.Random(100)
    g = grid_of(3)
    done = 0
    for _ in range(15):
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
            stage = {}
            for k in range(4):
                cols = [y.dim(r, k) and 0 for _ in range(x.dim(r, k))]
                m = QMatrix.zero(y.dim(r, k), x.dim(r, k))
                rows = [[1 if (i == j2) else 0 for j2 in range(x.dim(r, k))]
                        for i in range(y.dim(r, k))]
                stage[k] = QMatrix(y.dim(r, k), x.dim(r, k), rows)
            comps.append(stage)
        incl = PComplexMap(x, y, comps)
        cert = factor_cofibration(incl)
        assert cert.verified
        done += 1
    assert done == 15


def test_non_injective_rejected():
    g = grid_of(3)
    s = interval_sphere(g, 2, 0, 2)
    z = zero_complex(g, 2)
    comps = [{k: QMatrix.zero(0, s.dim(r, k)) for k in range(3)} for r in range(3)]
    with pytest.raises(ValidationError):
        factor_cofibration(PComplexMap(s, z, comps))


def test_hom_from_sphere_dimension_independent():
    # Fiber-product dimension from rank bookkeeping: dim Z^k(s) + dim X^{k-1}(t)
    # minus the rank of the gluing map (z, u) -> sigma(z) - d(u).
    from pmm.exactla import rank as mat_rank
    rng = random.Random(55)
    g = grid_of(3)
    for _ in range(30):
        x = random_pcomplex(rng, g, 3, cells=4)
        k = rng.randint(1, 3)
        s = rng.randint(0, 1)
        t = rng.randint(s + 1, 2)
        dim, basis = hom_from_sphere(x, k, s, t)
        z = kernel_basis(x.d_mat(s, k))
        cols = [x.sigma_range(s, t, k).apply(v) for v in z] + \
               [{i: -c for i, c in col.items()} for col in x.d_mat(t, k - 1).columns()]
        joint = QMatrix.from_columns(cols, x.dim(t, k))
        expected = len(z) + x.dim(t, k - 1) - mat_rank(joint)
        assert dim == expected


def test_attach_cells_batch():
    g = grid_of(3)
    x = zero_complex(g, 3)
    batch = [SphereMapData(3, 0, 2, (), (), label="u"),
             SphereMapData(3, 1, INF, (), None, label="v")]
    out = attach_cells(x, batch)
    assert [out.dim(r, 2) for r in range(3)] == [1, 2, 1]
    assert bars_of(cohomology(out, 2)) == Counter({(0, 2): 1, (1, INF): 1})


def test_projection_with_disk_born_at_grid_start_is_fibration():
    # X + D^k_s -> X is a fibration exactly when the disk is born at the
    # first grid time (structure maps of the disk summand must be onto).
    rng = random.Random(4)
    g = grid_of(3)
    x = random_pcomplex(rng, g, 3, cells=2)
    for s, expected in ((0, True), (1, False)):
        proj = projection(x, x.direct_sum(interval_disk(g, 2, s, max_degree=3)))
        assert is_fibration(proj).holds == expected, s


def projection(x, total):
    """total -> x sending the first cells of each slot to x's cells (X + D -> X)."""
    return PComplexMap(total, x, [{k: QMatrix(x.dim(r, k), total.dim(r, k),
                                              [[int(i == j) for j in range(total.dim(r, k))]
                                               for i in range(x.dim(r, k))])
                                   for k in range(x.max_degree + 1)}
                                  for r in range(len(x.grid))])


def seeded_maps(rng, count):
    """Maps on grids of 1-4 stages, max_degree 1-4, in turn: projections
    X + D^k_s -> X, random maps, and intervals I^k_[s,t) -> 0."""
    for idx in range(count):
        n, md = rng.randint(1, 4), rng.randint(1, 4)
        g = grid_of(n)
        if idx % 3 == 0:
            x = random_pcomplex(rng, g, md, cells=3)
            disk = interval_disk(g, rng.randint(1, md), rng.randint(0, n - 1), max_degree=md)
            yield projection(x, x.direct_sum(disk))
        elif idx % 3 == 1:
            yield random_pcomplex_map(rng, random_pcomplex(rng, g, md, cells=3),
                                      random_pcomplex(rng, g, md, cells=2))
        else:
            s = rng.randint(0, n - 1)
            t = rng.choice([INF] + list(range(s + 1, n)))
            i = interval_complex(g, rng.randint(0, md), s, t, max_degree=md)
            yield PComplexMap(i, zero_complex(g, md),
                              [{k: QMatrix.zero(0, i.dim(r, k)) for k in range(md + 1)}
                               for r in range(n)])


def test_trivial_fibration_cross_check_agrees_on_seeded_maps():
    # The two sides of the cross-check quantify over the same degrees: the
    # quasi-iso side through max_degree, the gap maps through max_degree + 1.
    # When they did not, a disk born after the first grid time (an
    # unliftable square at k = max_degree + 1) made valid maps raise.
    held = Counter(is_trivial_fibration(f).holds for f in seeded_maps(random.Random(600), 600))
    assert held[True] >= 50 and held[False] >= 50, held


def ref_attach_cell(x, data, label=None):
    """attach_cell before block assembly: d and sigma rebuilt from dense rows
    and columns, each stage's cocycle pushed by sigma_range(s, r)."""
    data.validate_against(x)
    k, s, t = data.degree, data.birth, data.death
    n = len(x.grid)
    lab = label or data.label
    labels = [[list(x.labels[r][deg]) for deg in range(x.max_degree + 1)] for r in range(n)]
    d = [dict(x._d[r]) for r in range(n)]
    sigma = [dict(x._sigma[r]) for r in range(n - 1)]

    def alive(r):
        return r >= s and (t == INF or r < t)

    for r in range(n):
        if not alive(r):
            continue
        labels[r][k - 1].append(lab)
        pushed = x.sigma_range(s, r, k).apply({i: c for i, c in enumerate(data.cocycle) if c})
        old = x.d_mat(r, k - 1)
        d[r][k - 1] = QMatrix.from_columns(old.columns() + [pushed], old.rows)
        if k - 2 >= 0:
            below = x.d_mat(r, k - 2)
            d[r][k - 2] = QMatrix(below.rows + 1, below.cols,
                                  [list(row) for row in below.data] + [[0] * below.cols])
    for r in range(n - 1):
        src_alive, dst_alive = alive(r), alive(r + 1)
        if not src_alive and not dst_alive:
            continue
        old = x.sigma_mat(r, k - 1)
        rows = [list(row) for row in old.data]
        if src_alive and dst_alive:
            for row in rows:
                row.append(0)
            rows.append([0] * old.cols + [1])
            sigma[r][k - 1] = QMatrix(old.rows + 1, old.cols + 1, rows)
        elif src_alive:
            for i, row in enumerate(rows):
                row.append(data.bounding[i])
            sigma[r][k - 1] = QMatrix(old.rows, old.cols + 1, rows)
        else:
            rows.append([0] * old.cols)
            sigma[r][k - 1] = QMatrix(old.rows + 1, old.cols, rows)
    return PersistentComplex(x.grid, x.max_degree, labels, d, sigma)


def ref_gap_map_epi(f, i, j, k):
    """_gap_map_epi before block assembly: a, b and the gap map joined from
    dense columns, each cocycle's Z-coordinates found by a solve."""
    x, y = f.source, f.target
    zx = kernel_basis(x.d_mat(i, k))
    sig_z, f_z = x.sigma_range(i, j, k), f.mat(i, k)
    sig_x, sig_y = x.sigma_range(i, j, k - 1), y.sigma_range(i, j, k - 1)
    rows = x.dim(j, k) + y.dim(i, k) + y.dim(j, k - 1)
    a = QMatrix.from_columns(
        [row(dense(sig_z.apply(z), x.dim(j, k)) + dense(f_z.apply(z), y.dim(i, k))
             + (0,) * y.dim(j, k - 1)) for z in zx] +
        [row(tuple(-c for c in dense(du, x.dim(j, k))) + (0,) * y.dim(i, k)
             + dense(fu, y.dim(j, k - 1)))
         for du, fu in zip(x.d_mat(j, k - 1).columns(), f.mat(j, k - 1).columns())],
        rows)
    b = QMatrix.from_columns(
        [row((0,) * x.dim(j, k) + dense(dy, y.dim(i, k)) + dense(sy, y.dim(j, k - 1)))
         for dy, sy in zip(y.d_mat(i, k - 1).columns(), sig_y.columns())], rows)
    d_i, f_i = x.d_mat(i, k - 1), f.mat(i, k - 1)
    gap_cols = []
    for c in range(x.dim(i, k - 1)):
        zc = solve(QMatrix.from_columns(zx, x.dim(i, k)), d_i.column(c))
        assert zc is not None
        gap_cols.append(row(dense(zc, len(zx)) + dense(sig_x.column(c), x.dim(j, k - 1))
                            + dense(f_i.column(c), y.dim(i, k - 1))))
    return rank(QMatrix.from_columns(gap_cols, a.cols + b.cols)) == len(_fiber_product(a, b))


def test_attach_cell_matches_the_dense_reference():
    # Every d and sigma entry of the block assembly equals the dense one, on
    # random complexes with cells of every degree, birth and death.
    rng = random.Random(808)
    crossings = Counter()
    for _ in range(150):
        n, md = rng.randint(1, 4), rng.randint(1, 4)
        x = random_pcomplex(rng, grid_of(n), md, cells=5)
        k, s = rng.randint(1, md), rng.randint(0, n - 1)
        t = rng.choice([INF] + list(range(s + 1, n)))
        data = random_sphere_data(rng, x, k, s, t, label="new")
        got, want = attach_cell(x, data), ref_attach_cell(x, data)
        assert got.labels == want.labels
        for r in range(n):
            for deg in range(md + 1):
                assert got.d_mat(r, deg).data == want.d_mat(r, deg).data
                if r + 1 < n:
                    assert got.sigma_mat(r, deg).data == want.sigma_mat(r, deg).data
        crossings["death" if t != INF else "immortal"] += 1
        crossings["nonzero cocycle"] += any(data.cocycle)
    assert min(crossings.values()) >= 10, crossings


def test_gap_map_epi_matches_the_dense_reference():
    # Identities, projections X + D^k_s -> X and random maps, every grid pair
    # and k up to max_degree + 1; some gap maps are not onto.  The chain
    # u -> b, a -> c on [0, 1) gives d(0,2) a pivot column (a) beside a free
    # one (b), so the gap map at (0, 1, 2) reads the Z-coordinates of d u = b.
    chain = zero_complex(grid_of(2), 3)
    for deg, cocycle in ((4, ()), (3, (1,)), (3, (0,)), (2, (0, 1))):
        chain = attach_cell(chain, SphereMapData(deg, 0, 1, cocycle, ()))
    to_zero = PComplexMap(chain, zero_complex(grid_of(2), 3),
                          [{k: QMatrix.zero(0, chain.dim(r, k)) for k in range(4)}
                           for r in range(2)])
    rng = random.Random(909)
    values = Counter()
    for idx, f in enumerate([to_zero, *seeded_maps(rng, 60)]):
        for g in (f, PComplexMap.identity(f.source)):
            n = len(g.source.grid)
            for i in range(n):
                for j in range(i, n):
                    for k in range(1, g.source.max_degree + 2):
                        got = _gap_map_epi(g, i, j, k)
                        assert got == ref_gap_map_epi(g, i, j, k), (idx, i, j, k)
                        values[got] += 1
    assert values[False] >= 20 and values[True] >= 100, values


def one(x):
    return QMatrix.from_rows([[x]])


# Two stages with a in degree 0 and b in degree 1, d a = b at both, sigma
# the identity on a and 2 on b: not a cochain map at (0, 0).
_TWO_LINES = [[["a"], ["b"]], [["a"], ["b"]]]


@pytest.mark.parametrize("stages, max_degree, labels, d, sigma, message", [
    (2, 1, [[[], []]], [{}, {}], [{}], "labels must have one entry per grid stage"),
    (2, 1, [[[]], [[], []]], [{}, {}], [{}], "labels must cover degrees 0..max_degree"),
    (2, 1, [[[], []], [[], []]], [{}], [{}], "need d per stage and sigma per consecutive pair"),
    (2, 1, [[[], []], [[], []]], [{}, {}], [], "need d per stage and sigma per consecutive pair"),
    (2, 1, [[["a"], ["b"]], [[], []]], [{0: QMatrix.identity(2)}, {}], [{}],
     "d(0,0) has the wrong shape"),
    (1, 2, [[["a"], ["b"], ["c"]]], [{0: one(1), 1: one(1)}], [], "d*d != 0 at stage 0, degree 0"),
    (2, 0, [[["a"]], [["a"]]], [{}, {}], [{0: QMatrix.identity(2)}], "sigma(0,0) has the wrong shape"),
    (2, 1, _TWO_LINES, [{0: one(1)}, {0: one(1)}], [{0: one(1), 1: one(2)}],
     "structure map not a cochain map at (0,0)")],
    ids=["labels-per-stage", "degrees-per-stage", "d-count", "sigma-count", "d-shape",
         "d-squared", "sigma-shape", "not-a-cochain-map"])
def test_complex_refuses_a_bad_shape_or_square(stages, max_degree, labels, d, sigma, message):
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        PersistentComplex(grid_of(stages), max_degree, labels, d, sigma)


def _line(stages):
    """One degree-0 line at every stage, sigma the identity."""
    return interval_complex(grid_of(stages), 0, 0, INF, max_degree=1)


@pytest.mark.parametrize("source, target, components, message", [
    (lambda: zero_complex(grid_of(2), 1), lambda: zero_complex(grid_of(3), 1), [{}] * 2,
     "map needs a common grid"),
    (lambda: zero_complex(grid_of(2), 1), lambda: zero_complex(grid_of(2), 2), [{}] * 2,
     "source and target must share max_degree"),
    (lambda: _line(2), lambda: _line(2), [{0: QMatrix.identity(2)}, {0: one(1)}],
     "component (0,0) has wrong shape"),
    (lambda: interval_disk(grid_of(2), 1, 0), lambda: interval_disk(grid_of(2), 1, 0),
     [{0: one(1), 1: one(0)}] * 2, "map fails d-naturality at (0,0)"),
    (lambda: _line(2), lambda: _line(2), [{0: one(1)}, {0: one(2)}],
     "map fails sigma-naturality at (0,0)")],
    ids=["grid", "max-degree", "component-shape", "d-naturality", "sigma-naturality"])
def test_complex_map_refuses_a_bad_shape_or_square(source, target, components, message):
    # D^1_0 sends y to d y = x; the identity on y and 0 on x is no chain map.
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        PComplexMap(source(), target(), components)


@pytest.mark.parametrize("count", [1, 3], ids=["short", "long"])
def test_complex_map_refuses_a_component_list_of_the_wrong_length(count):
    with pytest.raises(ValidationError, match="^map needs one component per grid stage$"):
        PComplexMap(_line(2), _line(2), [{0: one(1)}] * count)


def test_direct_sum_refuses_another_grid_or_max_degree():
    for other in (zero_complex(grid_of(3), 1), zero_complex(grid_of(2), 2)):
        with pytest.raises(ValidationError, match="^direct_sum: shape mismatch$"):
            zero_complex(grid_of(2), 1).direct_sum(other)
