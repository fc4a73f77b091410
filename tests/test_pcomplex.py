import random
import re
from collections import Counter

import pytest

from pmm import pcomplex
from pmm.errors import InternalError, ValidationError
from pmm.exactla import QMatrix, express_in_basis, hstack, rank, unit_vec
from pmm.persistence import INF, Grid, interval_decompose
from pmm.pcomplex import (
    PComplexMap, SphereMapData, _fiber_product, attach_cell, cohomology,
    factor_cofibration, hom_from_disk, hom_from_sphere, interval_complex,
    interval_disk, interval_sphere, is_fibration, is_pointwise_quasi_iso,
    is_trivial_fibration, zero_complex,
)

from .gen import random_pcomplex, random_pcomplex_map, random_sphere_data


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


def test_disk_acyclic():
    g = grid_of(3)
    d = interval_disk(g, 2, 0)
    assert bars_of(cohomology(d, 1)) == Counter()
    # Degree 2 is the top degree: kernel-only and flagged.
    h2 = cohomology(d, 2)
    assert h2.truncated_top


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
    (-1, 2, "invalid sphere birth s=-1"), (3, INF, "invalid sphere birth s=3"),
    (0, 5, "invalid sphere death t=5"), (1, 1, "invalid sphere death t=1"),
    (2, 1, "invalid sphere death t=1"), (0, 1.5, "invalid sphere death t=1.5")],
    ids=["birth-before-grid", "birth-after-grid", "death-after-grid", "death-at-birth",
         "death-before-birth", "fractional-death"])
def test_hom_from_sphere_refuses_a_lifespan_outside_the_grid(s, t, message):
    # A lifespan [s, t) needs grid indices s < t (or t = INF).  Maps out of
    # a sphere, the sphere itself and attaching data share one check.
    g = grid_of(3)
    x = interval_sphere(g, 2, 0, 2, max_degree=3)
    for call in (lambda: hom_from_sphere(x, 2, s, t), lambda: interval_sphere(g, 2, s, t),
                 lambda: attach_cell(x, SphereMapData(2, s, t, (), ()))):
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}"):
            call()


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
            assert len(u) == p and len(v) == q and a.apply(u) == b.apply(v)
        assert rank(QMatrix(len(pairs), p + q, [u + v for u, v in pairs])) == len(pairs)
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
            assert len(newcol) == x.dim(int(t), k - 1)  # maps into old basis only


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
    from pmm.pcomplex import PersistentComplex
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
    cols = m.columns()
    for j in range(dim):
        e = unit_vec(dim, j)
        if not cols or express_in_basis(cols, e, dim) is None:
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
                           "target_element": unit_vec(1, 0)}
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
        found[e.index(1)] += 1
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


def test_trivial_fibration_always_runs_the_gap_map_cross_check(monkeypatch):
    # Negative control: with every gap map reported not onto, the direct
    # characterization says no while fibration + quasi-iso says yes on an
    # identity, and is_trivial_fibration raises without being asked to check.
    x = random_pcomplex(random.Random(5), grid_of(3), 3, cells=3)
    assert is_trivial_fibration(PComplexMap.identity(x)).holds
    monkeypatch.setattr(pcomplex, "_gap_map_epi", lambda f, i, j, k: False)
    with pytest.raises(InternalError, match="gap-map characterization disagrees"):
        is_trivial_fibration(PComplexMap.identity(x))


def test_sphere_to_zero_not_trivial_fibration():
    # Embed with degree headroom so the sphere's own class is below the
    # truncated top degree.
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
    from pmm.exactla import kernel_basis, rank as mat_rank
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
               [tuple(-c for c in col) for col in x.d_mat(t, k - 1).columns()]
        joint = QMatrix.from_columns(cols, x.dim(t, k))
        expected = len(z) + x.dim(t, k - 1) - mat_rank(joint)
        assert dim == expected


def test_attach_cells_batch():
    from pmm.pcomplex import attach_cells
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
        d = interval_disk(g, 2, s, max_degree=3)
        total = x.direct_sum(d)
        comps = []
        for r in range(3):
            stage = {}
            for k in range(4):
                rows = [[1 if i == j else 0 for j in range(total.dim(r, k))]
                        for i in range(x.dim(r, k))]
                stage[k] = QMatrix(x.dim(r, k), total.dim(r, k), rows)
            comps.append(stage)
        proj = PComplexMap(total, x, comps)
        assert is_fibration(proj).holds == expected, s
