"""Seeded random generators shared by the property and acceptance suites,
and the reference checks and constructions only the tests use."""
from __future__ import annotations

from fractions import Fraction

from pmm.cdga import CdgaElement, CdgaMorphism, free_cdga, hirsch_extend, linear_part
from pmm.errors import ValidationError
from pmm.exactla import QMatrix, combine, kernel_basis, rank, split_row
from pmm.persistence import INF, PersistenceModule

from .dense import dense, zero_vec


def vec_add(u, v):
    return tuple(a + b for a, b in zip(u, v, strict=True))


def vec_scale(c, u):
    return tuple(c * a for a in u)


def row_add(u, v):
    return combine(((1, u), (1, v)))


def row_scale(c, u):
    return combine(((c, u),))


def random_cocycle(rng, algebra, degree, density=0.8):
    """Random small-coefficient cocycle of the given degree (possibly zero)."""
    dim = algebra.dim(degree)
    if dim == 0:
        return algebra.zero()
    basis = kernel_basis(algebra.d_matrix(degree))
    acc = {}
    for v in basis:
        if rng.random() < density:
            c = rng.randint(-2, 2)
            if c:
                acc = row_add(acc, row_scale(Fraction(c), v))
    return algebra.from_vector(degree, acc)


def random_free_cdga(rng, cap, max_gens=3, max_degree=5, prefix="g"):
    """Random simply-connected Sullivan algebra built by Hirsch extensions."""
    current = free_cdga([], {}, cap)
    for i in range(rng.randint(1, max_gens)):
        deg = rng.randint(2, max_degree)
        z = random_cocycle(rng, current, deg + 1)
        current, _ = hirsch_extend(current, [(f"{prefix}{i}", deg, z)])
    return current


def random_morphism(rng, cap, max_gens=3, max_degree=5):
    """Random CDGA map f: A -> B between random simply-connected algebras.

    A and f are grown together: each new generator's differential is sampled
    from the cocycles of A whose image under f is exact in B, so a valid
    image always exists.
    """
    b = random_free_cdga(rng, cap, max_gens, max_degree, prefix="b")
    return random_morphism_into(rng, b, cap, max_gens, max_degree)


def random_morphism_into(rng, b, cap, max_gens=3, max_degree=5, prefix="a"):
    """Random CDGA map into a fixed codomain, built jointly with its domain."""
    a = free_cdga([], {}, cap)
    images: dict[str, CdgaElement] = {}
    for i in range(rng.randint(1, max_gens)):
        deg = rng.randint(2, max_degree)
        f = CdgaMorphism.on_generators(a, b, images)
        z_basis = kernel_basis(a.d_matrix(deg + 1))
        fz_cols = [b.to_sparse(f.apply(a.from_vector(deg + 1, z)), deg + 1)
                   for z in z_basis]
        d_cols = b.d_matrix(deg).columns()
        n_rows = b.dim(deg + 1)
        joint = QMatrix.from_columns(fz_cols + [row_scale(Fraction(-1), c) for c in d_cols],
                                     n_rows)
        pairs = kernel_basis(joint)
        v_coords, x_coords = {}, {}
        for p in pairs:
            if rng.random() < 0.85:
                c = rng.randint(-2, 2)
                if c:
                    v, x = split_row(p, len(z_basis))
                    v_coords = row_add(v_coords, row_scale(Fraction(c), v))
                    x_coords = row_add(x_coords, row_scale(Fraction(c), x))
        dv = combine((c, z_basis[j]) for j, c in v_coords.items())
        d_elem = a.from_vector(deg + 1, dv) if a.dim(deg + 1) else a.zero()
        name = f"{prefix}{i}"
        a, _ = hirsch_extend(a, [(name, deg, d_elem)])
        images[name] = b.from_vector(deg, x_coords) if b.dim(deg) else b.zero()
    return CdgaMorphism.on_generators(a, b, images)


def random_tower(rng, user_cap, n_stages=3, max_gens=2, max_degree=4):
    """Random strict tower of simply-connected free CDGAs with valid maps.

    Built right to left: the last stage is random, then each earlier stage
    is grown jointly with its structure map into the next.
    """
    from pmm.persistence import Grid
    from pmm.pminimal import PersistentCDGA

    cap = user_cap + 2
    stages = [random_free_cdga(rng, cap, max_gens, max_degree, prefix=f"s{n_stages - 1}_")]
    maps = []
    for r in range(n_stages - 2, -1, -1):
        f = random_morphism_into(rng, stages[0], cap, max_gens, max_degree,
                                 prefix=f"s{r}_")
        stages.insert(0, f.domain)
        maps.insert(0, f)
    return PersistentCDGA(Grid(tuple(range(n_stages))), stages, maps, user_cap)


def random_pcomplex(rng, grid, max_degree, cells=4):
    """Random tame complex built by attaching random cells to zero."""
    from pmm.pcomplex import SphereMapData, attach_cell, zero_complex
    from pmm.persistence import INF

    x = zero_complex(grid, max_degree)
    n = len(grid)
    for idx in range(rng.randint(max(1, cells // 2), cells)):
        k = rng.randint(1, max_degree)
        s = rng.randint(0, n - 1)
        death_options = [INF] + [t for t in range(s + 1, n)]
        t = rng.choice(death_options)
        data = random_sphere_data(rng, x, k, s, t, label=f"c{idx}")
        if data is None:
            continue
        x = attach_cell(x, data, label=f"c{idx}")
    return x


def random_sphere_data(rng, x, k, s, t, label="c"):
    """Random element of Hom(S^k_[s,t), X), or None if the space is zero."""
    from pmm.pcomplex import SphereMapData, hom_from_sphere

    dim, basis = hom_from_sphere(x, k, s, t)
    coc = zero_vec(x.dim(s, k))
    bnd = None if t == float("inf") else zero_vec(x.dim(int(t), k - 1))
    for b in basis:
        c = rng.randint(-2, 2)
        if c and rng.random() < 0.6:
            coc = vec_add(coc, vec_scale(Fraction(c), b.cocycle))
            if bnd is not None:
                bnd = vec_add(bnd, vec_scale(Fraction(c), b.bounding))
    return SphereMapData(k, s, t, coc, bnd, label=label)


def random_pcomplex_map(rng, x, y):
    """Random map of persistent complexes, sampled from the solution space
    of the full naturality constraint system."""
    from pmm.pcomplex import PComplexMap

    n = len(x.grid)
    md = x.max_degree
    slots = [(r, k) for r in range(n) for k in range(md + 1)]
    offsets = {}
    total = 0
    for (r, k) in slots:
        offsets[(r, k)] = total
        total += y.dim(r, k) * x.dim(r, k)

    def entry_index(r, k, i, j):
        return offsets[(r, k)] + i * x.dim(r, k) + j

    rows = []

    def add_constraint(coeffs):
        row = [Fraction(0)] * total
        for idx, c in coeffs:
            row[idx] += c
        if any(v != 0 for v in row):
            rows.append(row)

    for r in range(n):
        for k in range(md):
            dy = y.d_mat(r, k)
            dx = x.d_mat(r, k)
            for i in range(y.dim(r, k + 1)):
                for j in range(x.dim(r, k)):
                    coeffs = []
                    for a in range(y.dim(r, k)):
                        if dy.entry(i, a):
                            coeffs.append((entry_index(r, k, a, j), dy.entry(i, a)))
                    for b in range(x.dim(r, k + 1)):
                        if dx.entry(b, j):
                            coeffs.append((entry_index(r, k + 1, i, b), -dx.entry(b, j)))
                    add_constraint(coeffs)
    for r in range(n - 1):
        for k in range(md + 1):
            sy = y.sigma_mat(r, k)
            sx = x.sigma_mat(r, k)
            for i in range(y.dim(r + 1, k)):
                for j in range(x.dim(r, k)):
                    coeffs = []
                    for a in range(y.dim(r, k)):
                        if sy.entry(i, a):
                            coeffs.append((entry_index(r, k, a, j), sy.entry(i, a)))
                    for b in range(x.dim(r + 1, k)):
                        if sx.entry(b, j):
                            coeffs.append((entry_index(r + 1, k, i, b), -sx.entry(b, j)))
                    add_constraint(coeffs)

    if total == 0:
        comps = [{k: QMatrix.zero(y.dim(r, k), x.dim(r, k)) for k in range(md + 1)}
                 for r in range(n)]
        return PComplexMap(x, y, comps)
    system = QMatrix(len(rows), total, rows) if rows else QMatrix.zero(0, total)
    sols = kernel_basis(system)
    flat = zero_vec(total)
    for v in sols:
        c = rng.randint(-3, 3)
        if c and rng.random() < 0.9:
            flat = vec_add(flat, vec_scale(Fraction(c), dense(v, total)))
    comps = []
    for r in range(n):
        stage = {}
        for k in range(md + 1):
            rows_m = y.dim(r, k)
            cols_m = x.dim(r, k)
            stage[k] = QMatrix(rows_m, cols_m,
                               [[flat[entry_index(r, k, i, j)] for j in range(cols_m)]
                                for i in range(rows_m)])
        comps.append(stage)
    return PComplexMap(x, y, comps)


# -- reference checks and constructions ------------------------------------------


def check_representatives(m, bars, reps) -> None:
    """Raise unless the sections satisfy every BarRepresentative invariant."""
    n = len(m.dims)
    for rep in reps:
        b = rep.bar
        last = n - 1 if b.death == INF else int(b.death) - 1
        if not rep.vectors[b.birth]:
            raise ValidationError("representative vanishes at birth")
        for i in range(b.birth, last):
            if m.maps[i].apply(rep.vectors[i]) != rep.vectors[i + 1]:
                raise ValidationError("representative does not commute with structure maps")
        if b.death != INF:
            img = m.maps[last].apply(rep.vectors[last])
            if img:
                raise ValidationError("representative image at death is nonzero")
    # Alive sections are linearly independent at every index.
    for i in range(n):
        cols = [rep.vectors[i] for rep in reps if rep.bar.alive_at(i)]
        if cols and rank(QMatrix.from_columns(cols, m.dims[i])) != len(cols):
            raise ValidationError(f"alive sections dependent at stage {i}")


def padded(data, x):
    """The same attaching data zero-padded to the current dimensions of x:
    attaching a cell appends its label at the end of a degree list."""
    from pmm.pcomplex import SphereMapData

    def pad(v, length):
        assert len(v) <= length
        return tuple(v) + zero_vec(length - len(v))

    return SphereMapData(
        degree=data.degree, birth=data.birth, death=data.death,
        cocycle=pad(data.cocycle, x.dim(data.birth, data.degree)),
        bounding=None if data.bounding is None else
        pad(data.bounding, x.dim(int(data.death), data.degree - 1)),
        label=data.label)


def attach_cells(x, batch):
    """Attach several cells whose data all refer to the original complex x."""
    from pmm.pcomplex import attach_cell

    for data in batch:
        x = attach_cell(x, padded(data, x))
    return x


def include_target(c, a, n):
    """The natural map A -> C of a mapping cone c, a -> (0, -a), in degree n."""
    return {c.dim_m(n) + j: x for j, x in c.target.to_sparse(a.scale(-1), n).items()}


def indecomposables_module(model, k) -> PersistenceModule:
    """Q^k of a tame model as a persistence module (independent of the barcode)."""
    names = [[g.name for g in alg.generators if g.degree == k] for alg in model.algebras]
    maps = tuple(linear_part(model.sigmas[r], names[r], names[r + 1])
                 for r in range(len(names) - 1))
    return PersistenceModule(model.grid, tuple(len(ns) for ns in names), maps)


def insert_duplicate_stage(tower, index, time):
    """Refine a tower's grid by repeating stage `index` with an identity map."""
    from pmm.pminimal import PersistentCDGA

    stages = list(tower.stages)
    stages.insert(index + 1, tower.stages[index])
    maps = list(tower.maps)
    maps.insert(index, CdgaMorphism.identity(tower.stages[index]))
    return PersistentCDGA(tower.grid.insert(index + 1, time), stages, maps, tower.user_cap)
