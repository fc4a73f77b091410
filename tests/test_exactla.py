import itertools
import random
import re
from collections import Counter
from fractions import Fraction

import pytest

from pmm import cochain, exactla
from pmm.cochain import compute_cohomology
from pmm.errors import InternalError
from pmm.exactla import (
    ONE, ZERO, QMatrix, RrefResult, _lower_block, adapted_split, back_substitute, block_diag,
    echelon, hstack, kernel_basis, quotient_basis, rank, reverse_echelon, rref, solve, vstack,
)

from . import dense as reference
from .dense import dense, lin_comb, row, unit_vec, vec


def dense_or_none(v, n):
    return None if v is None else dense(v, n)


def rand_matrix(rng, rows, cols, lo=-2, hi=2):
    return QMatrix(rows, cols, [[rng.randint(lo, hi) for _ in range(cols)] for _ in range(rows)])


def test_rref_proportional_rows():
    r = rref(QMatrix.from_rows([[2, 4], [1, 2]]))
    assert r.rank == 1
    assert r.pivots == (0,)
    assert r.reduced == QMatrix.from_rows([[1, 2], [0, 0]])


def test_rref_identity_fixed_point():
    m = QMatrix.identity(2)
    r = rref(m)
    assert r.reduced == m and r.rank == 2


def test_rref_hand_example():
    # [[1,2,3],[4,5,6]] reduces by hand to [[1,0,-1],[0,1,2]].
    r = rref(QMatrix.from_rows([[1, 2, 3], [4, 5, 6]]))
    assert r.rank == 2
    assert r.pivots == (0, 1)
    assert r.reduced == QMatrix.from_rows([[1, 0, -1], [0, 1, 2]])


def test_solve_identity_and_inconsistent():
    assert solve(QMatrix.identity(3), row([1, 2, 3])) == row([1, 2, 3])
    assert solve(QMatrix.zero(2, 2), row([1, 0])) is None


def test_solve_free_variables_zero():
    # Hand back-substitution: x = (1, 0) is the particular solution.
    x = solve(QMatrix.from_rows([[1, 2], [2, 4]]), row([1, 2]))
    assert x == row([1, 0])


def test_kernel_basis_examples():
    assert kernel_basis(QMatrix.zero(2, 2)) == [row(unit_vec(2, 0)), row(unit_vec(2, 1))]
    assert kernel_basis(QMatrix.identity(3)) == []
    assert kernel_basis(QMatrix.from_rows([[1, 2]])) == [row([-2, 1])]


def test_quotient_basis_examples():
    assert quotient_basis([], 2) == [row(unit_vec(2, 0)), row(unit_vec(2, 1))]
    assert quotient_basis([row(unit_vec(2, 0)), row(unit_vec(2, 1))], 2) == []
    assert quotient_basis([row([1, 1])], 2) == [row(unit_vec(2, 0))]


def test_adapted_split_identity():
    s = adapted_split(QMatrix.identity(3))
    assert s.kernel == () and s.cokernel == ()
    assert s.rank == 3


def test_adapted_split_zero_map():
    s = adapted_split(QMatrix.zero(3, 2))
    assert s.coimage == ()
    assert len(s.kernel) == 2 and len(s.cokernel) == 3


def test_adapted_split_projection():
    s = adapted_split(QMatrix.from_rows([[1, 0]]))
    assert s.coimage == (row(unit_vec(2, 0)),)
    assert s.kernel == (row(unit_vec(2, 1)),)
    assert s.image == (row([1]),)
    assert s.cokernel == ()


def test_rank_nullity_and_solutions_random():
    rng = random.Random(7)
    for _ in range(200):
        rows, cols = rng.randint(0, 5), rng.randint(0, 5)
        m = rand_matrix(rng, rows, cols)
        r = rank(m)
        ker = kernel_basis(m)
        assert r + len(ker) == cols
        for v in ker:
            assert all(x == 0 for x in dense(m.apply(v), rows))
        # Solvable systems solve exactly.
        x0 = row([rng.randint(-2, 2) for _ in range(cols)])
        b = m.apply(x0)
        x = solve(m, b)
        assert x is not None
        assert m.apply(x) == b


def test_adapted_split_block_structure_random():
    rng = random.Random(11)
    for _ in range(150):
        rows, cols = rng.randint(0, 4), rng.randint(0, 4)
        psi = rand_matrix(rng, rows, cols)
        s = adapted_split(psi)
        # Expressing psi in the new bases gives exactly [[I,0],[0,0]]: with
        # block that rank block, codomain_change @ block = psi @ domain_change.
        r = s.rank
        block = QMatrix(rows, cols, [[1 if (i == j and i < r) else 0 for j in range(cols)]
                                     for i in range(rows)])
        assert s.codomain_change @ block == psi @ s.domain_change
        # Bases really are bases.
        assert rank(s.domain_change) == cols
        assert rank(s.codomain_change) == rows


def test_quotient_basis_completes_random():
    rng = random.Random(3)
    for _ in range(100):
        dim = rng.randint(0, 5)
        k = rng.randint(0, dim) if dim else 0
        sub = [row([rng.randint(-2, 2) for _ in range(dim)]) for _ in range(k)]
        comp = quotient_basis(sub, dim)
        if dim:
            full = QMatrix.from_columns(sub + comp, dim)
            assert rank(full) == dim


# -- the identity-block complement and the list elder rule, as references --------
# quotient_basis reduced [sub | I]; interval_decompose echelonized a kernel
# with _reverse_echelon and keyed each row by _last_nonzero.

def ref_quotient_basis(sub, ambient_dim):
    cols = [row(v) for v in sub] + [row(unit_vec(ambient_dim, j)) for j in range(ambient_dim)]
    m = QMatrix.from_columns(cols, ambient_dim) if ambient_dim else QMatrix(0, len(cols))
    k = len(sub)
    return [unit_vec(ambient_dim, p - k) for p in ref_rref(m).pivots if p >= k]


def ref_reverse_echelon(vectors):
    if not vectors:
        return []
    n = len(vectors[0])
    red = ref_rref(QMatrix(len(vectors), n, [list(reversed(v)) for v in vectors])).reduced
    return [tuple(reversed(row)) for row in red.data if any(x != 0 for x in row)]


def ref_last_nonzero(v):
    for i in range(len(v) - 1, -1, -1):
        if v[i] != 0:
            return i
    raise ValueError("zero vector has no pivot")


def echelon_cases(seed, count):
    """(vectors, n, kind): random rows, rows with dependent combinations
    appended, full-rank sets, and empty ones, for n from 0 to 6."""
    rng = random.Random(seed)
    for i in range(count):
        n, kind = rng.randint(0, 6), ("random", "dependent", "full", "empty")[i % 4]
        density = rng.choice(DENSITIES)
        if kind == "empty":
            vectors = []
        elif kind == "full":
            # A unit upper-triangular basis, then random rows, shuffled.
            vectors = [vec(1 if i == j else rng.randint(-2, 2) if i > j else 0
                           for i in range(n)) for j in range(n)]
            vectors += sparse_matrix(rng, rng.randint(0, 3), n, density).data
            rng.shuffle(vectors)
        else:
            vectors = list(sparse_matrix(rng, rng.randint(1, 5), n, density).data)
            if kind == "dependent":
                coeffs = [Fraction(rng.randint(-2, 2), rng.randint(1, 3)) for _ in vectors]
                vectors += [lin_comb(coeffs, vectors, n), vectors[0]]
                rng.shuffle(vectors)
        yield vectors, n, kind


def test_reverse_echelon_and_quotient_basis_match_the_references():
    kinds = Counter()
    for vectors, n, kind in echelon_cases(1616, count=480):
        kinds[kind] += 1
        rows = [row(v) for v in vectors]
        got = reverse_echelon(rows, n)
        want = ref_reverse_echelon(vectors)
        assert list(got) == [ref_last_nonzero(v) for v in want]
        assert [dense(v, n) for v in got.values()] == want
        assert all(type(x) is Fraction for v in got.values() for x in v.values())
        assert [dense(v, n) for v in quotient_basis(rows, n)] == ref_quotient_basis(vectors, n)
        if kind == "full":
            assert sorted(got) == list(range(n)) and quotient_basis(rows, n) == []
    assert kinds == {"random": 120, "dependent": 120, "full": 120, "empty": 120}


def test_reverse_echelon_keys_the_youngest_coordinate_first():
    # span{(1, 1, 0), (0, 2, 1)}: the youngest reachable coordinate is 2,
    # then 1 once coordinate 2 is cleared; 0 is the complement.
    got = reverse_echelon([row([1, 1, 0]), row([0, 2, 1])], 3)
    assert got == {2: row([-2, 0, 1]), 1: row([1, 1, 0])}
    assert list(got) == [2, 1]
    assert quotient_basis([row([1, 1, 0]), row([0, 2, 1])], 3) == [row(unit_vec(3, 0))]
    assert reverse_echelon([], 3) == {} and reverse_echelon([{}, {}], 0) == {}
    with pytest.raises(ValueError, match="quotient_basis: coordinate 3 outside 0..2"):
        quotient_basis([row([1, 0, 0, 1])], 3)


def test_an_empty_right_hand_side_is_solved_without_elimination(monkeypatch):
    # solve(a, {}) is x = 0, the particular solution with zeros in the free
    # coordinates, which the dense reference finds by elimination; a
    # nonzero right-hand side still eliminates.
    calls = []
    monkeypatch.setattr(exactla, "echelon", lambda m: calls.append(m) or echelon(m))
    for rng, density, (rows, cols) in random_cases(2626, count=2):
        a = sparse_matrix(rng, rows, cols, density)
        calls.clear()
        assert solve(a, {}) == {}
        assert calls == []
        assert reference.solve(a, (0,) * rows) == (0,) * cols
        x = sparse_matrix(rng, cols, 1, 1.0).column(0) if cols else {}
        b = a.apply(x)
        if b:
            assert dense_or_none(solve(a, b), cols) == reference.solve(a, dense(b, rows))
            assert len(calls) == 1


def test_a_residue_outside_the_pivots_is_inconsistent():
    # b = a x + e_j, with e_j outside the column space of a (a unit vector
    # quotient_basis leaves), has no solution; the dense reference agrees.
    found = 0
    for rng, density, (rows, cols) in random_cases(2627, count=2):
        a = sparse_matrix(rng, rows, cols, density)
        x = sparse_matrix(rng, cols, 1, 1.0).column(0) if cols else {}
        for e in quotient_basis(a.columns(), rows):
            (j, one), = e.items()
            b = {**a.apply(x)}
            b[j] = b.get(j, ZERO) + one
            if not b[j]:
                del b[j]
            assert solve(a, b) is None
            assert reference.solve(a, dense(b, rows)) is None
            found += 1
    assert found > 50


def test_invert_and_express():
    coords = solve(QMatrix.from_columns([row([1, 0]), row([1, 1])], 2), row([3, 2]))
    assert coords == row([1, 2])
    assert solve(QMatrix.from_columns([row([1, 0])], 2), row([0, 1])) is None


# A column is a Row, so one that is short or empty is a legal column with
# zeros below; a ragged column is one with a key outside 0..rows-1.
@pytest.mark.parametrize("columns, rows, key", [
    ([{0: 1, 1: 2}, {-1: 3}], 2, -1),
    ([{0: 1}, {0: 2, 1: 3}], 1, 1),
    ([{}, {2: 1}], 2, 2),
    ([{0: 1, 1: 2, 2: 3}], 2, 2),
    ([{}, {0: 1}], 0, 0),
], ids=["one-short", "one-long", "empty-with-rows", "all-long", "long-after-empty"])
def test_from_columns_refuses_ragged_columns(columns, rows, key):
    with pytest.raises(ValueError, match=f"^from_columns: coordinate {key} outside 0..{rows - 1}$"):
        QMatrix.from_columns(columns, rows)


def test_from_columns_shapes_and_coercion():
    assert QMatrix.from_columns([], 3) == QMatrix(3, 0)
    assert QMatrix.from_columns([{}, {}], 0) == QMatrix(0, 2)
    m = QMatrix.from_columns([{0: 1, 1: 2}, {0: Fraction(1, 2), 1: 0}], 2)
    assert m.data == ((1, Fraction(1, 2)), (2, 0))
    assert all(type(x) is Fraction for row in m.data for x in row)
    with pytest.raises(ValueError):
        QMatrix(2, 2, [(1, 2), (3,)])


def test_exactness_no_float():
    m = QMatrix.from_rows([[Fraction(1, 3), Fraction(1, 7)], [Fraction(2, 3), Fraction(5, 7)]])
    x = solve(m, {0: Fraction(1), 1: Fraction(2)})
    assert m.apply(x) == {0: Fraction(1), 1: Fraction(2)}


# -- dense reference kernels --------------------------------------------------
# The dense rref that pmm.exactla ran before its rows were sparse, and the
# textbook dense matmul and apply, with the solves and cohomology built on
# them: the reference that the sparse eliminator in pmm.exactla and the
# cached reductions in pmm.cochain must match entry for entry.

def ref_rref(m):
    """Unique reduced row echelon form over dense rows: pivot search scans
    columns left to right, rows top to bottom; pivots are normalized to 1 and
    cleared above and below."""
    a = [list(r) for r in m.data]
    pivots = []
    for pc in range(m.cols):
        pr = len(pivots)
        sel = next((i for i in range(pr, m.rows) if a[i][pc]), None)
        if sel is None:
            continue
        a[pr], a[sel] = a[sel], a[pr]
        if a[pr][pc] != 1:
            inv = ONE / a[pr][pc]
            a[pr] = [x * inv if x else x for x in a[pr]]
        nz = [(j, a[pr][j]) for j in range(pc, m.cols) if a[pr][j]]
        for i, row in enumerate(a):
            c = row[pc]
            if c and i != pr:
                for j, y in nz:
                    row[j] -= c * y
        pivots.append(pc)
        if pr + 1 == m.rows:
            break
    return RrefResult(QMatrix(m.rows, m.cols, a), tuple(pivots), len(pivots))


def dense_matmul(a, b):
    cols = [dense(b.column(j), b.rows) for j in range(b.cols)]
    return QMatrix(a.rows, b.cols, [[sum((x * y for x, y in zip(r, c)), ZERO) for c in cols]
                                    for r in a.data])


def dense_apply(m, v):
    v = vec(v)
    return tuple(sum((r[j] * v[j] for j in range(m.cols)), ZERO) for r in m.data)


def dense_solve(a, b):
    aug = hstack([a, QMatrix.from_columns([row(b)], a.rows)]) if a.rows else QMatrix(0, a.cols + 1)
    r = ref_rref(aug)
    if a.cols in r.pivots:
        return None
    x = [ZERO] * a.cols
    for i, p in enumerate(r.pivots):
        x[p] = r.reduced.entry(i, a.cols)
    return tuple(x)


def dense_kernel_basis(a):
    r = ref_rref(a)
    basis = []
    for f in (j for j in range(a.cols) if j not in r.pivots):
        v = [ZERO] * a.cols
        v[f] = ONE
        for i, p in enumerate(r.pivots):
            v[p] = -r.reduced.entry(i, f)
        basis.append(tuple(v))
    return basis


def dense_cohomology(d_out, d_in):
    """(cocycles, boundaries, reps), each boundary expressed by a solve."""
    z = dense_kernel_basis(d_out)
    dim = d_out.cols
    b = [dense(d_in.column(p), dim) for p in ref_rref(d_in).pivots] if d_in is not None else []
    b_in_z = []
    for vb in b:
        coords = dense_solve(QMatrix.from_columns([row(v) for v in z], dim), vb) if z else None
        assert coords is not None
        b_in_z.append(coords)
    reps = [lin_comb(unit, z, dim) for unit in ref_quotient_basis(b_in_z, len(z))]
    return z, b, reps


def dense_class_of(space, v):
    """H-coordinates of v by one solve against [reps | boundaries], or None."""
    if space.ambient_dim == 0:
        return ()
    coords = dense_solve(QMatrix.from_columns(space.reps + space.boundaries,
                                              space.ambient_dim), v)
    return None if coords is None else coords[: len(space.reps)]


def sparse_matrix(rng, rows, cols, density):
    """Entries zero with probability 1 - density, else p/q, |p| <= 3, q <= 4."""
    return QMatrix(rows, cols, [[Fraction(rng.randint(-3, 3) or 1, rng.randint(1, 4))
                                 if rng.random() < density else 0
                                 for _ in range(cols)] for _ in range(rows)])


SHAPES = [(0, 0), (0, 4), (4, 0), (1, 1), (1, 5), (5, 1), (3, 7), (7, 3), (8, 8)]
DENSITIES = [0.03, 0.3, 1.0]


def random_cases(seed, count=8):
    rng = random.Random(seed)
    for density in DENSITIES:
        for shape in SHAPES:
            for _ in range(count):
                yield rng, density, shape


def test_sparse_kernels_match_dense_reference():
    for rng, density, (rows, cols) in random_cases(101):
        m = sparse_matrix(rng, rows, cols, density)
        # A product of thin factors is rank-deficient, with repeated pivots.
        inner = rng.randint(0, 3)
        low = sparse_matrix(rng, rows, inner, density) @ sparse_matrix(rng, inner, cols, 1.0)
        for a in (m, low):
            got, want = rref(a), ref_rref(a)
            assert got == want
            assert all(type(x) is Fraction for row in got.reduced.data for x in row)
            assert [dense(v, cols) for v in kernel_basis(a)] == dense_kernel_basis(a)
            x = sparse_matrix(rng, cols, 1, density).column(0) if cols else {}
            assert dense(a.apply(x), rows) == dense_apply(a, dense(x, cols))
            b = a.apply(x)
            assert dense_or_none(solve(a, b), cols) == dense_solve(a, dense(b, rows))
            other = sparse_matrix(rng, cols, rng.randint(0, 4), density)
            product = a @ other
            assert product == dense_matmul(a, other)
            assert all(type(x) is Fraction for row in product.data for x in row)


def test_sparse_rref_matches_sympy():
    sympy = pytest.importorskip("sympy")
    for m in edge_cases(202, count=2):
        entries = sympy.Matrix(m.rows, m.cols, [sympy.Rational(x.numerator, x.denominator)
                                                for row in m.data for x in row])
        oracle, pivots = entries.rref()
        r = rref(m)
        assert r.pivots == tuple(pivots)
        assert [[sympy.Rational(x.numerator, x.denominator) for x in row]
                for row in r.reduced.data] == oracle.tolist()
        assert [[sympy.Rational(x.numerator, x.denominator) for x in dense(v, m.cols)]
                for v in kernel_basis(m)] == [list(v) for v in entries.nullspace()]


def edge_cases(seed, count=4):
    """0×n, n×0, all-zero, full-rank, repeated-row and low-rank matrices, then
    the seeded random ones."""
    rng = random.Random(seed)
    yield from (QMatrix(0, 4), QMatrix(4, 0), QMatrix(0, 0), QMatrix.zero(3, 5))
    for n in (1, 4, 7):
        yield QMatrix(n, n, [[1 if i == j else rng.randint(-2, 2) if j > i else 0
                              for j in range(n)] for i in range(n)][::-1])
        yield sparse_matrix(rng, n, 1, 1.0) @ QMatrix(1, n + 2, [[1] * (n + 2)])
    for _, density, (rows, cols) in random_cases(seed, count):
        m = sparse_matrix(rng, rows, cols, density)
        yield m
        if rows:
            repeated = [m.data[rng.randrange(rows)] for _ in range(rows)]
            yield QMatrix(2 * rows, cols, list(m.data) + repeated)


def test_eliminator_matches_the_dense_reference():
    rng = random.Random(1919)
    for m in edge_cases(1919):
        want = ref_rref(m)
        rows = echelon(m)
        # The forward echelon: the reference's pivots as keys, each row 1 at
        # its key and 0 left of it, and the same row space.
        assert tuple(rows) == want.pivots
        assert all(min(row) == p and row[p] == 1 for p, row in rows.items())
        basis = QMatrix._of(len(rows), m.cols, tuple(rows.values()))
        assert ref_rref(basis).reduced.data == want.reduced.data[:want.rank]
        # Back-substitution gives the reference's reduced rows, entry for entry.
        assert QMatrix._of(want.rank, m.cols, tuple(back_substitute(rows).values())).data == \
            want.reduced.data[:want.rank]
        got = rref(m)
        assert (got.reduced.data, got.pivots, got.rank) == \
            (want.reduced.data, want.pivots, want.rank)
        assert got == want and rank(m) == want.rank
        assert all(type(x) is Fraction for row in got.reduced.data for x in row)
        assert [dense(v, m.cols) for v in kernel_basis(m)] == dense_kernel_basis(m)
        x = sparse_matrix(rng, m.cols, 1, 0.5).column(0) if m.cols else {}
        for b in (m.apply(x), sparse_matrix(rng, m.rows, 1, 0.5).column(0) if m.rows else {}):
            assert dense_or_none(solve(m, b), m.cols) == dense_solve(m, dense(b, m.rows))
        assert {p: dense(v, m.cols) for p, v in
                reverse_echelon([row(v) for v in m.data], m.cols).items()} == dict(zip(
            map(ref_last_nonzero, ref_reverse_echelon(m.data)), ref_reverse_echelon(m.data)))


# -- the Fraction eliminator, as a reference for the integer-row one -----------

def ref_fraction_echelon(m):
    """The forward echelon in Fractions: each row of m reduced in place by
    r -= r[c]·p, with p the pivot row at its leading column c, normalized
    to 1 at c when it becomes a pivot row."""
    piv = {}
    for r in m._rows:
        r = dict(r)
        while r:
            c = min(r)
            p = piv.get(c)
            if p is None:
                x = r[c]
                if x != 1:
                    inv = ONE / x
                    r = {j: y * inv for j, y in r.items()}
                piv[c] = r
                break
            a = -r[c]
            for j, y in p.items():
                v = r[j] + a * y if j in r else a * y
                if v:
                    r[j] = v
                else:
                    del r[j]
    return {c: piv[c] for c in sorted(piv)}


def integer_row_cases(seed, count=40):
    """Seeded sparse matrices with entries 1/(j+1), large and negative ones,
    zero rows, rows that lead negative and repeated (and rescaled) rows."""
    rng = random.Random(seed)
    big = 10 ** 30 + 7
    for _ in range(count):
        rows, cols = rng.randint(1, 9), rng.randint(1, 9)
        density = rng.choice([0.2, 0.5, 1.0])
        entries = []
        for i in range(rows):
            kind = rng.random()
            if kind < 0.1:
                entries.append([0] * cols)
                continue
            row = [rng.choice([Fraction(1, j + 1), Fraction(-big, j + 2), Fraction(big, 3),
                               rng.randint(-5, 5), Fraction(rng.randint(-9, 9), rng.randint(1, 9))])
                   if rng.random() < density else 0 for j in range(cols)]
            lead = next((j for j, x in enumerate(row) if x), None)
            if lead is not None and kind < 0.4:
                row[lead] = -abs(Fraction(row[lead])) * rng.randint(1, 4)
            entries.append(row)
        for _ in range(rng.randint(0, 3)):
            src = entries[rng.randrange(rows)]
            entries.append([Fraction(x) * rng.choice([1, -1, Fraction(-3, 7), big]) for x in src])
        rng.shuffle(entries)
        yield QMatrix(len(entries), cols, entries)


def test_integer_row_echelon_matches_the_fraction_eliminator():
    # The integer-row eliminator keeps rows proportional to the Fraction
    # one's, so the pivots, the normalized rows and their key order agree,
    # and every entry it returns is a Fraction.
    cases = list(integer_row_cases(2323))
    assert any(max(abs(x.numerator) for row in m._rows for x in row.values()) > 10 ** 29
               for m in cases if m.nonzeros())
    for m in cases:
        got, want = echelon(m), ref_fraction_echelon(m)
        assert got == want
        assert list(got) == list(want)
        assert [list(row.items()) for row in got.values()] == \
            [list(row.items()) for row in want.values()]
        assert all(type(x) is Fraction for row in got.values() for x in row.values())
        assert all(row[c] == 1 and min(row) == c for c, row in got.items())


def cochain_slice(rng, n, density):
    """d_out (p x n) and d_in (n x q) with d_out @ d_in = 0."""
    d_out = sparse_matrix(rng, rng.randint(0, n), n, density)
    z = dense_kernel_basis(d_out)
    coeffs = sparse_matrix(rng, len(z), rng.randint(0, 4), max(density, 0.3))
    d_in = QMatrix.from_columns([row(v) for v in z], n) @ coeffs if z else QMatrix(n, coeffs.cols)
    return d_out, d_in


def test_cohomology_and_class_of_match_dense_reference():
    for rng, density, (n, _) in random_cases(303, count=4):
        d_out, d_in = cochain_slice(rng, n, density)
        for incoming in (d_in, None):
            space = compute_cohomology(d_out, incoming)
            assert tuple([dense(v, n) for v in vs] for vs in
                         (space.cocycles, space.boundaries, space.reps)) == \
                dense_cohomology(d_out, incoming)
            cocycles = [dense(v, n) for v in space.cocycles]
            for _ in range(3):
                coeffs = [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in space.cocycles]
                z = lin_comb(coeffs, cocycles, n)
                assert dense(space.class_of(row(z)), space.dim) == dense_class_of(space, z)
                v = dense(sparse_matrix(rng, n, 1, 1.0).column(0), n) if n else ()
                want = dense_class_of(space, v)
                if want is None:
                    with pytest.raises(InternalError, match="not a cocycle"):
                        space.class_of(row(v))
                else:
                    assert dense(space.class_of(row(v)), space.dim) == want


def test_compute_cohomology_rejects_boundary_outside_cocycles():
    # d_out @ d_in != 0: the boundary (1, 0) is not a cocycle of d_out = [1 1].
    with pytest.raises(InternalError, match="boundary is not a cocycle"):
        compute_cohomology(QMatrix.from_rows([[1, 1]]), QMatrix.from_rows([[1], [0]]))
    # No cocycles at all, one nonzero boundary.
    with pytest.raises(InternalError, match="boundary is not a cocycle"):
        compute_cohomology(QMatrix.identity(2), QMatrix.from_rows([[0], [1]]))


def test_class_of_rejects_non_cocycle_and_reduces_once(monkeypatch):
    # H^1 of 0 -> Q^2 -> Q with d = [1 1]: Z = span(-1, 1), no boundaries.
    # H^1 of Q -> Q^3 -> Q with d_in = (1, -1, 2)ᵀ, d_out = [1 1 0]: Z has
    # the free columns 1 and 2, where B is (-1, 2); H is spanned by (-1, 1, 0),
    # and (0, 0, 1) = 1/2 (-1, 1, 0) + 1/2 (1, -1, 2).
    no_b = compute_cohomology(QMatrix.from_rows([[1, 1]]), None)
    with_b = compute_cohomology(QMatrix.from_rows([[1, 1, 0]]),
                                QMatrix.from_rows([[1], [-1], [2]]))
    echelons, reduced = [], []
    monkeypatch.setattr(cochain, "reverse_echelon",
                        lambda *a: echelons.append(a) or reverse_echelon(*a))
    # A reduction is cochain's own eliminator call or an rref in exactla.
    monkeypatch.setattr(cochain, "echelon", lambda m: reduced.append(m) or echelon(m))
    monkeypatch.setattr(exactla, "rref", lambda m: reduced.append(m) or rref(m))
    cases = ((no_b, [([-2, 2], [2]), ([3, -3], [-3])], [1, 0], 0),
             (with_b, [([-1, 1, 0], [1]), ([0, 0, 1], [Fraction(1, 2)]),
                       ([1, -1, 2], [0])], [1, 0, 0], 1))
    for space, answers, non_cocycle, reductions in cases:
        echelons.clear()
        reduced.clear()
        (z, want), *rest = answers
        assert space.class_of(row(z)) == row(want)
        # The class data is made once, on the first call; its one reverse
        # echelon is the only reduction, and only when there are boundaries.
        assert len(echelons) == 1 and len(reduced) == reductions
        for z, want in rest:
            assert space.class_of(row(z)) == row(want)
        with pytest.raises(InternalError, match="class_of: vector is not a cocycle"):
            space.class_of(row(non_cocycle))
        # A coordinate outside the ambient space is refused, as the dense
        # vector of another length was.
        for key in (space.ambient_dim, space.ambient_dim + 2, -1):
            with pytest.raises(InternalError,
                               match="^class_of: coordinate outside the ambient space$"):
                space.class_of({key: ONE})
        assert len(echelons) == 1 and len(reduced) == reductions
        assert space.reps == [space.cocycles[0]]
        assert len(echelons) == 1 and len(reduced) == reductions


def test_a_space_of_dimension_zero_computes_no_class_data(monkeypatch):
    # H^1 of Q -> Q^2 -> Q with d_in = (1, -1)ᵀ, d_out = [1 1] has Z = B, and
    # H^0 of Q^2 -> Q^2 with d_out the identity has Z = 0: both have
    # dimension 0 in ambient dimension 2.  Their reps and classes are read
    # with no back-substitution and no reverse echelon of the boundaries,
    # and a non-cocycle is still refused.
    exact = compute_cohomology(QMatrix.from_rows([[1, 1]]), QMatrix.from_rows([[1], [-1]]))
    injective = compute_cohomology(QMatrix.identity(2), None)
    calls = []
    for name in ("reverse_echelon", "back_substitute"):
        monkeypatch.setattr(cochain, name, lambda *a, name=name: calls.append(name))
    for space, cocycle in ((exact, [3, -3]), (injective, [0, 0])):
        assert space.dim == 0 and space.ambient_dim == 2
        assert space.reps == [] and space.class_of(row(cocycle)) == {}
        with pytest.raises(InternalError, match="class_of: vector is not a cocycle"):
            space.class_of(row([1, 0]))
        assert not {"cocycles", "_classes"} & set(vars(space))
    assert calls == []


class EagerSpace:
    """compute_cohomology and CohomologySpace as they were when the space
    built everything at once: all cocycles, the boundaries' Z-coordinates,
    the class representatives and the class_of solver."""

    def __init__(self, d_out, d_in, below=None):
        r = ref_rref(d_out)
        dim = d_out.cols
        z, free = [dense(v, dim) for v in r.kernel_basis()], r.free_columns()
        b = []
        if d_in is not None:
            pivots = below.pivots if below is not None else ref_rref(d_in).pivots
            b = [dense(d_in.column(p), dim) for p in pivots]
        b_in_z = []
        for vb in b:
            coords = tuple(vb[f] for f in free)
            if lin_comb(coords, z, dim) != vb:
                raise InternalError("boundary is not a cocycle: d*d != 0 upstream")
            b_in_z.append(coords)
        self.ambient_dim, self.cocycles, self.boundaries, self.pivots = dim, z, b, r.pivots
        self.reps = [lin_comb(unit, z, dim) for unit in ref_quotient_basis(b_in_z, len(z))]
        self.dim = len(self.reps)
        if dim:
            h, p = len(self.reps), len(self.reps) + len(b)
            basis = QMatrix.from_columns([row(v) for v in self.reps + b], dim)
            e = [row[p:] for row in ref_rref(hstack([basis, QMatrix.identity(dim)])).reduced.data]
            self.solver = QMatrix(h, dim, e[:h]), QMatrix(dim - p, dim, e[p:])

    def class_of(self, z):
        if self.ambient_dim == 0:
            return ()
        coords, consistency = self.solver
        return dense(coords.apply(row(z)), coords.rows) if not consistency.apply(row(z)) else None


def lazy_and_eager(d_out, d_in, with_below):
    """The lazy and the eager space of one slice; with_below reads B off the
    space of d_in, as the algebras and cones do."""
    below = compute_cohomology(d_in, None) if with_below and d_in is not None else None
    eager_below = EagerSpace(d_in, None) if below is not None else None
    return compute_cohomology(d_out, d_in, below), EagerSpace(d_out, d_in, eager_below)


def test_lazy_space_matches_the_eager_space():
    for rng, density, (n, _) in random_cases(404, count=4):
        d_out, d_in = cochain_slice(rng, n, density)
        for incoming, with_below in ((d_in, True), (d_in, False), (None, False)):
            space, eager = lazy_and_eager(d_out, incoming, with_below)
            # Only the dimension, boundaries and pivots exist before a read.
            assert not {"cocycles", "reps", "_classes"} & set(vars(space))
            assert (space.dim, space.ambient_dim, space.pivots,
                    [dense(b, n) for b in space.boundaries]) == \
                (eager.dim, eager.ambient_dim, eager.pivots, eager.boundaries)
            assert not {"cocycles", "reps", "_classes"} & set(vars(space))
            probes = [lin_comb([Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                                for _ in eager.cocycles], eager.cocycles, n)
                      for _ in range(3)]
            probes += [dense(sparse_matrix(rng, n, 1, 1.0).column(0), n) for _ in range(2)]
            # class_of on the forward echelon, then on the RREF that the
            # first read of the cocycles puts in its place.
            for read_cocycles in (False, True):
                if read_cocycles:
                    assert "cocycles" not in vars(space)
                    assert [dense(v, n) for v in space.cocycles] == eager.cocycles
                    assert [dense(v, n) for v in space.reps] == eager.reps
                for v in probes:
                    want = eager.class_of(v)
                    if want is None:
                        with pytest.raises(InternalError,
                                           match="class_of: vector is not a cocycle"):
                            space.class_of(row(v))
                    else:
                        assert dense(space.class_of(row(v)), space.dim) == want


def test_lazy_space_refuses_d_squared_nonzero_as_the_eager_space_does():
    # d_in drawn freely, so d_out @ d_in is often nonzero.
    refused = 0
    for rng, density, (n, _) in random_cases(505, count=4):
        d_out = sparse_matrix(rng, rng.randint(0, n), n, density)
        d_in = sparse_matrix(rng, n, rng.randint(0, 3), density)
        for with_below in (True, False):
            try:
                EagerSpace(d_out, d_in)
            except InternalError as exc:
                refused += 1
                with pytest.raises(InternalError, match=re.escape(str(exc))):
                    lazy_and_eager(d_out, d_in, with_below)
            else:
                space, eager = lazy_and_eager(d_out, d_in, with_below)
                assert (space.dim, [dense(v, n) for v in space.reps]) == (eager.dim, eager.reps)
    assert refused > 50


def test_a_below_of_another_matrix_is_refused():
    d0 = QMatrix.from_rows([[1, 0], [2, 0], [0, 0]])
    d1 = QMatrix.from_rows([[0, 0, 1], [2, -1, 0]])
    below = compute_cohomology(d0, None)
    equal = QMatrix.from_rows([[1, 0], [2, 0], [0, 0]])
    assert compute_cohomology(d1, equal, below) == compute_cohomology(d1, d0, below)
    other = QMatrix.from_rows([[0, 1], [0, 2], [0, 0]])  # same shape, same pivots
    for d_in in (other, None, QMatrix.from_rows([[1, 0, 0], [2, 0, 0], [0, 0, 0]])):
        with pytest.raises(InternalError, match="below's d_out is not this d_in"):
            compute_cohomology(d1, d_in, below)


# -- trusted constructors -------------------------------------------------------
# _lower_block and QMatrix._of_sparse_columns skip what the public stacks and
# from_columns do (a zero block, coercion, the key check); they must give the
# same matrices.

def stacked(a, b, c):
    """[[a, 0], [b, c]] by the public hstack and vstack."""
    return vstack([hstack([a, QMatrix.zero(a.rows, c.cols)]), hstack([b, c])])


def test_lower_block_matches_stacked_blocks():
    rng = random.Random(404)
    for density in DENSITIES:
        # Every block shape with each dimension 0, 1 or 3: 0-row, 0-column
        # and empty blocks included.
        for ra, rb, ca, cc in itertools.product((0, 1, 3), repeat=4):
            a = sparse_matrix(rng, ra, ca, density)
            b = sparse_matrix(rng, rb, ca, density)
            c = sparse_matrix(rng, rb, cc, density)
            out = _lower_block(a, b, c)
            assert (out.rows, out.cols) == (ra + rb, ca + cc)
            assert out == stacked(a, b, c)
            assert _lower_block(a, b, c, negate_c=True) == stacked(a, b, c.scale(-1))
            assert block_diag(a, c) == stacked(a, QMatrix.zero(c.rows, a.cols), c)


@pytest.mark.parametrize("a, b, c", [
    ((2, 3), (1, 2), (1, 4)),
    ((2, 3), (1, 3), (2, 4)),
    ((0, 0), (0, 1), (0, 0)),
    ((0, 2), (1, 2), (0, 1)),
], ids=["b-cols", "c-rows", "empty-b-cols", "empty-c-rows"])
def test_lower_block_refuses_mismatched_shapes(a, b, c):
    with pytest.raises(ValueError, match="block shapes"):
        _lower_block(QMatrix.zero(*a), QMatrix.zero(*b), QMatrix.zero(*c))


def test_of_columns_matches_from_columns():
    for rng, density, (rows, cols) in random_cases(505):
        columns = sparse_matrix(rng, rows, cols, density).columns()
        dense_cols = [dense(c, rows) for c in columns]
        entries = [[int(x) if x.denominator == 1 else x for x in r] for r in zip(*dense_cols)]
        built = [QMatrix._of_sparse_columns(columns, rows), QMatrix.from_columns(columns, rows),
                 QMatrix(rows, cols, entries or ())]
        for m in built:
            assert (m.rows, m.cols) == (rows, cols)
            assert m == built[0] and hash(m) == hash(built[0])
            assert m.data == tuple(zip(*dense_cols)) or (not cols and m.data == ((),) * rows)
            assert all(type(x) is Fraction for r in m.data for x in r)
    # rows > 0 with no columns, and rows == 0.
    assert QMatrix._of_sparse_columns([], 3) == QMatrix.from_columns([], 3) == QMatrix(3, 0)
    assert QMatrix._of_sparse_columns([], 3).data == ((), (), ())
    assert QMatrix._of_sparse_columns([{}, {}], 0) == QMatrix(0, 2)
    assert QMatrix._of_sparse_columns([], 0) == QMatrix(0, 0)
    assert QMatrix._of_sparse_columns([{}, {}], 3) == QMatrix.zero(3, 2) == QMatrix(3, 2)
    # A sum writes its entries in another order than a constructor does.
    late_first = QMatrix.from_rows([[0, 0, 1]]).add(QMatrix.from_rows([[1, 0, 0]]))
    assert late_first == QMatrix.from_rows([[1, 0, 1]])
    assert hash(late_first) == hash(QMatrix.from_rows([[1, 0, 1]]))
