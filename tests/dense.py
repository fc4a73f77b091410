"""Dense reference kernels: the vector helpers and the class-layer kernels
of `pmm.exactla` and `pmm.cochain` as they ran on dense tuples, before every
vector became a sparse Row.  The tests compare the sparse kernels with these,
entry for entry, through `dense` (a Row expanded to a tuple) and `row` (a
tuple's nonzero entries).  Monomials convert the same way: `dense_key` gives
a free algebra's (index, exponent) key as the exponent tuple over all its
generators, and `sparse_key` takes it back; `monomials` is the free-algebra
basis enumerator as it ran one generator at a time."""
from __future__ import annotations

from pmm.exactla import ONE, ZERO, QMatrix, echelon, frac, hstack, rref


def vec(entries) -> tuple:
    return tuple(frac(x) for x in entries)


def zero_vec(n: int) -> tuple:
    return (ZERO,) * n


def unit_vec(n: int, i: int) -> tuple:
    return tuple(ONE if j == i else ZERO for j in range(n))


def is_zero_vec(u) -> bool:
    return all(a == 0 for a in u)


def lin_comb(coeffs, vectors, dim: int) -> tuple:
    """sum c_i v_i, a vector of length dim (the zero vector when empty)."""
    acc = [ZERO] * dim
    for c, v in zip(coeffs, vectors, strict=True):
        if c:
            if len(v) != dim:
                raise ValueError(f"lin_comb: vector of length {len(v)}, want {dim}")
            for i, x in enumerate(v):
                if x:
                    acc[i] += c * x
    return tuple(acc)


def row(v) -> dict:
    """The Row of a dense vector: its nonzero entries, as Fractions."""
    return {j: frac(x) for j, x in enumerate(v) if x}


def dense(r: dict, n: int) -> tuple:
    """The length-n tuple of a Row."""
    out = [ZERO] * n
    for j, x in r.items():
        out[j] = frac(x)
    return tuple(out)


def dense_key(mono, count: int) -> tuple:
    """The length-`count` exponent tuple of a monomial key."""
    out = [0] * count
    for i, e in mono:
        out[i] = e
    return tuple(out)


def sparse_key(exponents) -> tuple:
    """The monomial key of an exponent tuple: its (index, exponent) pairs
    with a nonzero exponent."""
    return tuple((i, e) for i, e in enumerate(exponents) if e)


def monomials(degrees, n: int) -> list:
    """Every monomial key over generators of these degrees with total degree
    n, odd generators to exponent at most 1, in dense lexicographic order:
    one recursion frame per generator, so only for short degree tuples."""
    found: list = []
    _monomials_into(found, degrees, 0, n, [])
    return found


def _monomials_into(found: list, degrees, i: int, remaining: int, acc: list):
    """Append to `found` each monomial whose pairs below index i are `acc`
    and whose other generators add `remaining` to its degree."""
    if remaining == 0:
        found.append(tuple(acc))
        return
    if i == len(degrees):
        return
    deg = degrees[i]
    max_e = 1 if deg % 2 == 1 else remaining // deg
    for e in range(min(max_e, remaining // deg) + 1):
        _monomials_into(found, degrees, i + 1, remaining - e * deg, acc + [(i, e)] if e else acc)


def apply(m: QMatrix, v) -> tuple:
    if len(v) != m.cols:
        raise ValueError(f"apply: length {len(v)} vs {m.rows}x{m.cols}")
    v = vec(v)
    return tuple(sum((x * v[j] for j, x in enumerate(r) if x), ZERO) for r in m.data)


def solve(a: QMatrix, b):
    """Particular solution of a x = b with zeros in all free coordinates, or None."""
    b = vec(b)
    if len(b) != a.rows:
        raise ValueError(f"solve: rhs length {len(b)} vs {a.rows} rows")
    n = a.cols
    rows = echelon(hstack([a, QMatrix(a.rows, 1, [[x] for x in b])]))
    if n in rows:
        return None
    x = [ZERO] * n
    for c in reversed(rows):
        r = rows[c]
        x[c] = r.get(n, ZERO) - sum([y * x[j] for j, y in r.items() if j != n and x[j]], ZERO)
    return tuple(x)


def kernel_basis(a: QMatrix) -> list:
    """For each free column f of the rref, the vector 1 at f, 0 at the other
    free columns and minus column f at the pivots."""
    r = rref(a)
    basis = []
    for f in r.free_columns():
        v = [ZERO] * a.cols
        v[f] = ONE
        for p, prow in zip(r.pivots, r.reduced.data):
            if prow[f]:
                v[p] = -prow[f]
        basis.append(tuple(v))
    return basis


def reverse_echelon(vectors, n: int) -> dict:
    """The rref of the coordinate-reversed vectors, keyed by each row's last
    nonzero coordinate, youngest key first."""
    if not vectors:
        return {}
    r = rref(QMatrix(len(vectors), n, [v[::-1] for v in vectors]))
    return {n - 1 - p: prow[::-1] for p, prow in zip(r.pivots, r.reduced.data)}


def quotient_basis(sub, ambient_dim: int) -> list:
    for v in sub:
        if len(v) != ambient_dim:
            raise ValueError("quotient_basis: vector length mismatch")
    keys = reverse_echelon(sub, ambient_dim)
    return [unit_vec(ambient_dim, j) for j in range(ambient_dim) if j not in keys]


class DenseSpace:
    """The class data of a `CohomologySpace`, computed on dense tuples from
    its d_out and boundaries: cocycles, reps, class_of and rep_of_class."""

    def __init__(self, space):
        self.ambient_dim = n = space.ambient_dim
        self.cocycles = kernel_basis(space.d_out)
        self.boundaries = [dense(b, n) for b in space.boundaries]
        pivots = set(rref(space.d_out).pivots)
        self.free = [j for j in range(n) if j not in pivots]
        self.keyed = reverse_echelon([tuple(b[f] for f in self.free) for b in self.boundaries],
                                     len(self.free))
        self.positions = [j for j in range(len(self.free)) if j not in self.keyed]
        self.reps = [self.cocycles[j] for j in self.positions]
        self.d_out = space.d_out

    def class_of(self, z):
        """H-coordinates of the cocycle z, or None when z is no cocycle."""
        z = vec(z)
        if not is_zero_vec(apply(self.d_out, z)):
            return None
        c = [z[f] for f in self.free]
        for key, b in self.keyed.items():
            ck = c[key]
            if ck:
                c = [x - ck * y if y else x for x, y in zip(c, b)]
        return tuple(c[j] for j in self.positions)

    def rep_of_class(self, h):
        return lin_comb(h, self.reps, self.ambient_dim)

