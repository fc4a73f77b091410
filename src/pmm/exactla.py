"""Exact linear algebra over Q.

Rationals are `fractions.Fraction` (arbitrary precision, canonical reduced
form, positive denominator).  Matrices are immutable and stored dense, but
the kernels (`@`, `apply`, `rref`) touch only nonzero entries: the matrices
of this engine are mostly zeros.  Every operation is pure and deterministic,
so representative choices made downstream are reproducible bit-for-bit.

`QMatrix(rows, cols, entries)` and `QMatrix.from_columns` coerce each entry
with `frac` and check the shape (`from_columns` transposes with a strict
`zip`, so ragged columns raise).  Two private constructors trust their
entries to be Fractions: `QMatrix._of` takes rows already of the right
shape, and `QMatrix._of_columns` checks the shape as `from_columns` does but
coerces nothing.  `_of_columns` is for the algebra kernel's own columns, the
`to_vector` images of kernel elements (d-matrices, morphism matrices,
homotopy integrals); parsed input and everything else go through
`from_columns`.

`_lower_block(a, b, c)` assembles the block matrix [[a, 0], [b, c]] in one
pass over the rows, with one shared zero tuple; the cone d-matrices and cone
maps of `pmm.homotopy` and `block_diag` are made by it.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence

Vector = tuple[Fraction, ...]

ZERO = Fraction(0)
ONE = Fraction(1)


def frac(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


def vec(entries: Iterable) -> Vector:
    return tuple(frac(x) for x in entries)


def zero_vec(n: int) -> Vector:
    return (ZERO,) * n


def unit_vec(n: int, i: int) -> Vector:
    return tuple(ONE if j == i else ZERO for j in range(n))


def vec_add(u: Vector, v: Vector) -> Vector:
    return tuple(a + b for a, b in zip(u, v, strict=True))


def vec_scale(c: Fraction, u: Vector) -> Vector:
    return tuple(c * a for a in u)


def is_zero_vec(u: Vector) -> bool:
    return all(a == 0 for a in u)


def lin_comb(coeffs: Iterable, vectors: Iterable[Vector], dim: int) -> Vector:
    """sum c_i v_i, a vector of length dim (the zero vector when empty).

    Accumulates only the nonzero products c_i x into one list.
    """
    acc = [ZERO] * dim
    for c, v in zip(coeffs, vectors, strict=True):
        if c:
            if len(v) != dim:
                raise ValueError(f"lin_comb: vector of length {len(v)}, want {dim}")
            for i, x in enumerate(v):
                if x:
                    acc[i] += c * x
    return tuple(acc)


class QMatrix:
    """Immutable dense matrix of Fractions with fixed shape."""

    __slots__ = ("rows", "cols", "data")

    def __init__(self, rows: int, cols: int, entries: Iterable[Iterable] = ()):
        data = tuple(tuple(map(frac, row)) for row in entries)
        if len(data) != rows or any(len(r) != cols for r in data):
            if not data and rows:
                data = tuple((ZERO,) * cols for _ in range(rows))
            else:
                raise ValueError(
                    f"shape mismatch: want {rows}x{cols}, got "
                    f"{len(data)} rows of lengths {sorted({len(r) for r in data})}"
                )
        self.rows, self.cols, self.data = rows, cols, data

    @classmethod
    def _of(cls, rows: int, cols: int, data: tuple) -> "QMatrix":
        """A matrix whose rows are already tuples of Fractions of the right shape."""
        m = object.__new__(cls)
        m.rows, m.cols, m.data = rows, cols, data
        return m

    @classmethod
    def from_rows(cls, entries: Sequence[Sequence]) -> "QMatrix":
        rows = len(entries)
        if rows == 0:
            raise ValueError("from_rows needs at least one row; use QMatrix(0, c)")
        return cls(rows, len(entries[0]), entries)

    @classmethod
    def from_columns(cls, columns: Sequence[Vector], rows: int) -> "QMatrix":
        """The matrix with these columns, each of length `rows`."""
        return cls(rows, len(columns), _transpose(columns, rows))

    @classmethod
    def _of_columns(cls, columns: Sequence[Vector], rows: int) -> "QMatrix":
        """`from_columns` without coercion: every entry must already be a
        Fraction.  Kernel use only (the `to_vector` images of kernel elements)."""
        return cls._of(rows, len(columns), _transpose(columns, rows))

    @classmethod
    def identity(cls, n: int) -> "QMatrix":
        return cls(n, n, [[ONE if i == j else ZERO for j in range(n)] for i in range(n)])

    @classmethod
    def zero(cls, rows: int, cols: int) -> "QMatrix":
        return cls._of(rows, cols, ((ZERO,) * cols,) * rows)

    def entry(self, i: int, j: int) -> Fraction:
        return self.data[i][j]

    def column(self, j: int) -> Vector:
        return tuple(r[j] for r in self.data)

    def columns(self) -> list[Vector]:
        return [self.column(j) for j in range(self.cols)]

    def apply(self, v: Sequence) -> Vector:
        v = vec(v)
        if len(v) != self.cols:
            raise ValueError(f"apply: length {len(v)} vs {self.rows}x{self.cols}")
        nz = [(j, x) for j, x in enumerate(v) if x]
        return tuple(sum((r[j] * x for j, x in nz if r[j]), ZERO) for r in self.data)

    def __matmul__(self, other: "QMatrix") -> "QMatrix":
        if self.cols != other.rows:
            raise ValueError(f"matmul: {self.rows}x{self.cols} @ {other.rows}x{other.cols}")
        nz = [[(j, x) for j, x in enumerate(r) if x] for r in other.data]
        out = []
        for r in self.data:
            acc = [ZERO] * other.cols
            for a, pairs in zip(r, nz):
                if a:
                    for j, x in pairs:
                        acc[j] += a * x
            out.append(tuple(acc))
        return QMatrix._of(self.rows, other.cols, tuple(out))

    def scale(self, c) -> "QMatrix":
        c = frac(c)
        return QMatrix._of(self.rows, self.cols,
                           tuple(tuple(c * x if x else x for x in r) for r in self.data))

    def add(self, other: "QMatrix") -> "QMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("add: shape mismatch")
        return QMatrix(self.rows, self.cols,
                       [[a + b for a, b in zip(r, s)] for r, s in zip(self.data, other.data)])

    def is_zero(self) -> bool:
        return all(x == 0 for r in self.data for x in r)

    def __eq__(self, other) -> bool:
        return (isinstance(other, QMatrix)
                and self.rows == other.rows and self.cols == other.cols
                and self.data == other.data)

    def __hash__(self):
        return hash((self.rows, self.cols, self.data))

    def __repr__(self):
        return f"QMatrix({self.rows}x{self.cols}, {[list(r) for r in self.data]})"


def _transpose(columns: Sequence[Vector], rows: int) -> tuple:
    """The rows of the matrix with these columns, each of length `rows`;
    ragged columns raise (a strict `zip`)."""
    if not columns:
        return ((),) * rows
    if len(columns[0]) != rows:
        raise ValueError(f"from_columns: column of length {len(columns[0])}, want {rows}")
    return tuple(zip(*columns, strict=True))


def _lower_block(a: QMatrix, b: QMatrix, c: QMatrix, negate_c: bool = False) -> QMatrix:
    """[[a, 0], [b, c]] (or [[a, 0], [b, -c]]), each row written once: a's rows
    padded with one shared zero tuple, then b's rows joined with c's."""
    if b.cols != a.cols or b.rows != c.rows:
        raise ValueError(f"block shapes: a {a.rows}x{a.cols}, b {b.rows}x{b.cols}, "
                         f"c {c.rows}x{c.cols}")
    pad = (ZERO,) * c.cols
    top = [r + pad for r in a.data]
    if negate_c:
        bottom = [r + tuple(-x if x else x for x in s)
                  for r, s in zip(b.data, c.data, strict=True)]
    else:
        bottom = [r + s for r, s in zip(b.data, c.data, strict=True)]
    return QMatrix._of(a.rows + b.rows, a.cols + c.cols, tuple(top + bottom))


def hstack(mats: Sequence[QMatrix]) -> QMatrix:
    rows = mats[0].rows
    if any(m.rows != rows for m in mats):
        raise ValueError("hstack: row mismatch")
    return QMatrix._of(rows, sum(m.cols for m in mats),
                       tuple(sum((m.data[i] for m in mats), ()) for i in range(rows)))


def block_diag(a: QMatrix, b: QMatrix) -> QMatrix:
    """[[a, 0], [0, b]]."""
    return _lower_block(a, QMatrix.zero(b.rows, a.cols), b)


def vstack(mats: Sequence[QMatrix]) -> QMatrix:
    cols = mats[0].cols
    if any(m.cols != cols for m in mats):
        raise ValueError("vstack: column mismatch")
    return QMatrix._of(sum(m.rows for m in mats), cols,
                       tuple(r for m in mats for r in m.data))


@dataclass(frozen=True)
class RrefResult:
    reduced: QMatrix
    pivots: tuple[int, ...]
    rank: int

    def free_columns(self) -> list[int]:
        pivots = set(self.pivots)
        return [j for j in range(self.reduced.cols) if j not in pivots]

    def kernel_basis(self) -> list[Vector]:
        """Kernel basis: for each free column f in order, the vector that is 1
        at f, 0 at the other free columns and minus column f at the pivots."""
        basis = []
        for f in self.free_columns():
            v = [ZERO] * self.reduced.cols
            v[f] = ONE
            for i, p in enumerate(self.pivots):
                v[p] = -self.reduced.data[i][f]
            basis.append(tuple(v))
        return basis


def rref(m: QMatrix) -> RrefResult:
    """Unique reduced row echelon form.

    Pivot search scans columns left to right, rows top to bottom; pivots are
    normalized to 1 and cleared above and below.  Left of its pivot column
    the pivot row is zero, so each elimination touches only the pivot row's
    nonzero columns.
    """
    a = [list(r) for r in m.data]
    pivots: list[int] = []
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
    return RrefResult(QMatrix._of(m.rows, m.cols, tuple(map(tuple, a))),
                      tuple(pivots), len(pivots))


def rank(m: QMatrix) -> int:
    return rref(m).rank


def solve(a: QMatrix, b: Sequence) -> Optional[Vector]:
    """Particular solution of a x = b with zeros in all free coordinates.

    Returns None when the system is inconsistent.
    """
    b = vec(b)
    if len(b) != a.rows:
        raise ValueError(f"solve: rhs length {len(b)} vs {a.rows} rows")
    aug = hstack([a, QMatrix.from_columns([b], a.rows)]) if a.rows else QMatrix(0, a.cols + 1)
    r = rref(aug)
    if a.cols in r.pivots:
        return None
    x = [ZERO] * a.cols
    for i, p in enumerate(r.pivots):
        x[p] = r.reduced.entry(i, a.cols)
    return tuple(x)


def kernel_basis(a: QMatrix) -> list[Vector]:
    """Basis of ker(a), one vector per free column of the rref, in column order."""
    return rref(a).kernel_basis()


def reverse_echelon(vectors: Sequence[Vector], n: int) -> dict[int, Vector]:
    """A basis of span(vectors) keyed by each basis vector's last nonzero
    coordinate, youngest key first: the rref of the coordinate-reversed
    rows, so each is 1 at its key and 0 at the other keys.  The elder rule,
    complements and class coordinates all read this one echelon."""
    if not vectors:
        return {}
    r = rref(QMatrix(len(vectors), n, [v[::-1] for v in vectors]))
    return {n - 1 - p: row[::-1] for p, row in zip(r.pivots, r.reduced.data)}


def quotient_basis(sub: Sequence[Vector], ambient_dim: int) -> list[Vector]:
    """Standard basis vectors completing span(sub) to the ambient space: the
    lexicographically-first e_j not already in the span, which are the e_j
    whose j is no key of `reverse_echelon(sub)` (no vector of span(sub) ends
    at coordinate j)."""
    for v in sub:
        if len(v) != ambient_dim:
            raise ValueError("quotient_basis: vector length mismatch")
    keys = reverse_echelon(sub, ambient_dim)
    return [unit_vec(ambient_dim, j) for j in range(ambient_dim) if j not in keys]


def express_in_basis(basis: Sequence[Vector], target: Sequence, dim: int) -> Optional[Vector]:
    """Coordinates of target in span(basis), or None if outside the span."""
    m = QMatrix.from_columns(list(basis), dim)
    return solve(m, target)


def invert(m: QMatrix) -> QMatrix:
    if m.rows != m.cols:
        raise ValueError("invert: not square")
    n = m.rows
    if n == 0:
        return QMatrix(0, 0)
    r = rref(hstack([m, QMatrix.identity(n)]))
    if r.rank < n:
        raise ValueError("invert: singular matrix")
    return QMatrix(n, n, [row[n:] for row in r.reduced.data])


@dataclass(frozen=True)
class AdaptedSplit:
    """Bases adapted to Coim + Ker -> Im + Coker for a fixed map psi.

    In the new bases psi becomes the block matrix [[I, 0], [0, 0]]:
    coimage vectors map bijectively onto the image vectors, kernel vectors
    map to zero, and cokernel vectors complete the image in the codomain.
    """
    coimage: tuple[Vector, ...]
    kernel: tuple[Vector, ...]
    image: tuple[Vector, ...]
    cokernel: tuple[Vector, ...]
    domain_change: QMatrix        # columns: coimage ++ kernel
    codomain_change: QMatrix      # columns: image ++ cokernel
    codomain_change_inv: QMatrix

    @property
    def rank(self) -> int:
        return len(self.coimage)


def adapted_split(psi: QMatrix) -> AdaptedSplit:
    r = rref(psi)
    coim = [unit_vec(psi.cols, p) for p in r.pivots]
    ker = r.kernel_basis()
    img = [psi.column(p) for p in r.pivots]
    coker = quotient_basis(img, psi.rows)
    dom = QMatrix.from_columns(coim + ker, psi.cols)
    cod = QMatrix.from_columns(img + coker, psi.rows)
    return AdaptedSplit(
        coimage=tuple(coim), kernel=tuple(ker),
        image=tuple(img), cokernel=tuple(coker),
        domain_change=dom,
        codomain_change=cod, codomain_change_inv=invert(cod),
    )
