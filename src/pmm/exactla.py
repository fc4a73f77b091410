"""Exact linear algebra over Q.

Rationals are `fractions.Fraction` (arbitrary precision, canonical reduced
form, positive denominator).  Matrices are immutable and stored as sparse
rows, and a vector is a `Row`, the dict {coordinate: Fraction} of its
nonzero entries: no kernel stores, tests or copies a zero.  `apply`,
`solve`, `column`, `kernel_basis`, `reverse_echelon`, `quotient_basis` and
`adapted_split` take and return Rows.  `.data` is the one dense view,
computed on each read and never kept.  Every operation is pure and
deterministic, so representative choices made downstream are reproducible
bit-for-bit.

One eliminator serves every reduction.  `echelon` is the forward echelon
keyed by pivot column: its keys are the matrix's pivot columns (an
invariant) and its rows a basis of the row space, which is all that ranks,
pivots and membership tests need.  It reduces on primitive integer rows
(each row scaled by the lcm of its denominators, reduced by b·r − a·p and
divided by the gcd of its entries), and only the rows it returns are
Fractions, 1 at their pivot: the same rows, up to scale at every step, as
elimination over Fractions.  `back_substitute` turns it into the unique
RREF where one is read (`rref`, and through it `kernel_basis` and
`reverse_echelon`); `solve` back-substitutes its right-hand column alone.

`QMatrix(rows, cols, entries)` coerces each dense entry with `frac` and
checks the shape; `from_columns` coerces each Row's entries and checks that
every key lies below `rows`.  The private constructors trust their entries
to be nonzero Fractions: `_of` takes sparse rows and `_of_sparse_columns`
columns {row: Fraction}, unchecked.  The algebra kernel calls
`_of_sparse_columns` with the `to_sparse` images of its own elements
(d-matrices, morphism matrices, homotopy integrals, the integration
identity's g - f) and the unit columns of a selection matrix.
`_lower_block(a, b, c)` assembles [[a, 0], [b, c]] for the cone matrices
and `block_diag`.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from math import gcd, lcm
from typing import Iterable, Optional, Sequence

Row = dict[int, Fraction]

ZERO = Fraction(0)
ONE = Fraction(1)


def frac(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


def dense_vec(entries: Row, n: int) -> tuple[Fraction, ...]:
    """The length-n tuple with these {position: value} entries, 0 elsewhere."""
    out = [ZERO] * n
    for j, x in entries.items():
        out[j] = x
    return tuple(out)


def check_keys(v: Row, n: int, what: str) -> None:
    """Refuse a Row with a coordinate outside 0..n-1."""
    if v and (min(v) < 0 or max(v) >= n):
        raise ValueError(f"{what}: coordinate {min(v) if min(v) < 0 else max(v)} "
                         f"outside 0..{n - 1}")


def combine(terms: Iterable[tuple[Fraction, Row]]) -> Row:
    """sum c·v over the (c, v) pairs, keeping only nonzero entries."""
    acc: Row = {}
    for c, v in terms:
        if c:
            _axpy(acc, c, v)
    return acc


def split_row(v: Row, at: int) -> tuple[Row, Row]:
    """(the coordinates below `at`, the rest shifted down by `at`)."""
    return ({j: x for j, x in v.items() if j < at},
            {j - at: x for j, x in v.items() if j >= at})


def _axpy(r: Row, c: Fraction, s: Row) -> None:
    """r += c·s in place, c nonzero, keeping only nonzero entries."""
    for j, y in s.items():
        v = r[j] + c * y if j in r else c * y
        if v:
            r[j] = v
        else:
            del r[j]


class QMatrix:
    """Immutable matrix of Fractions with fixed shape, stored as sparse rows."""

    __slots__ = ("rows", "cols", "_rows")

    def __init__(self, rows: int, cols: int, entries: Iterable[Iterable] = ()):
        data = tuple(tuple(map(frac, row)) for row in entries)
        if len(data) != rows or any(len(r) != cols for r in data):
            if not data and rows:
                data = ((),) * rows
            else:
                raise ValueError(
                    f"shape mismatch: want {rows}x{cols}, got "
                    f"{len(data)} rows of lengths {sorted({len(r) for r in data})}"
                )
        self.rows, self.cols = rows, cols
        self._rows = tuple({j: x for j, x in enumerate(r) if x} for r in data)

    @classmethod
    def _of(cls, rows: int, cols: int, sparse_rows: tuple) -> "QMatrix":
        """A matrix with these rows, each a {column: Fraction} of nonzero
        entries; the rows are shared, never copied, so no one may change them."""
        m = object.__new__(cls)
        m.rows, m.cols, m._rows = rows, cols, sparse_rows
        return m

    @classmethod
    def from_rows(cls, entries: Sequence[Sequence]) -> "QMatrix":
        rows = len(entries)
        if rows == 0:
            raise ValueError("from_rows needs at least one row; use QMatrix(0, c)")
        return cls(rows, len(entries[0]), entries)

    @classmethod
    def from_columns(cls, columns: Sequence[Row], rows: int) -> "QMatrix":
        """The matrix with these columns, each a Row with keys below `rows`."""
        out = []
        for c in columns:
            check_keys(c, rows, "from_columns")
            out.append({i: frac(x) for i, x in c.items() if x})
        return cls._of_sparse_columns(out, rows)

    @classmethod
    def _of_sparse_columns(cls, columns: Sequence[Row], rows: int) -> "QMatrix":
        """The matrix whose column j has the entries {row: Fraction} of
        columns[j], all nonzero and below `rows`.  Kernel use only."""
        if not rows:
            return cls._of(0, len(columns), ())
        out = tuple({} for _ in range(rows))
        for j, col in enumerate(columns):
            for i, x in col.items():
                out[i][j] = x
        return cls._of(rows, len(columns), out)

    @classmethod
    def identity(cls, n: int) -> "QMatrix":
        return cls._of(n, n, tuple({i: ONE} for i in range(n)))

    @classmethod
    def zero(cls, rows: int, cols: int) -> "QMatrix":
        return cls._of(rows, cols, tuple({} for _ in range(rows)))

    @property
    def data(self) -> tuple[tuple[Fraction, ...], ...]:
        """The rows as dense tuples, computed on each read."""
        return tuple(dense_vec(r, self.cols) for r in self._rows)

    def nonzeros(self) -> int:
        return sum(map(len, self._rows))

    def entry(self, i: int, j: int) -> Fraction:
        return self._rows[i].get(j, ZERO)

    def column(self, j: int) -> Row:
        return {i: r[j] for i, r in enumerate(self._rows) if j in r}

    def columns(self) -> list[Row]:
        return [self.column(j) for j in range(self.cols)]

    def apply(self, v: Row) -> Row:
        """The product with the column vector v."""
        check_keys(v, self.cols, f"apply to {self.rows}x{self.cols}")
        out = {}
        if v:
            for i, r in enumerate(self._rows):
                s = sum([x * v[j] for j, x in r.items() if j in v], ZERO)
                if s:
                    out[i] = s
        return out

    def __matmul__(self, other: "QMatrix") -> "QMatrix":
        if self.cols != other.rows:
            raise ValueError(f"matmul: {self.rows}x{self.cols} @ {other.rows}x{other.cols}")
        out = tuple({} for _ in self._rows)
        if not (self.cols and other.cols):
            return QMatrix._of(self.rows, other.cols, out)
        for acc, r in zip(out, self._rows):
            for k, a in r.items():
                _axpy(acc, a, other._rows[k])
        return QMatrix._of(self.rows, other.cols, out)

    def scale(self, c) -> "QMatrix":
        c = frac(c)
        return QMatrix._of(self.rows, self.cols,
                           tuple({j: c * x for j, x in r.items()} if c else {} for r in self._rows))

    def add(self, other: "QMatrix") -> "QMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("add: shape mismatch")
        out = tuple(map(dict, self._rows))
        for r, s in zip(out, other._rows):
            _axpy(r, ONE, s)
        return QMatrix._of(self.rows, self.cols, out)

    def is_zero(self) -> bool:
        return not any(self._rows)

    def __eq__(self, other) -> bool:
        return (isinstance(other, QMatrix)
                and self.rows == other.rows and self.cols == other.cols
                and self._rows == other._rows)

    def __hash__(self):
        return hash((self.rows, self.cols, tuple(frozenset(r.items()) for r in self._rows)))

    def __repr__(self):
        return f"QMatrix({self.rows}x{self.cols}, {[list(r) for r in self.data]})"


def _lower_block(a: QMatrix, b: QMatrix, c: QMatrix, negate_c: bool = False) -> QMatrix:
    """[[a, 0], [b, c]] (or [[a, 0], [b, -c]]): a's rows, then b's rows joined
    with c's; a row is shared, not copied, where nothing joins it."""
    if b.cols != a.cols or b.rows != c.rows:
        raise ValueError(f"block shapes: a {a.rows}x{a.cols}, b {b.rows}x{b.cols}, "
                         f"c {c.rows}x{c.cols}")
    s = a.cols
    bottom = tuple({**rb, **{s + j: -x if negate_c else x for j, x in rc.items()}} if rc else rb
                   for rb, rc in zip(b._rows, c._rows))
    return QMatrix._of(a.rows + b.rows, a.cols + c.cols, a._rows + bottom)


def hstack(mats: Sequence[QMatrix]) -> QMatrix:
    rows = mats[0].rows
    if any(m.rows != rows for m in mats):
        raise ValueError("hstack: row mismatch")
    shifts = list(accumulate((m.cols for m in mats), initial=0))
    return QMatrix._of(rows, shifts[-1], tuple(
        {s + j: x for m, s in zip(mats, shifts) for j, x in m._rows[i].items()}
        for i in range(rows)))


def block_diag(a: QMatrix, b: QMatrix) -> QMatrix:
    """[[a, 0], [0, b]]."""
    return _lower_block(a, QMatrix.zero(b.rows, a.cols), b)


def vstack(mats: Sequence[QMatrix]) -> QMatrix:
    cols = mats[0].cols
    if any(m.cols != cols for m in mats):
        raise ValueError("vstack: column mismatch")
    return QMatrix._of(sum(m.rows for m in mats), cols,
                       tuple(r for m in mats for r in m._rows))


def _primitive(r: Row) -> dict[int, int]:
    """The row of integers with gcd 1 that is a positive multiple of r."""
    den = lcm(*[x.denominator for x in r.values()])
    r = {j: x.numerator * (den // x.denominator) for j, x in r.items()}
    g = gcd(*r.values())
    return r if g == 1 else {j: x // g for j, x in r.items()}


def echelon(m: QMatrix) -> dict[int, Row]:
    """Forward echelon of m: pivot column -> row, by pivot column, each row 1
    at its pivot column and 0 left of it.  Each row of m is reduced by the
    pivot row at its leading column until it is zero or leads at a new one.

    The reduction runs on primitive integer rows: each row of m is scaled by
    the lcm of its denominators and divided by the gcd of its entries; a row
    leading at c with entry a, reduced by the pivot row p with entry b there,
    becomes b·r − a·p (a, b divided by their gcd), then is divided by the gcd
    of its entries.  Each such row is proportional to the one Fraction
    elimination gives, so the pivots and the normalized rows are the same.
    The kept rows become Fractions, 1 at their pivot, at the end."""
    piv: dict[int, dict[int, int]] = {}
    for r in m._rows:
        if not r:
            continue
        r = _primitive(r)
        c = min(r)
        while r:
            p = piv.get(c)
            if p is None:
                piv[c] = r
                break
            a, b = r[c], p[c]
            g = gcd(a, b)
            a, b = a // g, b // g
            if b != 1:
                r = {j: b * x for j, x in r.items()}
            for j, y in p.items():
                v = r[j] - a * y if j in r else -a * y
                if v:
                    r[j] = v
                else:
                    del r[j]
            if r:
                g = gcd(*r.values())
                if g != 1:
                    r = {j: x // g for j, x in r.items()}
                c = min(r)
    out: dict[int, Row] = {}
    for c in sorted(piv):
        r = piv[c]
        x = r[c]
        out[c] = {j: Fraction(y, x) for j, y in r.items()}
    return out


def back_substitute(rows: dict[int, Row]) -> dict[int, Row]:
    """The RREF rows of a forward echelon, by pivot column: each row cleared
    at the later pivot columns by their rows, already reduced."""
    done: dict[int, Row] = {}
    for c in reversed(rows):
        r = rows[c]
        hits = [(j, x) for j, x in r.items() if j in done]
        if hits:
            r = dict(r)
            for j, x in hits:
                _axpy(r, -x, done[j])
        done[c] = r
    return dict(reversed(done.items()))


@dataclass(frozen=True)
class RrefResult:
    reduced: QMatrix
    pivots: tuple[int, ...]
    rank: int

    def free_columns(self) -> list[int]:
        pivots = set(self.pivots)
        return [j for j in range(self.reduced.cols) if j not in pivots]

    def kernel_basis(self) -> list[Row]:
        return kernel_of(dict(zip(self.pivots, self.reduced._rows)), self.reduced.cols)


def kernel_of(rows: dict[int, Row], n: int) -> list[Row]:
    """Kernel basis of the RREF rows {pivot: row} on n columns: for each free
    column f in order, the vector that is 1 at f, 0 at the other free columns
    and minus column f at the pivots."""
    at: dict[int, Row] = {}
    for p, row in rows.items():
        for f, x in row.items():
            if f != p:
                at.setdefault(f, {})[p] = -x
    return [{**at.get(f, {}), f: ONE} for f in range(n) if f not in rows]


def rref(m: QMatrix) -> RrefResult:
    """Unique reduced row echelon form: the forward echelon, back-substituted,
    pivots normalized to 1, then the zero rows."""
    rows = back_substitute(echelon(m))
    reduced = tuple(rows.values()) + tuple({} for _ in range(m.rows - len(rows)))
    return RrefResult(QMatrix._of(m.rows, m.cols, reduced), tuple(rows), len(rows))


def rank(m: QMatrix) -> int:
    return len(echelon(m))


def solve(a: QMatrix, b: Row) -> Optional[Row]:
    """Particular solution of a x = b with zeros in all free coordinates: the
    forward echelon of [a | b], back-substituted in b's column alone; x = 0
    when b = 0, with no elimination.

    Returns None when the system is inconsistent.
    """
    check_keys(b, a.rows, "solve: rhs")
    if not b:
        return {}
    n = a.cols
    rows = echelon(hstack([a, QMatrix.from_columns([b], a.rows)]))
    if n in rows:
        return None
    x: Row = {}
    for c in reversed(rows):
        r = rows[c]
        v = r.get(n, ZERO) - sum([y * x[j] for j, y in r.items() if j in x], ZERO)
        if v:
            x[c] = v
    return dict(reversed(x.items()))


def kernel_basis(a: QMatrix) -> list[Row]:
    """Basis of ker(a), one vector per free column of the rref, in column order."""
    return rref(a).kernel_basis()


def reverse_echelon(vectors: Sequence[Row], n: int) -> dict[int, Row]:
    """A basis of span(vectors) keyed by each basis vector's last nonzero
    coordinate, youngest key first: the rref of the coordinate-reversed
    rows, so each is 1 at its key and 0 at the other keys.  The elder rule,
    complements and class coordinates all read this one echelon."""
    if not vectors:
        return {}
    for v in vectors:
        check_keys(v, n, "reverse_echelon")
    r = rref(QMatrix._of(len(vectors), n,
                         tuple({n - 1 - j: frac(x) for j, x in v.items() if x} for v in vectors)))
    return {n - 1 - p: {n - 1 - j: x for j, x in row.items()}
            for p, row in zip(r.pivots, r.reduced._rows)}


def quotient_basis(sub: Sequence[Row], ambient_dim: int) -> list[Row]:
    """Standard basis vectors completing span(sub) to the ambient space: the
    lexicographically-first e_j not already in the span, which are the e_j
    whose j is no key of `reverse_echelon(sub)` (no vector of span(sub) ends
    at coordinate j)."""
    for v in sub:
        check_keys(v, ambient_dim, "quotient_basis")
    keys = reverse_echelon(sub, ambient_dim)
    return [{j: ONE} for j in range(ambient_dim) if j not in keys]


@dataclass(frozen=True)
class AdaptedSplit:
    """Bases adapted to Coim + Ker -> Im + Coker for a fixed map psi.

    In the new bases psi becomes the block matrix [[I, 0], [0, 0]]:
    coimage vectors map bijectively onto the image vectors, kernel vectors
    map to zero, and cokernel vectors complete the image in the codomain.
    """
    coimage: tuple[Row, ...]
    kernel: tuple[Row, ...]
    image: tuple[Row, ...]
    cokernel: tuple[Row, ...]
    domain_change: QMatrix        # columns: coimage ++ kernel
    codomain_change: QMatrix      # columns: image ++ cokernel

    @property
    def rank(self) -> int:
        return len(self.coimage)


def adapted_split(psi: QMatrix) -> AdaptedSplit:
    r = rref(psi)
    coim = [{p: ONE} for p in r.pivots]
    ker = r.kernel_basis()
    img = [psi.column(p) for p in r.pivots]
    coker = quotient_basis(img, psi.rows)
    dom = QMatrix.from_columns(coim + ker, psi.cols)
    cod = QMatrix.from_columns(img + coker, psi.rows)
    return AdaptedSplit(coimage=tuple(coim), kernel=tuple(ker), image=tuple(img),
                        cokernel=tuple(coker), domain_change=dom, codomain_change=cod)
