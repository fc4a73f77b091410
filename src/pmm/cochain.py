"""Cohomology of one degree slice of a cochain complex given by matrices.

Used by CDGAs, mapping cones, and persistent complexes alike so that the
choice of representatives is made by one deterministic rule everywhere:
cocycles come from kernel_basis, boundaries from pivot columns, and class
representatives from quotient_basis in cocycle coordinates.

`compute_cohomology` does only what the dimension needs: one reduction of
d_out, the boundaries (pivot columns of d_in), and the check d_out·b = 0 for
each boundary b against the nonzero rows of d_out's echelon form.  The
boundaries are independent and lie in Z, so dim H = cols − rank − #B.  The
space keeps those echelon rows, d_out's pivots and d_out itself; the
cocycles, the class representatives and class_of's solver are computed from
them on first read.  Connectivity checks read only `dim`.  The next degree
up, whose d_in is this d_out, reads its boundaries off the kept pivots
instead of reducing that matrix again.
"""
from __future__ import annotations

from functools import cached_property
from typing import Optional, Sequence

from .errors import InternalError
from .exactla import (
    QMatrix, RrefResult, Vector, hstack, is_zero_vec, lin_comb, quotient_basis, rref,
)


class CohomologySpace:
    """ker(d_out)/im(d_in) for one degree.

    `dim`, `boundaries` (a basis of B, ambient coordinates) and `pivots` (of
    d_out) are known at construction.  `cocycles` (a basis of Z) and `reps`
    (class representatives), both in ambient coordinates, are computed on
    first read.  Two spaces are equal when their ambient dimensions,
    cocycles, boundaries and reps are.
    """

    def __init__(self, d_out: QMatrix, echelon: tuple[Vector, ...], pivots: tuple[int, ...],
                 boundaries: list[Vector]):
        """`echelon` holds the first len(pivots) rows of rref(d_out)."""
        self.d_out = d_out
        self.pivots = pivots
        self.boundaries = boundaries
        self._echelon = echelon

    @property
    def ambient_dim(self) -> int:
        return self.d_out.cols

    @property
    def dim(self) -> int:
        return self.d_out.cols - len(self.pivots) - len(self.boundaries)

    def __eq__(self, other):
        if not isinstance(other, CohomologySpace):
            return NotImplemented
        return ((self.ambient_dim, self.cocycles, self.boundaries, self.reps)
                == (other.ambient_dim, other.cocycles, other.boundaries, other.reps))

    __hash__ = None

    def __repr__(self):
        return f"CohomologySpace(ambient_dim={self.ambient_dim}, dim={self.dim})"

    def _rref(self) -> RrefResult:
        """d_out's reduction without its zero rows, rebuilt from the kept rows."""
        rank = len(self.pivots)
        return RrefResult(QMatrix._of(rank, self.ambient_dim, self._echelon), self.pivots, rank)

    @cached_property
    def cocycles(self) -> list[Vector]:
        return self._rref().kernel_basis()

    @cached_property
    def reps(self) -> list[Vector]:
        # cocycles[i] is 1 at free[i] and 0 at the other free columns, so a
        # boundary's Z-coordinates are its entries there.
        z, free = self.cocycles, self._rref().free_columns()
        b_in_z = [tuple(vb[f] for f in free) for vb in self.boundaries]
        return [lin_comb(unit, z, self.ambient_dim) for unit in quotient_basis(b_in_z, len(z))]

    @cached_property
    def _solver(self) -> tuple[QMatrix, QMatrix]:
        """[reps | boundaries | I] reduced to [[I; 0] | E]: reps ++ boundaries
        is a basis of Z, so E·z holds z's unique coordinates above and
        vanishes below exactly when z is in Z."""
        n, h = self.ambient_dim, len(self.reps)
        p = h + len(self.boundaries)
        basis = QMatrix.from_columns(self.reps + self.boundaries, n)
        e = [row[p:] for row in rref(hstack([basis, QMatrix.identity(n)])).reduced.data]
        return QMatrix(h, n, e[:h]), QMatrix(n - p, n, e[p:])

    def class_of(self, z: Sequence) -> Vector:
        """H-coordinates of a cocycle z; raises if z is not a cocycle.  The
        solver is one reduction, made on the first call."""
        if self.ambient_dim == 0:
            if any(x != 0 for x in z):
                raise InternalError("class_of: nonzero vector in zero space")
            return ()
        coords, consistency = self._solver
        if not is_zero_vec(consistency.apply(z)):
            raise InternalError("class_of: vector is not a cocycle")
        return coords.apply(z)

    def rep_of_class(self, h: Sequence) -> Vector:
        """Ambient cocycle representing the class with H-coordinates h."""
        return lin_comb(h, self.reps, self.ambient_dim)


def induced_map(f: QMatrix, src: CohomologySpace, dst: CohomologySpace) -> QMatrix:
    """H(f): src -> dst in class coordinates; column j is the class of f(src.reps[j])."""
    return QMatrix.from_columns([dst.class_of(f.apply(rep)) for rep in src.reps], dst.dim)


def compute_cohomology(d_out: QMatrix, d_in: Optional[QMatrix],
                       below: Optional[CohomologySpace] = None) -> CohomologySpace:
    """H = ker(d_out)/im(d_in).  B is spanned by the pivot columns of d_in,
    read from `below` (the space whose d_out was d_in) when given; a `below`
    that reduced another matrix is refused, since those pivots would not be
    d_in's."""
    if below is not None and below.d_out is not d_in and below.d_out != d_in:
        raise InternalError("compute_cohomology: below's d_out is not this d_in")
    r = rref(d_out)
    echelon = QMatrix._of(r.rank, d_out.cols, r.reduced.data[:r.rank])
    b = []
    if d_in is not None:
        pivots = below.pivots if below is not None else rref(d_in).pivots
        b = [d_in.column(p) for p in pivots]
    if b and not (echelon @ QMatrix._of_columns(b, d_out.cols)).is_zero():
        raise InternalError("boundary is not a cocycle: d*d != 0 upstream")
    return CohomologySpace(d_out, echelon.data, r.pivots, b)
