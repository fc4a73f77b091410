"""Cohomology of one degree slice of a cochain complex given by matrices.

Used by CDGAs, mapping cones, and persistent complexes alike so that the
choice of representatives is made by one deterministic rule everywhere:
cocycles come from kernel_basis, boundaries from pivot columns, and class
representatives from quotient_basis in cocycle coordinates.  Each space keeps
the pivot columns of its d_out, so the next degree up, whose d_in is the same
matrix, reads its boundaries off them instead of reducing that matrix again.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from .errors import InternalError
from .exactla import (
    QMatrix, Vector, hstack, is_zero_vec, lin_comb, quotient_basis, rref,
)


@dataclass
class CohomologySpace:
    """ker(d_out)/im(d_in) for one degree, with frozen representative data."""

    ambient_dim: int
    cocycles: list[Vector]          # basis of Z, ambient coordinates
    boundaries: list[Vector]        # basis of B, ambient coordinates
    reps: list[Vector]              # class representatives, ambient coordinates
    pivots: tuple[int, ...] = field(default=(), repr=False, compare=False)  # of d_out
    _solver: Optional[tuple[QMatrix, QMatrix]] = field(
        default=None, init=False, repr=False, compare=False)

    @property
    def dim(self) -> int:
        return len(self.reps)

    def class_of(self, z: Sequence) -> Vector:
        """H-coordinates of a cocycle z; raises if z is not a cocycle.

        The first call reduces [reps | boundaries | I] to [[I; 0] | E], once
        per space: reps ++ boundaries is a basis of Z.  E·z then holds z's
        unique coordinates above and vanishes below exactly when z is in Z.
        """
        if self.ambient_dim == 0:
            if any(x != 0 for x in z):
                raise InternalError("class_of: nonzero vector in zero space")
            return ()
        if self._solver is None:
            n, h = self.ambient_dim, len(self.reps)
            p = h + len(self.boundaries)
            basis = QMatrix.from_columns(self.reps + self.boundaries, n)
            e = [row[p:] for row in rref(hstack([basis, QMatrix.identity(n)])).reduced.data]
            self._solver = QMatrix(h, n, e[:h]), QMatrix(n - p, n, e[p:])
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
    read from `below` (the space whose d_out was d_in) when given."""
    r = rref(d_out)
    z, free = r.kernel_basis(), r.free_columns()
    b = []
    if d_in is not None:
        pivots = below.pivots if below is not None else rref(d_in).pivots
        b = [d_in.column(p) for p in pivots]
    dim = d_out.cols
    b_in_z = []
    for vb in b:
        # z[i] is 1 at free[i] and 0 at the other free columns, so vb's only
        # candidate Z-coordinates are its entries there.
        coords = tuple(vb[f] for f in free)
        if lin_comb(coords, z, dim) != vb:
            raise InternalError("boundary is not a cocycle: d*d != 0 upstream")
        b_in_z.append(coords)
    reps = [lin_comb(unit, z, dim) for unit in quotient_basis(b_in_z, len(z))]
    return CohomologySpace(ambient_dim=dim, cocycles=z, boundaries=b, reps=reps,
                           pivots=r.pivots)
