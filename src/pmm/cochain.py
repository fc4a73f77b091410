"""Cohomology of one degree slice of a cochain complex given by matrices.

Used by CDGAs, mapping cones, and persistent complexes alike so that the
choice of representatives is made by one deterministic rule everywhere:
cocycles come from kernel_basis, boundaries from pivot columns, and class
representatives from quotient_basis in cocycle coordinates.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .errors import InternalError
from .exactla import (
    QMatrix, Vector, column_space_basis, express_in_basis, kernel_basis,
    lin_comb, quotient_basis, solve,
)


@dataclass
class CohomologySpace:
    """ker(d_out)/im(d_in) for one degree, with frozen representative data."""

    ambient_dim: int
    cocycles: list[Vector]          # basis of Z, ambient coordinates
    boundaries: list[Vector]        # basis of B, ambient coordinates
    reps: list[Vector]              # class representatives, ambient coordinates

    @property
    def dim(self) -> int:
        return len(self.reps)

    def class_of(self, z: Sequence) -> Vector:
        """H-coordinates of a cocycle z; raises if z is not a cocycle."""
        if self.ambient_dim == 0:
            if any(x != 0 for x in z):
                raise InternalError("class_of: nonzero vector in zero space")
            return ()
        m = QMatrix.from_columns(self.reps + self.boundaries, self.ambient_dim)
        coords = solve(m, z)
        if coords is None:
            raise InternalError("class_of: vector is not a cocycle")
        return coords[: len(self.reps)]

    def rep_of_class(self, h: Sequence) -> Vector:
        """Ambient cocycle representing the class with H-coordinates h."""
        return lin_comb(h, self.reps, self.ambient_dim)


def compute_cohomology(d_out: QMatrix, d_in: Optional[QMatrix]) -> CohomologySpace:
    z = kernel_basis(d_out)
    b = column_space_basis(d_in) if d_in is not None else []
    dim = d_out.cols
    b_in_z = []
    for vb in b:
        coords = express_in_basis(z, vb, dim) if z else None
        if coords is None:
            raise InternalError("boundary is not a cocycle: d*d != 0 upstream")
        b_in_z.append(coords)
    reps = [lin_comb(unit, z, dim) for unit in quotient_basis(b_in_z, len(z))]
    return CohomologySpace(ambient_dim=dim, cocycles=z, boundaries=b, reps=reps)
