"""Cohomology of one degree slice of a cochain complex given by matrices.

Used by CDGAs, mapping cones, and persistent complexes alike so that the
choice of representatives is made by one deterministic rule everywhere:
cocycles come from kernel_basis, boundaries from pivot columns, and class
representatives and coordinates from the boundaries' `reverse_echelon` in
cocycle coordinates (the rule of complements and of the elder rule).

`compute_cohomology` does only what the dimension needs: one forward
echelon of d_out (`exactla.echelon`), whose keys are d_out's pivot columns
and whose rows span its row space; the boundaries (pivot columns of d_in);
and the check d_out·d_in = 0 on those rows (each column of d_in is a
combination of the boundaries).  The boundaries are independent and lie in
Z, so dim H = cols − rank − #B.  The space keeps the echelon rows, the
pivots and d_out itself.  The first read of the cocycles back-substitutes
the rows into d_out's RREF, which then replaces them; the class data
(representatives and class_of) is also computed on first read, and never
on a space of dimension 0, whose reps are [] and whose classes are ().
Connectivity checks read only `dim`.  The next degree up, whose d_in is this
d_out, reads its boundaries off the kept pivots instead of reducing that
matrix again.

A cocycle's Z-coordinates are its entries at d_out's free columns.  The
representatives are the cocycles at the Z-positions that are no key of the
boundaries' reverse echelon; class_of clears those keys and reads the rest.
"""
from __future__ import annotations

from functools import cached_property
from typing import Optional, Sequence

from .errors import InternalError
from .exactla import (
    QMatrix, Row, RrefResult, Vector, back_substitute, echelon, is_zero_vec, lin_comb,
    reverse_echelon, vec,
)


class CohomologySpace:
    """ker(d_out)/im(d_in) for one degree.

    `dim`, `boundaries` (a basis of B, ambient coordinates) and `pivots` (of
    d_out) are known at construction.  `cocycles` (a basis of Z) and `reps`
    (class representatives), both in ambient coordinates, are computed on
    first read.  Two spaces are equal when their ambient dimensions,
    cocycles, boundaries and reps are.
    """

    def __init__(self, d_out: QMatrix, rows: dict[int, Row], boundaries: list[Vector]):
        """`rows` is a forward echelon of d_out (`exactla.echelon`)."""
        self.d_out = d_out
        self.pivots = tuple(rows)
        self.boundaries = boundaries
        self._rows = rows

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

    def _basis(self) -> QMatrix:
        """The kept rows, a basis of d_out's row space, as a matrix."""
        return QMatrix._of(len(self.pivots), self.ambient_dim, tuple(self._rows.values()))

    @cached_property
    def cocycles(self) -> list[Vector]:
        self._rows = back_substitute(self._rows)
        return RrefResult(self._basis(), self.pivots, len(self.pivots)).kernel_basis()

    @cached_property
    def _classes(self) -> tuple[list[int], dict[int, Vector], list[int]]:
        """(free columns of d_out, the boundaries' reverse echelon in
        Z-coordinates, the Z-positions it leaves unkeyed)."""
        pivots = set(self.pivots)
        free = [j for j in range(self.ambient_dim) if j not in pivots]
        keyed = reverse_echelon([tuple(b[f] for f in free) for b in self.boundaries], len(free))
        return free, keyed, [j for j in range(len(free)) if j not in keyed]

    @cached_property
    def reps(self) -> list[Vector]:
        if not self.dim:
            return []
        return [self.cocycles[j] for j in self._classes[2]]

    def class_of(self, z: Sequence) -> Vector:
        """H-coordinates of a cocycle z; raises if z is not a cocycle.  Read
        off the boundaries' reverse echelon, computed on the first call."""
        if self.ambient_dim == 0:
            if any(x != 0 for x in z):
                raise InternalError("class_of: nonzero vector in zero space")
            return ()
        z = vec(z)
        if not is_zero_vec(self._basis().apply(z)):
            raise InternalError("class_of: vector is not a cocycle")
        if not self.dim:
            return ()
        free, keyed, positions = self._classes
        c = [z[f] for f in free]
        for key, b in keyed.items():
            ck = c[key]
            if ck:
                c = [x - ck * y if y else x for x, y in zip(c, b)]
        return tuple(c[j] for j in positions)

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
    if not d_out.cols:  # C^n = 0: no cocycles, no boundaries
        return CohomologySpace(d_out, {}, [])
    b = []
    if d_in is not None:
        b = [d_in.column(p) for p in (below.pivots if below is not None else echelon(d_in))]
    space = CohomologySpace(d_out, echelon(d_out), b)
    if b and not (space._basis() @ d_in).is_zero():
        raise InternalError("boundary is not a cocycle: d*d != 0 upstream")
    return space
