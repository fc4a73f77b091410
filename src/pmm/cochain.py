"""Cohomology of one degree slice of a cochain complex given by matrices.

Used by CDGAs, mapping cones, and persistent complexes alike so that the
choice of representatives is made by one deterministic rule everywhere:
cocycles come from d_out's RREF, boundaries from pivot columns, and class
representatives and coordinates from the boundaries' `reverse_echelon` in
cocycle coordinates (the rule of complements and of the elder rule).  Every
vector is an `exactla.Row`: cocycles, boundaries, reps, class coordinates.

`compute_cohomology` does only what the dimension needs: one forward
echelon of d_out (`exactla.echelon`), whose keys are d_out's pivot columns
and whose rows span its row space; the boundaries (pivot columns of d_in);
and the check d_out·d_in = 0 on those rows (each column of d_in is a
combination of the boundaries).  The boundaries are independent and lie in
Z, so dim H = cols − rank − #B.  The space keeps the echelon rows, the
pivots and d_out itself.  The first read of the cocycles back-substitutes
the rows into d_out's RREF, which then replaces them, and reads the cocycles
off it (`exactla.kernel_of`); the class data (representatives and class_of)
is also computed on first read, and never on a space of dimension 0, whose
reps are [] and whose classes are {}.  Connectivity checks read only `dim`.
`cached_cohomology`, the one H^n cache, reads the next degree's boundaries off
the kept pivots; `chain_map_failures` is the one chain-map test.

A cocycle's Z-coordinates are its entries at d_out's free columns.  The
representatives are the cocycles at the Z-positions that are no key of the
boundaries' reverse echelon; class_of clears those keys and reads the rest.
"""
from __future__ import annotations

from functools import cached_property
from typing import Iterable, Iterator, Optional

from .errors import InternalError
from .exactla import (
    QMatrix, Row, _axpy, back_substitute, combine, echelon, kernel_of, reverse_echelon,
)


class CohomologySpace:
    """ker(d_out)/im(d_in) for one degree.

    `dim`, `boundaries` (a basis of B, ambient coordinates) and `pivots` (of
    d_out) are known at construction.  `cocycles` (a basis of Z) and `reps`
    (class representatives), both in ambient coordinates, are computed on
    first read.  Two spaces are equal when their ambient dimensions,
    cocycles, boundaries and reps are.
    """

    def __init__(self, d_out: QMatrix, rows: dict[int, Row], boundaries: list[Row]):
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
    def cocycles(self) -> list[Row]:
        self._rows = back_substitute(self._rows)
        return kernel_of(self._rows, self.ambient_dim)

    @cached_property
    def _classes(self) -> tuple[dict[int, int], dict[int, Row], dict[int, int]]:
        """(Z-position of each free column of d_out, the boundaries' reverse
        echelon in Z-coordinates, the H-coordinate of each Z-position it
        leaves unkeyed)."""
        pivots = set(self.pivots)
        free = [j for j in range(self.ambient_dim) if j not in pivots]
        pos = {f: i for i, f in enumerate(free)}
        keyed = reverse_echelon([{pos[f]: x for f, x in b.items() if f in pos}
                                 for b in self.boundaries], len(free))
        unkeyed = [j for j in range(len(free)) if j not in keyed]
        return pos, keyed, {j: h for h, j in enumerate(unkeyed)}

    @cached_property
    def reps(self) -> list[Row]:
        if not self.dim:
            return []
        return [self.cocycles[j] for j in self._classes[2]]

    def class_of(self, z: Row) -> Row:
        """H-coordinates of a cocycle z; raises if z has a coordinate outside
        the ambient space or is not a cocycle.  Read off the boundaries'
        reverse echelon, computed on the first call."""
        if z and (min(z) < 0 or max(z) >= self.ambient_dim):
            raise InternalError("class_of: coordinate outside the ambient space")
        if self._basis().apply(z):
            raise InternalError("class_of: vector is not a cocycle")
        if not self.dim:
            return {}
        pos, keyed, h_of = self._classes
        c = {pos[f]: x for f, x in z.items() if f in pos}
        for key, b in keyed.items():
            ck = c.get(key)
            if ck:
                _axpy(c, -ck, b)
        return {h_of[j]: x for j, x in c.items() if j in h_of}

    def rep_of_class(self, h: Row) -> Row:
        """Ambient cocycle representing the class with H-coordinates h."""
        return combine((c, self.reps[j]) for j, c in h.items())


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


def cached_cohomology(cache: dict, d, n: int, bottom: int) -> CohomologySpace:
    """H^n of d(j), j >= bottom, kept in `cache` by degree; B read off a kept H^{n-1}."""
    if n not in cache:
        cache[n] = compute_cohomology(d(n), d(n - 1) if n > bottom else None, cache.get(n - 1))
    return cache[n]


def chain_map_failures(d_src, d_dst, f, degrees: Iterable[int]) -> Iterator[int]:
    """The degrees n of `degrees`, in order, where d_dst(n) f(n) != f(n+1) d_src(n):
    d_src, d_dst and f are the complexes' differentials and the map, by degree."""
    return (n for n in degrees if d_dst(n) @ f(n) != f(n + 1) @ d_src(n))
