"""Tame persistence modules over a grid and their interval decomposition.

A grid t_0 < ... < t_n of rational timestamps discretizes the half-line;
module values are constant on [t_i, t_{i+1}) and from t_n on, so everything
is determined by the finitely many stages.  Bars and cells live on half-open
intervals [s, t) of grid indices, INF standing for "survives past the last
grid point"; the grid owns their one lifespan check (`Grid.check_lifespan`).

The decomposition is a genuine direct-sum splitting: each bar carries a
representative section that is propagated exactly by the structure maps and
maps to literal zero at its death index.  Downstream surgery relies on the
zero-at-death property (a class that merely merges into others cannot be
attached as a cell).

The elder rule is `exactla.reverse_echelon`: each kernel vector, keyed by its
last nonzero coordinate, closes the youngest bar it involves; the newborn
sections (`quotient_basis`) are the unit vectors the same rule leaves unkeyed.
Section vectors are `exactla.Row`s, the nonzero entries only.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import reduce
from typing import Iterable

from .errors import ValidationError
from .exactla import (
    ONE, QMatrix, Row, block_diag, combine, frac, kernel_basis, quotient_basis, rank,
    reverse_echelon,
)

INF = float("inf")


@dataclass(frozen=True)
class Grid:
    """Strictly increasing rational timestamps; stage i lives at times[i]."""

    times: tuple[Fraction, ...]

    def __post_init__(self):
        times = tuple(frac(t) for t in self.times)
        object.__setattr__(self, "times", times)
        if not times:
            raise ValidationError("grid must be nonempty")
        if any(a >= b for a, b in zip(times, times[1:])):
            raise ValidationError("grid times must be strictly increasing")

    def __len__(self) -> int:
        return len(self.times)

    def check_lifespan(self, s: int, t, cell: str):
        """A lifespan [s, t): grid indices s < t, or t = INF; a refusal names the cell."""
        if not 0 <= s < len(self):
            raise ValidationError(f"invalid {cell} birth s={s}")
        if t != INF and not (isinstance(t, int) and s < t < len(self)):
            raise ValidationError(f"invalid {cell} death t={t}: need a grid index after s")

    def insert(self, position: int, time) -> "Grid":
        time = frac(time)
        times = list(self.times)
        times.insert(position, time)
        return Grid(tuple(times))


@dataclass(frozen=True)
class Bar:
    """Half-open lifespan [birth, death) in grid indices; death may be INF."""

    birth: int
    death: float  # int index or INF
    degree: int = 0

    def __post_init__(self):
        if self.death != INF and self.birth >= self.death:
            raise ValidationError(f"bar needs birth < death, got [{self.birth},{self.death})")

    def alive_at(self, index: int) -> bool:
        return self.birth <= index and index < self.death

    def sort_key(self):
        return (self.degree, self.birth, self.death == INF, self.death)


class PersistenceModule:
    """Finite sequence of Q-vector spaces with structure maps between stages."""

    def __init__(self, grid: Grid, dims: tuple[int, ...], maps: tuple[QMatrix, ...]):
        if len(dims) != len(grid):
            raise ValidationError("dims must match grid length")
        if len(maps) != len(dims) - 1:
            raise ValidationError("need one map per consecutive stage pair")
        for i, m in enumerate(maps):
            if (m.rows, m.cols) != (dims[i + 1], dims[i]):
                raise ValidationError(f"map {i} has shape {m.rows}x{m.cols}, "
                                      f"want {dims[i + 1]}x{dims[i]}")
        self.grid = grid
        self.dims = tuple(dims)
        self.maps = tuple(maps)

    def map_range(self, i: int, j: int) -> QMatrix:
        """Composite structure map from stage i to stage j (i <= j)."""
        if not 0 <= i <= j < len(self.dims):
            raise IndexError(f"stage pair ({i},{j}) out of range")
        return composite(self.maps[i:j], self.dims[i])

    def direct_sum(self, other: "PersistenceModule") -> "PersistenceModule":
        if self.grid != other.grid:
            raise ValidationError("direct_sum: grid mismatch")
        dims = tuple(a + b for a, b in zip(self.dims, other.dims))
        maps = tuple(block_diag(a, b) for a, b in zip(self.maps, other.maps))
        return PersistenceModule(self.grid, dims, maps)


def composite(maps: Iterable[QMatrix], dim: int) -> QMatrix:
    """The composite of `maps`, first applied first; the identity of Q^dim if none."""
    return reduce(lambda m, f: f @ m, maps, QMatrix.identity(dim))


def rank_invariant(m: PersistenceModule, i: int, j: int) -> int:
    """Rank of the composite map from stage i to stage j."""
    return rank(m.map_range(i, j))


@dataclass
class BarRepresentative:
    """Section of one bar: a vector per supported index, propagated exactly.

    vectors[i+1] = maps[i] . vectors[i] on the support, vectors[birth] != 0,
    and at a finite death the image of the last vector is zero.
    """

    bar: Bar
    vectors: dict[int, Row] = field(default_factory=dict)


class _Live:
    __slots__ = ("birth", "order", "vectors", "death")

    def __init__(self, birth, order, first_vector):
        self.birth = birth
        self.order = order
        self.vectors = {birth: first_vector}
        self.death = INF


def interval_decompose(m: PersistenceModule) -> tuple[list[Bar], list[BarRepresentative]]:
    """Split a grid-based module into interval summands with sections.

    Left-to-right sweep.  At every stage the alive sections form a basis;
    crossing a structure map, the kernel (in section coordinates) is
    echelonized against the youngest coordinate so that each dependency
    closes the latest-born bar involved (elder rule), after rewriting that
    bar's whole section so its image is exactly zero.
    """
    n = len(m.dims)
    finished: list[_Live] = []
    alive = [_Live(0, b, {b: ONE}) for b in range(m.dims[0])]
    counter = len(alive)

    for i in range(n - 1):
        t = m.maps[i]
        kern = {}
        if alive:
            smat = QMatrix.from_columns([lv.vectors[i] for lv in alive], m.dims[i])
            kern = reverse_echelon(kernel_basis(t @ smat), len(alive))
        for pos, kv in kern.items():
            target = alive[pos]
            # Rewrite the dying bar's section as the kernel combination (kv
            # is 1 at pos).  Every contributor is older or equal in (birth,
            # order), so the combination exists on the target's whole support.
            for idx in range(target.birth, i + 1):
                target.vectors[idx] = combine((c, alive[j].vectors[idx]) for j, c in kv.items())
            target.death = i + 1
            finished.append(target)
        survivors = []
        for pos, lv in enumerate(alive):
            if pos in kern:
                continue
            lv.vectors[i + 1] = t.apply(lv.vectors[i])
            survivors.append(lv)
        alive = survivors
        for v in quotient_basis([lv.vectors[i + 1] for lv in alive], m.dims[i + 1]):
            alive.append(_Live(i + 1, counter, v))
            counter += 1

    finished += alive
    finished.sort(key=lambda lv: (lv.birth, lv.death == INF, lv.death, lv.order))
    bars, reps = [], []
    for lv in finished:
        bar = Bar(lv.birth, lv.death)
        bars.append(bar)
        reps.append(BarRepresentative(bar, dict(lv.vectors)))
    return bars, reps


def from_bars(grid: Grid, bars: list[Bar]) -> PersistenceModule:
    """Direct sum of interval modules on these lifespans; a death at len(grid) is INF."""
    n = len(grid)
    for b in bars:
        grid.check_lifespan(b.birth, INF if b.death == n else b.death, "bar")
    dims = tuple(sum(1 for b in bars if b.alive_at(i)) for i in range(n))
    maps = []
    for i in range(n - 1):
        src = [b for b in bars if b.alive_at(i)]
        dst = [b for b in bars if b.alive_at(i + 1)]
        pos = {id(b): j for j, b in enumerate(dst)}
        mat = [[0] * len(src) for _ in range(len(dst))]
        for jsrc, b in enumerate(src):
            if b.alive_at(i + 1):
                mat[pos[id(b)]][jsrc] = 1
        maps.append(QMatrix(len(dst), len(src), mat))
    return PersistenceModule(grid, dims, tuple(maps))

