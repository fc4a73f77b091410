"""Barcodes of persistence modules with exact rational arithmetic.

A persistence module here is a finite sequence of Q-vector spaces joined by
matrices, indexed by a grid of rational timestamps.  The decomposition
returns half-open bars plus representative sections that the structure maps
propagate on the nose and that die to literal zero.
"""
from fractions import Fraction

from pmm import Grid, PersistenceModule, QMatrix, from_bars, interval_decompose, rank_invariant
from pmm.persistence import INF

grid = Grid((Fraction(0), Fraction(1), Fraction(2)))

# dims (1, 2, 1): one class flows through and dies at time 2, another is
# born at time 1 and survives.  The elder rule decides who dies.
module = PersistenceModule(
    grid, (1, 2, 1),
    (QMatrix.from_rows([[1], [0]]), QMatrix.from_rows([[0, 1]])))

print("rank invariant:")
for i in range(3):
    for j in range(i, 3):
        print(f"  rank({i} -> {j}) = {rank_invariant(module, i, j)}")

bars, reps = interval_decompose(module)
print("\nbars:")
for b, rep in zip(bars, reps):
    death = "inf" if b.death == INF else str(grid.times[int(b.death)])
    # A section vector keeps its nonzero entries only; print it in full.
    section = {i: [str(v.get(j, 0)) for j in range(module.dims[i])]
               for i, v in sorted(rep.vectors.items())}
    print(f"  [{grid.times[b.birth]}, {death})  section: {section}")

print("\nround trip through from_bars:")
rebuilt = from_bars(grid, bars)
bars2, _ = interval_decompose(rebuilt)
print("  same multiset:", sorted((b.birth, b.death) for b in bars)
      == sorted((b.birth, b.death) for b in bars2))
