"""Homotopies into the path algebra B (x) Lambda(t,dt): integration, cones.

A CDGA homotopy H between maps f, g: M -> B is a CDGA map into Sullivan's
path object B.path = B (x) Lambda(t,dt) (Felix-Halperin-Thomas, sections 12
and 14) whose endpoint evaluations at t=0 and t=1 are f and g.  It is a
`CdgaMorphism.on_generators(M, B.path, values)`: the kernel's product,
differential, monomial memo, `inherit` carry and `validate_morphism` check
serve it as they serve every other map.  Fiberwise integration turns H into
a cochain homotopy: with the tensor sign fixed here,
d(I H a) + I H(d a) = g(a) - f(a) holds exactly for every a.

The sign on the tensor factor is (-1)^{|b|} on b (x) omega.  It is the unique
choice making the identity above hold; `_check_integration_convention` pins
it with a concrete odd-degree sample and runs once per process.

Each check here takes every generator, or a window `names` of generators:
`validate_morphism` (H is a CDGA map; its maker calls it),
`HomotopySquare.validate` (H starts at bottom o left and ends at right o
top, so its end points are CDGA maps) and `check_homotopy_identity` (the
identity above, in every degree n where B^n != 0: elsewhere both sides map
into the zero space).  Its columns I_H(a) (`integrate_01`) and g(a) - f(a)
(`_end_difference`) are each one pass over the terms b t^j dt^e of the
memoised H(a): the dt terms weighted (-1)^{|b|}/(j+1), and the terms t^j,
j >= 1, without dt.  They and the evaluations and `integrate_0t` are kernel
results, made with `CdgaElement._of` (cancelled keys dropped by `_summed`).

Mapping cones and cone maps are the block matrices [[A, 0], [B, C]] of the
per-degree matrices their algebras, maps and homotopy cache, each written in
one pass over the rows by `exactla._lower_block` (which negates d_A(n) in
the same pass).  The integral matrices I_H(n), and the g - f side of
`check_homotopy_identity`, are made with `QMatrix._of_sparse_columns`: their
columns are `to_sparse` images of the kernel's own elements, already nonzero
Fractions.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .cdga import (
    CdgaElement, CdgaMorphism, differential, free_cdga, multiply, unchanged_below,
)
from .cochain import CohomologySpace, cached_cohomology, chain_map_failures
from .errors import InternalError, ValidationError
from .exactla import ONE, QMatrix, Row, _lower_block, split_row


def eval_at_0(u: CdgaElement) -> CdgaElement:
    """b t^j dt^e -> b when j = e = 0, else 0."""
    return CdgaElement._of(u.algebra.base,
                           {b: c for (b, j, e), c in u.terms.items() if j == e == 0})


def eval_at_1(u: CdgaElement) -> CdgaElement:
    """b t^j -> b, b t^j dt -> 0."""
    return _summed(u.algebra.base, ((b, c) for (b, _, e), c in u.terms.items() if not e))


def integrate_0t(u: CdgaElement) -> CdgaElement:
    """t^k -> 0, t^k dt -> t^{k+1}/(k+1), with tensor sign (-1)^{|b|}."""
    _check_integration_convention()
    degree = u.algebra.base.key_degree
    return CdgaElement._of(u.algebra, {(b, j + 1, 0): (-c if degree(b) % 2 else c) / (j + 1)
                                       for (b, j, e), c in u.terms.items() if e})


def integrate_01(u: CdgaElement) -> CdgaElement:
    """int_0^1 u = eval_at_1(integrate_0t(u)), in one pass: the sum over
    u's terms b t^j dt of (-1)^{|b|}/(j+1) b."""
    _check_integration_convention()
    degree = u.algebra.base.key_degree
    return _summed(u.algebra.base, ((b, (-c if degree(b) % 2 else c) / (j + 1))
                                    for (b, j, e), c in u.terms.items() if e))


def _end_difference(u: CdgaElement) -> CdgaElement:
    """eval_at_1(u) - eval_at_0(u), in one pass: the sum of b over u's terms b t^j, j >= 1."""
    return _summed(u.algebra.base, ((b, c) for (b, j, e), c in u.terms.items() if j and not e))


def _summed(base, terms: Iterable) -> CdgaElement:
    """The element sum of c b over the pairs (b, c), cancelled keys dropped."""
    out: dict = {}
    for b, c in terms:
        out[b] = out[b] + c if b in out else c
    return CdgaElement._of(base, {b: c for b, c in out.items() if c})


_convention_checked = False


def _check_integration_convention():
    """One-time self-test pinning the tensor sign of the integration operator.

    Verifies d K + K d = id - (id (x) eps_0) on odd and even samples, and
    that the one-pass integrate_01 is eval_at_1 of K; an odd sample
    distinguishes the sign, even samples guard the boring half.
    """
    global _convention_checked
    if _convention_checked:
        return
    _convention_checked = True  # set first: the integrals below re-enter
    b = free_cdga([("a", 2), ("x", 3)], {}, 8)
    p = b.path
    samples = [
        p.tensor(b.gen("x"), 1),             # x (x) t
        p.tensor(b.gen("x"), 0, 1),
        p.tensor(b.gen("a"), 2, 1),
        p.tensor(multiply(b.gen("a"), b.gen("x")), 1, 1),
    ]
    for u in samples:
        lhs = differential(integrate_0t(u)) + integrate_0t(differential(u))
        rhs = u - p.tensor(eval_at_0(u))
        if lhs != rhs or integrate_01(u) != eval_at_1(integrate_0t(u)):
            raise InternalError("integration sign convention self-test failed")


def integral_matrix(h: CdgaMorphism, n: int) -> QMatrix:
    """I_H(n): M^n -> B^{n-1}, a -> int_0^1 H(a); column j is the integral
    of the j-th degree-n basis monomial of M.  Memoised with H's per-degree
    matrices, so `CdgaMorphism.inherit` carries it below the new generators."""
    if n not in h._mat_cache:
        base = h.codomain.base
        rows = base.dim(n - 1)
        cols = [base.to_sparse(integrate_01(h.image(mono)), n - 1)
                if rows else {} for mono in h.domain.basis_keys(n)]
        h._mat_cache[n] = QMatrix._of_sparse_columns(cols, rows)
    return h._mat_cache[n]


def extend_homotopy(f: CdgaMorphism, h: CdgaMorphism, v: CdgaElement,
                    a: CdgaElement, y: Optional[CdgaElement]) -> CdgaElement:
    """Value of the extended homotopy on a new generator x with dx = v.

    H(x) = f(a) + int_0^t H(v), where a is the image of x under the extended
    map into f's domain; a class bounded at the far end by y (None when it
    is not) adds the correction d(y (x) t).
    """
    p = h.codomain
    out = p.tensor(f.apply(a)) + integrate_0t(h.apply(v))
    if y is not None:
        out = out + differential(p.tensor(y, 1))
    return out


def check_homotopy_identity(h: CdgaMorphism, max_degree: int,
                            names: Optional[Sequence[str]] = None) -> list[str]:
    """Verify d(IH a) + IH(da) = g(a) - f(a) on every domain monomial <= max_degree,
    or on the generators `names`, as d_B(n-1) I_H(n) + I_H(n+1) d_M(n) = g - f
    on the columns of degree n (without the I_H(n+1) term above M's cap), with
    g(a) - f(a) read off the memoised H(a); one message per failing column.
    A degree n with B^n = 0 is skipped: both sides map into the zero space.
    A window `names` is picked by a selection matrix, columns in `names` order.
    """
    dom, base = h.domain, h.codomain.base
    problems = []
    for n in range(max_degree + 1):
        rows = base.dim(n)
        if not rows:
            continue
        keys = dom.basis_keys(n)
        if names is None:
            cols: Sequence[int] = range(len(keys))
        else:
            cols = [dom.key_position(n, next(iter(dom.gen(x).terms))) for x in names
                    if dom.generators[dom.index_of[x]].degree == n]
            if not cols:
                continue
        rhs = QMatrix._of_sparse_columns(
            [base.to_sparse(_end_difference(h.image(keys[j])), n) for j in cols], rows)
        pick = None if names is None else QMatrix._of_sparse_columns(
            [{j: ONE} for j in cols], len(keys))

        def part(m: QMatrix) -> QMatrix:
            return m if pick is None else m @ pick

        lhs = base.d_matrix(n - 1) @ part(integral_matrix(h, n))
        if n + 1 <= dom.degree_cap:
            lhs = lhs.add(integral_matrix(h, n + 1) @ part(dom.d_matrix(n)))
        if lhs != rhs:
            problems += [f"identity fails on {dom.key_repr(keys[j])}"
                         for i, j in enumerate(cols) if lhs.column(i) != rhs.column(i)]
    return problems


class ConeComplex:
    """Mapping cone of (the cochain map underlying) m: M -> A.

    C^n = M^{n+1} + A^n with d(v, a) = (dv, m(v) - da); degrees run from -1
    so that H^0 is honest.  Carries no algebra structure.  d_C(n) is the block
    matrix [[d_M(n+1), 0], [m(n+1), -d_A(n)]] of the matrices M, A and m cache.
    `like`, a cone over our domain and target objects (the latest such stage
    cone), lends us its d(n) and H^n where `_stacked` finds them ours.
    """

    def __init__(self, m: CdgaMorphism, like: Optional["ConeComplex"] = None):
        self.m = m
        self.domain = m.domain
        self.target = m.codomain
        self.like = like
        # d: C^n -> C^{n+1} reads M^{n+2}; stay a degree below the cap.
        self.max_degree = min(self.domain.degree_cap, self.target.degree_cap) - 1
        self._d_cache: dict[int, QMatrix] = {}
        # n -> (d_M(n+1), m(n+1), d_A(n), d(n)): the blocks d(n) was assembled
        # from, and the result, for carry_cohomology's identity check.
        self._d_blocks: dict[int, tuple] = {}
        self._h_cache: dict[int, CohomologySpace] = {}

    def dim_m(self, n: int) -> int:
        return self.domain.dim(n + 1)

    def dim_a(self, n: int) -> int:
        return self.target.dim(n)

    def dim(self, n: int) -> int:
        if n < -1 or n > self.max_degree:
            return 0
        return self.dim_m(n) + self.dim_a(n)

    def unpack(self, n: int, w: Row) -> tuple[CdgaElement, CdgaElement]:
        """The (M^{n+1}, A^n) components of the cone vector w."""
        v, a = split_row(w, self.dim_m(n))
        return (self.domain.from_vector(n + 1, v) if v else self.domain.zero(),
                self.target.from_vector(n, a) if a else self.target.zero())

    def d_matrix(self, n: int) -> QMatrix:
        if n not in self._d_cache:
            if n + 1 > self.max_degree:
                self._d_cache[n] = QMatrix(0, self.dim_m(n) + self.dim_a(n))
            else:
                blocks = (self.domain.d_matrix(n + 1), self.m.matrix(n + 1),
                          self.target.d_matrix(n))
                d = None if self.like is None else self.like._stacked(n, blocks)
                self._d_cache[n] = _lower_block(*blocks, negate_c=True) if d is None else d
                self._d_blocks[n] = blocks + (self._d_cache[n],)
        return self._d_cache[n]

    def _stacked(self, n: int, blocks: tuple) -> Optional[QMatrix]:
        """Our d(n), when stacked from the same d_M(n+1) and d_A(n) objects as
        `blocks` and an equal m(n+1), and still held: the one share test."""
        record = self._d_blocks.get(n)
        if (record is not None and record[0] is blocks[0] and record[2] is blocks[2]
                and (record[1] is blocks[1] or record[1] == blocks[1])
                and self._d_cache.get(n) is record[3]):
            return record[3]
        return None

    def _take_cohomology(self, other: "ConeComplex", degrees: Iterable[int]):
        """Take other's H^n, n in degrees, where our d(n-1) and d(n) are other's."""
        self._h_cache.update((n, other._h_cache[n]) for n in degrees if n in other._h_cache
                             and self._d_cache.get(n) is other._d_cache.get(n)
                             and self._d_cache.get(n - 1) is other._d_cache.get(n - 1))

    def cohomology_space(self, n: int) -> CohomologySpace:
        """H^n of the cone; valid for n <= max_degree - 1.  Taken from `like`
        when our d(n-1) and d(n) are its objects."""
        if n > self.max_degree - 1:
            raise ValidationError(f"cone cohomology degree {n} exceeds reliable range")
        if self.like is not None and n not in self._h_cache:
            for j in range(max(n - 1, -1), n + 1):
                self.d_matrix(j)
            self._take_cohomology(self.like, [n])
        return cached_cohomology(self._h_cache, self.d_matrix, n, -1)

    def carry_cohomology(self, old: "ConeComplex"):
        """Take old's H^n where the domain did not change in degrees n+1 and
        n+2, once our d(n-1) and d(n) equal old's: an extension leaves the
        cone unchanged there, so a differing block is an error.  Old's d(j)
        is ours, unassembled, where old._stacked finds our blocks (d_M and
        d_A carried by `FreeCDGA(base=)`, m by `inherit`); else ours is
        stacked and compared.  We keep old's matrix, which the carried
        spaces hold as their d_out, so one copy stays alive."""
        through = unchanged_below(self.domain, old.domain) - 3
        carried = [n for n in old._h_cache if n <= through]
        for j in sorted({j for n in carried for j in (n - 1, n)}):
            blocks = (self.domain._dmat_cache.get(j + 1), self.m._mat_cache.get(j + 1),
                      self.target._dmat_cache.get(j))
            d = old._stacked(j, blocks)
            if d is None:
                d = old.d_matrix(j)
                if self.d_matrix(j) != d:
                    raise InternalError(f"cone d({j}) differs from the previous cone's")
                blocks = self._d_blocks[j][:3]
            self._d_cache[j] = d
            self._d_blocks[j] = blocks + (d,)
        self._take_cohomology(old, carried)

    def h_dim(self, n: int) -> int:
        return self.cohomology_space(n).dim


def cone(m: CdgaMorphism, like: Optional[ConeComplex] = None) -> ConeComplex:
    return ConeComplex(m, like)


def connectivity_failures(cones: Sequence[ConeComplex], through: int) -> list[str]:
    """Each nonzero H^j, j <= through, of the stage cones C_m(r) = cones[r];
    or, for the first cone that cannot be assembled (d*d != 0, or an image
    of a wrong degree), its error alone, naming the cone."""
    out = []
    for r, c in enumerate(cones):
        try:
            out += [f"H^{j} C_m({r}) has dimension {c.h_dim(j)}"
                    for j in range(through + 1) if c.h_dim(j)]
        except (InternalError, ValidationError) as exc:
            return [f"C_m({r}): {exc}"]
    return out


@dataclass
class HomotopySquare:
    """A square commuting up to H: top u: M -> N, bottom w: A -> B,
    left m: M -> A, right n: N -> B, with H from w o m to n o u."""

    top: CdgaMorphism
    bottom: CdgaMorphism
    left: CdgaMorphism
    right: CdgaMorphism
    homotopy: CdgaMorphism  # into right.codomain.path

    def validate(self, names: Optional[Iterable[str]] = None) -> list[str]:
        """Generators (of all, or of `names`) on which H does not start at
        bottom o left or end at right o top."""
        problems = []
        for name in (g.name for g in self.left.domain.generators) if names is None else names:
            value = self.homotopy.gen_images[name]
            if eval_at_0(value) != self.bottom.apply(self.left.gen_images[name]):
                problems.append(f"homotopy start mismatch on {name}")
            if eval_at_1(value) != self.right.apply(self.top.gen_images[name]):
                problems.append(f"homotopy end mismatch on {name}")
        return problems


class ConeMap:
    """Cochain map C_m -> C_n induced by a homotopy-commutative square:
    phi(v, a) = (u(v), w(a) + IH(v)), between the given cones of m and n: the
    block matrix [[u(n+1), 0], [I_H(n+1), w(n)]] of u = top, w = bottom and I_H,
    checked to commute with d in `degrees` (by default every degree both cones
    reach).  The square is checked by its maker (HomotopySquare.validate, cone_map)."""

    def __init__(self, square: HomotopySquare, source: ConeComplex, target: ConeComplex,
                 degrees: Optional[Sequence[int]] = None):
        self.square = square
        self.source = source
        self.target = target
        self._mat_cache: dict[int, QMatrix] = {}
        self.check_chain_map(degrees)

    def matrix(self, n: int) -> QMatrix:
        if n not in self._mat_cache:
            sq, src = self.square, self.source
            if not self.target.dim(n):
                self._mat_cache[n] = QMatrix(0, src.dim_m(n) + src.dim_a(n))
            else:
                self._mat_cache[n] = _lower_block(
                    sq.top.matrix(n + 1), integral_matrix(sq.homotopy, n + 1),
                    sq.bottom.matrix(n))
        return self._mat_cache[n]

    def check_chain_map(self, degrees: Optional[Sequence[int]] = None):
        """d phi(n) = phi(n+1) d for each n in degrees (default: -1 to one below
        the lower max_degree of the two cones, past which d_C reads nothing)."""
        top = min(self.source.max_degree, self.target.max_degree)
        for n in chain_map_failures(self.source.d_matrix, self.target.d_matrix, self.matrix,
                                    range(-1, top) if degrees is None else degrees):
            raise InternalError(f"cone map fails to be a cochain map in degree {n}")


def cone_map(square: HomotopySquare) -> ConeMap:
    """The cone map of a square, after checking that it commutes up to H."""
    problems = square.validate()
    if problems:
        raise ValidationError(f"square does not commute up to H: {problems[0]}")
    return ConeMap(square, cone(square.left), cone(square.right))
