"""The interval algebra B (x) Lambda(t,dt): homotopies, integration, cones.

A CDGA homotopy H between maps f, g: M -> B is an algebra map into
B (x) Lambda(t,dt) whose endpoint evaluations at t=0 and t=1 are f and g.
Fiberwise integration turns H into a cochain homotopy: with the tensor sign
fixed here, d(I H a) + I H(d a) = g(a) - f(a) holds exactly for every a.

The sign on the tensor factor is (-1)^{|b|} on b (x) omega.  It is the unique
choice making the identity above hold; `_check_integration_convention` pins
it with a concrete odd-degree sample and runs once per process.

Each check here takes every generator, or a window `names` of generators:
`CdgaHomotopy.check_chain_condition` (H is a CDGA map; the constructor does
not check, its caller does), `HomotopySquare.validate` (H starts at
bottom o left and ends at right o top, so its end points are CDGA maps) and
`check_homotopy_identity` (the identity above, with g(a) - f(a) read off H(a)).
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence

from .cdga import (
    Algebra, CdgaElement, CdgaMorphism, FreeCDGA, Monomial, _prefix, differential,
    free_cdga, multiply, unchanged_below,
)
from .cochain import CohomologySpace, compute_cohomology
from .errors import InternalError, ValidationError
from .exactla import ONE, ZERO, QMatrix, Vector, frac, hstack, vstack


class IntervalElement:
    """Element of B (x) Lambda(t,dt): sum b_k (x) t^k + sum c_k (x) t^k dt."""

    __slots__ = ("base", "poly", "dt")

    def __init__(self, base: Algebra, poly=None, dt=None):
        self.base = base
        self.poly: dict[int, CdgaElement] = {
            k: v for k, v in (poly or {}).items() if not v.is_zero()}
        self.dt: dict[int, CdgaElement] = {
            k: v for k, v in (dt or {}).items() if not v.is_zero()}

    @classmethod
    def constant(cls, elem: CdgaElement) -> "IntervalElement":
        return cls(elem.algebra, poly={0: elem})

    @classmethod
    def t_power(cls, elem: CdgaElement, k: int, with_dt: bool = False) -> "IntervalElement":
        return cls(elem.algebra, dt={k: elem}) if with_dt else cls(elem.algebra, poly={k: elem})

    def is_zero(self) -> bool:
        return not self.poly and not self.dt

    def __add__(self, other: "IntervalElement") -> "IntervalElement":
        self._same(other)
        poly = dict(self.poly)
        for k, v in other.poly.items():
            poly[k] = poly[k] + v if k in poly else v
        dt = dict(self.dt)
        for k, v in other.dt.items():
            dt[k] = dt[k] + v if k in dt else v
        return IntervalElement(self.base, poly, dt)

    def __sub__(self, other: "IntervalElement") -> "IntervalElement":
        return self + other.scale(-1)

    def scale(self, c) -> "IntervalElement":
        c = frac(c)
        return IntervalElement(self.base,
                               {k: v.scale(c) for k, v in self.poly.items()},
                               {k: v.scale(c) for k, v in self.dt.items()})

    def __eq__(self, other) -> bool:
        return (isinstance(other, IntervalElement) and self.base is other.base
                and self.poly == other.poly and self.dt == other.dt)

    def __repr__(self):
        bits = [f"({v!r})t^{k}" for k, v in sorted(self.poly.items())]
        bits += [f"({v!r})t^{k}dt" for k, v in sorted(self.dt.items())]
        return " + ".join(bits) if bits else "0"

    def _same(self, other: "IntervalElement"):
        if self.base is not other.base:
            raise ValidationError("IntervalElements over different base algebras")


def _add_at(acc: dict[int, CdgaElement], k: int, elem: CdgaElement):
    if not elem.is_zero():
        acc[k] = acc[k] + elem if k in acc else elem


def interval_mul(u: IntervalElement, v: IntervalElement) -> IntervalElement:
    """Koszul-signed product; dt * dt = 0, and t^k dt picks up (-1)^{|b|}
    when moved past a base factor b."""
    u._same(v)
    acc_poly: dict[int, CdgaElement] = {}
    acc_dt: dict[int, CdgaElement] = {}
    for k1, b1 in u.poly.items():
        for k2, b2 in v.poly.items():
            _add_at(acc_poly, k1 + k2, multiply(b1, b2))
        for k2, c2 in v.dt.items():
            _add_at(acc_dt, k1 + k2, multiply(b1, c2))
    for k1, c1 in u.dt.items():
        for k2, b2 in v.poly.items():
            deg = b2.homogeneous_degree()
            sign = -ONE if (deg is not None and deg % 2) else ONE
            _add_at(acc_dt, k1 + k2, multiply(c1, b2).scale(sign))
        # dt * dt = 0
    return IntervalElement(u.base, acc_poly, acc_dt)


def interval_d(u: IntervalElement) -> IntervalElement:
    """d(b (x) t^k) = db (x) t^k + (-1)^{|b|} k b (x) t^{k-1} dt,
    d(c (x) t^k dt) = dc (x) t^k dt."""
    poly: dict[int, CdgaElement] = {}
    dt: dict[int, CdgaElement] = {}
    for k, b in u.poly.items():
        _add_at(poly, k, differential(b))
        if k >= 1:
            deg = b.homogeneous_degree()
            sign = -ONE if (deg is not None and deg % 2) else ONE
            _add_at(dt, k - 1, b.scale(sign * k))
    for k, c in u.dt.items():
        _add_at(dt, k, differential(c))
    return IntervalElement(u.base, poly, dt)


def eval_at_0(u: IntervalElement) -> CdgaElement:
    return u.poly.get(0, u.base.zero())


def eval_at_1(u: IntervalElement) -> CdgaElement:
    out = u.base.zero()
    for v in u.poly.values():
        out = out + v
    return out


def integrate_0t(u: IntervalElement) -> IntervalElement:
    """t^k -> 0, t^k dt -> t^{k+1}/(k+1), with tensor sign (-1)^{|b|}."""
    _check_integration_convention()
    poly: dict[int, CdgaElement] = {}
    for k, c in u.dt.items():
        deg = c.homogeneous_degree()
        sign = -ONE if (deg is not None and deg % 2) else ONE
        poly[k + 1] = c.scale(sign * Fraction(1, k + 1))
    return IntervalElement(u.base, poly, {})


def integrate_01(u: IntervalElement) -> CdgaElement:
    return eval_at_1(integrate_0t(u))


_convention_checked = False


def _check_integration_convention():
    """One-time self-test pinning the tensor sign of the integration operator.

    Verifies d K + K d = id - (id (x) eps_0) on odd and even samples; an odd
    sample distinguishes the sign, even samples guard the boring half.
    """
    global _convention_checked
    if _convention_checked:
        return
    _convention_checked = True  # set first: integrate_0t below re-enters
    b = free_cdga([("a", 2), ("x", 3)], {}, 8)
    samples = [
        IntervalElement.t_power(b.gen("x"), 1),             # x (x) t
        IntervalElement.t_power(b.gen("x"), 0, with_dt=True),
        IntervalElement.t_power(b.gen("a"), 2, with_dt=True),
        IntervalElement.t_power(multiply(b.gen("a"), b.gen("x")), 1, with_dt=True),
    ]
    for u in samples:
        lhs = interval_d(integrate_0t(u)) + integrate_0t(interval_d(u))
        rhs = u - IntervalElement.constant(eval_at_0(u))
        if lhs != rhs:
            raise InternalError("integration sign convention self-test failed")


class CdgaHomotopy:
    """Algebra map H: M -> B (x) Lambda(t,dt) stored on the free generators.

    Unchecked: whoever makes one checks it with check_chain_condition."""

    def __init__(self, domain: FreeCDGA, codomain: Algebra,
                 assignment: dict[str, IntervalElement]):
        self.domain = domain
        self.codomain = codomain
        self.assignment = dict(assignment)
        # H of each monomial, and I_H(n) under n: clearing one memo resets both.
        self._cache: dict[Monomial | int, IntervalElement | QMatrix] = {}
        missing = {g.name for g in domain.generators} - set(self.assignment)
        if missing:
            raise ValidationError(f"homotopy missing generators: {sorted(missing)}")

    @classmethod
    def constant(cls, f: CdgaMorphism) -> "CdgaHomotopy":
        if f.domain.kind != "free":
            raise ValidationError("homotopies need a free domain")
        assignment = {g.name: IntervalElement.constant(f.gen_images[g.name])
                      for g in f.domain.generators}
        return cls(f.domain, f.codomain, assignment)

    def apply(self, elem: CdgaElement) -> IntervalElement:
        if elem.algebra is not self.domain:
            raise ValidationError("element not in homotopy domain")
        out = IntervalElement(self.codomain)
        for mono, c in elem.terms.items():
            out = out + self._apply_mono(mono).scale(c)
        return out

    def _apply_mono(self, mono: Monomial) -> IntervalElement:
        """H of a monomial: H of its prefix (one factor fewer of its last
        generator) times H of that generator, memoised like
        `CdgaMorphism._apply_mono`."""
        out = self._cache.get(mono)
        if out is None:
            prefix, i = _prefix(mono)
            if prefix is None:
                out = IntervalElement.constant(self.codomain.one())
            else:
                img = self.assignment[self.domain.generators[i].name]
                out = interval_mul(self._apply_mono(prefix), img)
            self._cache[mono] = out
        return out

    def check_chain_condition(self, names: Optional[Iterable[str]] = None):
        """H(dg) = d(H(g)) on every generator (enough for an algebra map), or on `names`."""
        for name in (g.name for g in self.domain.generators) if names is None else names:
            lhs = self.apply(self.domain.generator_diff(name))
            rhs = interval_d(self.assignment[name])
            if lhs != rhs:
                raise ValidationError(f"homotopy is not a chain map on {name}")

    def endpoints(self) -> tuple[CdgaMorphism, CdgaMorphism]:
        """(eps_0 o H, eps_1 o H); CDGA maps once H is one (check_chain_condition)."""
        f_imgs = {g.name: eval_at_0(self.assignment[g.name]) for g in self.domain.generators}
        g_imgs = {g.name: eval_at_1(self.assignment[g.name]) for g in self.domain.generators}
        return (CdgaMorphism.on_generators(self.domain, self.codomain, f_imgs),
                CdgaMorphism.on_generators(self.domain, self.codomain, g_imgs))

    def inherit(self, old: "CdgaHomotopy"):
        """Take old's I_H(n) in the degrees where the domain did not change,
        and old's values on monomials.

        Guarded: same codomain, a domain that is old's or extends it
        (`unchanged_below`), and the same value on each of old's generators.
        """
        below = unchanged_below(self.domain, old.domain)
        if self.codomain is not old.codomain or not below:
            raise InternalError("cannot carry integrals: the domain does not extend old's")
        for name, value in old.assignment.items():
            if self.assignment[name] != value:
                raise InternalError(f"the homotopy changed on {name}")
        pad = (0,) * (len(self.domain.generators) - len(old.domain.generators))
        self._cache.update((key, v) if isinstance(key, int) else (key + pad, v)
                           for key, v in old._cache.items()
                           if not isinstance(key, int) or key < below)

    def integral_of(self, elem: CdgaElement) -> CdgaElement:
        return integrate_01(self.apply(elem))

    def integral_matrix(self, n: int) -> QMatrix:
        """I_H(n): M^n -> B^{n-1}, a -> int_0^1 H(a); column j is the integral
        of the j-th degree-n basis monomial of M."""
        if n not in self._cache:
            rows = self.codomain.dim(n - 1)
            cols = [self.codomain.to_vector(integrate_01(self._apply_mono(mono)), n - 1)
                    if rows else () for mono in self.domain.basis_keys(n)]
            self._cache[n] = QMatrix.from_columns(cols, rows)
        return self._cache[n]


def extend_homotopy(f: CdgaMorphism, h: CdgaHomotopy, v: CdgaElement,
                    a: CdgaElement, y: Optional[CdgaElement]) -> IntervalElement:
    """Value of the extended homotopy on a new generator x with dx = v.

    H(x) = f(a) + int_0^t H(v), where a is the image of x under the extended
    map into f's domain; a class bounded at the far end by y (None when it
    is not) adds the correction d(y (x) t).
    """
    out = IntervalElement.constant(f.apply(a)) + integrate_0t(h.apply(v))
    if y is not None:
        out = out + interval_d(IntervalElement.t_power(y, 1))
    return out


def check_homotopy_identity(h: CdgaHomotopy, max_degree: int,
                            names: Optional[Sequence[str]] = None) -> list[str]:
    """Verify d(IH a) + IH(da) = g(a) - f(a) on every domain monomial <= max_degree,
    or on the generators `names`, as d_B(n-1) I_H(n) + I_H(n+1) d_M(n) = g - f
    on the columns of degree n (without the I_H(n+1) term above M's cap), with
    g(a) - f(a) read off the memoised H(a); one message per failing column.
    """
    dom = h.domain
    problems = []
    for n in range(max_degree + 1):
        keys = dom.basis_keys(n)
        if names is None:
            cols: Sequence[int] = range(len(keys))
        else:
            cols = [dom.key_position(n, next(iter(dom.gen(x).terms))) for x in names
                    if dom.generators[dom.index_of[x]].degree == n]
            if not cols:
                continue
        values = (h._apply_mono(keys[j]) for j in cols)
        rhs = QMatrix.from_columns([h.codomain.to_vector(eval_at_1(a) - eval_at_0(a), n)
                                    for a in values], h.codomain.dim(n))

        def part(m: QMatrix) -> QMatrix:
            return m if names is None else QMatrix.from_columns(
                [m.column(j) for j in cols], m.rows)

        lhs = h.codomain.d_matrix(n - 1) @ part(h.integral_matrix(n))
        if n + 1 <= dom.degree_cap:
            lhs = lhs.add(h.integral_matrix(n + 1) @ part(dom.d_matrix(n)))
        problems += [f"identity fails on {dom.key_repr(keys[j])}"
                     for i, j in enumerate(cols) if lhs.column(i) != rhs.column(i)]
    return problems


class ConeComplex:
    """Mapping cone of (the cochain map underlying) m: M -> A.

    C^n = M^{n+1} + A^n with d(v, a) = (dv, m(v) - da); degrees run from -1
    so that H^0 is honest.  Carries no algebra structure.  d_C(n) is the block
    matrix [[d_M(n+1), 0], [m(n+1), -d_A(n)]] of the matrices M, A and m cache.
    """

    def __init__(self, m: CdgaMorphism):
        self.m = m
        self.domain = m.domain
        self.target = m.codomain
        # d: C^n -> C^{n+1} reads M^{n+2}; stay a degree below the cap.
        self.max_degree = min(self.domain.degree_cap, self.target.degree_cap) - 1
        self._d_cache: dict[int, QMatrix] = {}
        self._h_cache: dict[int, CohomologySpace] = {}

    def dim_m(self, n: int) -> int:
        return self.domain.dim(n + 1)

    def dim_a(self, n: int) -> int:
        return self.target.dim(n)

    def dim(self, n: int) -> int:
        if n < -1 or n > self.max_degree:
            return 0
        return self.dim_m(n) + self.dim_a(n)

    def unpack(self, n: int, w) -> tuple[CdgaElement, CdgaElement]:
        dm = self.dim_m(n)
        v = self.domain.from_vector(n + 1, w[:dm]) if dm else self.domain.zero()
        a = self.target.from_vector(n, w[dm:]) if self.dim_a(n) else self.target.zero()
        return v, a

    def include_target(self, a: CdgaElement, n: int) -> Vector:
        """The natural map A -> C, a -> (0, -a)."""
        return (ZERO,) * self.dim_m(n) + self.target.to_vector(a.scale(-1), n)

    def d_matrix(self, n: int) -> QMatrix:
        if n not in self._d_cache:
            if n + 1 > self.max_degree:
                self._d_cache[n] = QMatrix(0, self.dim_m(n) + self.dim_a(n))
            else:
                self._d_cache[n] = vstack([
                    hstack([self.domain.d_matrix(n + 1),
                            QMatrix.zero(self.dim_m(n + 1), self.dim_a(n))]),
                    hstack([self.m.matrix(n + 1), self.target.d_matrix(n).scale(-1)])])
        return self._d_cache[n]

    def cohomology_space(self, n: int) -> CohomologySpace:
        """H^n of the cone; valid for n <= max_degree - 1."""
        if n > self.max_degree - 1:
            raise ValidationError(f"cone cohomology degree {n} exceeds reliable range")
        if n not in self._h_cache:
            d_in = self.d_matrix(n - 1) if n - 1 >= -1 else None
            self._h_cache[n] = compute_cohomology(self.d_matrix(n), d_in,
                                                  self._h_cache.get(n - 1))
        return self._h_cache[n]

    def carry_cohomology(self, old: "ConeComplex"):
        """Take old's H^n where the domain did not change in degrees n+1 and
        n+2, once our d(n-1) and d(n), stacked from our own (carried) blocks,
        equal old's: an extension leaves the cone unchanged there, so a
        differing block is an error."""
        through = unchanged_below(self.domain, old.domain) - 3
        carried = [n for n in old._h_cache if n <= through]
        for j in sorted({j for n in carried for j in (n - 1, n)}):
            if self.d_matrix(j) != old.d_matrix(j):
                raise InternalError(f"cone d({j}) differs from the previous cone's")
        self._h_cache.update((n, old._h_cache[n]) for n in carried)

    def h_dim(self, n: int) -> int:
        return self.cohomology_space(n).dim


def cone(m: CdgaMorphism) -> ConeComplex:
    return ConeComplex(m)


def connectivity_failures(cones: Sequence[ConeComplex], through: int) -> list[str]:
    """Each nonzero H^j, j <= through, of the stage cones C_m(r) = cones[r]."""
    return [f"H^{j} C_m({r}) has dimension {c.h_dim(j)}" for r, c in enumerate(cones)
            for j in range(through + 1) if c.h_dim(j)]


@dataclass
class HomotopySquare:
    """A square commuting up to H: top u: M -> N, bottom w: A -> B,
    left m: M -> A, right n: N -> B, with H from w o m to n o u."""

    top: CdgaMorphism
    bottom: CdgaMorphism
    left: CdgaMorphism
    right: CdgaMorphism
    homotopy: CdgaHomotopy

    def validate(self, names: Optional[Iterable[str]] = None) -> list[str]:
        """Generators (of all, or of `names`) on which H does not start at
        bottom o left or end at right o top."""
        problems = []
        for name in (g.name for g in self.left.domain.generators) if names is None else names:
            value = self.homotopy.assignment[name]
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
                self._mat_cache[n] = vstack([
                    hstack([sq.top.matrix(n + 1),
                            QMatrix.zero(self.target.dim_m(n), src.dim_a(n))]),
                    hstack([sq.homotopy.integral_matrix(n + 1), sq.bottom.matrix(n)])])
        return self._mat_cache[n]

    def check_chain_map(self, degrees: Optional[Sequence[int]] = None):
        """d phi(n) = phi(n+1) d for each n in degrees (default: -1 to one below
        the lower max_degree of the two cones, past which d_C reads nothing)."""
        top = min(self.source.max_degree, self.target.max_degree)
        for n in range(-1, top) if degrees is None else degrees:
            lhs = self.target.d_matrix(n) @ self.matrix(n)
            rhs = self.matrix(n + 1) @ self.source.d_matrix(n)
            if lhs != rhs:
                raise InternalError(f"cone map fails to be a cochain map in degree {n}")


def cone_map(square: HomotopySquare) -> ConeMap:
    """The cone map of a square, after checking that it commutes up to H."""
    problems = square.validate()
    if problems:
        raise ValidationError(f"square does not commute up to H: {problems[0]}")
    return ConeMap(square, cone(square.left), cone(square.right))
