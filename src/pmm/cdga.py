"""Graded-commutative algebra kernel: free (Sullivan) and finite CDGAs.

Free algebras are presented by ordered generators with prescribed cocycle
differentials; elements are rational combinations of normalized monomials
(exponent tuples aligned with the generator order, odd generators squaring
to zero).  Finite CDGAs are presented by labeled bases per degree with
structure constants.  Both carry a mandatory degree cap: products and
differentials truncate above the cap, which is a legitimate CDGA quotient
because both operations only raise degree.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import mul
from typing import Iterable, Mapping, Optional, Sequence, Union

from .cochain import CohomologySpace, compute_cohomology
from .errors import InternalError, ValidationError
from .exactla import ONE, QMatrix, Vector, frac

Monomial = tuple[int, ...]
FiniteKey = tuple[int, int]  # (degree, index)


@dataclass(frozen=True)
class Generator:
    name: str
    degree: int

    def __post_init__(self):
        if self.degree < 1:
            raise ValidationError(f"generator {self.name} must have degree >= 1")


class CdgaElement:
    """Finite rational combination of basis keys of one algebra."""

    __slots__ = ("algebra", "terms")

    def __init__(self, algebra, terms: Mapping):
        self.algebra = algebra
        self.terms = {k: frac(c) for k, c in terms.items() if c != 0}

    def is_zero(self) -> bool:
        return not self.terms

    def homogeneous_degree(self) -> Optional[int]:
        """Degree if homogeneous (zero counts as any degree); None if mixed."""
        degs = {self.algebra.key_degree(k) for k in self.terms}
        if not degs:
            return None
        if len(degs) > 1:
            raise ValidationError(f"element is not homogeneous: degrees {sorted(degs)}")
        return degs.pop()

    def __add__(self, other: "CdgaElement") -> "CdgaElement":
        self._same(other)
        out = dict(self.terms)
        for k, c in other.terms.items():
            out[k] = out.get(k, Fraction(0)) + c
        return CdgaElement(self.algebra, out)

    def __sub__(self, other: "CdgaElement") -> "CdgaElement":
        return self + other.scale(-1)

    def scale(self, c) -> "CdgaElement":
        c = frac(c)
        return CdgaElement(self.algebra, {k: c * v for k, v in self.terms.items()})

    def __mul__(self, other: "CdgaElement") -> "CdgaElement":
        return multiply(self, other)

    def __eq__(self, other) -> bool:
        return (isinstance(other, CdgaElement) and self.algebra is other.algebra
                and self.terms == other.terms)

    def __hash__(self):
        return hash((id(self.algebra), tuple(sorted(self.terms.items()))))

    def __repr__(self):
        if not self.terms:
            return "<0>"
        bits = [f"{c}*{self.algebra.key_repr(k)}" for k, c in sorted(self.terms.items())]
        return "<" + " + ".join(bits) + ">"

    def _same(self, other: "CdgaElement"):
        if self.algebra is not other.algebra:
            raise ValidationError("elements belong to different algebras")


class _GradedAlgebra:
    """What free and finite CDGAs share, given basis keys, vectors and d_key."""

    def zero(self) -> CdgaElement:
        return CdgaElement(self, {})

    def one(self) -> CdgaElement:
        return CdgaElement(self, {self.unit_key: ONE})

    def d_matrix(self, n: int) -> QMatrix:
        if n not in self._dmat_cache:
            src = self.basis_keys(n)
            dst_dim = self.dim(n + 1)
            cols = [self.to_vector(self.d_key(k), n + 1) if dst_dim else ()
                    for k in src]
            self._dmat_cache[n] = QMatrix.from_columns(cols, dst_dim)
        return self._dmat_cache[n]

    def cohomology_space(self, n: int) -> CohomologySpace:
        if n not in self._h_cache:
            d_in = self.d_matrix(n - 1) if n >= 1 else None
            self._h_cache[n] = compute_cohomology(self.d_matrix(n), d_in,
                                                  self._h_cache.get(n - 1))
        return self._h_cache[n]


class FreeCDGA(_GradedAlgebra):
    """Free graded-commutative algebra on named generators, degree-capped.

    Differentials are supplied as term dicts (Monomial -> coefficient), which
    only reference the generator order, so they can be prepared before the
    algebra object exists.
    """

    kind = "free"

    def __init__(self, generators: Sequence[Generator],
                 differential_terms: Mapping[str, Mapping[Monomial, Fraction]],
                 degree_cap: int, base: Optional["FreeCDGA"] = None):
        names = [g.name for g in generators]
        if len(set(names)) != len(names):
            raise ValidationError(f"duplicate generator names: {names}")
        self.generators = tuple(generators)
        self.degree_cap = degree_cap
        self.index_of = {g.name: i for i, g in enumerate(self.generators)}
        self._degrees = tuple(g.degree for g in self.generators)
        self._odd = tuple(i for i, g in enumerate(self.generators) if g.degree % 2 == 1)
        self._basis_cache: dict[int, tuple[Monomial, ...]] = {}
        self._basis_pos: dict[int, dict[Monomial, int]] = {}
        self._dmono_cache: dict[Monomial, CdgaElement] = {}
        self._dmat_cache: dict[int, QMatrix] = {}
        self._h_cache: dict[int, CohomologySpace] = {}
        self._diff = {g.name: CdgaElement(self, differential_terms.get(g.name, {}))
                      for g in self.generators}
        checked = 0
        if base is not None:
            if not self.extends(base):
                raise ValidationError("generators do not extend the base algebra's")
            checked = len(base.generators)
            self._inherit(base)
        for g in self.generators[checked:]:
            for mono in self._diff[g.name].terms:
                if self.key_degree(mono) != g.degree + 1:
                    raise ValidationError(
                        f"d({g.name}) must be homogeneous of degree {g.degree + 1}")
        for g in self.generators[checked:]:
            if not differential(self._diff[g.name]).is_zero():
                raise ValidationError(f"d(d({g.name})) != 0")

    def extends(self, base: "FreeCDGA") -> bool:
        """Our generators begin with base's, with the same differentials, and
        the caps agree: then base is a sub-CDGA, and every degree below the
        first further generator has base's basis (padded) and differential."""
        n = len(base.generators)
        if self.degree_cap != base.degree_cap or self.generators[:n] != base.generators:
            return False
        pad = (0,) * (len(self.generators) - n)
        return all(self._diff[g.name].terms == _padded(base._diff[g.name].terms, pad)
                   for g in base.generators)

    def _inherit(self, base: "FreeCDGA"):
        """Take base's basis keys and d-matrices in the degrees we share, and
        its differentials of monomials (self extends base)."""
        added = self.generators[len(base.generators):]
        low = min((g.degree for g in added), default=self.degree_cap + 1)
        pad = (0,) * len(added)
        for n, keys in base._basis_cache.items():
            if n < low:
                self._basis_cache[n] = tuple(m + pad for m in keys) if pad else keys
                self._basis_pos[n] = ({m: i for i, m in enumerate(self._basis_cache[n])}
                                      if pad else base._basis_pos[n])
        for n, mat in base._dmat_cache.items():
            if n + 1 < low:
                self._dmat_cache[n] = mat
        for m, dm in base._dmono_cache.items():
            self._dmono_cache[m + pad] = CdgaElement(self, _padded(dm.terms, pad))

    # -- basis bookkeeping ------------------------------------------------

    def key_degree(self, mono: Monomial) -> int:
        return sum(map(mul, mono, self._degrees))

    def key_repr(self, mono: Monomial) -> str:
        parts = [f"{g.name}^{e}" if e > 1 else g.name
                 for e, g in zip(mono, self.generators) if e]
        return "*".join(parts) if parts else "1"

    @property
    def unit_key(self) -> Monomial:
        return (0,) * len(self.generators)

    def basis_keys(self, n: int) -> tuple[Monomial, ...]:
        """All degree-n monomials, ordered by (total exponent, lexicographic)."""
        if n > self.degree_cap:
            raise ValidationError(f"degree {n} above cap {self.degree_cap}")
        if n not in self._basis_cache:
            found: list[Monomial] = []

            def rec(i: int, remaining: int, acc: list[int]):
                if remaining == 0:
                    found.append(tuple(acc + [0] * (len(self.generators) - i)))
                    return
                if i == len(self.generators):
                    return
                g = self.generators[i]
                max_e = 1 if g.degree % 2 == 1 else remaining // g.degree
                for e in range(min(max_e, remaining // g.degree) + 1):
                    rec(i + 1, remaining - e * g.degree, acc + [e])

            rec(0, n, [])
            found.sort(key=lambda m: (sum(m), m))
            self._basis_cache[n] = tuple(found)
            self._basis_pos[n] = {m: i for i, m in enumerate(found)}
        return self._basis_cache[n]

    def dim(self, n: int) -> int:
        if n < 0 or n > self.degree_cap:
            return 0
        return len(self.basis_keys(n))

    def key_position(self, n: int, key: Monomial) -> int:
        self.basis_keys(n)
        return self._basis_pos[n][key]

    # -- element constructors ---------------------------------------------

    def gen(self, name: str) -> CdgaElement:
        i = self.index_of[name]
        mono = tuple(1 if j == i else 0 for j in range(len(self.generators)))
        return CdgaElement(self, {mono: ONE})

    def generator_diff(self, name: str) -> CdgaElement:
        return self._diff[name]

    def element(self, terms: Mapping[Monomial, Fraction]) -> CdgaElement:
        return CdgaElement(self, terms)

    def to_vector(self, elem: CdgaElement, n: int) -> Vector:
        basis = self.basis_keys(n)
        pos = self._basis_pos[n]
        out = [Fraction(0)] * len(basis)
        for k, c in elem.terms.items():
            if self.key_degree(k) != n:
                raise ValidationError(f"term of degree {self.key_degree(k)} in degree-{n} vector")
            out[pos[k]] = c
        return tuple(out)

    def from_vector(self, n: int, coords: Sequence) -> CdgaElement:
        basis = self.basis_keys(n)
        return CdgaElement(self, {k: c for k, c in zip(basis, coords, strict=True)})

    # -- multiplication and differential ----------------------------------

    def mul_keys(self, m1: Monomial, m2: Monomial):
        """(sign, product monomial), or None when the product is zero."""
        deg = self.key_degree(m1) + self.key_degree(m2)
        if deg > self.degree_cap:
            return None
        odd1 = [i for i in self._odd if m1[i]]
        odd2 = [i for i in self._odd if m2[i]]
        if set(odd1) & set(odd2):
            return None
        inversions = sum(1 for i in odd1 for j in odd2 if i > j)
        sign = -ONE if inversions % 2 else ONE
        return sign, tuple(a + b for a, b in zip(m1, m2))

    def d_key(self, mono: Monomial) -> CdgaElement:
        """Leibniz differential of one monomial."""
        if mono in self._dmono_cache:
            return self._dmono_cache[mono]
        word = [i for i, e in enumerate(mono) for _ in range(e)]
        result = self.zero()
        prefix_deg = 0
        for pos, gi in enumerate(word):
            dg = self._diff[self.generators[gi].name]
            if not dg.is_zero():
                pre = self._word_monomial(word[:pos])
                suf = self._word_monomial(word[pos + 1:])
                sign = -ONE if prefix_deg % 2 else ONE
                result = result + (pre * dg * suf).scale(sign)
            prefix_deg += self.generators[gi].degree
        self._dmono_cache[mono] = result
        return result

    def _word_monomial(self, word: list[int]) -> CdgaElement:
        counts = [0] * len(self.generators)
        for i in word:
            counts[i] += 1
        return CdgaElement(self, {tuple(counts): ONE})

    # -- derived structure --------------------------------------------------

    def is_simply_connected(self) -> bool:
        return self.cohomology_space(1).dim == 0  # generators have degree >= 1

    def embed_terms(self, elem: CdgaElement, target: "FreeCDGA") -> CdgaElement:
        """Re-express an element in a free algebra whose generators extend ours."""
        out: dict[Monomial, Fraction] = {}
        for mono, c in elem.terms.items():
            tm = [0] * len(target.generators)
            for e, g in zip(mono, self.generators):
                if e:
                    tm[target.index_of[g.name]] = e
            out[tuple(tm)] = out.get(tuple(tm), Fraction(0)) + c
        return CdgaElement(target, out)


class FiniteCDGA(_GradedAlgebra):
    """Finite-dimensional CDGA given by labeled bases and structure constants."""

    kind = "finite"

    def __init__(self, basis: Mapping[int, Sequence[str]], unit: str,
                 products: Mapping[tuple[str, str], Mapping[str, Fraction]],
                 differential: Mapping[str, Mapping[str, Fraction]],
                 degree_cap: int):
        self.degree_cap = degree_cap
        self.labels: dict[int, tuple[str, ...]] = {
            int(k): tuple(v) for k, v in basis.items() if v}
        if 0 not in self.labels or self.labels[0] != (unit,):
            raise ValidationError("degree 0 must be exactly the unit basis element")
        if max(self.labels) > degree_cap:
            raise ValidationError("basis element above the degree cap")
        self.unit_label = unit
        self._key_of_label: dict[str, FiniteKey] = {}
        self._label_degrees: dict[str, int] = {}
        for deg, labs in self.labels.items():
            for i, lab in enumerate(labs):
                if lab in self._key_of_label:
                    raise ValidationError(f"duplicate basis label {lab}")
                self._key_of_label[lab] = (deg, i)
                self._label_degrees[lab] = deg
        self._h_cache: dict[int, CohomologySpace] = {}
        self._dmat_cache: dict[int, QMatrix] = {}

        self._diff: dict[FiniteKey, dict[FiniteKey, Fraction]] = {}
        for lab, terms in differential.items():
            key = self.key_of_label(lab)
            self._diff[key] = self._label_terms(terms, self._label_degrees[lab] + 1)
        self._products: dict[tuple[FiniteKey, FiniteKey], dict[FiniteKey, Fraction]] = {}
        for (l1, l2), terms in products.items():
            k1, k2 = self.key_of_label(l1), self.key_of_label(l2)
            deg = k1[0] + k2[0]
            if deg > degree_cap:
                continue
            self._products[(k1, k2)] = self._label_terms(terms, deg)
        self._symmetrize_products()
        self._validate()

    def _label_terms(self, terms: Mapping[str, Fraction], want_degree: int
                     ) -> dict[FiniteKey, Fraction]:
        out = {}
        for lab, c in terms.items():
            c = frac(c)
            if c == 0:
                continue
            key = self.key_of_label(lab)
            if key[0] != want_degree:
                raise ValidationError(
                    f"term {lab} has degree {key[0]}, expected {want_degree}")
            out[key] = c
        return out

    def _symmetrize_products(self):
        for (k1, k2) in list(self._products):
            sign = -ONE if (k1[0] % 2 and k2[0] % 2) else ONE
            flipped = {k: sign * c for k, c in self._products[(k1, k2)].items()}
            if (k2, k1) in self._products:
                if self._products[(k2, k1)] != flipped:
                    raise ValidationError(
                        f"products for {k1},{k2} break graded commutativity")
            else:
                self._products[(k2, k1)] = flipped

    def _validate(self):
        one = self.one()
        keys = [k for labs in self.labels.values() for k in
                (self.key_of_label(lab) for lab in labs)]
        for k in keys:
            e = CdgaElement(self, {k: ONE})
            if (one * e).terms != e.terms or (e * one).terms != e.terms:
                raise ValidationError(f"unit fails on {self.label_of(k)}")
        for k1 in keys:
            for k2 in keys:
                a, b = CdgaElement(self, {k1: ONE}), CdgaElement(self, {k2: ONE})
                sign = -ONE if (k1[0] % 2 and k2[0] % 2) else ONE
                if (a * b).terms != (b * a).scale(sign).terms:
                    raise ValidationError(
                        f"commutativity fails on {self.label_of(k1)},{self.label_of(k2)}")
                lhs = differential(a * b)
                sgn = -ONE if k1[0] % 2 else ONE
                rhs = differential(a) * b + (a * differential(b)).scale(sgn)
                if lhs.terms != rhs.terms:
                    raise ValidationError(
                        f"Leibniz fails on {self.label_of(k1)},{self.label_of(k2)}")
                for k3 in keys:
                    if k1[0] + k2[0] + k3[0] > self.degree_cap:
                        continue
                    c = CdgaElement(self, {k3: ONE})
                    if ((a * b) * c).terms != (a * (b * c)).terms:
                        raise ValidationError("associativity fails")
        for k in keys:
            if not differential(differential(CdgaElement(self, {k: ONE}))).is_zero():
                raise ValidationError(f"d(d({self.label_of(k)})) != 0")

    # -- shared interface ---------------------------------------------------

    def key_degree(self, key: FiniteKey) -> int:
        return key[0]

    def key_repr(self, key: FiniteKey) -> str:
        return self.label_of(key)

    def key_of_label(self, lab: str) -> FiniteKey:
        if lab not in self._key_of_label:
            raise ValidationError(f"unknown basis label {lab}")
        return self._key_of_label[lab]

    def label_of(self, key: FiniteKey) -> str:
        return self.labels[key[0]][key[1]]

    @property
    def unit_key(self) -> FiniteKey:
        return (0, 0)

    def basis_keys(self, n: int) -> tuple[FiniteKey, ...]:
        return tuple((n, i) for i in range(len(self.labels.get(n, ()))))

    def dim(self, n: int) -> int:
        return len(self.labels.get(n, ()))

    def key_position(self, n: int, key: FiniteKey) -> int:
        return key[1]

    def basis_elem(self, lab: str) -> CdgaElement:
        return CdgaElement(self, {self.key_of_label(lab): ONE})

    def to_vector(self, elem: CdgaElement, n: int) -> Vector:
        out = [Fraction(0)] * self.dim(n)
        for k, c in elem.terms.items():
            if k[0] != n:
                raise ValidationError("inhomogeneous element in to_vector")
            out[k[1]] = c
        return tuple(out)

    def from_vector(self, n: int, coords: Sequence) -> CdgaElement:
        return CdgaElement(self, {(n, i): c for i, c in enumerate(coords)})

    def mul_keys(self, k1: FiniteKey, k2: FiniteKey):
        if k1[0] + k2[0] > self.degree_cap:
            return None
        if k1 == self.unit_key:
            return ONE, k2
        if k2 == self.unit_key:
            return ONE, k1
        return self._products.get((k1, k2), {})

    def d_key(self, key: FiniteKey) -> CdgaElement:
        return CdgaElement(self, self._diff.get(key, {}))

    def is_simply_connected(self) -> bool:
        return self.cohomology_space(0).dim == 1 and self.cohomology_space(1).dim == 0


Algebra = Union[FreeCDGA, FiniteCDGA]


def multiply(u: CdgaElement, v: CdgaElement) -> CdgaElement:
    """Koszul-signed bilinear product, truncated above the degree cap."""
    u._same(v)
    alg = u.algebra
    out: dict = {}
    for k1, c1 in u.terms.items():
        for k2, c2 in v.terms.items():
            r = alg.mul_keys(k1, k2)
            if r is None:
                continue
            if isinstance(r, tuple):
                sign, key = r
                out[key] = out.get(key, Fraction(0)) + sign * c1 * c2
            else:
                for key, c in r.items():
                    out[key] = out.get(key, Fraction(0)) + c * c1 * c2
    return CdgaElement(alg, out)


def differential(u: CdgaElement) -> CdgaElement:
    alg = u.algebra
    out = alg.zero()
    for k, c in u.terms.items():
        out = out + alg.d_key(k).scale(c)
    return out


def monomial_basis(a: FreeCDGA, n: int) -> tuple[Monomial, ...]:
    return a.basis_keys(n)


def cohomology(a: Algebra, n: int) -> tuple[int, list[CdgaElement]]:
    """(dimension, deterministic representative elements) of H^n."""
    if n >= a.degree_cap:
        raise ValidationError(f"cohomology degree {n} needs degree {n + 1} <= cap")
    space = a.cohomology_space(n)
    return space.dim, [a.from_vector(n, r) for r in space.reps]


def check_minimality(algebra: FreeCDGA) -> None:
    """Every generator has degree >= 2 and a decomposable differential."""
    for g in algebra.generators:
        if g.degree < 2:
            raise InternalError(f"generator {g.name} has degree {g.degree} < 2")
        for mono in algebra.generator_diff(g.name).terms:
            if sum(mono) < 2:
                raise InternalError(f"d({g.name}) has an indecomposable term")


def indecomposables(a: FreeCDGA, k: int) -> tuple[int, list[str]]:
    """Q^k of a free connected algebra: its degree-k generators."""
    names = [g.name for g in a.generators if g.degree == k]
    return len(names), names


def free_cdga(gens: Iterable[tuple[str, int]],
              diffs: Mapping[str, CdgaElement | Mapping[Monomial, Fraction]] | None = None,
              degree_cap: int = 8) -> FreeCDGA:
    """Convenience constructor; differentials may be elements of a same-order scratch algebra."""
    generators = [Generator(n, d) for n, d in gens]
    raw: dict[str, Mapping[Monomial, Fraction]] = {}
    for name, val in (diffs or {}).items():
        raw[name] = val.terms if isinstance(val, CdgaElement) else val
    return FreeCDGA(generators, raw, degree_cap)


def hirsch_extend(a: FreeCDGA, new_gens: Sequence[tuple[str, int, CdgaElement]]
                  ) -> tuple[FreeCDGA, "CdgaMorphism"]:
    """Adjoin free generators with prescribed cocycle differentials.

    Returns the extended algebra and the inclusion morphism.  Degree cap is
    inherited; each d_image must be a cocycle in `a` of degree gen+1.  The
    extension is one FreeCDGA over base `a`: it checks d^2 = 0 on the new
    generators only and takes a's basis keys and d-matrices below them.
    """
    for name, deg, img in new_gens:
        if img.algebra is not a:
            raise ValidationError("d_image must live in the base algebra")
        if not img.is_zero() and img.homogeneous_degree() != deg + 1:
            raise ValidationError(f"d({name}) must have degree {deg + 1}")
    gens = list(a.generators) + [Generator(n, d) for n, d, _ in new_gens]
    pad = (0,) * len(new_gens)
    diffs = {g.name: _padded(a.generator_diff(g.name).terms, pad) for g in a.generators}
    diffs.update((name, _padded(img.terms, pad)) for name, _, img in new_gens)
    out = FreeCDGA(gens, diffs, a.degree_cap, base=a)
    incl = CdgaMorphism.on_generators(a, out, {g.name: out.gen(g.name) for g in a.generators})
    return out, incl


def _padded(terms: Mapping[Monomial, Fraction], pad: Monomial) -> dict[Monomial, Fraction]:
    """Terms over generators extended by len(pad) more: each monomial + pad."""
    return {m + pad: c for m, c in terms.items()}


def unchanged_below(new: Algebra, old: Algebra) -> int:
    """The degree below which `new` has old's basis (padded) and differential:
    past the cap when new is old, the first added generator's degree when new
    extends old, and 0 otherwise."""
    if new is old:
        return new.degree_cap + 1
    if new.kind == old.kind == "free" and new.extends(old):
        return min((g.degree for g in new.generators[len(old.generators):]),
                   default=new.degree_cap + 1)
    return 0


class CdgaMorphism:
    """Degree-preserving algebra map, given on generators or by degree matrices."""

    def __init__(self, domain: Algebra, codomain: Algebra, kind: str,
                 gen_images: Optional[dict[str, CdgaElement]] = None,
                 matrices: Optional[dict[int, QMatrix]] = None):
        self.domain = domain
        self.codomain = codomain
        self.kind = kind
        self.gen_images = gen_images or {}
        self._matrices = matrices or {}
        self._mono_cache: dict = {}
        self._mat_cache: dict[int, QMatrix] = {}

    @classmethod
    def on_generators(cls, domain: FreeCDGA, codomain: Algebra,
                      images: dict[str, CdgaElement]) -> "CdgaMorphism":
        missing = {g.name for g in domain.generators} - set(images)
        if missing:
            raise ValidationError(f"missing generator images: {sorted(missing)}")
        return cls(domain, codomain, "free", gen_images=dict(images))

    @classmethod
    def on_basis(cls, domain: FiniteCDGA, codomain: Algebra,
                 images: dict[str, CdgaElement]) -> "CdgaMorphism":
        """Linear data from basis-label images (checked multiplicative later)."""
        mats: dict[int, QMatrix] = {}
        for n in range(domain.degree_cap + 1):
            keys = domain.basis_keys(n)
            if not keys:
                continue
            cols = []
            for k in keys:
                lab = domain.label_of(k)
                img = images.get(lab)
                if img is None:
                    raise ValidationError(f"missing image for basis label {lab}")
                cols.append(codomain.to_vector(img, n))
            mats[n] = QMatrix.from_columns(cols, codomain.dim(n))
        return cls(domain, codomain, "linear", matrices=mats)

    @classmethod
    def identity(cls, a: Algebra) -> "CdgaMorphism":
        if a.kind == "free":
            return cls.on_generators(a, a, {g.name: a.gen(g.name) for g in a.generators})
        mats = {n: QMatrix.identity(a.dim(n)) for n in range(a.degree_cap + 1)}
        return cls(a, a, "linear", matrices=mats)

    def apply(self, elem: CdgaElement) -> CdgaElement:
        if elem.algebra is not self.domain:
            raise ValidationError("element not in the morphism domain")
        if self.kind == "free":
            out = self.codomain.zero()
            for mono, c in elem.terms.items():
                out = out + self._apply_mono(mono).scale(c)
            return out
        out = self.codomain.zero()
        by_degree: dict[int, dict] = {}
        for k, c in elem.terms.items():
            by_degree.setdefault(self.domain.key_degree(k), {})[k] = c
        for n, terms in by_degree.items():
            v = self.domain.to_vector(CdgaElement(self.domain, terms), n)
            mat = self._matrices.get(n)
            if mat is None:
                continue
            out = out + self.codomain.from_vector(n, mat.apply(v))
        return out

    def _apply_mono(self, mono: Monomial) -> CdgaElement:
        if mono in self._mono_cache:
            return self._mono_cache[mono]
        out = self.codomain.one()
        for i, e in enumerate(mono):
            img = self.gen_images[self.domain.generators[i].name]
            for _ in range(e):
                out = out * img
        self._mono_cache[mono] = out
        return out

    def inherit(self, old: "CdgaMorphism"):
        """Take old's matrices in the degrees where neither end changed, and
        old's images of monomials when the codomain is old's.

        Guarded: each end of self is old's or extends it (`unchanged_below`),
        and old's generators keep their images (padded into an extended codomain).
        """
        below = min(unchanged_below(self.domain, old.domain),
                    unchanged_below(self.codomain, old.codomain))
        if (self.kind, old.kind) != ("free", "free") or not below:
            raise InternalError("cannot carry matrices: the ends do not extend old's")
        same_codomain = self.codomain is old.codomain
        pad = (0,) * (len(self.domain.generators) - len(old.domain.generators))
        cpad = () if same_codomain else (0,) * (
            len(self.codomain.generators) - len(old.codomain.generators))
        for g in old.domain.generators:
            if self.gen_images[g.name].terms != _padded(old.gen_images[g.name].terms, cpad):
                raise InternalError(f"the image of {g.name} changed")
        self._mat_cache.update((n, m) for n, m in old._mat_cache.items() if n < below)
        if same_codomain:
            self._mono_cache.update((m + pad, v) for m, v in old._mono_cache.items())

    def matrix(self, n: int) -> QMatrix:
        """Matrix of the degree-n component in the chosen bases."""
        if n not in self._mat_cache:
            if self.kind == "linear":
                self._mat_cache[n] = self._matrices.get(
                    n, QMatrix.zero(self.codomain.dim(n), self.domain.dim(n)))
            else:
                cols = [self.codomain.to_vector(self._apply_mono(m), n)
                        for m in self.domain.basis_keys(n)]
                self._mat_cache[n] = QMatrix.from_columns(cols, self.codomain.dim(n))
        return self._mat_cache[n]


def linear_part(f: CdgaMorphism, dom_names: Sequence[str],
                cod_names: Sequence[str]) -> QMatrix:
    """Matrix of the linear part of a map of free algebras between named generators."""
    pos = {name: i for i, name in enumerate(cod_names)}
    cols = []
    for name in dom_names:
        col = [0] * len(cod_names)
        for mono, c in f.gen_images[name].terms.items():
            if sum(mono) == 1:
                gname = f.codomain.generators[mono.index(1)].name
                if gname in pos:
                    col[pos[gname]] = c
        cols.append(tuple(col))
    return QMatrix.from_columns(cols, len(cod_names))


def validate_morphism(f: CdgaMorphism, names: Optional[Iterable[str]] = None) -> list[str]:
    """Violation report; empty list means the morphism is valid.  A map given
    on generators is checked on every generator, or on those in `names`."""
    cap = min(f.domain.degree_cap, f.codomain.degree_cap)
    problems: list[str] = []
    if f.kind == "free":
        gens = f.domain.generators
        for g in gens if names is None else [gens[f.domain.index_of[x]] for x in names]:
            img = f.gen_images[g.name]
            if not img.is_zero():
                try:
                    if img.homogeneous_degree() != g.degree:
                        problems.append(f"image of {g.name} has wrong degree")
                        continue
                except ValidationError:
                    problems.append(f"image of {g.name} is inhomogeneous")
                    continue
            lhs = f.apply(f.domain.generator_diff(g.name))
            rhs = differential(img)
            if lhs.terms != rhs.terms:
                problems.append(f"d-compatibility fails on generator {g.name}")
    else:
        dom: FiniteCDGA = f.domain  # type: ignore[assignment]
        if not f.apply(dom.one()) == f.codomain.one():
            problems.append("unit not preserved")
        for n in range(min(cap, dom.degree_cap) + 1):
            if n + 1 <= cap:
                lhs = f.matrix(n + 1) @ dom.d_matrix(n)
                rhs = f.codomain.d_matrix(n) @ f.matrix(n)
                if lhs != rhs:
                    problems.append(f"d-compatibility fails in degree {n}")
        for k1 in [k for m in range(cap + 1) for k in dom.basis_keys(m)]:
            for k2 in [k for m in range(cap + 1) for k in dom.basis_keys(m)]:
                if k1[0] + k2[0] > cap:
                    continue
                a = CdgaElement(dom, {k1: ONE})
                b = CdgaElement(dom, {k2: ONE})
                if f.apply(a * b).terms != (f.apply(a) * f.apply(b)).terms:
                    problems.append(
                        f"multiplicativity fails on {dom.label_of(k1)},{dom.label_of(k2)}")
    return problems
