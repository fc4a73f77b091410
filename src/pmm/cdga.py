"""Graded-commutative algebra kernel: free (Sullivan) and finite CDGAs.

Free algebras are presented by ordered generators with prescribed cocycle
differentials; elements are rational combinations of normalized monomials,
each keyed by its (generator index, exponent >= 1) pairs in increasing index
order, `()` for the unit, odd generators squaring to zero.  A key does not
depend on the count of generators, so a monomial of ΛV is the same key in
every extension of ΛV.  Finite CDGAs are presented by labeled bases per degree with
structure constants.  Both carry a mandatory degree cap: products and
differentials truncate above the cap, which is a legitimate CDGA quotient
because both operations only raise degree.

`CdgaElement(algebra, terms)` coerces coefficients, drops zeros and, over a
free algebra, refuses a key that is no monomial; it is the constructor for
parsed input and callers outside the kernel.  The kernel's own results are made
by `CdgaElement._of`, which trusts its keys and its nonzero Fraction terms.
A basis depends only on the generator degrees: ΛV = ⊗_d Λ(V^d), symmetric
on each even degree d and exterior on each odd one, so `_monomials` picks a
multiset or a set from each degree class.  Free algebras with the same degree
tuple share one table of bases and positions, across stages, steps, builds
and checks; a table lives while some algebra holds it, and an extension
takes its base's bases below its first added generator.  What depends on
the differentials (d-matrices, cohomology, the carry guard's identity answer)
stays with each algebra.  A free algebra differentiates a monomial p·x by the
Leibniz rule on the memoised d(p), each product signed by `mul_keys`.  Bases
and `element_repr` list monomials in the order of their dense exponent
tuples (`_dense_order`).

A morphism is the images of its domain's basis keys: given, one per label, out
of a finite algebra; generated out of a free one, each monomial's image its
prefix's memoised image times one generator's, so one product per monomial.
`apply` and `matrix` read the images the same way for both.

A finite CDGA is checked once, when it is made, on its structure constants:
Leibniz on the basis pairs with a nonzero product or a differential,
associativity on the triples without a unit factor where ab or bc is nonzero,
and d² = 0; no other pair or triple can fail.  Graded commutativity and the
unit law are settled by construction: each product entry fixes its mirror
image, and the unit multiplies as the unit (`mul_keys`), so an entry that says
otherwise is refused.  A map out of one is checked multiplicative pair by
pair against its stored images of the basis.

`B.path` is Sullivan's path object B ⊗ Λ(t,dt), one per B; a homotopy is a
morphism into it (`pmm.homotopy`), made, checked and carried as any other.
"""
from __future__ import annotations

import weakref
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, combinations_with_replacement
from typing import Iterable, Mapping, Optional, Sequence, Union

from .cochain import CohomologySpace, cached_cohomology, chain_map_failures
from .errors import InternalError, ValidationError
from .exactla import ONE, QMatrix, Row, check_keys, frac

Monomial = tuple[tuple[int, int], ...]  # (generator index, exponent) pairs
FiniteKey = tuple[int, int]  # (degree, index)


def _dense_order(mono: Monomial) -> tuple:
    """A sort key under which monomials sort as their dense exponent tuples
    do: the pairs with each index negated, a shorter prefix counting as
    smaller."""
    return tuple([(-i, e) for i, e in mono])


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
        self.terms = _coerced(terms.items())
        if isinstance(algebra, FreeCDGA):
            for k in self.terms:
                if not _is_monomial(k, algebra._degrees):
                    raise ValidationError(f"{k!r:.60} is not a monomial of the algebra")

    @classmethod
    def _of(cls, algebra, terms: dict) -> "CdgaElement":
        """An element over `terms` as given, without coercion or filtering.

        Kernel use only: every coefficient must already be a nonzero Fraction,
        and `terms` becomes the element's own dict.
        """
        e = object.__new__(cls)
        e.algebra, e.terms = algebra, terms
        return e

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
        _add_into(out, other.terms)
        return CdgaElement._of(self.algebra, out)

    def __sub__(self, other: "CdgaElement") -> "CdgaElement":
        return self + other.scale(-1)

    def scale(self, c) -> "CdgaElement":
        c = frac(c)
        if not c:
            return CdgaElement._of(self.algebra, {})
        return CdgaElement._of(self.algebra, {k: c * v for k, v in self.terms.items()})

    def __mul__(self, other: "CdgaElement") -> "CdgaElement":
        return multiply(self, other)

    def __eq__(self, other) -> bool:
        return (isinstance(other, CdgaElement) and self.algebra is other.algebra
                and self.terms == other.terms)

    def __hash__(self):
        return hash((id(self.algebra), tuple(sorted(self.terms.items()))))

    def __repr__(self):
        return self.algebra.element_repr(self)

    def _same(self, other: "CdgaElement"):
        if self.algebra is not other.algebra:
            raise ValidationError("elements belong to different algebras")


def _coerced(pairs: Iterable[tuple]) -> dict:
    """{key: Fraction} of the (key, coefficient) pairs, zeros dropped."""
    return {k: frac(c) for k, c in pairs if c != 0}


def _add_into(out: dict, terms: Mapping, c: Optional[Fraction] = None):
    """out += c * terms (c = 1 when None), in place.  A key whose sum cancels
    is deleted at once, so `out` holds the terms, in the order, that adding
    the elements one at a time would give."""
    if c is ONE:
        c = None
    for k, v in terms.items():
        if c is not None:
            v = c * v
        if k in out:
            v += out[k]
            if v:
                out[k] = v
            else:
                del out[k]
        else:
            out[k] = v


class _GradedAlgebra:
    """What free and finite CDGAs share, given basis keys, vectors and d_key."""

    def zero(self) -> CdgaElement:
        return CdgaElement._of(self, {})

    def one(self) -> CdgaElement:
        return CdgaElement._of(self, {self.unit_key: ONE})

    def element_repr(self, elem: CdgaElement) -> str:
        if not elem.terms:
            return "<0>"
        bits = [f"{elem.terms[k]}*{self.key_repr(k)}"
                for k in sorted(elem.terms, key=self._term_order)]
        return "<" + " + ".join(bits) + ">"

    _path_ref = None
    _term_order = None  # element_repr's sort key of basis keys; None: the keys themselves

    @property
    def path(self) -> "PathAlgebra":
        """B ⊗ Λ(t,dt): one object per B while anything holds it, so that maps
        into it can be carried.  It holds B, and B holds it weakly: no cycle."""
        path = self._path_ref() if self._path_ref is not None else None
        if path is None:
            path = PathAlgebra(self)
            self._path_ref = weakref.ref(path)
        return path

    def from_vector(self, n: int, coords: Row) -> CdgaElement:
        """The degree-n element with these coordinates in the basis of A^n."""
        keys = self.basis_keys(n)
        check_keys(coords, len(keys), f"from_vector in degree {n}")
        return CdgaElement._of(self, _coerced((keys[j], coords[j]) for j in sorted(coords)))

    def is_simply_connected(self) -> bool:
        return self.cohomology_space(0).dim == 1 and self.cohomology_space(1).dim == 0

    def d_matrix(self, n: int) -> QMatrix:
        if n not in self._dmat_cache:
            src = self.basis_keys(n)
            dst_dim = self.dim(n + 1)
            cols = [self.to_sparse(self.d_key(k), n + 1) if dst_dim else {} for k in src]
            self._dmat_cache[n] = QMatrix._of_sparse_columns(cols, dst_dim)
        return self._dmat_cache[n]

    def cohomology_space(self, n: int) -> CohomologySpace:
        return cached_cohomology(self._h_cache, self.d_matrix, n, 0)


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
        # Bases and positions are a function of the generator degrees, so
        # every algebra with these degrees reads the same table.
        table = _BASES.get(self._degrees)
        if table is None:
            table = _BASES[self._degrees] = _Bases()
        self._basis_cache: dict[int, tuple[Monomial, ...]] = table
        self._basis_pos: dict[int, dict[Monomial, int]] = table.pos
        # Term dicts, not elements: an element would hold self, a cycle.
        self._dmono_cache: dict[Monomial, dict[Monomial, Fraction]] = {}
        self._dmat_cache: dict[int, QMatrix] = {}
        self._h_cache: dict[int, CohomologySpace] = {}
        self._diff = {g.name: _coerced(differential_terms.get(g.name, {}).items())
                      for g in self.generators}
        checked = 0
        if base is not None:
            if not self.extends(base):
                raise ValidationError("generators do not extend the base algebra's")
            checked = len(base.generators)
            self._inherit(base)
        for g in self.generators[checked:]:
            for mono in self._diff[g.name]:
                if not _is_monomial(mono, self._degrees):
                    raise ValidationError(f"d({g.name}) has a malformed monomial {mono!r:.60}")
                if self.key_degree(mono) != g.degree + 1:
                    raise ValidationError(
                        f"d({g.name}) must be homogeneous of degree {g.degree + 1}")
        for g in self.generators[checked:]:
            if not differential(self.generator_diff(g.name)).is_zero():
                raise ValidationError(f"d(d({g.name})) != 0")

    def extends(self, base: "FreeCDGA") -> bool:
        """Our generators begin with base's, with the same differentials, and
        the caps agree: then base is a sub-CDGA, and every degree below the
        first further generator has base's basis and differential."""
        n = len(base.generators)
        if self.degree_cap != base.degree_cap or self.generators[:n] != base.generators:
            return False
        return all(self._diff[g.name] == base._diff[g.name] for g in base.generators)

    _base_ref = None  # a weak reference to the base checked by `extends`

    def _inherit(self, base: "FreeCDGA"):
        """Take base's bases, positions and d-matrices in the degrees below
        the first added generator, and its differentials of monomials (self
        extends base), and name base weakly for `unchanged_below`.  The memo
        is copied, not shared: a sibling extension of base may give another
        generator our first added index."""
        added = self.generators[len(base.generators):]
        low = min((g.degree for g in added), default=self.degree_cap + 1)
        self._base_ref = weakref.ref(base)
        for n, pos in base._basis_pos.items():
            if n < low:
                self._basis_cache.setdefault(n, base._basis_cache[n])
                self._basis_pos.setdefault(n, pos)
        for n, mat in base._dmat_cache.items():
            if n + 1 < low:
                self._dmat_cache[n] = mat
        self._dmono_cache.update(base._dmono_cache)

    # -- basis bookkeeping ------------------------------------------------

    def key_degree(self, mono: Monomial) -> int:
        return sum([self._degrees[i] * e for i, e in mono])

    def key_repr(self, mono: Monomial) -> str:
        gens = self.generators
        parts = [f"{gens[i].name}^{e}" if e > 1 else gens[i].name for i, e in mono]
        return "*".join(parts) if parts else "1"

    unit_key: Monomial = ()
    _term_order = staticmethod(_dense_order)

    def basis_keys(self, n: int) -> tuple[Monomial, ...]:
        """All degree-n monomials (`_monomials`), ordered by total exponent
        and then as their dense exponent tuples (`_dense_order`).

        The table is shared by all algebras with the same generator degrees,
        so a basis any of them built, or an extension took from its base, is
        read, not built again.
        """
        if n > self.degree_cap:
            raise ValidationError(f"degree {n} above cap {self.degree_cap}")
        keys = self._basis_cache.get(n)
        if keys is None:
            found = _monomials(self._degrees, n)
            found.sort(key=lambda m: (sum([e for _, e in m]), _dense_order(m)))
            keys = self._basis_cache[n] = tuple(found)
            self._basis_pos[n] = {m: i for i, m in enumerate(keys)}
        return keys

    def dim(self, n: int) -> int:
        if n < 0 or n > self.degree_cap:
            return 0
        return len(self.basis_keys(n))

    def key_position(self, n: int, key: Monomial) -> int:
        self.basis_keys(n)
        return self._basis_pos[n][key]

    # -- element constructors ---------------------------------------------

    def gen(self, name: str) -> CdgaElement:
        return CdgaElement._of(self, {((self.index_of[name], 1),): ONE})

    def generator_diff(self, name: str) -> CdgaElement:
        return CdgaElement._of(self, self._diff[name])

    def element(self, terms: Mapping[Monomial, Fraction]) -> CdgaElement:
        return CdgaElement(self, terms)

    def to_sparse(self, elem: CdgaElement, n: int) -> dict[int, Fraction]:
        """{basis position: coefficient} of a degree-n element."""
        self.basis_keys(n)
        pos = self._basis_pos[n]
        out = {}
        for k, c in elem.terms.items():
            i = pos.get(k)  # None exactly when k has another degree
            if i is None:
                raise ValidationError(f"term {self.key_repr(k)} of degree {self.key_degree(k)} "
                                      f"in degree-{n} vector")
            out[i] = c
        return out

    # -- multiplication and differential ----------------------------------

    def mul_keys(self, m1: Monomial, m2: Monomial):
        """(negative, product monomial), or None when the product is zero;
        `negative` is the Koszul sign."""
        deg = self.key_degree(m1) + self.key_degree(m2)
        if deg > self.degree_cap:
            return None
        degrees = self._degrees
        odd1 = [i for i, _ in m1 if degrees[i] % 2]
        odd2 = [i for i, _ in m2 if degrees[i] % 2]
        if set(odd1) & set(odd2):
            return None
        inversions = sum(1 for i in odd1 for j in odd2 if i > j)
        return inversions % 2 == 1, _times(m1, m2)

    def d_key(self, mono: Monomial) -> CdgaElement:
        """Leibniz differential of one monomial p * x, with x its last
        generator: d(p x) = d(p) x + (-1)^|p| p dx, memoised on p, each
        product of two keys made and signed by `mul_keys`.  Every term has
        degree |p x| + 1, so the cap is tested once.  The terms come in the
        order, with the coefficients, that the two products `multiply` makes
        would give."""
        out = self._dmono_cache.get(mono)
        if out is None:
            prefix, i = _prefix(mono)
            out = {}
            if prefix is not None and self.key_degree(mono) < self.degree_cap:
                mul_keys, x = self.mul_keys, ((i, 1),)
                for q, c in self.d_key(prefix).terms.items():
                    r = mul_keys(q, x)
                    if r is not None:
                        out[r[1]] = -c if r[0] else c
                p_odd = self.key_degree(prefix) % 2 == 1
                pdx = {}
                for w, c in self._diff[self.generators[i].name].items():
                    r = mul_keys(prefix, w)
                    if r is not None:
                        pdx[r[1]] = -c if r[0] != p_odd else c
                _add_into(out, pdx)
            self._dmono_cache[mono] = out
        return CdgaElement._of(self, out)

    # -- derived structure --------------------------------------------------

    def embed_terms(self, elem: CdgaElement, target: "FreeCDGA") -> CdgaElement:
        """Re-express an element in a free algebra whose generators extend ours.

        Distinct generators go to distinct ones, so distinct monomials do too."""
        index = [target.index_of[g.name] for g in self.generators]
        out = {tuple(sorted([(index[i], e) for i, e in mono])): c
               for mono, c in elem.terms.items()}
        return CdgaElement._of(target, out)


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
            value = self._label_terms(terms, deg)  # no basis element lies above the cap
            if deg <= degree_cap:
                self._products[(k1, k2)] = value
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
                    raise ValidationError(f"products for {self.label_of(k1)},"
                                          f"{self.label_of(k2)} break graded commutativity")
            else:
                self._products[(k2, k1)] = flipped

    def _validate(self):
        """The CDGA axioms on the structure constants, skipping only the pairs
        and triples that cannot fail: a zero product of closed elements
        satisfies Leibniz, a triple with ab = bc = 0 has both sides zero, and
        `mul_keys` multiplies by the unit itself, so a triple with a unit
        factor is associative and the unit law rests on the product entries.
        Commutativity was settled by `_symmetrize_products`.  The order is the
        full loops' (k1, k2, k3), so the first failure is theirs."""
        unit = self.unit_key
        keys = [self._key_of_label[lab] for labs in self.labels.values() for lab in labs]
        pos = {k: i for i, k in enumerate(keys)}
        for k in keys:
            for pair in ((unit, k), (k, unit)):
                if pair in self._products and self._products[pair] != {k: ONE}:
                    raise ValidationError(f"unit fails on {self.label_of(k)}")
        elem = {k: CdgaElement._of(self, {k: ONE}) for k in keys}
        d = {k: self.d_key(k) for k in keys}
        # nonzero[k]: the non-unit k' with k·k' ≠ 0, in key order.
        nonzero: dict[FiniteKey, list[FiniteKey]] = {k: [] for k in keys}
        for k1, k2 in sorted(self._products, key=lambda pair: (pos[pair[0]], pos[pair[1]])):
            if self._products[(k1, k2)] and unit not in (k1, k2):
                nonzero[k1].append(k2)
        # Second factors to visit whatever the first: the unit, the elements
        # with a differential, and the left factors of a nonzero product.
        always = {k for k in keys if k == unit or d[k].terms or nonzero[k]}
        nonunit = [k for k in keys if k != unit]
        for k1 in keys:
            a = elem[k1]
            sgn = -ONE if k1[0] % 2 else ONE
            seconds = keys if k1 == unit or d[k1].terms else sorted(
                always.union(nonzero[k1]), key=pos.__getitem__)
            for k2 in seconds:
                b = elem[k2]
                unit_pair = unit in (k1, k2)
                if unit_pair or k2 in nonzero[k1] or d[k1].terms or d[k2].terms:
                    lhs = differential(a * b)
                    rhs = d[k1] * b + (a * d[k2]).scale(sgn)
                    if lhs.terms != rhs.terms:
                        raise ValidationError(
                            f"Leibniz fails on {self.label_of(k1)},{self.label_of(k2)}")
                if unit_pair:
                    continue
                for k3 in nonunit if k2 in nonzero[k1] else nonzero[k2]:
                    if k1[0] + k2[0] + k3[0] > self.degree_cap:
                        continue
                    c = elem[k3]
                    if ((a * b) * c).terms != (a * (b * c)).terms:
                        raise ValidationError("associativity fails")
        for k in keys:
            if differential(d[k]).terms:
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

    def to_sparse(self, elem: CdgaElement, n: int) -> dict[int, Fraction]:
        out = {}
        for k, c in elem.terms.items():
            if k[0] != n:
                raise ValidationError(f"term {self.label_of(k)} of degree {k[0]} "
                                      f"in degree-{n} vector")
            out[k[1]] = c
        return out

    def mul_keys(self, k1: FiniteKey, k2: FiniteKey):
        if k1[0] + k2[0] > self.degree_cap:
            return None
        if k1 == self.unit_key:
            return False, k2
        if k2 == self.unit_key:
            return False, k1
        return self._products.get((k1, k2), {})

    def d_key(self, key: FiniteKey) -> CdgaElement:
        return CdgaElement._of(self, dict(self._diff.get(key, {})))


class PathAlgebra:
    """B ⊗ Λ(t,dt), with |t| = 0 and |dt| = 1: the term b ⊗ tʲ dtᵉ (e in {0, 1})
    is keyed (b, j, e).  Products truncate where B's do, at B's cap on the B
    factor, so the degree cap is B's plus one.  Made by `B.path`, and
    without finite bases: homotopies into it are read through
    `pmm.homotopy`'s evaluations and integrals."""

    kind = "path"

    def __init__(self, base: "Algebra"):
        self.base = base
        self.degree_cap = base.degree_cap + 1
        self.unit_key = (base.unit_key, 0, 0)

    zero = _GradedAlgebra.zero
    one = _GradedAlgebra.one

    def key_degree(self, key) -> int:
        return self.base.key_degree(key[0]) + key[2]

    def tensor(self, b: CdgaElement, j: int = 0, e: int = 0) -> CdgaElement:
        """b ⊗ tʲ dtᵉ."""
        if b.algebra is not self.base:
            raise ValidationError("element not in the path algebra's base")
        return CdgaElement._of(self, {(k, j, e): c for k, c in b.terms.items()})

    def components(self, u: CdgaElement) -> dict[tuple[int, int], CdgaElement]:
        """u = Σ b_ej ⊗ tʲ dtᵉ as {(e, j): b_ej}, in (e, j) order."""
        parts: dict[tuple[int, int], dict] = {}
        for (b, j, e), c in u.terms.items():
            parts.setdefault((e, j), {})[b] = c
        return {ej: CdgaElement._of(self.base, parts[ej]) for ej in sorted(parts)}

    def element_repr(self, elem: CdgaElement) -> str:
        bits = [f"({b!r})t^{j}{'dt' if e else ''}" for (e, j), b in self.components(elem).items()]
        return " + ".join(bits) if bits else "0"

    def mul_keys(self, k1, k2):
        """B's product of the B factors; dt·dt = 0, and moving dt past b₂
        costs (−1)^{|b₂|}."""
        (b1, j1, e1), (b2, j2, e2) = k1, k2
        if e1 and e2:
            return None
        r = self.base.mul_keys(b1, b2)
        if r is None:
            return None
        flip = bool(e1) and self.base.key_degree(b2) % 2 == 1
        j, e = j1 + j2, e1 + e2
        if isinstance(r, tuple):
            return r[0] != flip, (r[1], j, e)
        return {(k, j, e): -c if flip else c for k, c in r.items()}

    def d_key(self, key) -> CdgaElement:
        """d(b tʲ) = db tʲ + (−1)^{|b|} j b tʲ⁻¹ dt and d(b tʲ dt) = db tʲ dt."""
        b, j, e = key
        out = {(k, j, e): c for k, c in self.base.d_key(b).terms.items()}
        if j and not e:
            out[(b, j - 1, 1)] = Fraction(-j if self.base.key_degree(b) % 2 else j)
        return CdgaElement._of(self, out)


Algebra = Union[FreeCDGA, FiniteCDGA]


def multiply(u: CdgaElement, v: CdgaElement) -> CdgaElement:
    """Koszul-signed bilinear product, truncated above the degree cap.

    Terms accumulate in first-seen order; the ones that cancel are dropped
    at the end."""
    u._same(v)
    alg = u.algebra
    mul_keys = alg.mul_keys
    out: dict = {}
    for k1, c1 in u.terms.items():
        for k2, c2 in v.terms.items():
            r = mul_keys(k1, k2)
            if r is None:
                continue
            if isinstance(r, tuple):
                negative, key = r
                p = c2 if c1 is ONE else c1 if c2 is ONE else c1 * c2
                if negative:
                    p = -p
                out[key] = out[key] + p if key in out else p
            else:
                for key, c in r.items():
                    p = c * c1 * c2
                    out[key] = out[key] + p if key in out else p
    return CdgaElement._of(alg, {k: c for k, c in out.items() if c})


def differential(u: CdgaElement) -> CdgaElement:
    alg = u.algebra
    out: dict = {}
    for k, c in u.terms.items():
        _add_into(out, alg.d_key(k).terms, c)
    return CdgaElement._of(alg, out)


def monomial_basis(a: FreeCDGA, n: int) -> tuple[Monomial, ...]:
    return a.basis_keys(n)


def cohomology(a: Algebra, n: int) -> tuple[int, list[CdgaElement]]:
    """(dimension, deterministic representative elements) of H^n."""
    if n >= a.degree_cap:
        raise ValidationError(f"cohomology degree {n} needs degree {n + 1} <= cap")
    space = a.cohomology_space(n)
    return space.dim, [a.from_vector(n, r) for r in space.reps]


def check_minimality(algebra: FreeCDGA) -> list[str]:
    """[] when every generator has degree >= 2 and a decomposable
    differential; else the first failure, as a one-item list."""
    for g in algebra.generators:
        if g.degree < 2:
            return [f"generator {g.name} has degree {g.degree} < 2"]
        if any(sum([e for _, e in mono]) < 2 for mono in algebra.generator_diff(g.name).terms):
            return [f"d({g.name}) has an indecomposable term"]
    return []


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
    extension is one FreeCDGA over base `a`: it checks the degree and d^2 = 0
    on the new generators only, and takes a's bases and d-matrices below
    them.
    """
    if any(img.algebra is not a for _, _, img in new_gens):
        raise ValidationError("d_image must live in the base algebra")
    gens = list(a.generators) + [Generator(n, d) for n, d, _ in new_gens]
    diffs = dict(a._diff)
    diffs.update((name, img.terms) for name, _, img in new_gens)
    out = FreeCDGA(gens, diffs, a.degree_cap, base=a)
    incl = CdgaMorphism.on_generators(a, out, {g.name: out.gen(g.name) for g in a.generators})
    return out, incl


def _prefix(mono: Monomial) -> tuple[Optional[Monomial], int]:
    """(mono with one factor fewer of its last generator, that generator's
    index); (None, -1) for the unit."""
    if not mono:
        return None, -1
    i, e = mono[-1]
    return (mono[:-1] + ((i, e - 1),) if e > 1 else mono[:-1]), i


def _times(m1: Monomial, m2: Monomial) -> Monomial:
    """The monomial m1·m2, signs aside: the exponents of each index added."""
    if not m1 or not m2:
        return m1 or m2
    exps = dict(m1)
    for i, e in m2:
        exps[i] = exps.get(i, 0) + e
    return tuple(sorted(exps.items()))


def _is_monomial(mono, degrees: Sequence[int]) -> bool:
    """Whether `mono` is a key over generators of these degrees: int pairs,
    indices strictly increasing in 0..len(degrees)−1, exponents >= 1 and at
    most 1 on an odd generator."""
    if not (isinstance(mono, tuple) and all(isinstance(p, tuple) and len(p) == 2
                                            and type(p[0]) is type(p[1]) is int for p in mono)):
        return False
    bounds = [-1] + [i for i, _ in mono] + [len(degrees)]
    return (all(a < b for a, b in zip(bounds, bounds[1:]))
            and all(e == 1 or e > 1 and degrees[i] % 2 == 0 for i, e in mono))


class _Bases(dict):
    """{n: degree-n basis} of one generator-degree tuple, and in `pos` each
    basis's {monomial: position}.  `_BASES` names it weakly, so it lives while
    some algebra with these degrees holds it."""

    __slots__ = ("__weakref__", "pos")

    def __init__(self):
        self.pos: dict[int, dict[Monomial, int]] = {}


_BASES: "weakref.WeakValueDictionary[tuple[int, ...], _Bases]" = weakref.WeakValueDictionary()


def _monomials(degrees: Sequence[int], n: int) -> list[Monomial]:
    """Every monomial over generators of these degrees with total degree n,
    odd generators to exponent at most 1.  ΛV = ⊗_d Λ(V^d): the generators
    of each degree d <= n form a class, and a monomial is a set (odd d) or a
    multiset (even d) picked from each class, by `_picks`.  A factor of
    exponent 1 is one shared (index, 1) pair in every monomial it is in."""
    classes: dict[int, list[tuple[int, int]]] = {}
    for i, d in enumerate(degrees):
        if d <= n:
            classes.setdefault(d, []).append((i, 1))
    order = sorted(classes.items())
    # Bit r of reach[c] is set when the classes from c on fill degree r exactly.
    reach = [1]
    for d, ones in reversed(order):
        mask = 0
        for e in range(min(n // d, len(ones) if d % 2 else n) + 1):
            mask |= reach[-1] << e * d
        reach.append(mask)
    reach.reverse()
    found: list[Monomial] = [] if n else [()]
    if n > 0 and reach[0] >> n & 1:
        _picks(found, order, reach, 0, n, ())
    return found


def _picks(found: list[Monomial], order: list, reach: list, first: int, remaining: int,
           acc: tuple[tuple[int, int], ...]):
    """Append to `found` each monomial acc·m, where m of degree `remaining` > 0
    takes e >= 1 generators from its first class c >= `first` and the rest from
    the classes after c, entered only where those fill the rest exactly: the
    depth is at most the count of classes."""
    for c in range(first, len(order)):
        d, ones = order[c]
        if d > remaining:
            break
        later = reach[c + 1]
        for e in range(1, min(remaining // d, len(ones) if d % 2 else remaining) + 1):
            rest = remaining - e * d
            if not later >> rest & 1:
                continue
            for pick in (combinations if d % 2 else combinations_with_replacement)(ones, e):
                if d % 2 == 0 and e > 1:  # a repeated pair becomes one pair with its count
                    pick = tuple([p if (k := pick.count(p)) == 1 else (p[0], k)
                                  for p in dict.fromkeys(pick)])
                if rest:
                    _picks(found, order, reach, c + 1, rest, acc + pick)
                else:
                    found.append(tuple(sorted(acc + pick)))


def unchanged_below(new: Algebra, old: Algebra) -> int:
    """The degree below which `new` has old's basis and differential:
    past the cap when new is old, the first added generator's degree when new
    extends old, and 0 otherwise.  An extension checked `extends` against its
    base when it was made and names that base weakly (`_inherit`), so that
    base is answered by identity; any other pair runs the check, also one
    with old's generator degrees, whose basis table is shared whatever its
    differentials."""
    if new is old:
        return new.degree_cap + 1
    if new.kind == old.kind == "free" and (
            new._base_ref is not None and new._base_ref() is old or new.extends(old)):
        return min((g.degree for g in new.generators[len(old.generators):]),
                   default=new.degree_cap + 1)
    return 0


class CdgaMorphism:
    """Degree-preserving algebra map, kept as the images of the domain's basis
    keys: generated from the generator images on a free domain, given one per
    basis label on a finite one."""

    def __init__(self, domain: Algebra, codomain: Algebra,
                 gen_images: Optional[dict[str, CdgaElement]] = None,
                 images: Optional[dict] = None):
        self.domain = domain
        self.codomain = codomain
        self.gen_images = gen_images or {}
        # Basis key -> image: given in full, or memoised by `image`.
        self._images: dict = images or {}
        # Degree-n matrices; a map into a path algebra, which has no finite
        # bases, keeps its integrals I_H(n) here (homotopy.integral_matrix).
        self._mat_cache: dict[int, QMatrix] = {}

    @classmethod
    def on_generators(cls, domain: FreeCDGA, codomain: Algebra,
                      images: dict[str, CdgaElement]) -> "CdgaMorphism":
        missing = {g.name for g in domain.generators} - set(images)
        if missing:
            raise ValidationError(f"missing generator images: {sorted(missing)}")
        return cls(domain, codomain, gen_images=dict(images))

    @classmethod
    def on_basis(cls, domain: FiniteCDGA, codomain: Algebra,
                 images: dict[str, CdgaElement]) -> "CdgaMorphism":
        """Linear data from basis-label images (checked multiplicative later)."""
        given = {}
        for n in range(domain.degree_cap + 1):
            for k in domain.basis_keys(n):
                lab = domain.label_of(k)
                img = images.get(lab)
                if img is None:
                    raise ValidationError(f"missing image for basis label {lab}")
                if img.algebra is not codomain:
                    raise ValidationError(f"image of {lab} is not in the codomain")
                codomain.to_sparse(img, n)  # refuses a term of another degree
                given[k] = img
        return cls(domain, codomain, images=given)

    @classmethod
    def identity(cls, a: Algebra) -> "CdgaMorphism":
        if a.kind == "free":
            return cls.on_generators(a, a, {g.name: a.gen(g.name) for g in a.generators})
        return cls(a, a, images={k: CdgaElement._of(a, {k: ONE})
                                 for n in range(a.degree_cap + 1) for k in a.basis_keys(n)})

    def apply(self, elem: CdgaElement) -> CdgaElement:
        if elem.algebra is not self.domain:
            raise ValidationError("element not in the morphism domain")
        out: dict = {}
        for k, c in elem.terms.items():
            _add_into(out, self.image(k).terms, c)
        return CdgaElement._of(self.codomain, out)

    def image(self, key) -> CdgaElement:
        """The image of a basis key.  A monomial's is the image of its prefix
        (one factor fewer of its last generator) times that generator's image,
        memoised, so each monomial costs one product, in the order
        1 * x1 * x1 * x2 * ... ."""
        out = self._images.get(key)
        if out is None:
            prefix, i = _prefix(key)
            if prefix is None:
                out = self.codomain.one()
            else:
                img = self.gen_images[self.domain.generators[i].name]
                out = self.image(prefix) * img
            self._images[key] = out
        return out

    def inherit(self, old: "CdgaMorphism"):
        """Take old's matrices in the degrees where neither end changed, and
        old's images of monomials when the codomain is old's.

        Guarded: each end of self is old's or extends it (`unchanged_below`),
        and old's generators keep their images.
        """
        below = min(unchanged_below(self.domain, old.domain),
                    unchanged_below(self.codomain, old.codomain))
        if self.domain.kind != "free" or not below:
            raise InternalError("cannot carry matrices: the ends do not extend old's")
        for g in old.domain.generators:
            if self.gen_images[g.name].terms != old.gen_images[g.name].terms:
                raise InternalError(f"the image of {g.name} changed")
        self._mat_cache.update((n, m) for n, m in old._mat_cache.items() if n < below)
        if self.codomain is old.codomain:
            self._images.update(old._images)

    def matrix(self, n: int) -> QMatrix:
        """Matrix of the degree-n component in the chosen bases."""
        if n not in self._mat_cache:
            cols = [self.codomain.to_sparse(self.image(k), n) for k in self.domain.basis_keys(n)]
            self._mat_cache[n] = QMatrix._of_sparse_columns(cols, self.codomain.dim(n))
        return self._mat_cache[n]


def linear_part(f: CdgaMorphism, dom_names: Sequence[str],
                cod_names: Sequence[str]) -> QMatrix:
    """Matrix of the linear part of a map of free algebras between named generators."""
    pos = {name: i for i, name in enumerate(cod_names)}
    cols = []
    for name in dom_names:
        col = {}
        for mono, c in f.gen_images[name].terms.items():
            if len(mono) == 1 and mono[0][1] == 1:
                gname = f.codomain.generators[mono[0][0]].name
                if gname in pos:
                    col[pos[gname]] = c
        cols.append(col)
    return QMatrix.from_columns(cols, len(cod_names))


def validate_morphism(f: CdgaMorphism, names: Optional[Iterable[str]] = None) -> list[str]:
    """Violation report; empty list means the morphism is valid.  A map given
    on generators is checked on every generator, or on those in `names`."""
    cap = min(f.domain.degree_cap, f.codomain.degree_cap)
    problems: list[str] = []
    if f.domain.kind == "free":
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
        keys = [k for m in range(cap + 1) for k in dom.basis_keys(m)]
        elem = {k: CdgaElement._of(dom, {k: ONE}) for k in keys}
        if not f.image(dom.unit_key) == f.codomain.one():
            problems.append("unit not preserved")
        problems += [f"d-compatibility fails in degree {n}" for n in chain_map_failures(
            dom.d_matrix, f.codomain.d_matrix, f.matrix, range(cap))]
        for k1 in keys:
            for k2 in keys:
                if k1[0] + k2[0] > cap:
                    continue
                if f.apply(elem[k1] * elem[k2]).terms != (f.image(k1) * f.image(k2)).terms:
                    problems.append(
                        f"multiplicativity fails on {dom.label_of(k1)},{dom.label_of(k2)}")
    return problems
