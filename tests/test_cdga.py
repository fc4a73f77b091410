import gc
import random
import re
from fractions import Fraction

import pytest

from pmm.cdga import (
    CdgaElement, CdgaMorphism, FiniteCDGA, FreeCDGA, Generator, _add_into, _is_monomial,
    _monomials, _prefix, cohomology, differential, free_cdga, hirsch_extend, indecomposables,
    monomial_basis, multiply, validate_morphism,
)
from pmm.errors import ValidationError
from pmm.exactla import ONE, QMatrix
from pmm.persistence import Grid
from pmm.pminimal import PersistentCDGA, build_persistent_minimal_model

from .dense import dense_key, monomials, sparse_key
from .gen import random_cocycle


def sphere2_model(cap=8):
    """Lambda(a_2, y_3; dy = a^2)."""
    scratch = free_cdga([("a", 2), ("y", 3)], {}, cap)
    return free_cdga([("a", 2), ("y", 3)],
                     {"y": multiply(scratch.gen("a"), scratch.gen("a"))}, cap)


def finite_s2(cap=8):
    """H*(S^2) as a finite CDGA: unit and a degree-2 class squaring to zero."""
    return FiniteCDGA(
        basis={0: ["one"], 2: ["alpha"]}, unit="one",
        products={("alpha", "alpha"): {}}, differential={}, degree_cap=cap)


def test_monomial_basis_odd_square():
    a = free_cdga([("x", 3)], {}, 9)
    assert [a.key_repr(m) for m in monomial_basis(a, 3)] == ["x"]
    assert monomial_basis(a, 6) == ()


def test_monomial_basis_even_powers():
    a = free_cdga([("a", 2)], {}, 10)
    for k in range(1, 6):
        assert [a.key_repr(m) for m in monomial_basis(a, 2 * k)] == [f"a^{k}" if k > 1 else "a"]


def test_monomial_basis_mixed():
    a = free_cdga([("a", 2), ("y", 3)], {}, 8)
    assert [a.key_repr(m) for m in monomial_basis(a, 5)] == ["a*y"]
    assert [a.key_repr(m) for m in monomial_basis(a, 7)] == ["a^2*y"]


def test_monomial_enumeration_leaves_no_cyclic_garbage():
    degrees = (2, 3, 2, 4, 3, 2, 5, 4, 2, 3)
    gc.collect()
    gc.disable()
    try:
        found = _monomials(degrees, 9)
        assert gc.collect() == 0
    finally:
        gc.enable()
    assert found and len(set(found)) == len(found)


@pytest.mark.parametrize("seed", range(6))
def test_class_enumeration_equals_the_per_generator_reference(seed):
    # Picking a set from each odd degree class and a multiset from each even
    # one lists the same monomials, each once, as the reference recursion
    # over one generator at a time; generators above n take no part.
    rng = random.Random(3100 + seed)
    for _ in range(40):
        degrees = [rng.randint(1, 9) for _ in range(rng.randint(0, 12))]
        n = rng.randint(0, 10)
        found = _monomials(degrees, n)
        assert len(set(found)) == len(found)
        assert set(found) == set(monomials(degrees, n)), (degrees, n)


@pytest.mark.parametrize("count", [2500, 3000])
def test_enumeration_over_thousands_of_generators_matches_the_poincare_series(count):
    # A single extension can add thousands of generators; the enumeration
    # recurses at most once per degree class, not once per generator.  The
    # count is the coefficient of t^n in prod(1 + t^odd) / prod(1 - t^even).
    rng = random.Random(count)
    n = 6
    degrees = ([rng.randint(2, n) for _ in range(200)]
               + [rng.randint(n + 1, n + 4) for _ in range(count - 200)])
    rng.shuffle(degrees)
    series = [1] + [0] * n
    for d in degrees:
        if d % 2:
            series = [c + (series[j - d] if j >= d else 0) for j, c in enumerate(series)]
        else:
            for j in range(d, n + 1):
                series[j] += series[j - d]
    found = _monomials(degrees, n)
    assert len(found) == series[n] and len(set(found)) == len(found)
    assert all(sum(degrees[i] * e for i, e in m) == n for m in found)
    assert all(_is_monomial(m, degrees) for m in found)


def test_algebras_with_the_same_degrees_share_their_bases():
    # A basis is a function of the generator degrees: algebras on equal degree
    # tuples, whatever their names, differentials or caps, and however they
    # were made, read one basis and one position dict per degree.
    root = sphere2_model()
    renamed = free_cdga([("u", 2), ("v", 3)], {}, 9)
    a = free_cdga([("a", 2)], {}, 8)
    ext, _ = hirsch_extend(a, [("y", 3, multiply(a.gen("a"), a.gen("a")))])
    keys = ext.basis_keys(7)
    assert keys == (sparse_key((2, 1)),)
    assert root.basis_keys(7) is keys and renamed.basis_keys(7) is keys
    assert renamed._basis_pos is root._basis_pos is ext._basis_pos
    assert root.key_position(7, sparse_key((2, 1))) == 0
    swapped = free_cdga([("y", 3), ("a", 2)], {}, 8)
    assert swapped._basis_cache is not root._basis_cache
    assert swapped.basis_keys(7) == (sparse_key((1, 2)),)


def test_a_shared_table_lives_as_long_as_an_algebra_holds_it():
    # The tables are weakly kept: a table goes when no algebra holds it, by
    # reference counting alone.  An extension takes its base's bases, not its
    # base's table, and names the base weakly, so the base's table goes with
    # the base while the extension's stays.
    from pmm.cdga import _BASES
    degrees, ext_degrees = (2, 5, 7), (2, 5, 7, 9)  # no other test uses these
    gc.collect()
    gc.disable()
    try:
        base = free_cdga([("a", 2), ("b", 5), ("c", 7)], {}, 12)
        assert base.dim(9) == 2 and degrees in _BASES
        ext, incl = hirsch_extend(base, [("e", 9, base.zero())])
        assert ext.dim(9) == 3 and ext_degrees in _BASES
        del base, incl
        assert degrees not in _BASES and ext_degrees in _BASES
        del ext
        assert not {degrees, ext_degrees} & set(_BASES)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_koszul_signs():
    a = free_cdga([("x", 3), ("y", 5)], {}, 9)
    x, y = a.gen("x"), a.gen("y")
    assert multiply(x, x).is_zero()
    assert multiply(x, y) == multiply(y, x).scale((-1) ** (3 * 5))
    b = free_cdga([("a", 2), ("x", 3)], {}, 8)
    assert multiply(b.gen("a"), b.gen("x")) == multiply(b.gen("x"), b.gen("a"))


def test_leibniz_hand_example():
    m = sphere2_model()
    a, y = m.gen("a"), m.gen("y")
    # d(a*y) = a^3 with positive sign since |a| is even.
    a3 = multiply(multiply(a, a), a)
    assert differential(multiply(a, y)) == a3
    assert differential(m.one()).is_zero()
    assert multiply(y, y).is_zero()


def test_d_squared_enforced():
    scratch = free_cdga([("a", 2), ("u", 2)], {}, 8)
    with pytest.raises(ValidationError):
        # du = a is not a cocycle of the right degree.
        free_cdga([("a", 2), ("u", 2)], {"u": scratch.gen("a")}, 8)


MALFORMED_KEYS = [
    (2, 0, 0),            # a dense exponent tuple of the wrong length
    (2, 0),               # a dense exponent tuple of the right length
    (2,),
    "a^2",
    ((0, 2), (1, 0)),     # an exponent 0
    ((0, 0),),
    ((0, -1),),
    ((0, 2.0),),          # not int pairs
    ((0, True),),
    (("0", 2),),
    ((0, 2, 1),),
    ((0,),),
    ((1, 1), (0, 1)),     # indices not strictly increasing
    ((0, 1), (0, 1)),
    ((2, 1),),            # an index out of range
    ((-1, 2),),
]


@pytest.mark.parametrize("key", MALFORMED_KEYS)
def test_a_malformed_monomial_is_refused_naming_its_generator(key):
    with pytest.raises(ValidationError, match=r"^d\(y\) has a malformed monomial"):
        free_cdga([("a", 2), ("y", 3)], {"y": {key: 1}}, 8)


@pytest.mark.parametrize("key", MALFORMED_KEYS + [(1, 0)])
def test_an_element_refuses_a_malformed_key_naming_it(key):
    # {(1, 0): 3} was accepted, and its repr and to_sparse raised a raw TypeError.
    m = free_cdga([("a", 2), ("y", 3)], {"y": {((0, 2),): 1}}, 8)
    for make in (lambda terms: CdgaElement(m, terms), m.element):
        with pytest.raises(ValidationError,
                           match=f"^{re.escape(repr(key))} is not a monomial of the algebra$"):
            make({key: 3})
    assert m.element({((0, 1),): 3, ((1, 1),): 0}).terms == {((0, 1),): Fraction(3)}


def test_an_odd_generator_squared_is_a_malformed_monomial():
    # x² has degree 6 = |z| + 1, so only the odd exponent refuses it.
    with pytest.raises(ValidationError, match=r"^d\(z\) has a malformed monomial"):
        free_cdga([("x", 3), ("z", 5)], {"z": {((0, 2),): 1}}, 8)
    assert free_cdga([("a", 2), ("y", 3)], {"y": {((0, 2),): 1}}, 8).dim(7) == 1


def test_an_extension_checks_the_keys_of_its_new_generators_only():
    base = sphere2_model()
    gens = list(base.generators) + [Generator("z", 5)]
    diffs = {"y": base.generator_diff("y").terms, "z": {((1, 2),): 1}}
    with pytest.raises(ValidationError, match=r"^d\(z\) has a malformed monomial"):
        FreeCDGA(gens, diffs, 8, base=base)
    diffs["y"] = {(2, 0, 0): 1}
    with pytest.raises(ValidationError, match="do not extend the base"):
        FreeCDGA(gens, diffs, 8, base=base)


def test_cohomology_sphere2_model():
    m = sphere2_model()
    assert cohomology(m, 2)[0] == 1
    assert cohomology(m, 3)[0] == 0
    assert cohomology(m, 4)[0] == 0
    dim2, reps = cohomology(m, 2)
    assert reps[0] == m.gen("a")


def test_cohomology_sphere3_model():
    m = free_cdga([("x", 3)], {}, 8)
    assert cohomology(m, 3)[0] == 1
    assert cohomology(m, 6)[0] == 0


def test_finite_cdga_cohomology_zero_differential():
    a = finite_s2()
    assert cohomology(a, 2)[0] == 1
    assert cohomology(a, 4)[0] == 0
    assert a.is_simply_connected()
    alpha = a.basis_elem("alpha")
    assert multiply(alpha, alpha).is_zero()


def test_indecomposables():
    m = sphere2_model()
    assert indecomposables(m, 2) == (1, ["a"])
    assert indecomposables(m, 3) == (1, ["y"])
    assert indecomposables(m, 4) == (0, [])
    q = free_cdga([], {}, 8)
    assert indecomposables(q, 2) == (0, [])


def test_hirsch_extend_sphere_step():
    base = free_cdga([("a", 2)], {}, 8)
    ext, incl = hirsch_extend(base, [("y", 3, multiply(base.gen("a"), base.gen("a")))])
    assert [g.name for g in ext.generators] == ["a", "y"]
    assert differential(ext.gen("y")) == multiply(ext.gen("a"), ext.gen("a"))
    assert validate_morphism(incl) == []

    free_ext, _ = hirsch_extend(base, [("z", 5, base.zero())])
    assert differential(free_ext.gen("z")).is_zero()

    unit = free_cdga([], {}, 8)
    lam_a, _ = hirsch_extend(unit, [("a", 2, unit.zero())])
    assert [g.name for g in lam_a.generators] == ["a"]


def test_hirsch_extend_rejects_non_cocycle():
    m = sphere2_model()
    with pytest.raises(ValidationError):
        hirsch_extend(m, [("w", 4, m.gen("y") * m.gen("a"))])  # d(ay) != 0


def test_hirsch_extend_rejects_a_differential_of_the_wrong_degree():
    base = free_cdga([("a", 2)], {}, 8)
    a = base.gen("a")
    for wrong in (a, a + multiply(a, a)):
        with pytest.raises(ValidationError, match="must be homogeneous of degree 4"):
            hirsch_extend(base, [("y", 3, wrong)])


def test_validate_morphism_cases():
    m = sphere2_model()
    n = free_cdga([("b", 3)], {}, 8)
    ok = CdgaMorphism.on_generators(m, n, {"a": n.zero(), "y": n.gen("b")})
    assert validate_morphism(ok) == []
    bad = CdgaMorphism.on_generators(m, n, {"a": n.zero(), "y": n.zero()})
    # dy = a^2 maps to 0, and d(0) = 0, so this one is actually fine.
    assert validate_morphism(bad) == []
    ident = CdgaMorphism.identity(m)
    assert validate_morphism(ident) == []


def test_validate_morphism_violation():
    # a -> 0 forces y to map to a cocycle; b is free so any image works,
    # but mapping y to something with nonzero differential must fail.
    m = sphere2_model()
    scratch = free_cdga([("c", 2), ("w", 3)], {}, 8)
    n2 = free_cdga([("c", 2), ("w", 3)],
                   {"w": multiply(scratch.gen("c"), scratch.gen("c"))}, 8)
    f = CdgaMorphism.on_generators(m, n2, {"a": n2.zero(), "y": n2.gen("w")})
    assert any("d-compatibility" in p for p in validate_morphism(f))


def test_finite_morphism_validation():
    a = finite_s2()
    f = CdgaMorphism.on_basis(a, a, {"one": a.one(), "alpha": a.basis_elem("alpha")})
    assert validate_morphism(f) == []
    # alpha -> one is not degree-preserving data; building it fails.
    with pytest.raises(ValidationError):
        CdgaMorphism.on_basis(a, a, {"one": a.one(), "alpha": a.one()})


def test_to_sparse_refuses_a_term_of_another_degree():
    m = sphere2_model()
    with pytest.raises(ValidationError, match="term a of degree 2 in degree-3 vector"):
        m.to_sparse(m.gen("a") + m.gen("y"), 3)
    assert m.to_sparse(m.gen("y"), 3) == {0: 1}
    with pytest.raises(ValidationError, match="term y of degree 3 in degree-2 vector"):
        m.to_sparse(m.gen("y"), 2)
    s2 = finite_s2()
    with pytest.raises(ValidationError, match="term one of degree 0 in degree-2 vector"):
        s2.to_sparse(s2.one() + s2.basis_elem("alpha"), 2)


def test_public_element_constructor_coerces_and_drops_zeros():
    m = sphere2_model()
    a, a2, y, a3 = (sparse_key(m) for m in ((1, 0), (2, 0), (0, 1), (3, 0)))
    e = CdgaElement(m, {a: 3, a2: 0, y: Fraction(0), a3: Fraction(1, 2)})
    assert e.terms == {a: Fraction(3), a3: Fraction(1, 2)}
    assert all(type(c) is Fraction for c in e.terms.values())
    assert m.element({a: -1}).terms == {a: Fraction(-1)}
    assert m.from_vector(2, {}).is_zero()


def test_truncation_coherence_random():
    rng = random.Random(2)
    cap = 7
    m = sphere2_model(cap)
    basis_all = [mono for n in range(cap + 1) for mono in monomial_basis(m, n)]
    for _ in range(100):
        k1, k2 = rng.choice(basis_all), rng.choice(basis_all)
        u = m.element({k1: 1})
        v = m.element({k2: 1})
        prod = multiply(u, v)
        # Leibniz: d(uv) = du v + (-1)^|u| u dv.
        sign = (-1) ** m.key_degree(k1)
        rhs = multiply(differential(u), v) + multiply(u, differential(v)).scale(sign)
        assert differential(prod) == rhs
        # d o d = 0 on the whole monomial basis.
        assert differential(differential(u)).is_zero()


def test_koszul_symmetry_random():
    rng = random.Random(4)
    m = free_cdga([("a", 2), ("x", 3), ("z", 5)], {}, 10)
    keys = [k for n in range(11) for k in monomial_basis(m, n)]
    for _ in range(100):
        k1, k2 = rng.choice(keys), rng.choice(keys)
        u, v = m.element({k1: 1}), m.element({k2: 1})
        d1, d2 = m.key_degree(k1), m.key_degree(k2)
        assert multiply(u, v) == multiply(v, u).scale((-1) ** (d1 * d2))


def test_indecomposables_brute_force_agreement():
    # Q^k dim equals dim(A+/A+*A+) in degree k on a small instance.
    from pmm.exactla import QMatrix, rank
    m = sphere2_model()
    for k in range(2, 7):
        keys = monomial_basis(m, k)
        decomposable_cols = []
        for n1 in range(1, k):
            for mono1 in monomial_basis(m, n1):
                for mono2 in monomial_basis(m, k - n1):
                    prod = multiply(m.element({mono1: 1}), m.element({mono2: 1}))
                    if not prod.is_zero():
                        decomposable_cols.append(m.to_sparse(prod, k))
        dim_dec = rank(QMatrix.from_columns(decomposable_cols, len(keys))) \
            if decomposable_cols and keys else 0
        assert indecomposables(m, k)[0] == len(keys) - dim_dec


# -- the kernel against naive reference kernels ------------------------------
#
# The references redo each operation the plain way: a Fraction(0) seed per
# accumulated term, the Koszul sign recomputed from scratch, sums of elements
# formed one at a time with zeros dropped after each, a monomial's image as
# the product of its factors from the unit.  They compare term lists, so the
# terms must agree and come in the same order.  They key monomials by dense
# exponent tuples over all the algebra's generators: `_dense` and `_sparse`
# convert the engine's terms to them and back.

def _dense(alg, terms):
    return {dense_key(m, len(alg.generators)): c for m, c in terms.items()}


def _sparse(terms):
    return {sparse_key(m): c for m, c in terms.items()}


def _ref_mul_keys(alg, m1, m2):
    degrees = [g.degree for g in alg.generators]
    if sum(e * d for e, d in zip(m1 + m2, degrees + degrees)) > alg.degree_cap:
        return None
    odd1 = [i for i, d in enumerate(degrees) if d % 2 and m1[i]]
    odd2 = [i for i, d in enumerate(degrees) if d % 2 and m2[i]]
    if set(odd1) & set(odd2):
        return None
    inversions = sum(1 for i in odd1 for j in odd2 if i > j)
    return Fraction((-1) ** inversions), tuple(a + b for a, b in zip(m1, m2))


def _ref_mul(alg, t1, t2):
    out = {}
    for k1, c1 in t1.items():
        for k2, c2 in t2.items():
            r = _ref_mul_keys(alg, k1, k2)
            if r is not None:
                sign, key = r
                out[key] = out.get(key, Fraction(0)) + sign * c1 * c2
    return {k: c for k, c in out.items() if c != 0}


def _ref_add(t1, t2, c=1):
    out = dict(t1)
    for k, v in t2.items():
        out[k] = out.get(k, Fraction(0)) + c * v
    return {k: v for k, v in out.items() if v != 0}


def _ref_d_mono(alg, mono):
    word = [i for i, e in enumerate(mono) for _ in range(e)]
    out, prefix_deg = {}, 0
    for pos, gi in enumerate(word):
        g = alg.generators[gi]
        dg = _dense(alg, alg.generator_diff(g.name).terms)
        if dg:
            pre = tuple(word[:pos].count(i) for i in range(len(mono)))
            suf = tuple(word[pos + 1:].count(i) for i in range(len(mono)))
            term = _ref_mul(alg, _ref_mul(alg, {pre: Fraction(1)}, dg), {suf: Fraction(1)})
            out = _ref_add(out, term, (-1) ** prefix_deg)
        prefix_deg += g.degree
    return out


def _ref_d(alg, terms):
    out = {}
    for k, c in terms.items():
        out = _ref_add(out, _ref_d_mono(alg, k), c)
    return out


def _ref_image(f, mono):
    out = {(0,) * len(f.codomain.generators): Fraction(1)}
    for i, e in enumerate(mono):
        for _ in range(e):
            image = _dense(f.codomain, f.gen_images[f.domain.generators[i].name].terms)
            out = _ref_mul(f.codomain, out, image)
    return out


def _ref_basis(degrees, cap):
    """Degree-by-degree monomials, each one generator times a monomial below."""
    levels = [{(0,) * len(degrees)}]
    for n in range(1, cap + 1):
        levels.append({m[:i] + (m[i] + 1,) + m[i + 1:]
                       for i, d in enumerate(degrees) if d <= n for m in levels[n - d]
                       if d % 2 == 0 or m[i] == 0})
    return [tuple(sparse_key(m) for m in sorted(level, key=lambda m: (sum(m), m)))
            for level in levels]


def _random_element(rng, alg, n, density=0.6):
    """Random coefficients in -2..2 on the degree-n basis (possibly zero)."""
    keys = alg.basis_keys(n) if 0 <= n <= alg.degree_cap else ()
    return alg.element({k: rng.randint(-2, 2) for k in keys if rng.random() < density})


def _random_chain(rng, cap, links):
    """A seeded chain of Hirsch extensions, generators of degrees 1..4 (odd
    ones included); some links extend a base whose bases are not built yet."""
    chain = [free_cdga([], {}, cap)]
    for i in range(links):
        a = chain[-1]
        closed = rng.random() < 0.3  # leaves a's bases unbuilt
        new = []
        for j in range(rng.randint(1, 2)):
            deg = rng.randint(1, 4)
            z = a.zero() if closed else random_cocycle(rng, a, deg + 1)
            new.append((f"g{i}_{j}", deg, z))
        chain.append(hirsch_extend(a, new)[0])
    return chain


def _assert_same_terms(got, want):
    assert list(got.terms.items()) == list(want.items())
    assert all(isinstance(c, Fraction) and c != 0 for c in got.terms.values())


@pytest.mark.parametrize("seed", range(6))
def test_multiply_and_differential_match_the_reference_kernels(seed):
    rng = random.Random(seed)
    cap = rng.randint(6, 9)
    alg = _random_chain(rng, cap, 4)[-1]
    for _ in range(40):
        u = _random_element(rng, alg, rng.randint(0, cap))
        v = _random_element(rng, alg, rng.randint(0, cap))
        du, dv = _dense(alg, u.terms), _dense(alg, v.terms)
        _assert_same_terms(multiply(u, v), _sparse(_ref_mul(alg, du, dv)))
        _assert_same_terms(differential(u), _sparse(_ref_d(alg, du)))
        _assert_same_terms(u + v, _ref_add(u.terms, v.terms))
        _assert_same_terms(u - u, {})
        _assert_same_terms(u.scale(0), {})
    # d_key differentiates a monomial through its memoised prefix; the
    # reference applies the Leibniz rule letter by letter to its whole word.
    for n in range(cap):
        assert alg.d_matrix(n) == _ref_d_matrix(alg, n)


def _ref_d_matrix(alg, n):
    """d(n) with each column the word reference's d of one basis monomial."""
    count = len(alg.generators)
    return QMatrix.from_columns(
        [alg.to_sparse(alg.element(_sparse(_ref_d_mono(alg, dense_key(m, count)))), n + 1)
         for m in alg.basis_keys(n)], alg.dim(n + 1))


def _ref_d_key_by_products(alg, mono, memo):
    """The Leibniz step as two products, d(p x) = d(p)·x + (−1)^|p| p·dx, each
    made by `multiply`, the sum accumulated by `_add_into`."""
    if mono not in memo:
        prefix, i = _prefix(mono)
        out = {}
        if prefix is not None:
            name = alg.generators[i].name
            dp = CdgaElement._of(alg, _ref_d_key_by_products(alg, prefix, memo))
            _add_into(out, multiply(dp, alg.gen(name)).terms)
            _add_into(out, multiply(CdgaElement._of(alg, {prefix: ONE}),
                                    alg.generator_diff(name)).terms,
                      -ONE if alg.key_degree(prefix) % 2 else None)
        memo[mono] = out
    return memo[mono]


def _algebra_with_later_and_odd_names(rng, cap):
    """Closed u₁, v₃, a₂, b₂ and x₃, w₂, y₄, z₅ whose differentials are random
    elements of the subalgebra on the closed ones (so d² = 0), with the term
    u·v forced in dx; x comes first and the others in a seeded order, so
    differentials name later-indexed and odd generators."""
    closed = [("u", 1), ("v", 3), ("a", 2), ("b", 2)]
    rest = closed + [("w", 2), ("y", 4), ("z", 5)]
    rng.shuffle(rest)
    gens = [("x", 3)] + rest
    degrees = [d for _, d in gens]
    free = {i for i, (name, _) in enumerate(gens) if (name, degrees[i]) not in closed}
    diffs = {}
    for i, (name, d) in enumerate(gens):
        if i in free:
            monos = [m for m in monomials(degrees, d + 1)
                     if not any(dense_key(m, len(gens))[j] for j in free)]
            diffs[name] = {m: Fraction(rng.choice([-3, -1, 1, 2]), rng.choice([1, 1, 2]))
                           for m in monos if rng.random() < 0.7}
    uv = sparse_key(tuple(int(name in "uv") for name, _ in gens))
    diffs["x"][uv] = Fraction(rng.choice([-2, 1]))
    return free_cdga(gens, diffs, cap)


@pytest.mark.parametrize("seed", range(8))
def test_direct_leibniz_matches_the_word_and_product_references(seed):
    # d_key works on keys: a term q of d(p) times x by one more factor of x
    # (none when x is odd and q holds it, signed by q's odd generators after
    # x), and p times a term of dx signed by Koszul inversions.  Every
    # d-matrix equals the one made from the letter-by-letter reference, and
    # each monomial's terms come in the order of the two-product reference.
    rng = random.Random(2300 + seed)
    cap = rng.randint(7, 9)
    alg = _algebra_with_later_and_odd_names(rng, cap)
    memo = {}
    for n in range(cap + 1):
        if n < cap:
            assert alg.d_matrix(n) == _ref_d_matrix(alg, n), (seed, n)
        for m in alg.basis_keys(n):
            _assert_same_terms(alg.d_key(m), _ref_d_key_by_products(alg, m, memo))


def test_cancelling_products_leave_no_zero_coefficient():
    m = free_cdga([("a", 2), ("b", 2), ("x", 3)], {}, 8)
    a, b, x = m.gen("a"), m.gen("b"), m.gen("x")
    assert (a + b) * (a - b) == a * a - b * b
    assert not any(c == 0 for c in ((a + b) * (a - b)).terms.values())
    assert (x * x).is_zero() and (x * x).terms == {}
    assert ((a * x) * (b * x)).terms == {}
    assert (a * a * a * a * a).terms == {}  # degree 10, truncated at the cap 8


@pytest.mark.parametrize("seed", range(6))
def test_morphism_matrices_match_the_reference_images(seed):
    rng = random.Random(100 + seed)
    cap = rng.randint(6, 8)
    dom = _random_chain(rng, cap, 3)[-1]
    cod = _random_chain(rng, cap, 3)[-1]
    images = {g.name: _random_element(rng, cod, g.degree) for g in dom.generators}
    f = CdgaMorphism.on_generators(dom, cod, images)
    count = len(dom.generators)
    for n in range(cap + 1):
        keys = dom.basis_keys(n)
        refs = [_sparse(_ref_image(f, dense_key(m, count))) for m in keys]
        for m, ref in zip(keys, refs):
            _assert_same_terms(f.image(m), ref)
        assert f.matrix(n) == _ref_matrix(cod, n, refs)
    u = _random_element(rng, dom, rng.randint(2, cap))
    want = {}
    for m, c in u.terms.items():
        want = _ref_add(want, _ref_image(f, dense_key(m, count)), c)
    _assert_same_terms(f.apply(u), _sparse(want))


def _ref_matrix(cod, n, images):
    """The degree-n matrix with these images (engine terms) as its columns."""
    return QMatrix.from_columns([cod.to_sparse(cod.element(r), n) for r in images], cod.dim(n))


@pytest.mark.parametrize("seed", range(8))
def test_extension_basis_matches_enumeration_from_scratch(seed):
    rng = random.Random(200 + seed)
    cap = rng.randint(5, 9)
    for alg in _random_chain(rng, cap, 5):
        want = _ref_basis([g.degree for g in alg.generators], cap)
        for n in rng.sample(range(cap + 1), cap + 1):
            assert alg.basis_keys(n) == want[n]
            assert [alg.key_position(n, m) for m in want[n]] == list(range(len(want[n])))


def test_element_repr_lists_terms_in_dense_lexicographic_order():
    # Keys are (index, exponent) pairs, but repr lists terms as their dense
    # exponent tuples sort, which is not the order of the pair tuples.
    rng = random.Random(2700)
    reordered = 0
    for _ in range(6):
        cap = rng.randint(6, 9)
        alg = _random_chain(rng, cap, 4)[-1]
        count = len(alg.generators)
        for _ in range(20):
            u = sum((_random_element(rng, alg, rng.randint(0, cap)) for _ in range(3)),
                    alg.zero())
            keys = sorted(u.terms, key=lambda m: dense_key(m, count))
            want = " + ".join(f"{u.terms[k]}*{alg.key_repr(k)}" for k in keys)
            assert repr(u) == (f"<{want}>" if keys else "<0>")
            reordered += keys != sorted(u.terms)
    assert reordered


@pytest.mark.parametrize("seed", range(4))
def test_sibling_extensions_keep_their_own_memoised_differentials(seed):
    # Two extensions of one base give index len(base.generators) to different
    # generators of the same degrees: they share basis tables, but each copies
    # the base's memoised differentials, so d_key calls made in turn on the two
    # answer each from its own.  Every d-matrix and inclusion matrix equals
    # the per-word reference.
    rng = random.Random(2710 + seed)
    cap = rng.randint(7, 9)
    base = _random_chain(rng, cap, 3)[-1]
    for n in range(cap):
        base.d_matrix(n)
    degrees = [rng.randint(2, 4) for _ in range(2)]
    left, left_incl = hirsch_extend(base, [(f"l{j}", d, random_cocycle(rng, base, d + 1))
                                           for j, d in enumerate(degrees)])
    right, right_incl = hirsch_extend(base, [(f"r{j}", d, base.zero())
                                             for j, d in enumerate(degrees)])
    assert left._basis_cache is right._basis_cache
    assert any(left.generator_diff(f"l{j}").terms for j in range(2))
    for n in range(cap):
        for m in left.basis_keys(n):
            left.d_key(m)
            right.d_key(m)
    for n in range(cap):
        assert left.d_matrix(n) == _ref_d_matrix(left, n), (seed, n)
        assert right.d_matrix(n) == _ref_d_matrix(right, n), (seed, n)
    for ext, incl in ((left, left_incl), (right, right_incl)):
        for n in range(cap + 1):
            refs = [_sparse(_ref_image(incl, dense_key(m, len(base.generators))))
                    for m in base.basis_keys(n)]
            assert incl.matrix(n) == _ref_matrix(ext, n, refs)


def _wedge_tower(k, cap):
    """W_k: stage j is H*(a wedge of k - j two-spheres), each map kills the last."""
    def stage(spheres):
        labels = [f"a{i}" for i in range(spheres)]
        return FiniteCDGA(basis={0: ["one"], 2: labels}, unit="one",
                          products={(x, y): {} for x in labels for y in labels},
                          differential={}, degree_cap=cap + 2)
    stages = [stage(k - j) for j in range(k)]
    maps = []
    for a, b in zip(stages, stages[1:]):
        images = {lab: b.basis_elem(lab) for lab in b.labels[2]}
        images.update({"one": b.one(), a.labels[2][-1]: b.zero()})
        maps.append(CdgaMorphism.on_basis(a, b, images))
    return PersistentCDGA(Grid(tuple(range(k))), stages, maps, cap)


def test_extension_basis_matches_enumeration_on_w4_at_cap_6():
    model = build_persistent_minimal_model(_wedge_tower(4, 6))
    assert len(model.algebras[0].generators) == 298
    for alg in model.algebras:
        want = _ref_basis([g.degree for g in alg.generators], alg.degree_cap)
        assert [alg.basis_keys(n) for n in range(alg.degree_cap + 1)] == want
