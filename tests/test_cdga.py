import random

import pytest

from pmm.cdga import (
    CdgaMorphism, FiniteCDGA, cohomology, differential, free_cdga,
    hirsch_extend, indecomposables, monomial_basis, multiply,
    validate_morphism,
)
from pmm.errors import ValidationError


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
                        decomposable_cols.append(m.to_vector(prod, k))
        dim_dec = rank(QMatrix.from_columns(decomposable_cols, len(keys))) \
            if decomposable_cols and keys else 0
        assert indecomposables(m, k)[0] == len(keys) - dim_dec
