import random
from fractions import Fraction

import pytest

from pmm.cdga import CdgaMorphism, free_cdga, multiply
from pmm.errors import InternalError, ValidationError
from pmm.exactla import QMatrix, rank
from pmm.homotopy import (
    CdgaHomotopy, HomotopySquare, IntervalElement,
    check_homotopy_identity, cone, cone_map, integrate_01, integrate_0t, interval_d, interval_mul,
)


def lam(gens, diffs=None, cap=8):
    return free_cdga(gens, diffs or {}, cap)


def test_interval_mul_t_powers():
    b = lam([("a", 2)])
    t = IntervalElement.t_power(b.one(), 1)
    t2 = interval_mul(t, t)
    assert t2.poly[2] == b.one() and 1 not in t2.poly


def test_interval_mul_dt_squares_to_zero():
    b = lam([("a", 2)])
    dt = IntervalElement.t_power(b.one(), 0, with_dt=True)
    assert interval_mul(dt, dt).is_zero()


def test_interval_mul_koszul_across_dt():
    b = lam([("a", 2), ("x", 3)])
    bdt = IntervalElement.t_power(b.gen("a"), 0, with_dt=True)
    xc = IntervalElement.constant(b.gen("x"))
    prod = interval_mul(bdt, xc)
    # (a (x) dt)(x (x) 1) = (-1)^{|x|} a x (x) dt
    assert prod.dt[0] == multiply(b.gen("a"), b.gen("x")).scale(-1)
    ac = IntervalElement.constant(b.gen("a"))
    prod2 = interval_mul(bdt, ac)
    assert prod2.dt[0] == multiply(b.gen("a"), b.gen("a"))


def test_interval_d_formulas():
    b = lam([("a", 2)])
    t = IntervalElement.t_power(b.one(), 1)
    dt = interval_d(t)
    assert dt.poly == {} and dt.dt[0] == b.one()

    const = IntervalElement.constant(b.gen("a"))
    assert interval_d(const).poly == {}  # da = 0

    at = IntervalElement.t_power(b.gen("a"), 1)
    d_at = interval_d(at)
    assert d_at.dt[0] == b.gen("a")  # even degree: sign +1

    m = lam([("x", 3)])
    xt = IntervalElement.t_power(m.gen("x"), 1)
    assert interval_d(xt).dt[0] == m.gen("x").scale(-1)  # odd degree: sign -1


def test_interval_d_squared_zero_random():
    rng = random.Random(0)
    b = free_cdga([("a", 2), ("x", 3), ("y", 3)],
                  {"y": None or {}}, 8)
    monos = [k for n in range(9) for k in b.basis_keys(n)]
    for _ in range(100):
        k1 = rng.choice(monos)
        u = IntervalElement.t_power(b.element({k1: 1}), rng.randint(0, 3),
                                    with_dt=rng.random() < 0.5)
        assert interval_d(interval_d(u)).is_zero()


def test_integration_formulas():
    b = lam([("a", 2)])
    # t^k poly part integrates to zero.
    assert integrate_01(IntervalElement.t_power(b.gen("a"), 2)).is_zero()
    # b (x) t dt integrates to b/2 (even degree: positive tensor sign).
    half = integrate_01(IntervalElement.t_power(b.gen("a"), 1, with_dt=True))
    assert half == b.gen("a").scale(Fraction(1, 2))
    # Partial integration keeps the t-power.
    part = integrate_0t(IntervalElement.t_power(b.gen("a"), 1, with_dt=True))
    assert part.poly[2] == b.gen("a").scale(Fraction(1, 2))


def test_endpoints_constant_homotopy():
    m = lam([("a", 2)])
    b = lam([("c", 2)])
    f = CdgaMorphism.on_generators(m, b, {"a": b.gen("c")})
    h = CdgaHomotopy.constant(f)
    e0, e1 = h.endpoints()
    assert e0.apply(m.gen("a")) == b.gen("c")
    assert e1.apply(m.gen("a")) == b.gen("c")
    assert check_homotopy_identity(h, 6) == []


def test_endpoints_kill_dt():
    m = lam([("a", 2)])
    b = free_cdga([("c", 2), ("u", 1)], {}, 8)
    f = CdgaMorphism.on_generators(m, b, {"a": b.gen("c")})
    h = CdgaHomotopy(m, b, {"a": IntervalElement.constant(b.gen("c"))
                            + IntervalElement.t_power(b.gen("u"), 0, with_dt=True)},
                     check=False)
    e0, e1 = h.endpoints()
    assert e0.apply(m.gen("a")) == b.gen("c")
    assert e1.apply(m.gen("a")) == b.gen("c")


def test_linear_interpolation_homotopy():
    # H(a) = f(a) + (g(a) - f(a)) t + w dt needs d-compatibility; with
    # dw = e - c the interpolation between c and e is a genuine homotopy.
    m = lam([("a", 2)])
    scratch = free_cdga([("c", 2), ("e", 2), ("w", 1)], {}, 8)
    b = free_cdga([("c", 2), ("e", 2), ("w", 1)],
                  {"w": scratch.gen("c") - scratch.gen("e")}, 8)
    hx = (IntervalElement.constant(b.gen("c"))
          + IntervalElement.t_power(b.gen("e") - b.gen("c"), 1)
          + IntervalElement.t_power(b.gen("w"), 0, with_dt=True))
    h = CdgaHomotopy(m, b, {"a": hx})
    e0, e1 = h.endpoints()
    assert e0.apply(m.gen("a")) == b.gen("c")
    assert e1.apply(m.gen("a")) == b.gen("e")
    assert check_homotopy_identity(h, 6) == []


def sphere_map_square():
    """Square: M = Lambda(a2,y3; dy=a^2) -> A = Lambda(c2, z3; dz=c^2) via identity-like
    renaming, with a homotopy wobbling y by an exact dt term."""
    m = None
    scratch = free_cdga([("a", 2), ("y", 3)], {}, 8)
    m = free_cdga([("a", 2), ("y", 3)], {"y": multiply(scratch.gen("a"), scratch.gen("a"))}, 8)
    scratch2 = free_cdga([("c", 2), ("z", 3)], {}, 8)
    a = free_cdga([("c", 2), ("z", 3)], {"z": multiply(scratch2.gen("c"), scratch2.gen("c"))}, 8)
    return m, a


def test_homotopy_identity_with_dt_part():
    m, b = sphere_map_square()
    # H(a) = c (x) 1;  H(y) = z (x) 1 + c (x) dt. Chain condition:
    # d H(y) = c^2 (x) 1 and H(dy) = H(a^2) = c^2 (x) 1. dt part of dH(y): dc (x) dt = 0. OK.
    h = CdgaHomotopy(m, b, {
        "a": IntervalElement.constant(b.gen("c")),
        "y": IntervalElement.constant(b.gen("z"))
             + IntervalElement.t_power(b.gen("c"), 0, with_dt=True),
    })
    e0, e1 = h.endpoints()
    # Endpoints agree on a, differ by nothing on y (dt killed) -- but the
    # integral is nonzero: IH(y) = c, a genuine cochain homotopy datum.
    assert h.integral_of(m.gen("y")) == b.gen("c")
    assert check_homotopy_identity(h, 7) == []


def test_cone_of_identity_acyclic():
    m, _ = sphere_map_square()
    c = cone(CdgaMorphism.identity(m))
    for n in range(0, c.max_degree - 1):
        assert c.h_dim(n) == 0


def test_cone_unit_map_into_polynomial():
    b = lam([("a", 2)])
    unit = free_cdga([], {}, 8)
    f = CdgaMorphism.on_generators(unit, b, {})
    c = cone(f)
    assert c.h_dim(0) == 0
    assert c.h_dim(1) == 0
    assert c.h_dim(2) == 1  # the class of (0, a)
    space = c.cohomology_space(2)
    v, a = c.unpack(2, space.reps[0])
    assert v.is_zero() and not a.is_zero()


def test_cone_telescope_obstruction_class():
    # cone(Lambda(a2) -> finite S2 cohomology): H^3 is spanned by (a^2, 0).
    from pmm.cdga import FiniteCDGA
    s2 = FiniteCDGA(basis={0: ["one"], 2: ["alpha"]}, unit="one",
                    products={("alpha", "alpha"): {}}, differential={}, degree_cap=8)
    m = lam([("a", 2)])
    f = CdgaMorphism.on_generators(m, s2, {"a": s2.basis_elem("alpha")})
    c = cone(f)
    assert c.h_dim(2) == 0
    assert c.h_dim(3) == 1
    v, a = c.unpack(3, c.cohomology_space(3).reps[0])
    assert a.is_zero()
    assert v == multiply(m.gen("a"), m.gen("a"))


def test_cone_map_strict_square_block_diagonal():
    m, b = sphere_map_square()
    u = CdgaMorphism.on_generators(m, b, {"a": b.gen("c"), "y": b.gen("z")})
    ident_m = CdgaMorphism.identity(m)
    ident_b = CdgaMorphism.identity(b)
    sq = HomotopySquare(top=u, bottom=u, left=ident_m, right=ident_b,
                        homotopy=CdgaHomotopy.constant(u))
    phi = cone_map(sq)
    for n in range(0, 5):
        mat = phi.matrix(n)
        src = phi.source
        # Strictly commuting square with constant homotopy: block diagonal (u, u).
        dm = src.dim_m(n)
        for i in range(phi.target.dim_m(n)):
            for j in range(dm, src.dim(n)):
                assert mat.entry(i, j) == 0


def test_cone_map_identity_square():
    m, _ = sphere_map_square()
    ident = CdgaMorphism.identity(m)
    sq = HomotopySquare(top=ident, bottom=ident, left=ident, right=ident,
                        homotopy=CdgaHomotopy.constant(ident))
    phi = cone_map(sq)
    for n in range(-1, 5):
        assert phi.matrix(n) == QMatrix.identity(phi.source.dim(n))


def test_cone_map_rejects_square_not_starting_at_bottom_left():
    # H is constant at u, but bottom o left = w with w(a) = 2c, w(y) = 4z.
    m, b = sphere_map_square()
    u = CdgaMorphism.on_generators(m, b, {"a": b.gen("c"), "y": b.gen("z")})
    w = CdgaMorphism.on_generators(m, b, {"a": b.gen("c").scale(2),
                                          "y": b.gen("z").scale(4)})
    sq = HomotopySquare(top=w, bottom=w, left=CdgaMorphism.identity(m),
                        right=CdgaMorphism.identity(b), homotopy=CdgaHomotopy.constant(u))
    with pytest.raises(ValidationError, match="homotopy start mismatch on a"):
        cone_map(sq)


def test_check_chain_map_rejects_altered_matrix():
    m, _ = sphere_map_square()
    ident = CdgaMorphism.identity(m)
    phi = cone_map(HomotopySquare(top=ident, bottom=ident, left=ident, right=ident,
                                  homotopy=CdgaHomotopy.constant(ident)))
    rows = [list(row) for row in phi.matrix(1).data]
    rows[0][0] += 1
    phi._mat_cache[1] = QMatrix(len(rows), len(rows[0]), rows)
    with pytest.raises(InternalError, match="cone map fails to be a cochain map"):
        phi.check_chain_map()


def test_cone_long_exact_sequence_ranks():
    # For m: Lambda(a) -> finite S2, verify exactness of
    # H^{n-1}C -> H^n M -> H^n A -> H^n C at the middle two spots by rank count.
    from pmm.cdga import FiniteCDGA
    s2 = FiniteCDGA(basis={0: ["one"], 2: ["alpha"]}, unit="one",
                    products={("alpha", "alpha"): {}}, differential={}, degree_cap=8)
    m = lam([("a", 2)])
    f = CdgaMorphism.on_generators(m, s2, {"a": s2.basis_elem("alpha")})
    c = cone(f)
    for n in range(1, 6):
        hm = m.cohomology_space(n)
        ha = s2.cohomology_space(n)
        # rank of H(f) plus dims must satisfy: dim H^nA = rank H^n(f) + contribution to cone.
        mat_cols = [s2.to_vector(f.apply(m.from_vector(n, r)), n) for r in hm.reps]
        img_in_h = [ha.class_of(col) for col in mat_cols if True]
        rk = rank(QMatrix.from_columns(img_in_h, ha.dim)) if ha.dim else 0
        # Euler-characteristic style check of exactness at H^nA:
        # dim ker(H^nA -> H^nC) == rk.
        to_cone = [c.cohomology_space(n).class_of(c.include_target(
            s2.from_vector(n, r), n)) for r in ha.reps]
        kmat = QMatrix.from_columns(to_cone, c.h_dim(n)) if ha.dim else QMatrix(0, 0)
        ker_dim = ha.dim - (rank(kmat) if ha.dim else 0)
        assert ker_dim == rk
