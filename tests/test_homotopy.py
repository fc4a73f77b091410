import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

from pmm.cdga import CdgaElement, CdgaMorphism, FiniteCDGA, differential, free_cdga, multiply
from pmm.errors import InternalError, ValidationError
from pmm.exactla import ONE, QMatrix, rank
from pmm.homotopy import (
    CdgaHomotopy, HomotopySquare, IntervalElement,
    check_homotopy_identity, cone, cone_map, integrate_01, integrate_0t, interval_d, interval_mul,
)
from pmm.io import load_input
from pmm.pminimal import build_persistent_minimal_model

from .test_cdga import _random_chain, _random_element, _ref_add, _ref_mul


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
                            + IntervalElement.t_power(b.gen("u"), 0, with_dt=True)})
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
    h.check_chain_condition()
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
    h.check_chain_condition()
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


# -- element-wise reference for the block-assembled cone matrices ------------
# Each column is built symbolically from one basis element, (v, 0) for v a
# monomial of M^{n+1}, then (0, a) for a a basis element of A^n.

def _ref_basis(c, n):
    out = [(c.domain.element({k: ONE}), c.target.zero())
           for k in (c.domain.basis_keys(n + 1) if n + 1 <= c.domain.degree_cap else ())]
    out += [(c.domain.zero(), CdgaElement(c.target, {k: ONE}))
            for k in (c.target.basis_keys(n) if 0 <= n <= c.target.degree_cap else ())]
    return out


def _ref_pack(c, n, v, a):
    return ((c.domain.to_vector(v, n + 1) if c.dim_m(n) else ())
            + (c.target.to_vector(a, n) if c.dim_a(n) else ()))


def _ref_cone_d_matrix(c, n):
    """d(v, a) = (dv, m(v) - da), column by column."""
    cols = [_ref_pack(c, n + 1, differential(v), c.m.apply(v) - differential(a))
            if n + 1 <= c.max_degree else () for v, a in _ref_basis(c, n)]
    return QMatrix.from_columns(cols, c.dim(n + 1))


def _ref_cone_map_matrix(phi, n):
    """phi(v, a) = (u(v), w(a) + IH(v)), column by column."""
    sq = phi.square
    cols = [_ref_pack(phi.target, n, sq.top.apply(v),
                      sq.bottom.apply(a) + sq.homotopy.integral_of(v))
            for v, a in _ref_basis(phi.source, n)]
    return QMatrix.from_columns(cols, phi.target.dim(n))


def _ref_identity_messages(h, max_degree):
    f, g = h.endpoints()
    problems = []
    for n in range(max_degree + 1):
        for mono in h.domain.basis_keys(n):
            a = h.domain.element({mono: ONE})
            lhs = differential(h.integral_of(a)) + h.integral_of(differential(a))
            if lhs != g.apply(a) - f.apply(a):
                problems.append(f"identity fails on {h.domain.key_repr(mono)}")
    return problems


def _assert_same_matrix(got, want):
    assert got == want
    assert all(type(x) is Fraction for row in got.data for x in row)


def _s2():
    return FiniteCDGA(basis={0: ["one"], 2: ["alpha"]}, unit="one",
                      products={("alpha", "alpha"): {}}, differential={}, degree_cap=8)


def _built_model(name):
    with open(Path(__file__).parent / "fixtures" / f"{name}.json") as fh:
        return build_persistent_minimal_model(load_input(json.load(fh)))


def test_cone_d_matrix_equals_elementwise_free_and_finite_targets():
    m, b = sphere_map_square()
    u = CdgaMorphism.on_generators(m, b, {"a": b.gen("c"), "y": b.gen("z")})
    s2 = _s2()
    to_s2 = CdgaMorphism.on_generators(lam([("a", 2)]), s2, {"a": s2.basis_elem("alpha")})
    for c in (cone(u), cone(to_s2)):
        for n in range(-1, c.max_degree + 1):
            _assert_same_matrix(c.d_matrix(n), _ref_cone_d_matrix(c, n))


def test_cone_map_matrix_equals_elementwise():
    m, b = sphere_map_square()
    ident_m, ident_b = CdgaMorphism.identity(m), CdgaMorphism.identity(b)
    h = CdgaHomotopy(m, b, {"a": IntervalElement.constant(b.gen("c")),
                            "y": IntervalElement.constant(b.gen("z"))
                            + IntervalElement.t_power(b.gen("c"), 0, with_dt=True)})
    h.check_chain_condition()
    u, _ = h.endpoints()
    maps = [cone_map(HomotopySquare(top=u, bottom=u, left=ident_m, right=ident_b,
                                    homotopy=h))]
    # sphere2_bounded is sphere2 with w in degree 1, dw = a, at stage 1: the
    # degree-2 bar dies there, bounded by w, so the homotopy picks up a
    # w (x) dt term and its I_H(2) block is nonzero.
    models = [_built_model("example1_case1"), _built_model("sphere2_bounded")]
    assert not models[1].homotopies[0].integral_matrix(2).is_zero()
    for model in models:
        maps += model.cone_maps()
        for c in model.stage_cones():
            for n in range(-1, c.max_degree + 1):
                _assert_same_matrix(c.d_matrix(n), _ref_cone_d_matrix(c, n))
    for phi in maps:
        for n in range(-1, phi.source.max_degree + 1):
            _assert_same_matrix(phi.matrix(n), _ref_cone_map_matrix(phi, n))


def _closed_y_into_acyclic():
    """H: Lambda(y3) -> Lambda(b2, s3; db = s), constant at y -> s."""
    m = lam([("y", 3)])
    scratch = lam([("b", 2), ("s", 3)])
    b = free_cdga([("b", 2), ("s", 3)], {"b": scratch.gen("s")}, 8)
    h = CdgaHomotopy(m, b, {"y": IntervalElement.constant(b.gen("s"))})
    h.check_chain_condition()
    return m, b, h


def test_homotopy_identity_messages_match_elementwise_on_broken_homotopy():
    # H(y) = s + b (x) dt with db = s != 0 is no cochain homotopy: the identity
    # fails on y and on the multiples a^k y, while the end points stay valid.
    m = lam([("a", 2), ("y", 3)])
    scratch = lam([("c", 2), ("b", 2), ("s", 3)])
    b = free_cdga([("c", 2), ("b", 2), ("s", 3)], {"b": scratch.gen("s")}, 8)
    h = CdgaHomotopy(m, b, {"a": IntervalElement.constant(b.gen("c")),
                            "y": IntervalElement.constant(b.gen("s"))
                            + IntervalElement.t_power(b.gen("b"), 0, with_dt=True)})
    problems = check_homotopy_identity(h, 7)
    assert problems == _ref_identity_messages(h, 7)
    assert problems == ["identity fails on y", "identity fails on a*y", "identity fails on a^2*y"]


def test_homotopy_identity_reads_integral_of_differential():
    # H(a) = c + u dt, H(y) = z - 2cu t on dy = a^2: I_H(y) = 0, so the identity
    # at y holds only through the I_H(a^2) d_M(y) term: I_H(a^2) = -2cu = g(y) - f(y).
    m, _ = sphere_map_square()
    scratch = lam([("c", 2), ("u", 1), ("z", 3)])
    b = free_cdga([("c", 2), ("u", 1), ("z", 3)],
                  {"z": multiply(scratch.gen("c"), scratch.gen("c"))}, 8)
    cu = multiply(b.gen("c"), b.gen("u"))
    h = CdgaHomotopy(m, b, {"a": IntervalElement.constant(b.gen("c"))
                            + IntervalElement.t_power(b.gen("u"), 0, with_dt=True),
                            "y": IntervalElement.constant(b.gen("z"))
                            + IntervalElement.t_power(cu.scale(-2), 1)})
    h.check_chain_condition()
    assert not h.integral_matrix(4).is_zero()
    assert check_homotopy_identity(h, 7) == _ref_identity_messages(h, 7) == []


def test_homotopy_identity_reads_fresh_integral_after_memo_reset():
    m, b, h = _closed_y_into_acyclic()
    assert check_homotopy_identity(h, 6) == []
    # b (x) dt leaves both end points alone but moves I_H(y) by b, and db != 0.
    h.assignment["y"] = h.assignment["y"] + IntervalElement.t_power(b.gen("b"), 0, with_dt=True)
    h._cache.clear()
    assert check_homotopy_identity(h, 6) == ["identity fails on y"]


def test_check_chain_map_rejects_altered_integral_matrix():
    m, _ = sphere_map_square()
    ident = CdgaMorphism.identity(m)
    sq = HomotopySquare(top=ident, bottom=ident, left=ident, right=ident,
                        homotopy=CdgaHomotopy.constant(ident))
    cone_map(sq)
    i_h = sq.homotopy.integral_matrix(4)  # M^4 = <a^2> -> M^3 = <y>, zero here
    assert (i_h.rows, i_h.cols) == (1, 1) and i_h.is_zero()
    sq.homotopy._cache[4] = QMatrix(1, 1, [[1]])
    with pytest.raises(InternalError, match="cone map fails to be a cochain map"):
        cone_map(sq)


# -- H of a monomial against the product of its factors from the unit ---------
# The reference multiplies pairs (poly, dt) of term dicts with the reference
# product of test_cdga, in the order 1 * H(x1) * H(x1) * H(x2) * ..., and keeps
# the order in which terms and t-powers first appear.

def _ref_interval_mul(alg, u, v):
    poly, dt = {}, {}

    def add_at(acc, k, terms):
        if terms:
            acc[k] = _ref_add(acc[k], terms) if k in acc else terms

    for k1, b1 in u[0].items():
        for k2, b2 in v[0].items():
            add_at(poly, k1 + k2, _ref_mul(alg, b1, b2))
        for k2, c2 in v[1].items():
            add_at(dt, k1 + k2, _ref_mul(alg, b1, c2))
    for k1, c1 in u[1].items():
        for k2, b2 in v[0].items():
            sign = (-1) ** alg.key_degree(next(iter(b2)))
            add_at(dt, k1 + k2, {k: sign * c for k, c in _ref_mul(alg, c1, b2).items()})
    return ({k: t for k, t in poly.items() if t}, {k: t for k, t in dt.items() if t})


def _ref_h_mono(h, mono):
    out = ({0: {h.codomain.unit_key: Fraction(1)}}, {})
    for i, e in enumerate(mono):
        value = h.assignment[h.domain.generators[i].name]
        pair = ({k: v.terms for k, v in value.poly.items()},
                {k: v.terms for k, v in value.dt.items()})
        for _ in range(e):
            out = _ref_interval_mul(h.codomain, out, pair)
    return out


def _term_lists(parts):
    return [[(k, list(terms.items())) for k, terms in part.items()] for part in parts]


@pytest.mark.parametrize("seed", range(6))
def test_homotopy_of_a_monomial_matches_the_reference_product(seed):
    rng = random.Random(300 + seed)
    cap = rng.randint(6, 8)
    dom = _random_chain(rng, cap, 3)[-1]
    cod = _random_chain(rng, cap, 3)[-1]
    assignment = {g.name: IntervalElement(
        cod, {k: _random_element(rng, cod, g.degree, 0.4) for k in range(3)},
        {k: _random_element(rng, cod, g.degree - 1, 0.4) for k in range(2)})
        for g in dom.generators}
    h = CdgaHomotopy(dom, cod, assignment)
    for n in rng.sample(range(cap + 1), cap + 1):
        for mono in dom.basis_keys(n):
            got = h._apply_mono(mono)
            got = tuple({k: v.terms for k, v in part.items()} for part in (got.poly, got.dt))
            assert _term_lists(got) == _term_lists(_ref_h_mono(h, mono))
            assert all(c != 0 for part in got for terms in part.values() for c in terms.values())
