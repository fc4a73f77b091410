import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

from pmm.cdga import (
    CdgaElement, CdgaMorphism, FiniteCDGA, differential, free_cdga, multiply,
    validate_morphism,
)
from pmm.errors import InternalError, ValidationError
from pmm.exactla import ONE, QMatrix, hstack, rank, vstack
from pmm.homotopy import (
    HomotopySquare, _end_difference, check_homotopy_identity, cone, cone_map, eval_at_0,
    eval_at_1, integral_matrix, integrate_01, integrate_0t,
)
from pmm.io import load_input
from pmm.pminimal import build_persistent_minimal_model

from .dense import dense_key, sparse_key
from .gen import include_target, random_tower
from .test_cdga import _random_chain, _random_element, _ref_mul_keys
from .test_incremental import wedge_tower


def lam(gens, diffs=None, cap=8):
    return free_cdga(gens, diffs or {}, cap)


def homotopy(dom, base, values):
    """The map into base's path algebra with these generator values, checked."""
    h = CdgaMorphism.on_generators(dom, base.path, values)
    assert validate_morphism(h) == []
    return h


def constant(f):
    """The constant homotopy at f."""
    p = f.codomain.path
    return CdgaMorphism.on_generators(
        f.domain, p, {g.name: p.tensor(f.gen_images[g.name]) for g in f.domain.generators})


def endpoints(h):
    """(eps_0 o H, eps_1 o H) on generators."""
    return tuple(CdgaMorphism.on_generators(h.domain, h.codomain.base, {
        name: ev(value) for name, value in h.gen_images.items()}) for ev in (eval_at_0, eval_at_1))


def integral_of(h, a):
    return integrate_01(h.apply(a))


def test_interval_mul_t_powers():
    b = lam([("a", 2)])
    t = b.path.tensor(b.one(), 1)
    assert b.path.components(t * t) == {(0, 2): b.one()}


def test_interval_mul_dt_squares_to_zero():
    b = lam([("a", 2)])
    dt = b.path.tensor(b.one(), 0, 1)
    assert (dt * dt).is_zero()


def test_interval_mul_koszul_across_dt():
    b = lam([("a", 2), ("x", 3)])
    p = b.path
    bdt = p.tensor(b.gen("a"), 0, 1)
    # (a (x) dt)(x (x) 1) = (-1)^{|x|} a x (x) dt
    assert bdt * p.tensor(b.gen("x")) == p.tensor(multiply(b.gen("a"), b.gen("x")).scale(-1), 0, 1)
    assert bdt * p.tensor(b.gen("a")) == p.tensor(multiply(b.gen("a"), b.gen("a")), 0, 1)


def test_interval_d_formulas():
    b = lam([("a", 2)])
    p = b.path
    assert differential(p.tensor(b.one(), 1)) == p.tensor(b.one(), 0, 1)
    assert differential(p.tensor(b.gen("a"))).is_zero()  # da = 0
    # even degree: sign +1
    assert differential(p.tensor(b.gen("a"), 1)) == p.tensor(b.gen("a"), 0, 1)

    m = lam([("x", 3)])
    # odd degree: sign -1
    assert differential(m.path.tensor(m.gen("x"), 1)) == m.path.tensor(m.gen("x").scale(-1), 0, 1)


def test_interval_d_squared_zero_random():
    rng = random.Random(0)
    b = free_cdga([("a", 2), ("x", 3), ("y", 3)],
                  {"y": None or {}}, 8)
    monos = [k for n in range(9) for k in b.basis_keys(n)]
    for _ in range(100):
        k1 = rng.choice(monos)
        u = b.path.tensor(b.element({k1: 1}), rng.randint(0, 3), int(rng.random() < 0.5))
        assert differential(differential(u)).is_zero()


def test_integration_formulas():
    b = lam([("a", 2)])
    p = b.path
    # t^k poly part integrates to zero.
    assert integrate_01(p.tensor(b.gen("a"), 2)).is_zero()
    # b (x) t dt integrates to b/2 (even degree: positive tensor sign).
    half = integrate_01(p.tensor(b.gen("a"), 1, 1))
    assert half == b.gen("a").scale(Fraction(1, 2))
    # Partial integration keeps the t-power.
    part = integrate_0t(p.tensor(b.gen("a"), 1, 1))
    assert p.components(part)[(0, 2)] == b.gen("a").scale(Fraction(1, 2))


def test_one_path_algebra_per_base():
    b = lam([("a", 2)])
    assert b.path is b.path and b.path.base is b
    with pytest.raises(ValidationError, match="not in the path algebra's base"):
        b.path.tensor(lam([("a", 2)]).gen("a"))


def test_endpoints_constant_homotopy():
    m = lam([("a", 2)])
    b = lam([("c", 2)])
    f = CdgaMorphism.on_generators(m, b, {"a": b.gen("c")})
    h = constant(f)
    e0, e1 = endpoints(h)
    assert e0.apply(m.gen("a")) == b.gen("c")
    assert e1.apply(m.gen("a")) == b.gen("c")
    assert check_homotopy_identity(h, 6) == []


def test_endpoints_kill_dt():
    m = lam([("a", 2)])
    b = free_cdga([("c", 2), ("u", 1)], {}, 8)
    h = CdgaMorphism.on_generators(m, b.path, {
        "a": b.path.tensor(b.gen("c")) + b.path.tensor(b.gen("u"), 0, 1)})
    e0, e1 = endpoints(h)
    assert e0.apply(m.gen("a")) == b.gen("c")
    assert e1.apply(m.gen("a")) == b.gen("c")


def test_linear_interpolation_homotopy():
    # H(a) = f(a) + (g(a) - f(a)) t + w dt needs d-compatibility; with
    # dw = e - c the interpolation between c and e is a genuine homotopy.
    m = lam([("a", 2)])
    scratch = free_cdga([("c", 2), ("e", 2), ("w", 1)], {}, 8)
    b = free_cdga([("c", 2), ("e", 2), ("w", 1)],
                  {"w": scratch.gen("c") - scratch.gen("e")}, 8)
    p = b.path
    hx = (p.tensor(b.gen("c")) + p.tensor(b.gen("e") - b.gen("c"), 1)
          + p.tensor(b.gen("w"), 0, 1))
    h = homotopy(m, b, {"a": hx})
    e0, e1 = endpoints(h)
    assert e0.apply(m.gen("a")) == b.gen("c")
    assert e1.apply(m.gen("a")) == b.gen("e")
    assert check_homotopy_identity(h, 6) == []


def test_validate_morphism_refuses_a_homotopy_value_of_the_wrong_degree_or_off_the_chain():
    # c (x) dt has degree 3 on a degree-2 generator; c (x) t is no chain map.
    m = lam([("a", 2)])
    b = lam([("c", 2)])
    p = b.path
    wrong = CdgaMorphism.on_generators(m, p, {"a": p.tensor(b.gen("c"), 0, 1)})
    assert validate_morphism(wrong) == ["image of a has wrong degree"]
    off = CdgaMorphism.on_generators(m, p, {"a": p.tensor(b.gen("c"), 1)})
    assert validate_morphism(off) == ["d-compatibility fails on generator a"]


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
    h = homotopy(m, b, {
        "a": b.path.tensor(b.gen("c")),
        "y": b.path.tensor(b.gen("z")) + b.path.tensor(b.gen("c"), 0, 1),
    })
    # Endpoints agree on a, differ by nothing on y (dt killed) -- but the
    # integral is nonzero: IH(y) = c, a genuine cochain homotopy datum.
    assert integral_of(h, m.gen("y")) == b.gen("c")
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
                        homotopy=constant(u))
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
                        homotopy=constant(ident))
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
                        right=CdgaMorphism.identity(b), homotopy=constant(u))
    with pytest.raises(ValidationError, match="homotopy start mismatch on a"):
        cone_map(sq)


def test_check_chain_map_rejects_altered_matrix():
    m, _ = sphere_map_square()
    ident = CdgaMorphism.identity(m)
    phi = cone_map(HomotopySquare(top=ident, bottom=ident, left=ident, right=ident,
                                  homotopy=constant(ident)))
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
        mat_cols = [s2.to_sparse(f.apply(m.from_vector(n, r)), n) for r in hm.reps]
        img_in_h = [ha.class_of(col) for col in mat_cols if True]
        rk = rank(QMatrix.from_columns(img_in_h, ha.dim)) if ha.dim else 0
        # Euler-characteristic style check of exactness at H^nA:
        # dim ker(H^nA -> H^nC) == rk.
        to_cone = [c.cohomology_space(n).class_of(include_target(
            c, s2.from_vector(n, r), n)) for r in ha.reps]
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
    return {**(c.domain.to_sparse(v, n + 1) if c.dim_m(n) else {}),
            **{c.dim_m(n) + j: x for j, x in
               (c.target.to_sparse(a, n) if c.dim_a(n) else {}).items()}}


def _ref_cone_d_matrix(c, n):
    """d(v, a) = (dv, m(v) - da), column by column."""
    cols = [_ref_pack(c, n + 1, differential(v), c.m.apply(v) - differential(a))
            if n + 1 <= c.max_degree else {} for v, a in _ref_basis(c, n)]
    return QMatrix.from_columns(cols, c.dim(n + 1))


def _ref_cone_map_matrix(phi, n):
    """phi(v, a) = (u(v), w(a) + IH(v)), column by column."""
    sq = phi.square
    cols = [_ref_pack(phi.target, n, sq.top.apply(v),
                      sq.bottom.apply(a) + integral_of(sq.homotopy, v))
            for v, a in _ref_basis(phi.source, n)]
    return QMatrix.from_columns(cols, phi.target.dim(n))


def _ref_identity_messages(h, max_degree):
    f, g = endpoints(h)
    problems = []
    for n in range(max_degree + 1):
        for mono in h.domain.basis_keys(n):
            a = h.domain.element({mono: ONE})
            lhs = differential(integral_of(h, a)) + integral_of(h, differential(a))
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
    h = homotopy(m, b, {"a": b.path.tensor(b.gen("c")),
                        "y": b.path.tensor(b.gen("z")) + b.path.tensor(b.gen("c"), 0, 1)})
    u, _ = endpoints(h)
    maps = [cone_map(HomotopySquare(top=u, bottom=u, left=ident_m, right=ident_b,
                                    homotopy=h))]
    # sphere2_bounded is sphere2 with w in degree 1, dw = a, at stage 1: the
    # degree-2 bar dies there, bounded by w, so the homotopy picks up a
    # w (x) dt term and its I_H(2) block is nonzero.
    models = [_built_model("example1_case1"), _built_model("sphere2_bounded")]
    assert not integral_matrix(models[1].homotopies[0], 2).is_zero()
    for model in models:
        maps += model.cone_maps()
        for c in model.stage_cones():
            for n in range(-1, c.max_degree + 1):
                _assert_same_matrix(c.d_matrix(n), _ref_cone_d_matrix(c, n))
    for phi in maps:
        for n in range(-1, phi.source.max_degree + 1):
            _assert_same_matrix(phi.matrix(n), _ref_cone_map_matrix(phi, n))


# -- the one-pass cone blocks against the stacked formula ---------------------

TOWER_FIXTURES = ("example1_case1", "example1_case2", "example2", "example3",
                  "sphere2", "sphere2_bounded", "sphere3")


def _stacked_cone_d_matrix(c, n):
    """[[d_M(n+1), 0], [m(n+1), -d_A(n)]] by hstack, vstack and scale(-1)."""
    if n + 1 > c.max_degree:
        return QMatrix(0, c.dim_m(n) + c.dim_a(n))
    return vstack([hstack([c.domain.d_matrix(n + 1),
                           QMatrix.zero(c.dim_m(n + 1), c.dim_a(n))]),
                   hstack([c.m.matrix(n + 1), c.target.d_matrix(n).scale(-1)])])


def _stacked_cone_map_matrix(phi, n):
    """[[u(n+1), 0], [I_H(n+1), w(n)]] by hstack and vstack."""
    sq, src = phi.square, phi.source
    if not phi.target.dim(n):
        return QMatrix(0, src.dim_m(n) + src.dim_a(n))
    return vstack([hstack([sq.top.matrix(n + 1),
                           QMatrix.zero(phi.target.dim_m(n), src.dim_a(n))]),
                   hstack([integral_matrix(sq.homotopy, n + 1), sq.bottom.matrix(n)])])


@pytest.mark.parametrize("name", TOWER_FIXTURES + ("W_2 cap 6",))
def test_cone_blocks_equal_the_stacked_formula(name):
    model = (build_persistent_minimal_model(wedge_tower(6)) if name.startswith("W_2")
             else _built_model(name))
    cones, maps = model.stage_cones(), model.cone_maps()
    for c in cones:
        for n in range(-1, c.max_degree + 1):
            _assert_same_matrix(c.d_matrix(n), _stacked_cone_d_matrix(c, n))
    for phi in maps:
        for n in range(-1, phi.source.max_degree + 1):
            _assert_same_matrix(phi.matrix(n), _stacked_cone_map_matrix(phi, n))


def _closed_y_into_acyclic():
    """H: Lambda(y3) -> Lambda(b2, s3; db = s), constant at y -> s."""
    m = lam([("y", 3)])
    scratch = lam([("b", 2), ("s", 3)])
    b = free_cdga([("b", 2), ("s", 3)], {"b": scratch.gen("s")}, 8)
    return m, b, homotopy(m, b, {"y": b.path.tensor(b.gen("s"))})


def test_homotopy_identity_messages_match_elementwise_on_broken_homotopy():
    # H(y) = s + b (x) dt with db = s != 0 is no cochain homotopy: the identity
    # fails on y and on the multiples a^k y, while the end points stay valid.
    m = lam([("a", 2), ("y", 3)])
    scratch = lam([("c", 2), ("b", 2), ("s", 3)])
    b = free_cdga([("c", 2), ("b", 2), ("s", 3)], {"b": scratch.gen("s")}, 8)
    h = CdgaMorphism.on_generators(m, b.path, {
        "a": b.path.tensor(b.gen("c")),
        "y": b.path.tensor(b.gen("s")) + b.path.tensor(b.gen("b"), 0, 1)})
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
    p = b.path
    h = homotopy(m, b, {"a": p.tensor(b.gen("c")) + p.tensor(b.gen("u"), 0, 1),
                        "y": p.tensor(b.gen("z")) + p.tensor(cu.scale(-2), 1)})
    assert not integral_matrix(h, 4).is_zero()
    assert check_homotopy_identity(h, 7) == _ref_identity_messages(h, 7) == []


def test_homotopy_identity_reads_fresh_integral_after_memo_reset():
    m, b, h = _closed_y_into_acyclic()
    assert check_homotopy_identity(h, 6) == []
    # b (x) dt leaves both end points alone but moves I_H(y) by b, and db != 0.
    h.gen_images["y"] = h.gen_images["y"] + b.path.tensor(b.gen("b"), 0, 1)
    h._images.clear()
    h._mat_cache.clear()
    assert check_homotopy_identity(h, 6) == ["identity fails on y"]


# -- the one-pass columns against the two-step forms ----------------------------
# I_H's columns and the identity's g - f columns are read in one pass over the
# terms of H(a); the references go through the intermediate elements.


def _two_step_integral(u):
    return eval_at_1(integrate_0t(u))


def _two_step_end_difference(u):
    return eval_at_1(u) - eval_at_0(u)


def _built_homotopies():
    """Every homotopy of the built models of wedge_tower(5), example3,
    sphere2_bounded and two seeded free towers with odd generators, whose
    homotopies have dt terms over odd-degree elements of the target."""
    models = [_built_model("example3"), _built_model("sphere2_bounded")] + [
        build_persistent_minimal_model(tower) for tower in [wedge_tower(5)] + [
            random_tower(random.Random(seed), 6, n_stages=4, max_gens=3) for seed in (7, 508)]]
    return [h for model in models for h in model.homotopies]


def test_one_pass_columns_match_the_two_step_forms():
    odd_dt = high_t = both_ends = 0
    for h in _built_homotopies():
        base = h.codomain.base
        for n in range(h.domain.degree_cap + 1):
            integral = integral_matrix(h, n)
            for col, mono in enumerate(h.domain.basis_keys(n)):
                u = h.image(mono)
                assert integrate_01(u) == _two_step_integral(u)
                assert _end_difference(u) == _two_step_end_difference(u)
                if base.dim(n - 1):
                    assert integral.column(col) == base.to_sparse(_two_step_integral(u), n - 1)
                powers = [(j, e) for _, j, e in u.terms]
                odd_dt += any(e and base.key_degree(b) % 2 for b, _, e in u.terms)
                high_t += any(j >= 2 for j, _ in powers)
                both_ends += (0, 0) in powers and any(j and not e for j, e in powers)
    assert odd_dt and high_t and both_ends


# -- the identity check reads every degree where the target is nonzero ------------


def _read_degrees(monkeypatch, h, *args):
    """(messages, the degrees n whose d_B(n-1) check_homotopy_identity read)."""
    base = h.codomain.base
    read, d_matrix = [], base.d_matrix

    def recording(n):
        read.append(n + 1)
        return d_matrix(n)

    monkeypatch.setattr(base, "d_matrix", recording)
    problems = check_homotopy_identity(h, *args)
    monkeypatch.undo()
    return problems, read


def test_identity_check_reads_every_degree_where_the_target_is_nonzero(monkeypatch):
    skipped = 0
    for h in _built_homotopies():
        base, dom = h.codomain.base, h.domain
        cap = dom.degree_cap
        problems, read = _read_degrees(monkeypatch, h, cap)
        assert problems == []
        assert read == [n for n in range(cap + 1) if base.dim(n)]
        skipped += cap + 1 - len(read)
        # A window reads the degrees of its generators where B is nonzero.
        names = [g.name for g in dom.generators]
        problems, read = _read_degrees(monkeypatch, h, cap, names)
        assert problems == []
        assert read == sorted({g.degree for g in dom.generators if base.dim(g.degree)})
    assert skipped


def test_tampered_dt_part_in_a_nonzero_target_degree_fails_the_full_check(monkeypatch):
    # B^2 = <a> and B^3 = ... = B^8 = 0 at stage 0 of sphere2_bounded: the
    # identity reads degrees 0..2 only.  w (x) dt moves neither end point but
    # moves I_H(x2_0) by w, and dw = a: the failure in degree 2 is still found.
    h = _built_model("sphere2_bounded").homotopies[0]
    base = h.codomain.base
    assert [base.dim(n) for n in range(9)] == [1, 1, 1, 0, 0, 0, 0, 0, 0]
    assert check_homotopy_identity(h, 8) == []
    h.gen_images["x2_0"] = h.gen_images["x2_0"] + h.codomain.tensor(base.basis_elem("w"), 0, 1)
    h._images.clear()
    h._mat_cache.clear()
    problems, read = _read_degrees(monkeypatch, h, 8)
    assert read == [0, 1, 2]
    assert problems == _ref_identity_messages(h, 8) == ["identity fails on x2_0"]
    assert check_homotopy_identity(h, 8, ["x2_0", "x3_0"]) == ["identity fails on x2_0"]


def test_check_chain_map_rejects_altered_integral_matrix():
    m, _ = sphere_map_square()
    ident = CdgaMorphism.identity(m)
    sq = HomotopySquare(top=ident, bottom=ident, left=ident, right=ident,
                        homotopy=constant(ident))
    cone_map(sq)
    i_h = integral_matrix(sq.homotopy, 4)  # M^4 = <a^2> -> M^3 = <y>, zero here
    assert (i_h.rows, i_h.cols) == (1, 1) and i_h.is_zero()
    sq.homotopy._mat_cache[4] = QMatrix(1, 1, [[1]])
    with pytest.raises(InternalError, match="cone map fails to be a cochain map"):
        cone_map(sq)


# -- H of a monomial against the product of its factors from the unit ---------
# The reference multiplies term dicts over path keys (b, j, e), Fraction(0)-seeded
# with the sign recomputed from scratch, in the order 1 * H(x1) * H(x1) * H(x2) * ...,
# and keeps the order in which terms first appear.  Its b are dense exponent
# tuples over the base's generators.

def _ref_path_mul(base, t1, t2):
    degrees = [g.degree for g in base.generators]
    out = {}
    for (b1, j1, e1), c1 in t1.items():
        for (b2, j2, e2), c2 in t2.items():
            r = None if e1 and e2 else _ref_mul_keys(base, b1, b2)
            if r is not None:
                sign, b = r
                if e1 and sum(x * d for x, d in zip(b2, degrees)) % 2:
                    sign = -sign
                key = (b, j1 + j2, e1 + e2)
                out[key] = out.get(key, Fraction(0)) + sign * c1 * c2
    return {k: c for k, c in out.items() if c != 0}


def _ref_h_mono(h, mono):
    base = h.codomain.base
    count = len(base.generators)
    out = {((0,) * count, 0, 0): Fraction(1)}
    for i, e in enumerate(mono):
        value = {(dense_key(b, count), j, t): c for (b, j, t), c
                 in h.gen_images[h.domain.generators[i].name].terms.items()}
        for _ in range(e):
            out = _ref_path_mul(base, out, value)
    return out


@pytest.mark.parametrize("seed", range(6))
def test_homotopy_of_a_monomial_matches_the_reference_product(seed):
    rng = random.Random(300 + seed)
    cap = rng.randint(6, 8)
    dom = _random_chain(rng, cap, 3)[-1]
    cod = _random_chain(rng, cap, 3)[-1]
    p = cod.path
    values = {}
    for g in dom.generators:
        values[g.name] = p.zero()
        for k in range(3):
            values[g.name] = values[g.name] + p.tensor(_random_element(rng, cod, g.degree, 0.4), k)
        for k in range(2):
            values[g.name] = values[g.name] + p.tensor(
                _random_element(rng, cod, g.degree - 1, 0.4), k, 1)
    h = CdgaMorphism.on_generators(dom, p, values)
    for n in rng.sample(range(cap + 1), cap + 1):
        for mono in dom.basis_keys(n):
            got = h.image(mono)
            want = _ref_h_mono(h, dense_key(mono, len(dom.generators)))
            assert list(got.terms.items()) == [((sparse_key(b), j, e), c)
                                               for (b, j, e), c in want.items()]
            assert all(c != 0 for c in got.terms.values())


# -- the path algebra against the formulas of the interval algebra it replaced --
# An element is a pair (poly, dt) of {j: b} dicts, b in B, for sum b t^j +
# sum b t^j dt.  These are the product, differential and integral that
# `B (x) Lambda(t,dt)` had before its elements became path-algebra elements,
# over B's own product and differential.

def _old_add_at(acc, k, b):
    if not b.is_zero():
        acc[k] = acc[k] + b if k in acc else b


def _old_mul(u, v):
    poly, dt = {}, {}
    for k1, b1 in u[0].items():
        for k2, b2 in v[0].items():
            _old_add_at(poly, k1 + k2, multiply(b1, b2))
        for k2, c2 in v[1].items():
            _old_add_at(dt, k1 + k2, multiply(b1, c2))
    for k1, c1 in u[1].items():
        for k2, b2 in v[0].items():
            sign = -1 if b2.homogeneous_degree() % 2 else 1
            _old_add_at(dt, k1 + k2, multiply(c1, b2).scale(sign))
    return _old_nonzero(poly, dt)


def _old_d(u):
    poly, dt = {}, {}
    for k, b in u[0].items():
        _old_add_at(poly, k, differential(b))
        if k >= 1:
            _old_add_at(dt, k - 1, b.scale((-1 if b.homogeneous_degree() % 2 else 1) * k))
    for k, c in u[1].items():
        _old_add_at(dt, k, differential(c))
    return _old_nonzero(poly, dt)


def _old_integrate_0t(u):
    return _old_nonzero({k + 1: c.scale(Fraction(-1 if c.homogeneous_degree() % 2 else 1, k + 1))
                         for k, c in u[1].items()}, {})


def _old_nonzero(poly, dt):
    return ({k: b for k, b in poly.items() if not b.is_zero()},
            {k: b for k, b in dt.items() if not b.is_zero()})


def _as_old(u):
    parts = u.algebra.components(u)
    return _old_nonzero({j: b for (e, j), b in parts.items() if not e},
                        {j: b for (e, j), b in parts.items() if e})


def _random_path_element(rng, base, n):
    """A homogeneous degree-n element of base.path: b_j t^j + c_j t^j dt, j <= 2."""
    def rand(m):
        keys = base.basis_keys(m) if 0 <= m <= base.degree_cap else ()
        return CdgaElement(base, {k: rng.randint(-2, 2) for k in keys if rng.random() < 0.5})

    p = base.path
    out = p.zero()
    for j in range(3):
        out = out + p.tensor(rand(n), j) + p.tensor(rand(n - 1), j, 1)
    return out


def _finite_base():
    """u1, a2, ua3 with du = a, cap 3: a*a and u*ua truncate, u is odd."""
    return FiniteCDGA(basis={0: ["one"], 1: ["u"], 2: ["a"], 3: ["ua"]}, unit="one",
                      products={("u", "a"): {"ua": 1}}, differential={"u": {"a": 1}},
                      degree_cap=3)


@pytest.mark.parametrize("seed", range(6))
def test_path_algebra_matches_the_interval_formulas(seed):
    rng = random.Random(500 + seed)
    free = _random_chain(rng, rng.randint(5, 7), 3)[-1]
    odd_past_dt = truncated = 0
    for base in (free, _finite_base()):
        for _ in range(40):
            n1, n2 = rng.randint(0, base.degree_cap + 1), rng.randint(0, base.degree_cap + 1)
            u, v = _random_path_element(rng, base, n1), _random_path_element(rng, base, n2)
            old_u, old_v = _as_old(u), _as_old(v)
            assert _as_old(u * v) == _old_mul(old_u, old_v)
            assert _as_old(differential(u)) == _old_d(old_u)
            assert _as_old(integrate_0t(u)) == _old_integrate_0t(old_u)
            assert integrate_01(u) == sum(_old_integrate_0t(old_u)[0].values(), base.zero())
            assert _end_difference(u) == _two_step_end_difference(u)
            odd_past_dt += bool(old_u[1]) and any(b.homogeneous_degree() % 2
                                                  for b in old_v[0].values())
            truncated += bool(u.terms and v.terms) and n1 + n2 > base.degree_cap
    assert odd_past_dt and truncated


# -- the evaluations are kernel results ------------------------------------------
# eval_at_0, eval_at_1 and integrate_0t make their elements with
# CdgaElement._of; the references go through the public constructor.


def _ref_eval_at_0(u):
    return CdgaElement(u.algebra.base, {b: c for (b, j, e), c in u.terms.items() if j == e == 0})


def _ref_eval_at_1(u):
    out = {}
    for (b, _, e), c in u.terms.items():
        if not e:
            out[b] = out.get(b, 0) + c
    return CdgaElement(u.algebra.base, out)


def _ref_integrate_0t(u):
    base = u.algebra.base
    return CdgaElement(u.algebra, {
        (b, j + 1, 0): c * Fraction(-1 if base.key_degree(b) % 2 else 1, j + 1)
        for (b, j, e), c in u.terms.items() if e})


@pytest.mark.parametrize("seed", range(4))
def test_evaluations_and_integral_equal_the_public_constructor(seed):
    rng = random.Random(900 + seed)
    free = _random_chain(rng, rng.randint(5, 7), 3)[-1]
    cancelled = 0
    for base in (free, _finite_base()):
        for _ in range(40):
            u = _random_path_element(rng, base, rng.randint(0, base.degree_cap + 1))
            for got, want in ((eval_at_0(u), _ref_eval_at_0(u)), (eval_at_1(u), _ref_eval_at_1(u)),
                              (integrate_0t(u), _ref_integrate_0t(u))):
                assert got.algebra is want.algebra
                assert list(got.terms.items()) == list(want.terms.items())
                assert all(type(c) is Fraction and c for c in got.terms.values())
            poly = [b for b, _, e in u.terms if not e]
            cancelled += len(set(poly)) > len(eval_at_1(u).terms)
    assert cancelled


def test_eval_at_1_drops_a_cancelled_term():
    b = lam([("a", 2)])
    p, a = b.path, b.gen("a")
    u = p.tensor(a, 1) - p.tensor(a, 2)
    assert len(u.terms) == 2
    assert eval_at_1(u).terms == {}
    assert eval_at_0(u).terms == {}


def test_square_validation_runs_no_monomial_key_check(monkeypatch):
    # The squares of a built free tower: every value H(x) is read through the
    # evaluations, whose keys come from H's own terms.
    from pmm import cdga

    squares = [sq for seed in (7, 508) for sq in build_persistent_minimal_model(
        random_tower(random.Random(seed), 6, n_stages=4, max_gens=3)).stage_squares()]
    assert any(v.terms for sq in squares for v in sq.homotopy.gen_images.values())
    calls = []
    real = cdga._is_monomial
    monkeypatch.setattr(cdga, "_is_monomial", lambda *a: calls.append(a) or real(*a))
    assert all(sq.validate() == [] for sq in squares)
    assert calls == []
