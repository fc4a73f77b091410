"""Finite CDGA stages and their linear stage maps: each axiom check refuses a
broken input with its own message, from the constructor or from a document."""
import itertools
import json
import random
from pathlib import Path

import pytest

from pmm.cdga import (
    CdgaElement, CdgaMorphism, FiniteCDGA, differential, validate_morphism,
)
from pmm.cli import main
from pmm.errors import ValidationError
from pmm.exactla import ONE, QMatrix
from pmm.io import load_input

from .gen import random_free_cdga, random_morphism

FIXTURES = Path(__file__).parent / "fixtures"


def sphere2_doc():
    with open(FIXTURES / "sphere2.json") as fh:
        return json.load(fh)


def refusal(basis, products=None, differential=None, cap=4) -> str:
    with pytest.raises(ValidationError) as info:
        FiniteCDGA(basis=basis, unit="one", products=products or {},
                   differential=differential or {}, degree_cap=cap)
    return str(info.value)


# -- negative controls: one broken stage per message -------------------------

def test_leibniz_failure_is_refused():
    # xy = z with dx = dy = 0 but dz = w.
    assert refusal({0: ["one"], 1: ["x", "y"], 2: ["z"], 3: ["w"]},
                   products={("x", "y"): {"z": 1}},
                   differential={"z": {"w": 1}}) == "Leibniz fails on x,y"


def test_associativity_failure_is_refused():
    # a·a = 0, so (a·a)·b = 0, but a·(a·b) = a·c = e.
    assert refusal({0: ["one"], 2: ["a", "b"], 4: ["c"], 6: ["e"]},
                   products={("a", "b"): {"c": 1}, ("a", "c"): {"e": 1}},
                   cap=6) == "associativity fails"


def test_a_failing_triple_after_a_zero_product_is_reported_first():
    # As above, with dc = f: Leibniz fails on a,b, but the pair (a, a), whose
    # product is zero, comes first, and its triple (a, a, b) fails.
    assert refusal({0: ["one"], 2: ["a", "b"], 4: ["c"], 5: ["f"], 6: ["e"]},
                   products={("a", "b"): {"c": 1}, ("a", "c"): {"e": 1}},
                   differential={"c": {"f": 1}}, cap=6) == "associativity fails"


def test_d_squared_failure_is_refused():
    assert refusal({0: ["one"], 1: ["x"], 2: ["y"], 3: ["z"]},
                   differential={"x": {"y": 1}, "y": {"z": 1}}) == "d(d(x)) != 0"


def test_graded_commutativity_failure_is_refused():
    # x, y odd: yx must be −xy.
    assert refusal({0: ["one"], 1: ["x", "y"], 2: ["z"]},
                   products={("x", "y"): {"z": 1}, ("y", "x"): {"z": 1}}) == \
        "products for x,y break graded commutativity"


def test_nonzero_differential_of_the_unit_is_refused():
    doc = sphere2_doc()
    doc["stages"][0]["basis"].append({"degree": 1, "labels": ["e"]})
    doc["stages"][0]["differentials"] = [{"of": "one", "value": "e"}]
    with pytest.raises(ValidationError) as info:
        load_input(doc)
    assert str(info.value) == "stage 0: Leibniz fails on one,one"


def s2(cap=4):
    return FiniteCDGA(basis={0: ["one"], 2: ["a"]}, unit="one",
                      products={("a", "a"): {}}, differential={}, degree_cap=cap)


def test_non_multiplicative_stage_map_is_refused():
    doc = sphere2_doc()
    doc["stages"][1]["basis"].append({"degree": 4, "labels": ["b"]})
    doc["stages"][1]["products"] = [{"left": "a", "right": "a", "value": "b"}]
    with pytest.raises(ValidationError) as info:
        load_input(doc)
    assert str(info.value) == "stage map 0 invalid: ['multiplicativity fails on a,a']"


def test_stage_map_that_drops_the_unit_is_refused():
    a = s2()
    f = CdgaMorphism.on_basis(a, a, {"one": a.zero(), "a": a.basis_elem("a")})
    assert validate_morphism(f) == [
        "unit not preserved",
        "multiplicativity fails on one,a",
        "multiplicativity fails on a,one",
    ]


def test_stage_map_that_breaks_d_is_refused():
    a = FiniteCDGA(basis={0: ["one"], 1: ["x"], 2: ["y"]}, unit="one",
                   products={}, differential={"x": {"y": 1}}, degree_cap=3)
    f = CdgaMorphism.on_basis(a, a, {"one": a.one(), "x": a.basis_elem("x"), "y": a.zero()})
    assert validate_morphism(f) == ["d-compatibility fails in degree 1"]


# -- the unit law --------------------------------------------------------------

@pytest.mark.parametrize("left, right, value, label", [
    ("one", "a", {"a": 2}, "a"),
    ("a", "one", {}, "a"),
    ("one", "one", {}, "one"),
])
def test_a_product_entry_against_the_unit_law_is_refused(left, right, value, label):
    assert refusal({0: ["one"], 2: ["a"]},
                   products={(left, right): value}) == f"unit fails on {label}"


def test_a_product_entry_consistent_with_the_unit_law_is_accepted():
    a = FiniteCDGA(basis={0: ["one"], 2: ["a"]}, unit="one",
                   products={("one", "a"): {"a": 1}, ("one", "one"): {"one": 1}},
                   differential={}, degree_cap=4)
    assert (a.one() * a.basis_elem("a")).terms == a.basis_elem("a").terms


def test_a_stage_against_the_unit_law_exits_1(tmp_path, capsys):
    doc = sphere2_doc()
    doc["stages"][0]["products"].append({"left": "one", "right": "a", "value": "2*a"})
    f = tmp_path / "unit.json"
    f.write_text(json.dumps(doc))
    rc = main(["build", "--input", str(f), "--output", str(tmp_path / "out")])
    assert rc == 1
    assert capsys.readouterr().err == "validation error: stage 0: unit fails on a\n"


# -- repeated entries and products above the cap -------------------------------

def build_exit(doc, tmp_path, capsys) -> tuple[int, str]:
    f = tmp_path / "stage.json"
    f.write_text(json.dumps(doc))
    rc = main(["build", "--input", str(f), "--output", str(tmp_path / "out")])
    return rc, capsys.readouterr().err


def _repeat_basis_degree(stage):
    stage["basis"].insert(1, {"degree": 2, "labels": ["zz"]})


def _repeat_product(stage):
    stage["basis"].append({"degree": 4, "labels": ["b"]})
    stage["products"] = [{"left": "a", "right": "a", "value": "b"},
                         {"left": "a", "right": "a", "value": "2*b"}]


def _repeat_differential(stage):
    stage["basis"].append({"degree": 3, "labels": ["e"]})
    stage["differentials"] = [{"of": "e", "value": "0"}, {"of": "e", "value": "0"}]


@pytest.mark.parametrize("edit, message", [
    (_repeat_basis_degree, "two basis entries for degree 2"),
    (_repeat_product, "two products entries for a,a"),
    (_repeat_differential, "two differentials entries for e"),
])
def test_a_repeated_stage_entry_exits_2(edit, message, tmp_path, capsys):
    # Which of the two entries is meant cannot be told, so neither is kept.
    doc = sphere2_doc()
    edit(doc["stages"][0])
    assert build_exit(doc, tmp_path, capsys) == (2, f"schema error: stage 0: {message}\n")


def test_a_product_above_the_cap_must_be_zero(tmp_path, capsys):
    # A degree-6 c under the internal cap 8: c*c has degree 12 and must be 0.
    doc = sphere2_doc()
    for stage in doc["stages"]:
        stage["basis"].append({"degree": 6, "labels": ["c"]})
        stage["products"].append({"left": "c", "right": "c", "value": "7*a"})
    doc["maps"][0]["images"]["c"] = "c"
    assert build_exit(doc, tmp_path, capsys) == \
        (1, "validation error: stage 0: term a has degree 2, expected 12\n")
    for stage in doc["stages"]:
        stage["products"][-1]["value"] = "0"
    assert build_exit(doc, tmp_path, capsys)[0] == 0


# -- the structure-constant checks against the element-level reference ---------

class Unchecked(FiniteCDGA):
    """A finite CDGA whose axioms are left to `reference_validate`."""

    def _validate(self):
        pass


def reference_validate(alg: FiniteCDGA):
    """Every axiom by element arithmetic over every pair and triple of basis
    keys, as the finite stages were first checked."""
    one = alg.one()
    keys = [k for labs in alg.labels.values() for k in
            (alg.key_of_label(lab) for lab in labs)]
    for k in keys:
        e = CdgaElement(alg, {k: ONE})
        if (one * e).terms != e.terms or (e * one).terms != e.terms:
            raise ValidationError(f"unit fails on {alg.label_of(k)}")
    for k1 in keys:
        for k2 in keys:
            a, b = CdgaElement(alg, {k1: ONE}), CdgaElement(alg, {k2: ONE})
            sign = -ONE if (k1[0] % 2 and k2[0] % 2) else ONE
            if (a * b).terms != (b * a).scale(sign).terms:
                raise ValidationError(
                    f"commutativity fails on {alg.label_of(k1)},{alg.label_of(k2)}")
            lhs = differential(a * b)
            sgn = -ONE if k1[0] % 2 else ONE
            rhs = differential(a) * b + (a * differential(b)).scale(sgn)
            if lhs.terms != rhs.terms:
                raise ValidationError(
                    f"Leibniz fails on {alg.label_of(k1)},{alg.label_of(k2)}")
            for k3 in keys:
                if k1[0] + k2[0] + k3[0] > alg.degree_cap:
                    continue
                c = CdgaElement(alg, {k3: ONE})
                if ((a * b) * c).terms != (a * (b * c)).terms:
                    raise ValidationError("associativity fails")
    for k in keys:
        if not differential(differential(CdgaElement(alg, {k: ONE}))).is_zero():
            raise ValidationError(f"d(d({alg.label_of(k)})) != 0")


def reference_problems(f: CdgaMorphism) -> list[str]:
    """The linear stage-map checks by element arithmetic on every pair."""
    dom, cap = f.domain, min(f.domain.degree_cap, f.codomain.degree_cap)
    problems = []
    if not f.apply(dom.one()) == f.codomain.one():
        problems.append("unit not preserved")
    for n in range(min(cap, dom.degree_cap) + 1):
        if n + 1 <= cap:
            if f.matrix(n + 1) @ dom.d_matrix(n) != f.codomain.d_matrix(n) @ f.matrix(n):
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


def outcome(cls, spec):
    """None if `cls(**spec)` is a valid CDGA, else the first failure."""
    try:
        alg = cls(**spec)
        if cls is Unchecked:
            reference_validate(alg)
    except ValidationError as exc:
        return str(exc)
    return None


def spec_of(labels: dict, product, d, cap: int) -> dict:
    """The constructor arguments of a finite CDGA with basis `labels` (degree
    -> labels, the unit "one" first), one product entry per unordered pair of
    non-unit labels, product(x, y) and d(x) given as {label: coefficient}."""
    flat = [lab for labs in labels.values() for lab in labs]
    deg = {lab: n for n, labs in labels.items() for lab in labs}
    products = {(x, y): product(x, y) for i, x in enumerate(flat[1:], 1)
                for y in flat[i:] if deg[x] + deg[y] <= cap}
    return {"basis": labels, "unit": "one", "products": products,
            "differential": {x: d(x) for x in flat}, "degree_cap": cap}


def truncated_polynomial(degree: int, height: int, cap: int) -> dict:
    """Q[x]/(x^height), |x| even."""
    labels = {0: ["one"]}
    for i in range(1, height):
        if i * degree <= cap:
            labels[i * degree] = [f"x{i}"]
    power = {"one": 0, **{f"x{i}": i for i in range(1, height)}}

    def product(a, b):
        i = power[a] + power[b]
        return {f"x{i}": 1} if i < height else {}
    return spec_of(labels, product, lambda a: {}, cap)


def sphere_product(degrees: list[int], cap: int) -> dict:
    """H*(S^n1 × … × S^nk): one basis element per set of factors, and
    exterior algebra when every n is odd."""
    subsets = [s for r in range(len(degrees) + 1)
               for s in itertools.combinations(range(len(degrees)), r)]
    name = {s: "s" + "_".join(map(str, s)) if s else "one" for s in subsets}
    deg = {s: sum(degrees[i] for i in s) for s in subsets}
    labels: dict[int, list[str]] = {}
    for s in subsets:
        if deg[s] <= cap:
            labels.setdefault(deg[s], []).append(name[s])
    of_name = {v: k for k, v in name.items()}

    def product(a, b):
        s, t = of_name[a], of_name[b]
        if set(s) & set(t):
            return {}
        inversions = sum(degrees[i] * degrees[j] for i in s for j in t if i > j)
        return {name[tuple(sorted(s + t))]: -1 if inversions % 2 else 1}
    return spec_of(labels, product, lambda a: {}, cap)


def named(e) -> dict:
    """An element of a free CDGA as {label: coefficient} in `truncated_free`'s
    labels."""
    return {e.algebra.key_repr(m) if any(m) else "one": c for m, c in e.terms.items()}


def truncated_free(alg) -> dict:
    """A free CDGA up to its cap, as a finite CDGA labeled by its monomials."""
    cap = alg.degree_cap
    key = {lab: m for n in range(cap + 1) for m in alg.basis_keys(n)
           for lab in named(alg.element({m: 1}))}
    labels: dict[int, list[str]] = {}
    for lab, m in key.items():
        labels.setdefault(alg.key_degree(m), []).append(lab)
    return spec_of(labels,
                   lambda a, b: named(alg.element({key[a]: 1}) * alg.element({key[b]: 1})),
                   lambda a: named(alg.d_key(key[a])), cap)


def seeded_specs(seed: int) -> list[dict]:
    rng = random.Random(seed)
    return [
        truncated_polynomial(rng.choice([2, 4]), rng.randint(2, 5), 8),
        sphere_product([rng.choice([1, 3]) for _ in range(rng.randint(2, 3))], 7),
        sphere_product([rng.randint(1, 4) for _ in range(rng.randint(2, 3))], 8),
        truncated_free(random_free_cdga(rng, 6, max_gens=3, max_degree=4)),
    ]


def perturbed(rng, spec: dict, count: int) -> list[dict]:
    """`count` copies of `spec`, each with one structure constant moved: a
    coefficient of one product entry or of one differential, possibly zero
    before; none when no entry has a basis element of its degree."""
    basis = spec["basis"]
    slots = [("products", pair, lab) for pair in spec["products"]
             for lab in basis.get(sum(_degree(basis, x) for x in pair), ())]
    slots += [("differential", x, lab) for x in spec["differential"]
              for lab in basis.get(_degree(basis, x) + 1, ())]
    out = []
    for where, entry, lab in rng.choices(slots, k=count) if slots else ():
        bad = {**spec, where: {k: dict(v) for k, v in spec[where].items()}}
        terms = bad[where][entry]
        terms[lab] = terms.get(lab, 0) + rng.choice([-2, -1, 1, 2])
        out.append(bad)
    return out


def _degree(basis: dict, lab: str) -> int:
    return next(n for n, labs in basis.items() if lab in labs)


@pytest.mark.parametrize("seed", range(8))
def test_stage_checks_agree_with_the_element_level_reference(seed):
    rng = random.Random(1000 + seed)
    refused = []
    specs = seeded_specs(seed)
    # The basis in reverse degree order too: keys go in the order given.
    specs += [{**spec, "basis": dict(reversed(spec["basis"].items()))} for spec in specs]
    for spec in specs:
        assert outcome(FiniteCDGA, spec) is None
        assert outcome(Unchecked, spec) is None
        for bad in perturbed(rng, spec, 12):
            first = outcome(FiniteCDGA, bad)
            assert first == outcome(Unchecked, bad), bad
            refused.append(first)
    assert any(refused)


def seeded_maps(seed: int) -> list[tuple[FiniteCDGA, FiniteCDGA, dict]]:
    """(domain, codomain, images of the domain's labels) of valid linear maps:
    identities, the projection H*(S^m × S^n) → H*(S^m), and a map of free
    CDGAs cut at their cap."""
    rng = random.Random(seed)
    maps = []
    for spec in seeded_specs(seed):
        a = FiniteCDGA(**spec)
        maps.append((a, a, {lab: a.basis_elem(lab) for lab in a._key_of_label}))
    m, n = rng.randint(1, 4), rng.randint(1, 4)
    a, b = FiniteCDGA(**sphere_product([m, n], 8)), FiniteCDGA(**sphere_product([m], 8))
    maps.append((a, b, {lab: b.basis_elem(lab) if lab in b._key_of_label else b.zero()
                        for lab in a._key_of_label}))
    f = random_morphism(rng, 6, max_gens=2, max_degree=4)
    a, b = FiniteCDGA(**truncated_free(f.domain)), FiniteCDGA(**truncated_free(f.codomain))
    images = {}
    for n in range(7):
        for mono in f.domain.basis_keys(n):
            image = named(f.apply(f.domain.element({mono: 1})))
            lab, = named(f.domain.element({mono: 1}))
            images[lab] = CdgaElement(b, {b.key_of_label(x): c for x, c in image.items()})
    maps.append((a, b, images))
    return maps


@pytest.mark.parametrize("seed", range(8))
def test_stage_map_checks_agree_with_the_element_level_reference(seed):
    rng = random.Random(2000 + seed)
    found = []
    for a, b, images in seeded_maps(seed):
        f = CdgaMorphism.on_basis(a, b, images)
        assert validate_morphism(f) == reference_problems(f) == []
        slots = [(x, y) for x, (n, _) in a._key_of_label.items()
                 for y in b.labels.get(n, ())]
        for x, y in rng.choices(slots, k=8):
            moved = dict(images)
            moved[x] = images[x] + b.basis_elem(y).scale(rng.choice([-2, -1, 1, 2]))
            f = CdgaMorphism.on_basis(a, b, moved)
            problems = validate_morphism(f)
            assert problems == reference_problems(f), (x, y)
            found += problems
    assert found


# -- the images of the basis keys: one representation of a map --------------

def matrix_route(a: FiniteCDGA, b: FiniteCDGA, images: dict):
    """(apply, matrices) of the linear map a -> b sending each label to its
    image, by per-degree matrices of the images: to_sparse, the matrix,
    from_vector."""
    mats = {n: QMatrix.from_columns([b.to_sparse(images[a.label_of(k)], n)
                                     for k in a.basis_keys(n)], b.dim(n))
            for n in range(a.degree_cap + 2)}

    def apply(u: CdgaElement) -> CdgaElement:
        out = b.zero()
        for n in sorted({k[0] for k in u.terms}):
            part = CdgaElement(a, {k: c for k, c in u.terms.items() if k[0] == n})
            out = out + b.from_vector(n, mats[n].apply(a.to_sparse(part, n)))
        return out
    return apply, mats


def random_combination(rng, alg: FiniteCDGA, n: int) -> CdgaElement:
    return CdgaElement(alg, {k: rng.randint(-3, 3) for k in alg.basis_keys(n)})


@pytest.mark.parametrize("seed", range(8))
def test_on_basis_images_agree_with_the_matrix_route(seed):
    rng = random.Random(3000 + seed)
    specs = seeded_specs(seed)
    checked = 0
    for _ in range(4):
        a, b = (FiniteCDGA(**spec) for spec in rng.sample(specs, 2))
        images = {a.label_of(k): random_combination(rng, b, n)
                  for n in range(a.degree_cap + 1) for k in a.basis_keys(n)}
        f = CdgaMorphism.on_basis(a, b, images)
        apply, mats = matrix_route(a, b, images)
        for n, mat in mats.items():
            assert f.matrix(n) == mat
        for _ in range(6):
            degrees = rng.sample(range(a.degree_cap + 1), rng.randint(1, 3))
            u = sum((random_combination(rng, a, n) for n in degrees), a.zero())
            assert f.apply(u) == apply(u)
            checked += not f.apply(u).is_zero()
    assert checked


def test_on_basis_refuses_an_image_in_another_algebra():
    a, other = s2(), s2()
    with pytest.raises(ValidationError, match="^image of a is not in the codomain$"):
        CdgaMorphism.on_basis(a, a, {"one": a.one(), "a": other.basis_elem("a")})


def test_on_basis_keeps_its_refusals():
    a = s2()
    with pytest.raises(ValidationError, match="^missing image for basis label a$"):
        CdgaMorphism.on_basis(a, a, {"one": a.one()})
    with pytest.raises(ValidationError, match="^term one of degree 0 in degree-2 vector$"):
        CdgaMorphism.on_basis(a, a, {"one": a.one(), "a": a.one()})
