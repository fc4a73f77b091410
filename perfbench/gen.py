"""Seeded input documents for the benchmark workloads.

Standard library only, and deliberately independent of `pmm`: the program
under test never shapes its own inputs.  Every generator is a pure function
of its arguments, so one seed always yields the same documents (their
digests are pinned in `pinned.json`).

Coefficients are emitted as `x - 2*y` or `-2*y`, never `x + -2*y`, which
the expression parser rejects.
"""
from __future__ import annotations

import random

SULLIVAN_STAGES = 5
SULLIVAN_CAP = 6
SULLIVAN_BATCH = 40
SULLIVAN_MAX_GENS = 3
LONGGRID_STAGES = 16
LONGGRID_CAP = 6
LONGGRID_TWO_SPHERE = 8
LONGGRID_RUNS = 6


# -- rendering -----------------------------------------------------------------

def render(poly: dict) -> str:
    """Render {monomial: coefficient} with monomial = sorted tuple of names.

    The empty dict renders as "0"; terms come in sorted monomial order.
    """
    parts = []
    for mono in sorted(poly):
        c = poly[mono]
        if c == 0:
            continue
        body = "*".join(mono)
        if abs(c) != 1:
            body = f"{abs(c)}*{body}"
        sign = "-" if c < 0 else ("+" if parts else "")
        parts.append(f"{sign} {body}" if parts else f"{sign}{body}")
    return " ".join(parts) if parts else "0"


def _finite_wedge(m: int) -> dict:
    """H*(wedge of m two-spheres): basis one, a0..a{m-1}; all products zero."""
    labels = [f"a{i}" for i in range(m)]
    return {
        "type": "finite", "unit": "one",
        "basis": [{"degree": 0, "labels": ["one"]},
                  {"degree": 2, "labels": labels}],
        "products": [{"left": x, "right": y, "value": "0"}
                     for i, x in enumerate(labels) for y in labels[i:]],
        "differentials": [],
    }


def wedge_tower(k: int, cap: int) -> dict:
    """W_k: stage j is H*(wedge of k-j spheres); each map kills the last one."""
    stages = [_finite_wedge(k - j) for j in range(k)]
    maps = []
    for j in range(k - 1):
        m = k - j
        images = {f"a{i}": f"a{i}" for i in range(m - 1)}
        images[f"a{m - 1}"] = "0"
        maps.append({"images": images})
    return {"grid": [str(j) for j in range(k)], "degree_cap": cap,
            "stages": stages, "maps": maps}


def _composition(rng, total: int, parts: int, minimum: int) -> list[int]:
    """Random split of `total` into `parts` integers, each at least `minimum`."""
    cuts = sorted(rng.sample(range(1, total - parts * minimum + parts), parts - 1))
    sizes = [b - a for a, b in zip([0] + cuts, cuts + [total - parts * minimum + parts])]
    return [x - 1 + minimum for x in sizes]


def _full_rank(rng, rows: int, cols: int) -> list[list[int]]:
    """Entries in {-2,-1,1,2} with rank min(rows, cols)."""
    while True:
        m = [[rng.choice((-2, -1, 1, 2)) for _ in range(cols)] for _ in range(rows)]
        if rows != 2 or cols != 2 or m[0][0] * m[1][1] != m[0][1] * m[1][0]:
            return m


def longgrid_tower(seed: int) -> dict:
    """16 stages of H*(wedge of m spheres) with m in {1, 2} drawn per stage.

    The seed draws where the two-sphere stages sit and the integer entries
    of the degree-2 maps.  Every seed has the same number of two-sphere
    stages and of runs of them, and every map has full rank, so towers of
    different seeds have the same generator count and comparable cost.
    """
    rng = random.Random(f"longgrid-{seed}")
    runs2 = _composition(rng, LONGGRID_TWO_SPHERE, LONGGRID_RUNS, 1)
    runs1 = _composition(rng, LONGGRID_STAGES - LONGGRID_TWO_SPHERE, LONGGRID_RUNS, 1)
    ms = []
    for a, b in zip(runs2, runs1):
        ms += [2] * a + [1] * b
    stages = [_finite_wedge(m) for m in ms]
    maps = []
    for r in range(LONGGRID_STAGES - 1):
        mat = _full_rank(rng, ms[r + 1], ms[r])
        maps.append({"images": {
            f"a{i}": render({(f"a{j}",): mat[j][i] for j in range(ms[r + 1])})
            for i in range(ms[r])}})
    return {"grid": [str(r) for r in range(LONGGRID_STAGES)],
            "degree_cap": LONGGRID_CAP, "stages": stages, "maps": maps}


# -- Sullivan towers -------------------------------------------------------------
#
# Polynomials are {monomial: int} with a monomial the sorted tuple of its
# generator names.  Every generator has degree 2, 3 or 4 and is either closed
# (d = 0) or has d = (closed generators) + (products of closed generators).
# Then d(d x) = 0 by construction, and only degrees <= 5 occur in
# differentials, where no two odd generators meet, so the polynomials commute.
# Structure maps send closed generators to polynomials in closed generators
# and a surviving generator x to +-x; the surviving differential is the
# pushed one, d'(x) = +-f(dx), so f commutes with d.  A generator that is not
# kept maps to a cocycle, which is allowed only when f(dx) = 0.


def _add(p: dict, q: dict, c: int = 1) -> dict:
    out = dict(p)
    for mono, x in q.items():
        out[mono] = out.get(mono, 0) + c * x
        if out[mono] == 0:
            del out[mono]
    return out


def _mul(p: dict, q: dict) -> dict:
    out: dict = {}
    for m1, x in p.items():
        for m2, y in q.items():
            out = _add(out, {tuple(sorted(m1 + m2)): x * y})
    return out


def _subst(p: dict, images: dict) -> dict:
    out: dict = {}
    for mono, c in p.items():
        term = {(): c}
        for name in mono:
            term = _mul(term, images[name])
        out = _add(out, term)
    return out


class _SullivanTower:
    """Grows one tower; `shape` draws structure, `coef` draws coefficients.

    The shape stream is seeded by the batch slot only, so the same slot has
    the same structure under every workload seed and batches of different
    seeds cost about the same; the seed varies the coefficients.
    """

    def __init__(self, shape: random.Random, coef: random.Random):
        self.shape = shape
        self.coef = coef
        self.count = 0

    def c(self) -> int:
        return self.coef.choice((-2, -1, 1, 2))

    def pick(self, options: list) -> list:
        """A nonempty shape-chosen subset of `options` (empty if none)."""
        chosen = [o for o in options if self.shape.random() < 0.5]
        return chosen or options[:1]

    def new_generator(self, gens: dict):
        degree = self.shape.choice((2, 3, 4))
        self.count += 1
        name = f"v{self.count}"
        closed = {d: sorted(n for n, (deg, dp) in gens.items() if deg == d and not dp)
                  for d in (2, 3, 4)}
        if degree == 2:
            linear, products = closed[3], []
        elif degree == 3:
            linear = closed[4]
            products = [(a, b) for i, a in enumerate(closed[2]) for b in closed[2][i:]]
        else:
            linear = []
            products = [(a, b) for a in closed[2] for b in closed[3]]
        d: dict = {}
        if (linear or products) and self.shape.random() < 0.6:
            for n in self.pick(linear) if linear else []:
                d = _add(d, {(n,): self.c()})
            for pair in self.pick(products) if products else []:
                d = _add(d, {tuple(sorted(pair)): self.c()})
        gens[name] = (degree, d)

    def first_stage(self) -> dict:
        gens: dict = {}
        for _ in range(self.shape.randint(1, SULLIVAN_MAX_GENS)):
            self.new_generator(gens)
        return gens

    def next_stage(self, gens: dict) -> tuple[dict, dict]:
        """The next stage's generators and the images of this stage's ones."""
        nxt: dict = {}
        images: dict = {}
        keep = {n: self.shape.random() < 0.75 for n in gens}
        for n, (deg, dp) in gens.items():
            if not dp and keep[n]:
                nxt[n] = (deg, {})
                images[n] = {(n,): self.coef.choice((1, -1))}
        for n, (deg, dp) in gens.items():
            if not dp and not keep[n]:
                same = [m for m, (d2, dq) in nxt.items() if d2 == deg and not dq]
                squares = [m for m, (d2, dq) in nxt.items() if 2 * d2 == deg and not dq]
                images[n] = {}
                if same and self.shape.random() < 0.5:
                    images[n] = {(same[0],): self.c()}
                elif squares and self.shape.random() < 0.5:
                    images[n] = {(squares[0], squares[0]): self.c()}
        for n, (deg, dp) in gens.items():
            if dp:
                pushed = _subst(dp, images)
                if keep[n] or pushed:
                    sign = self.coef.choice((1, -1))
                    nxt[n] = (deg, {m: sign * x for m, x in pushed.items()})
                    images[n] = {(n,): sign}
                else:
                    images[n] = {}
        for _ in range(self.shape.randint(0, SULLIVAN_MAX_GENS - len(nxt))):
            self.new_generator(nxt)
        return nxt, images


def _free_stage(gens: dict) -> dict:
    return {"type": "free", "generators": [
        {"name": n, "degree": deg, "d": render(dp)} for n, (deg, dp) in gens.items()]}


def sullivan_tower(seed: int, slot: int) -> dict:
    """One 5-stage tower of free Sullivan algebras, cap 6 (slot `slot`)."""
    b = _SullivanTower(random.Random(f"sullivan-shape-{slot}"),
                         random.Random(f"sullivan-{seed}-{slot}"))
    stages = [b.first_stage()]
    maps = []
    for _ in range(SULLIVAN_STAGES - 1):
        nxt, images = b.next_stage(stages[-1])
        stages.append(nxt)
        maps.append({"images": {n: render(p) for n, p in images.items()}})
    return {"grid": [str(r) for r in range(SULLIVAN_STAGES)],
            "degree_cap": SULLIVAN_CAP,
            "stages": [_free_stage(g) for g in stages], "maps": maps}


def sullivan_batch(seed: int) -> list[dict]:
    return [sullivan_tower(seed, slot) for slot in range(SULLIVAN_BATCH)]
