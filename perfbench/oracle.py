"""Independent correctness oracles for the benchmark workloads.

Standard library only and independent of `pmm`.  Each oracle predicts, for
every stage r and degree k in 2..cap, the number of homotopy bars alive at
stage r in degree k (the rank of pi^k of the stage), from the input document
alone; `check_barcode` compares that with the emitted barcode.

- Finite stages H*(wedge of m two-spheres): the ranks are the dimensions of
  the free graded Lie algebra on m odd generators of degree 1, rank in
  degree k = l_{k-1}, where 1/(1-mt) = prod_{d odd} (1+t^d)^{l_d}
  prod_{d even} (1-t^d)^{-l_d}.
- Free Sullivan stages (Lambda V, d): the ranks are dim H^k(V, d_0) of the
  linear part d_0 of the differential.
"""
from __future__ import annotations

import re
from fractions import Fraction
from math import comb


def free_lie_dims(m: int, top: int) -> list[int]:
    """[l_0, l_1, ..., l_top] for the free graded Lie algebra on m odd gens."""
    dims = [0] * (top + 1)
    for n in range(1, top + 1):
        # Coefficients of the product over d < n, truncated at t^n.
        series = [1] + [0] * n
        for d in range(1, n):
            l = dims[d]
            if not l:
                continue
            factor = [0] * (n + 1)
            for j in range(n // d + 1):
                # (1+t^d)^l for odd d, (1-t^d)^(-l) for even d.
                factor[j * d] = comb(l, j) if d % 2 else comb(l + j - 1, j)
            series = [sum(series[i] * factor[e - i] for i in range(e + 1))
                      for e in range(n + 1)]
        dims[n] = m ** n - series[n]
    return dims


def _rank(rows: list[list[Fraction]]) -> int:
    a = [list(r) for r in rows]
    rank = 0
    cols = len(a[0]) if a else 0
    for c in range(cols):
        pivot = next((i for i in range(rank, len(a)) if a[i][c] != 0), None)
        if pivot is None:
            continue
        a[rank], a[pivot] = a[pivot], a[rank]
        for i in range(len(a)):
            if i != rank and a[i][c] != 0:
                f = a[i][c] / a[rank][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[rank])]
        rank += 1
    return rank


_TERM = re.compile(r"^(?:(\d+)\*)?([A-Za-z_][\w]*(?:\*[A-Za-z_][\w]*)*)$")


def linear_part(src: str) -> dict[str, Fraction]:
    """Coefficients of single generators in an expression `a - 2*b + c*d`.

    Accepts exactly the sums of `[c*]name[*name...]` terms the workload
    generators write; anything else raises ValueError.
    """
    out: dict[str, Fraction] = {}
    if src.strip() == "0":
        return out
    tokens = src.split()
    sign = 1
    if tokens[0].startswith("-"):
        tokens[0] = tokens[0][1:]
        sign = -1
    expect_term = True
    for tok in tokens:
        if expect_term:
            match = _TERM.match(tok)
            if not match:
                raise ValueError(f"unexpected term {tok!r} in {src!r}")
            coeff = Fraction(int(match.group(1) or 1) * sign)
            names = match.group(2).split("*")
            if len(names) == 1:
                out[names[0]] = out.get(names[0], Fraction(0)) + coeff
        elif tok in "+-":
            sign = 1 if tok == "+" else -1
        else:
            raise ValueError(f"unexpected operator {tok!r} in {src!r}")
        expect_term = not expect_term
    return out


def stage_pi_ranks(stage: dict, cap: int) -> dict[int, int]:
    """Predicted pi^k ranks, k in 2..cap, of one stage document."""
    if stage["type"] == "finite":
        m = sum(len(b["labels"]) for b in stage["basis"] if b["degree"] == 2)
        if any(b["degree"] not in (0, 2) for b in stage["basis"]) or stage["differentials"]:
            raise ValueError("finite stages must be wedges of two-spheres")
        lie = free_lie_dims(m, cap - 1)
        return {k: lie[k - 1] for k in range(2, cap + 1)}
    gens = stage["generators"]
    by_degree: dict[int, list[str]] = {}
    for g in gens:
        by_degree.setdefault(g["degree"], []).append(g["name"])
    linear = {g["name"]: linear_part(g["d"]) for g in gens}

    def d0_rank(k: int) -> int:
        src, dst = by_degree.get(k, []), by_degree.get(k + 1, [])
        if not src or not dst:
            return 0
        return _rank([[linear[s].get(t, Fraction(0)) for s in src] for t in dst])

    return {k: len(by_degree.get(k, [])) - d0_rank(k) - d0_rank(k - 1)
            for k in range(2, cap + 1)}


def check_barcode(doc: dict, barcode: list[dict]) -> list[str]:
    """Problems found comparing an emitted barcode with the predicted ranks."""
    times = [Fraction(t) for t in doc["grid"]]
    cap = doc["degree_cap"]
    problems = []
    for r, stage in enumerate(doc["stages"]):
        want = stage_pi_ranks(stage, cap)
        for k in range(2, cap + 1):
            got = sum(1 for b in barcode if b["degree"] == k
                      and Fraction(b["birth"]) <= times[r]
                      and (b["death"] is None or times[r] < Fraction(b["death"])))
            if got != want[k]:
                problems.append(f"stage {r} degree {k}: {got} bars alive, "
                                f"expected {want[k]}")
    return problems
