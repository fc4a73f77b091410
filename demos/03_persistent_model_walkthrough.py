"""Interval surgery on a four-stage tower, stage by stage.

The tower interpolates between a K(Q,2)-like algebra and an odd sphere:
Q[alpha] -> Lambda(alpha, beta; d beta = alpha^2) -> Lambda(beta) -> Q.
Degree-2 surgery finds one bar and attaches a persistent generator with its
lifespan; degree-3 surgery finds the second bar, whose birth differential
remembers that the middle stage was NOT a product: d x3_0 = x2_0^2.
Replacing the middle stage by the product (d beta = 0) produces the same
barcode but a trivial relation: barcodes alone cannot tell the two towers
apart, presentations can.
"""
from pmm import CdgaMorphism, Grid, free_cdga, multiply
from pmm.pminimal import (
    PersistentCDGA, TameMinimalModel, homotopy_barcode, presentation, surgery_step, tame_cone, validate_model,
)

CAP = 5
ICAP = CAP + 2


def tower(formal: bool) -> PersistentCDGA:
    A0 = free_cdga([("alpha", 2)], {}, ICAP)
    if formal:
        A1 = free_cdga([("alpha", 2), ("beta", 3)], {}, ICAP)
    else:
        scratch = free_cdga([("alpha", 2), ("beta", 3)], {}, ICAP)
        A1 = free_cdga([("alpha", 2), ("beta", 3)],
                       {"beta": multiply(scratch.gen("alpha"), scratch.gen("alpha"))},
                       ICAP)
    A2 = free_cdga([("beta", 3)], {}, ICAP)
    A3 = free_cdga([], {}, ICAP)
    maps = [
        CdgaMorphism.on_generators(A0, A1, {"alpha": A1.gen("alpha")}),
        CdgaMorphism.on_generators(A1, A2, {"alpha": A2.zero(), "beta": A2.gen("beta")}),
        CdgaMorphism.on_generators(A2, A3, {"beta": A3.zero()}),
    ]
    return PersistentCDGA(Grid((0, 1, 2, 3)), [A0, A1, A2, A3], maps, CAP)


for formal in (False, True):
    label = "product (formal)" if formal else "twisted (non-formal)"
    print(f"=== middle stage {label} ===")
    a = tower(formal)
    model = TameMinimalModel.trivial(a)
    for k in range(2, CAP + 1):
        tc = tame_cone(model)[0]
        dims = [tc.cohomology_space(r, k).dim for r in range(4)]
        model = surgery_step(model, k)
        new = [g.name for g in model.gen_records if g.degree == k]
        print(f"  degree {k}: cone H^{k} dims per stage {dims}, attached {new or 'nothing'}")
    print("  barcode:", homotopy_barcode(model).as_multiset())
    print("  presentation:", presentation(model).text())
    print("  validated:", validate_model(model)["ok"])
    print()
