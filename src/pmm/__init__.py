"""Persistent Sullivan minimal models of tame persistent CDGAs over Q.

Subpackages by concern:

- exactla:     exact rational matrices, rref/solve/kernel, adapted splits
- persistence: grid-based persistence modules and interval decomposition
- pcomplex:    persistent cochain complexes, interval spheres/disks,
               cell attachment, interval-sphere model-structure predicates
- cdga:        free (Sullivan) and finite CDGAs with Koszul-signed products
- homotopy:    homotopies into B (x) Lambda(t,dt), integration, cones
- minimal:     pointwise minimal models and models of maps (1- and 2-stage towers)
- pminimal:    persistent minimal models via interval surgery, presentations,
               homotopy-group barcodes
- expressions, io, cli: the input grammar, JSON interchange, and driver
"""

from .exactla import QMatrix, adapted_split, kernel_basis, quotient_basis, rref, solve
from .persistence import (
    INF, Bar, BarRepresentative, Grid, PersistenceModule, from_bars,
    interval_decompose, rank_invariant,
)
from .cdga import (
    CdgaElement, CdgaMorphism, FiniteCDGA, FreeCDGA, PathAlgebra, cohomology, free_cdga,
    hirsch_extend, indecomposables, monomial_basis, multiply, differential,
    validate_morphism,
)
from .homotopy import (
    ConeComplex, HomotopySquare, cone, cone_map, integral_matrix, integrate_01,
    integrate_0t,
)
from .minimal import (
    MapModel, MinModel, build_map_model, build_min_model, map_model_step,
)
from .pcomplex import (
    PComplexMap, PersistentComplex, SphereMapData, attach_cell,
    factor_cofibration, hom_from_disk, hom_from_sphere, interval_complex,
    interval_disk, interval_sphere, is_fibration, is_trivial_fibration,
    zero_complex,
)
from .pcomplex import cohomology as pcomplex_cohomology
from .pminimal import (
    PersistentCDGA, PersistentGenerator, Presentation, TameMinimalModel,
    build_persistent_minimal_model, homotopy_barcode, presentation,
    surgery_step, tame_cone, validate_model,
)
from .expressions import parse_expression, render_element
