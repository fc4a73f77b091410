"""Tame persistent cochain complexes over a grid.

Stages hold labeled bases per degree with differentials; structure maps
commute with the differentials.  Complexes and maps check every shape, then
each square by the one chain-map test (`cochain.chain_map_failures`); H^n is
cached per stage; a cell's degree (`_cell_degrees`) and lifespan
(`Grid.check_lifespan`) each have one check.  Interval spheres and disks are
the generating cells: attaching one along a (cocycle, bounding element) pair
is a pointwise pushout whose cofiber is an interval.  The fibration and
trivial-fibration predicates quantify over grid index pairs, which by the
constancy of tame objects on half-open intervals (first grid time taken as
global birth) covers every real pair.

Maps out of a sphere, the corners of the fibration check and the gap maps
of the direct I-injectivity check are all onto one fiber product
(`_fiber_product`).  `is_trivial_fibration` always checks that fibration
plus pointwise quasi-isomorphism agrees with the gap-map characterization,
both over every degree a complex holds: quasi-isos through max_degree, gap
maps through k = max_degree + 1.  Every matrix is assembled from blocks
(hstack, vstack, block_diag, scale, @), never from dense rows or columns.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Optional, Sequence

from .cochain import (
    CohomologySpace, cached_cohomology, chain_map_failures, compute_cohomology, induced_map,
)
from .errors import InternalError, ValidationError
from .exactla import (
    ONE, QMatrix, Row, block_diag, dense_vec, frac, hstack, kernel_basis, quotient_basis, rank,
    rref, solve, split_row, vstack,
)
from .persistence import (
    INF, Bar, BarRepresentative, Grid, PersistenceModule, composite, interval_decompose,
)


class PersistentComplex:
    """Grid-indexed cochain complexes with cochain structure maps."""

    def __init__(self, grid: Grid, max_degree: int,
                 labels: Sequence[Sequence[Sequence[str]]],
                 d: Sequence[dict[int, QMatrix]],
                 sigma: Sequence[dict[int, QMatrix]]):
        self.grid = grid
        self.max_degree = max_degree
        self.labels = [[list(degree_labels) for degree_labels in stage] for stage in labels]
        n = len(grid)
        if len(self.labels) != n:
            raise ValidationError("labels must have one entry per grid stage")
        for stage in self.labels:
            if len(stage) != max_degree + 1:
                raise ValidationError("labels must cover degrees 0..max_degree")
        self._d = [dict(m) for m in d]
        self._sigma = [dict(m) for m in sigma]
        if len(self._d) != n or len(self._sigma) != n - 1:
            raise ValidationError("need d per stage and sigma per consecutive pair")
        self.validate()
        self._h_caches: list[dict[int, CohomologySpace]] = [{} for _ in range(n)]

    # -- shape ---------------------------------------------------------------

    def dim(self, r: int, k: int) -> int:
        if k < 0 or k > self.max_degree:
            return 0
        return len(self.labels[r][k])

    def d_mat(self, r: int, k: int) -> QMatrix:
        m = self._d[r].get(k)
        return QMatrix.zero(self.dim(r, k + 1), self.dim(r, k)) if m is None else m

    def sigma_mat(self, r: int, k: int) -> QMatrix:
        m = self._sigma[r].get(k)
        return QMatrix.zero(self.dim(r + 1, k), self.dim(r, k)) if m is None else m

    def sigma_range(self, r1: int, r2: int, k: int) -> QMatrix:
        return composite((self.sigma_mat(r, k) for r in range(r1, r2)), self.dim(r1, k))

    def validate(self):
        """Every shape, then d*d = 0 and each structure map a cochain map."""
        n = len(self.grid)
        _check_shapes(self.d_mat, self, self, 0, 1, "d({},{}) has the wrong shape")
        _check_shapes(self.sigma_mat, self, self, 1, 0, "sigma({},{}) has the wrong shape")
        for r in range(n):
            for k in range(self.max_degree):
                if not (self.d_mat(r, k + 1) @ self.d_mat(r, k)).is_zero():
                    raise ValidationError(f"d*d != 0 at stage {r}, degree {k}")
        for r in range(n - 1):
            for k in chain_map_failures(partial(self.d_mat, r), partial(self.d_mat, r + 1),
                                        partial(self.sigma_mat, r), range(self.max_degree)):
                raise ValidationError(f"structure map not a cochain map at ({r},{k})")

    # -- cohomology ----------------------------------------------------------

    def cohomology_space(self, r: int, k: int) -> CohomologySpace:
        return cached_cohomology(self._h_caches[r], partial(self.d_mat, r), k, 0)

    def direct_sum(self, other: "PersistentComplex") -> "PersistentComplex":
        if self.grid != other.grid or self.max_degree != other.max_degree:
            raise ValidationError("direct_sum: shape mismatch")

        n = len(self.grid)
        labels = [[[f"L.{lab}" for lab in self.labels[r][k]] +
                   [f"R.{lab}" for lab in other.labels[r][k]]
                   for k in range(self.max_degree + 1)] for r in range(n)]
        d = [{k: block_diag(self.d_mat(r, k), other.d_mat(r, k))
              for k in range(self.max_degree + 1)} for r in range(n)]
        sigma = [{k: block_diag(self.sigma_mat(r, k), other.sigma_mat(r, k))
                  for k in range(self.max_degree + 1)} for r in range(n - 1)]
        return PersistentComplex(self.grid, self.max_degree, labels, d, sigma)


def zero_complex(grid: Grid, max_degree: int) -> PersistentComplex:
    n = len(grid)
    labels = [[[] for _ in range(max_degree + 1)] for _ in range(n)]
    return PersistentComplex(grid, max_degree, labels,
                             [dict() for _ in range(n)],
                             [dict() for _ in range(n - 1)])


def interval_complex(grid: Grid, k: int, s: int, t,
                     max_degree: Optional[int] = None) -> PersistentComplex:
    """The interval I^k_[s,t): one degree-k line alive on [s,t), zero d.
    Refuses [s,t) off the grid (Grid.check_lifespan), k off 0..max_degree."""
    grid.check_lifespan(s, t, "interval")
    md = _cell_degrees(k, max_degree)
    alive = [s <= r and (t == INF or r < t) for r in range(len(grid))]
    labels = [[[f"i{k}"] if deg == k and live else [] for deg in range(md + 1)]
              for live in alive]
    sigma = [{k: QMatrix.identity(1)} if alive[r] and alive[r + 1] else {}
             for r in range(len(grid) - 1)]
    return PersistentComplex(grid, md, labels, [{} for _ in alive], sigma)


def interval_sphere(grid: Grid, k: int, s: int, t,
                    max_degree: Optional[int] = None) -> PersistentComplex:
    """S^k_[s,t): the cocycle line on [s,t), completed to a disk from t on;
    refuses what interval_complex refuses."""
    grid.check_lifespan(s, t, "sphere")
    if k == 0:
        # S^0 is a degree-0 line on [s,t); D^0 = 0 kills it afterwards.
        return interval_complex(grid, 0, s, t, max_degree)
    return _cell(grid, k, s, t, max_degree)


def interval_disk(grid: Grid, k: int, s: int,
                  max_degree: Optional[int] = None) -> PersistentComplex:
    """D^k_s: identity differential on two lines from s on; D^0 = 0.
    Refuses s off the grid and k off 0..max_degree."""
    grid.check_lifespan(s, INF, "disk")
    if k == 0:
        return zero_complex(grid, _cell_degrees(0, max_degree))
    return _cell(grid, k, s, s, max_degree)


def _cell(grid: Grid, k: int, s: int, t, max_degree: Optional[int]) -> PersistentComplex:
    """A degree-k line x from s on and, from t on, a line y with d y = x."""
    n = len(grid)
    md = _cell_degrees(k, max_degree)
    labels = [[[] for _ in range(md + 1)] for _ in range(n)]
    d = [dict() for _ in range(n)]
    sigma = [dict() for _ in range(n - 1)]
    for r in range(n):
        if r >= s:
            labels[r][k] = ["x"]
        if t != INF and r >= t:
            labels[r][k - 1] = ["y"]
            d[r][k - 1] = QMatrix.identity(1)
    for r in range(n - 1):
        if r >= s:
            sigma[r][k] = QMatrix.identity(1)
        if t != INF and r >= t:
            sigma[r][k - 1] = QMatrix.identity(1)
    return PersistentComplex(grid, md, labels, d, sigma)


def _cell_degrees(k: int, max_degree: Optional[int], shift: int = 0) -> int:
    """A cell complex's max_degree (k when None), once 0 <= k - shift <= max_degree:
    shift 1 for an attached cell, whose new element has degree k - 1."""
    md = k if max_degree is None else max_degree
    if not 0 <= k - shift <= md:
        raise ValidationError(f"invalid cell degree k={k}: need {shift} <= k <= "
                              f"max_degree {md}{' + 1' * shift}")
    return md


def _check_shapes(mat, x, y, dr: int, dk: int, message: str):
    """Refuse the first (stage r, degree k) where mat(r, k) is no map X^k(r) -> Y^{k+dk}(r+dr)."""
    for r in range(len(x.grid) - dr):
        for k in range(x.max_degree + 1):
            m = mat(r, k)
            if (m.rows, m.cols) != (y.dim(r + dr, k + dk), x.dim(r, k)):
                raise ValidationError(message.format(r, k))


def cohomology_module(grid: Grid, sigmas: Sequence[QMatrix],
                      spaces: Sequence[CohomologySpace]) -> PersistenceModule:
    """The persistence module of per-stage cohomology spaces in one degree.

    spaces[r] is a space of classes of cocycles at stage r; the module map
    sends each class representative at r through sigmas[r] to its class at
    r + 1.
    """
    maps = tuple(induced_map(sigmas[r], spaces[r], spaces[r + 1])
                 for r in range(len(spaces) - 1))
    return PersistenceModule(grid, tuple(sp.dim for sp in spaces), maps)


def bar_sections(grid: Grid, sigmas: Sequence[QMatrix], spaces: Sequence[CohomologySpace]
                 ) -> tuple[list[Bar], list[BarRepresentative], list[dict[int, Row]]]:
    """Interval decomposition of cohomology_module(grid, sigmas, spaces) with sections.

    For each bar, the section maps every stage of its support to a cocycle:
    the representative of the bar's class at birth, pushed along sigmas.
    Each pushed cocycle is checked to stay in its bar class.
    """
    bars, reps = interval_decompose(cohomology_module(grid, sigmas, spaces))
    sections = []
    for bar, rep in zip(bars, reps):
        last = len(spaces) - 1 if bar.death == INF else int(bar.death) - 1
        z = {bar.birth: spaces[bar.birth].rep_of_class(rep.vectors[bar.birth])}
        for r in range(bar.birth + 1, last + 1):
            z[r] = sigmas[r - 1].apply(z[r - 1])
            if spaces[r].class_of(z[r]) != rep.vectors[r]:
                raise InternalError("propagated cocycle leaves its bar class")
        sections.append(z)
    return bars, reps, sections


def cohomology(x: PersistentComplex, k: int) -> PersistenceModule:
    """Persistent H^k as a module over the grid (d(max_degree) is zero: a
    complex holds nothing above max_degree)."""
    n = len(x.grid)
    return cohomology_module(x.grid, [x.sigma_mat(r, k) for r in range(n - 1)],
                             [x.cohomology_space(r, k) for r in range(n)])


@dataclass
class SphereMapData:
    """A map out of S^degree_[birth,death): cocycle at birth, bounding at death.

    The attaching-data record that `pmm factor` writes: both vectors are
    dense tuples, of the dimensions of the complex the cell attaches to."""

    degree: int
    birth: int
    death: float
    cocycle: tuple                  # in X^degree(birth)
    bounding: Optional[tuple]       # in X^{degree-1}(death); None when death=INF
    label: str = "c"

    def validate_against(self, x: PersistentComplex):
        k, s, t = self.degree, self.birth, self.death
        x.grid.check_lifespan(s, t, "attached cell")
        _cell_degrees(k, x.max_degree, 1)
        if len(self.cocycle) != x.dim(s, k):
            raise ValidationError("cocycle has the wrong length")
        cocycle = _row(self.cocycle)
        if x.d_mat(s, k).apply(cocycle):
            raise ValidationError("attaching element is not a cocycle")
        if t == INF:
            if self.bounding is not None:
                raise ValidationError("bounding element given for an immortal cell")
            return
        if self.bounding is None or len(self.bounding) != x.dim(t, k - 1):
            raise ValidationError("bounding element has the wrong length")
        pushed = x.sigma_range(s, t, k).apply(cocycle)
        if x.d_mat(t, k - 1).apply(_row(self.bounding)) != pushed:
            raise ValidationError("bounding element does not bound the pushed cocycle")


def _row(v) -> Row:
    """The Row of a dense vector: its nonzero entries, as Fractions."""
    return {j: frac(x) for j, x in enumerate(v) if x}


def _fiber_product(a: QMatrix, b: QMatrix) -> list[tuple[Row, Row]]:
    """A basis of {(u, v) : a u = b v}: the kernel of [a | -b], split."""
    return [split_row(p, a.cols) for p in kernel_basis(hstack([a, b.scale(-1)]))]


def hom_from_sphere(x: PersistentComplex, k: int, s: int, t
                    ) -> tuple[int, list[SphereMapData]]:
    """Basis of Hom(S^k_[s,t), X) = Z X^k(s) x_{X^k(t)} X^{k-1}(t): a
    cocycle at s whose push to t is d of an element at t."""
    x.grid.check_lifespan(s, t, "sphere")
    z_basis = kernel_basis(x.d_mat(s, k))
    dim = x.dim(s, k)
    if t == INF:
        data = [SphereMapData(k, s, INF, dense_vec(z, dim), None) for z in z_basis]
        return len(data), data
    z = QMatrix.from_columns(z_basis, dim)
    out = [SphereMapData(k, s, t, dense_vec(z.apply(zc), dim), dense_vec(u, x.dim(t, k - 1)))
           for zc, u in _fiber_product(x.sigma_range(s, t, k) @ z, x.d_mat(t, k - 1))]
    return len(out), out


def hom_from_disk(x: PersistentComplex, k: int, s: int) -> int:
    """dim Hom(D^k_s, X) = dim X^{k-1}(s), 0 for k = 0."""
    x.grid.check_lifespan(s, INF, "disk")
    return x.dim(s, k - 1)


def attach_cell(x: PersistentComplex, data: SphereMapData,
                label: Optional[str] = None) -> PersistentComplex:
    """Pushout along S^k_[s,t) -> D^k_s: adjoin one degree-(k-1) element.

    The new element gamma lives on [s, t) with d(gamma) the pushed cocycle;
    at the crossing into t it maps to the bounding element.  The cofiber of
    the inclusion is the interval I^{k-1}_[s,t).
    """
    data.validate_against(x)
    k, s, t = data.degree, data.birth, data.death
    n = len(x.grid)
    lab = label or data.label
    labels = [[list(x.labels[r][deg]) for deg in range(x.max_degree + 1)] for r in range(n)]
    d = [dict(x._d[r]) for r in range(n)]
    sigma = [dict(x._sigma[r]) for r in range(n - 1)]

    pushed = _row(data.cocycle)
    live = range(s, n if t == INF else t)
    for r in live:
        if r > s:
            pushed = x.sigma_mat(r - 1, k).apply(pushed)
        labels[r][k - 1].append(lab)
        # d gains a column (d gamma = pushed cocycle) and, one degree down,
        # a zero row (nothing hits gamma).
        d[r][k - 1] = hstack([x.d_mat(r, k - 1), QMatrix.from_columns([pushed], x.dim(r, k))])
        if k - 2 >= 0:
            d[r][k - 2] = vstack([x.d_mat(r, k - 2), QMatrix.zero(1, x.dim(r, k - 2))])
        if r + 1 in live:
            sigma[r][k - 1] = block_diag(x.sigma_mat(r, k - 1), QMatrix.identity(1))
        elif r + 1 < n:  # crossing into the death stage t
            sigma[r][k - 1] = hstack([x.sigma_mat(r, k - 1),
                                      QMatrix.from_columns([_row(data.bounding)],
                                                           x.dim(t, k - 1))])
    if s > 0:  # newborn at s
        old = x.sigma_mat(s - 1, k - 1)
        sigma[s - 1][k - 1] = vstack([old, QMatrix.zero(1, old.cols)])
    return PersistentComplex(x.grid, x.max_degree, labels, d, sigma)


class PComplexMap:
    """Map of persistent complexes: per-(stage, degree) matrices commuting
    with differentials and structure maps."""

    def __init__(self, source: PersistentComplex, target: PersistentComplex,
                 components: Sequence[dict[int, QMatrix]]):
        if source.grid != target.grid:
            raise ValidationError("map needs a common grid")
        if len(components) != len(source.grid):
            raise ValidationError("map needs one component per grid stage")
        self.source = source
        self.target = target
        self.components = [dict(c) for c in components]
        self.validate()
        self._cocycles: dict[tuple[int, int], tuple] = {}  # (i, k) -> _gap_map_epi's z data

    def mat(self, r: int, k: int) -> QMatrix:
        return self.components[r].get(
            k, QMatrix.zero(self.target.dim(r, k), self.source.dim(r, k)))

    def validate(self):
        """Every shape, then d-naturality by stage and sigma-naturality by degree (sigma as d)."""
        x, y = self.source, self.target
        n = len(x.grid)
        if x.max_degree != y.max_degree:
            raise ValidationError("source and target must share max_degree")
        _check_shapes(self.mat, x, y, 0, 0, "component ({},{}) has wrong shape")
        for r in range(n):
            for k in chain_map_failures(partial(x.d_mat, r), partial(y.d_mat, r),
                                        partial(self.mat, r), range(x.max_degree)):
                raise ValidationError(f"map fails d-naturality at ({r},{k})")
        for k in range(x.max_degree + 1):
            for r in chain_map_failures(partial(x.sigma_mat, k=k), partial(y.sigma_mat, k=k),
                                        partial(self.mat, k=k), range(n - 1)):
                raise ValidationError(f"map fails sigma-naturality at ({r},{k})")

    @classmethod
    def identity(cls, x: PersistentComplex) -> "PComplexMap":
        comps = [{k: QMatrix.identity(x.dim(r, k)) for k in range(x.max_degree + 1)}
                 for r in range(len(x.grid))]
        return cls(x, x, comps)


@dataclass
class PredicateResult:
    holds: bool
    witness: Optional[dict] = None

    def __bool__(self):
        return self.holds


def is_fibration(f: PComplexMap) -> PredicateResult:
    """J-injectivity: pointwise surjective and corner maps onto.

    The corner at (i <= j, k) is X^k(i) -> X^k(j) x_{Y^k(j)} Y^k(i); on
    failure the witness carries the offending triple and an unliftable
    element of the fiber product.
    """
    x, y = f.source, f.target
    n = len(x.grid)
    miss = _not_onto(f)
    if miss is not None:
        r, k = miss
        return PredicateResult(False, {
            "kind": "not pointwise surjective", "stage": r, "degree": k,
            # The first unit vector outside the image.
            "target_element": quotient_basis(f.mat(r, k).columns(), y.dim(r, k))[0]})
    for i in range(n):
        for j in range(i, n):
            for k in range(x.max_degree + 1):
                res = _corner_check(f, i, j, k)
                if res is not None:
                    return PredicateResult(False, res)
    return PredicateResult(True)


def _not_onto(f: PComplexMap) -> Optional[tuple[int, int]]:
    """The first (stage, degree) at which f is not onto, or None."""
    y = f.target
    return next(((r, k) for r in range(len(y.grid)) for k in range(y.max_degree + 1)
                 if rank(f.mat(r, k)) != y.dim(r, k)), None)


def _corner_check(f: PComplexMap, i: int, j: int, k: int) -> Optional[dict]:
    x, y = f.source, f.target
    # Fiber product {(x_j, y_i) : f(x_j) = sigma(y_i)} inside X^k(j) + Y^k(i).
    fiber = _fiber_product(f.mat(j, k), y.sigma_range(i, j, k))
    corner = vstack([x.sigma_range(i, j, k), f.mat(i, k)])
    if rank(corner) == len(fiber):
        return None
    for u, v in fiber:
        if solve(corner, {**u, **{x.dim(j, k) + i: c for i, c in v.items()}}) is None:
            return {"kind": "corner map not surjective", "pair": (i, j), "degree": k,
                    "fiber_element": {"x_at_j": u, "y_at_i": v}}
    raise InternalError("corner rank deficient but no witness found")


def is_pointwise_quasi_iso(f: PComplexMap) -> PredicateResult:
    """Checked in degrees 0..max_degree (d(max_degree) has no rows)."""
    x, y = f.source, f.target
    for r in range(len(x.grid)):
        for k in range(x.max_degree + 1):
            hx = x.cohomology_space(r, k)
            hy = y.cohomology_space(r, k)
            m = induced_map(f.mat(r, k), hx, hy)
            if rank(m) != hx.dim or rank(m) != hy.dim:
                return PredicateResult(False, {
                    "kind": "not a quasi-isomorphism", "stage": r, "degree": k,
                    "dims": (hx.dim, hy.dim)})
    return PredicateResult(True)


def is_trivial_fibration(f: PComplexMap) -> PredicateResult:
    """Fibration and pointwise quasi-isomorphism, checked to agree with the
    direct gap-map characterization of I-injectivity (`_i_injective_direct`)."""
    out = is_fibration(f)
    if out.holds:
        out = is_pointwise_quasi_iso(f)
    if _i_injective_direct(f) != out.holds:
        raise InternalError("gap-map characterization disagrees with fibration + quasi-iso")
    return out


def _i_injective_direct(f: PComplexMap) -> bool:
    """Pointwise onto, a pointwise quasi-isomorphism, and every gap map onto
    (k up to max_degree + 1, whose disk has its lower cell at max_degree)."""
    n = len(f.source.grid)
    return (_not_onto(f) is None and is_pointwise_quasi_iso(f).holds
            and all(_gap_map_epi(f, i, j, k) for i in range(n) for j in range(i, n)
                    for k in range(1, f.source.max_degree + 2)))


def _gap_map_epi(f: PComplexMap, i: int, j: int, k: int) -> bool:
    """u_i -> ((d u_i, sigma u_i), f u_i) onto the fiber product of
    (z, u_j) -> (sigma z - d u_j, f z, f u_j) and y_i -> (0, d y_i, sigma y_i),
    z a cocycle in X^k(i), u_j in X^{k-1}(j) and y_i in Y^{k-1}(i).  What
    depends on (i, k) alone is made once per (i, k) and kept in f._cocycles:
    d(i,k) reduced, z, f z and the Z-coordinates of d(i,k-1)."""
    x, y = f.source, f.target
    if (i, k) not in f._cocycles:
        d_k = x.d_mat(i, k)
        red = rref(d_k)
        z = QMatrix.from_columns(red.kernel_basis(), d_k.cols)
        # A kernel-basis vector is 1 at its own free column of d(i,k) and 0 at
        # the others, so a cocycle's Z-coordinates are its entries there.
        coords = QMatrix._of(z.cols, z.rows, tuple({c: ONE} for c in red.free_columns()))
        f._cocycles[i, k] = z, f.mat(i, k) @ z, coords @ x.d_mat(i, k - 1)
    z, fz, z_of_d = f._cocycles[i, k]
    d_j = x.d_mat(j, k - 1)
    a = vstack([hstack([x.sigma_range(i, j, k) @ z, d_j.scale(-1)]),
                hstack([fz, QMatrix.zero(y.dim(i, k), d_j.cols)]),
                hstack([QMatrix.zero(y.dim(j, k - 1), z.cols), f.mat(j, k - 1)])])
    b = vstack([QMatrix.zero(x.dim(j, k), y.dim(i, k - 1)), y.d_mat(i, k - 1),
                y.sigma_range(i, j, k - 1)])
    gap = vstack([z_of_d, x.sigma_range(i, j, k - 1), f.mat(i, k - 1)])
    return rank(gap) == len(_fiber_product(a, b))


@dataclass
class FactorizationCertificate:
    """Two-stage cell factorization of an injective tame map, with an
    explicit isomorphism from the attached complex onto the target."""

    stage1: list[SphereMapData]
    stage2: list[SphereMapData]
    intermediate: PersistentComplex
    total: PersistentComplex
    iso: list[dict[int, QMatrix]]        # X2(r,k) -> Y(r,k)
    verified: bool = False
    failures: list[str] = field(default_factory=list)


def factor_cofibration(i_map: PComplexMap) -> FactorizationCertificate:
    """Realize a pointwise-injective map of tame complexes as cell attachments.

    Stage 1 adjoins the missing cocycles: one cell per bar of ZY/i(ZX), with
    attaching data (0, y_death).  Stage 2 adjoins the rest: one cell per bar
    of Y/(stage-1 image), with data (d y_birth, y_death).  The certificate's
    isomorphism is verified by matrix equality at every stage and degree.
    """
    x, y = i_map.source, i_map.target
    n = len(x.grid)
    for r in range(n):
        for k in range(x.max_degree + 1):
            if rank(i_map.mat(r, k)) < i_map.mat(r, k).cols:
                raise ValidationError(f"map is not injective at ({r},{k})")

    iota = [{k: i_map.mat(r, k) for k in range(x.max_degree + 1)} for r in range(n)]
    current = x
    stage1: list[SphereMapData] = []
    stage2: list[SphereMapData] = []

    def preimage(r, k, target_vec):
        sol = solve(iota[r][k], target_vec)
        if sol is None:
            raise InternalError("expected element has no preimage under iota")
        return sol

    def run_stage(which: int):
        nonlocal current
        # Attaching data for the whole batch, computed against the iota and
        # the complex from before the batch: (d y_birth or 0, y_death).
        batch: list[tuple] = []
        for k in range(x.max_degree + 1):
            spaces = []
            for r in range(n):
                if which == 1:
                    d_out = y.d_mat(r, k)
                    sub_cols = iota[r][k] @ QMatrix.from_columns(
                        kernel_basis(current.d_mat(r, k)), current.dim(r, k))
                else:
                    d_out = QMatrix.zero(0, y.dim(r, k))
                    sub_cols = iota[r][k]
                spaces.append(compute_cohomology(d_out, sub_cols))
            bars, _, sections = bar_sections(
                y.grid, [y.sigma_mat(r, k) for r in range(n - 1)], spaces)
            for idx, (bar, lift) in enumerate(zip(bars, sections)):
                s = bar.birth
                coc = {} if which == 1 else preimage(s, k + 1, y.d_mat(s, k).apply(lift[s]))
                bounding = None
                if bar.death != INF:
                    t = int(bar.death)
                    bounding = preimage(t, k, y.sigma_mat(t - 1, k).apply(lift[t - 1]))
                batch.append((k + 1, s, bar.death, coc, bounding, f"s{which}_{k}_{idx}", lift))
        # Attach the whole batch, each cell's record written against the
        # complex it attaches to (attaching appends labels, so the vectors'
        # coordinates stay put), then extend iota by the lifted sections, one
        # block per (stage, degree) in attaching order.
        lifted: dict[tuple[int, int], list[Row]] = {}
        for deg, s, death, coc, bounding, label, lift in batch:
            data = SphereMapData(
                deg, s, death, dense_vec(coc, current.dim(s, deg)),
                None if bounding is None else dense_vec(bounding, current.dim(int(death), deg - 1)),
                label)
            current = attach_cell(current, data)
            for r, vec_y in lift.items():
                lifted.setdefault((r, deg - 1), []).append(vec_y)
            (stage1 if which == 1 else stage2).append(data)
        for (r, deg), cols in lifted.items():
            iota[r][deg] = hstack([iota[r][deg], QMatrix.from_columns(cols, y.dim(r, deg))])

    run_stage(1)
    intermediate = current
    run_stage(2)

    cert = FactorizationCertificate(stage1=stage1, stage2=stage2,
                                    intermediate=intermediate, total=current,
                                    iso=iota)
    cert.failures = _verify_certificate(i_map, cert)
    cert.verified = not cert.failures
    if not cert.verified:
        raise InternalError(f"factorization certificate failed: {cert.failures}")
    return cert


def _verify_certificate(i_map: PComplexMap, cert: FactorizationCertificate) -> list[str]:
    x, y = i_map.source, i_map.target
    x2 = cert.total
    n = len(x.grid)
    problems = []
    try:
        phi = PComplexMap(x2, y, cert.iso)
    except ValidationError as exc:
        return [f"iso is not a map of persistent complexes: {exc}"]
    for r in range(n):
        for k in range(x.max_degree + 1):
            m = cert.iso[r][k]
            if m.rows != m.cols or (m.rows and rank(m) != m.rows):
                problems.append(f"iso not invertible at ({r},{k})")
    for r in range(n):
        for k in range(x.max_degree + 1):
            m = cert.iso[r][k]
            first = vstack([QMatrix.identity(x.dim(r, k)),
                            QMatrix.zero(m.cols - x.dim(r, k), x.dim(r, k))])
            if m @ first != i_map.mat(r, k):
                problems.append(f"iso does not restrict to i at ({r},{k})")
    return problems
