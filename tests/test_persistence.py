import random
import re
from collections import Counter

import pytest

from pmm.errors import ValidationError
from pmm.exactla import QMatrix
from pmm.persistence import (
    INF, Bar, Grid, PersistenceModule, from_bars, interval_decompose, rank_invariant,
)

from .gen import check_representatives


def grid_of(n):
    return Grid(tuple(range(n)))


def bar_multiset(bars):
    return Counter((b.birth, b.death) for b in bars)


def mu_measure(m, i, j):
    """Inclusion-exclusion count of bars born by i and dead after j."""
    def r(a, b):
        if a < 0 or b >= len(m.dims):
            return 0
        return rank_invariant(m, a, b)
    n = len(m.dims)
    jj = j + 1
    out = r(i, j)
    if jj < n:
        out -= r(i, jj)
    if i > 0:
        out -= r(i - 1, j)
        if jj < n:
            out += r(i - 1, jj)
    return out


def test_grid_validation():
    with pytest.raises(ValidationError):
        Grid(())
    with pytest.raises(ValidationError):
        Grid((0, 0))


@pytest.mark.parametrize("dims, maps, message", [
    ((1,), (), "dims must match grid length"),
    ((1, 1), (), "need one map per consecutive stage pair"),
    ((1, 2), (QMatrix.identity(1),), "map 0 has shape 1x1, want 2x1")],
    ids=["dims-length", "map-count", "map-shape"])
def test_module_refuses_a_bad_shape(dims, maps, message):
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        PersistenceModule(grid_of(2), dims, maps)


def test_a_bar_and_a_direct_sum_refuse_a_bad_shape():
    with pytest.raises(ValidationError, match=re.escape("bar needs birth < death, got [2,1)")):
        Bar(2, 1)
    with pytest.raises(ValidationError, match="^direct_sum: grid mismatch$"):
        from_bars(grid_of(2), []).direct_sum(from_bars(grid_of(3), []))


@pytest.mark.parametrize("bar, message", [
    (Bar(3, INF), "invalid bar birth s=3"), (Bar(0, 4), "invalid bar death t=4"),
    (Bar(-1, 2), "invalid bar birth s=-1"), (Bar(0, 1.5), "invalid bar death t=1.5")],
    ids=["birth-after-grid", "death-past-the-end", "negative-birth", "fractional-death"])
def test_from_bars_refuses_a_lifespan_outside_the_grid(bar, message):
    # A death at len(grid) = 3 is the documented "survives past the last
    # stage" (test_round_trip_random_bars); one past it is refused.
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}"):
        from_bars(grid_of(3), [bar])
    assert from_bars(grid_of(3), [Bar(0, 3)]).dims == (1, 1, 1)


def test_rank_invariant_interval():
    m = from_bars(grid_of(3), [Bar(0, 2)])
    assert rank_invariant(m, 0, 0) == 1
    assert rank_invariant(m, 0, 1) == 1
    assert rank_invariant(m, 0, 2) == 0


def test_rank_invariant_zero_module():
    m = PersistenceModule(grid_of(3), (0, 0, 0), (QMatrix(0, 0), QMatrix(0, 0)))
    for i in range(3):
        for j in range(i, 3):
            assert rank_invariant(m, i, j) == 0


def test_rank_invariant_hand_module():
    m = PersistenceModule(
        grid_of(3), (1, 2, 1),
        (QMatrix.from_rows([[1], [0]]), QMatrix.from_rows([[0, 1]])))
    assert rank_invariant(m, 0, 2) == 0
    assert rank_invariant(m, 1, 2) == 1


def test_decompose_single_chain():
    m = PersistenceModule(grid_of(3), (1, 1, 0),
                          (QMatrix.from_rows([[1]]), QMatrix(0, 1)))
    bars, reps = interval_decompose(m)
    assert bar_multiset(bars) == Counter({(0, 2): 1})
    check_representatives(m, bars, reps)


def test_decompose_elder_rule_module():
    # dims (1,2,1): a class born at 0 dying at 2, and one born at 1 surviving.
    m = PersistenceModule(
        grid_of(3), (1, 2, 1),
        (QMatrix.from_rows([[1], [0]]), QMatrix.from_rows([[0, 1]])))
    bars, reps = interval_decompose(m)
    assert bar_multiset(bars) == Counter({(0, 2): 1, (1, INF): 1})
    check_representatives(m, bars, reps)


def test_decompose_direct_sum_additive():
    a = from_bars(grid_of(4), [Bar(0, 2), Bar(1, INF)])
    b = from_bars(grid_of(4), [Bar(2, 3)])
    bars, _ = interval_decompose(a.direct_sum(b))
    assert bar_multiset(bars) == Counter({(0, 2): 1, (1, INF): 1, (2, 3): 1})


def test_from_bars_examples():
    m = from_bars(grid_of(3), [Bar(0, INF)])
    assert m.dims == (1, 1, 1)
    assert all(mp == QMatrix.from_rows([[1]]) for mp in m.maps)

    z = from_bars(grid_of(2), [])
    assert z.dims == (0, 0)

    d = from_bars(grid_of(3), [Bar(0, 1), Bar(0, 1)])
    assert d.dims == (2, 0, 0)


def test_round_trip_random_bars():
    rng = random.Random(5)
    for _ in range(150):
        n = rng.randint(1, 5)
        bars = []
        for _ in range(rng.randint(0, 6)):
            birth = rng.randint(0, n - 1)
            if rng.random() < 0.3:
                death = INF
            else:
                death = rng.randint(birth + 1, n)
            bars.append(Bar(birth, death))
        # death == n means the interval [t_birth, t_n) which on an n-point
        # grid is indistinguishable from death at the end: normalize to INF
        # only when beyond the last index.
        m = from_bars(grid_of(n), bars)
        got, reps = interval_decompose(m)
        want = Counter((b.birth, INF if b.death == n else b.death) for b in bars)
        assert bar_multiset(got) == want
        check_representatives(m, got, reps)


def test_rank_invariant_equivalence_random():
    rng = random.Random(9)
    for _ in range(200):
        n = rng.randint(1, 5)
        dims = tuple(rng.randint(0, 4) for _ in range(n))
        maps = tuple(
            QMatrix(dims[i + 1], dims[i],
                    [[rng.randint(-2, 2) for _ in range(dims[i])] for _ in range(dims[i + 1])])
            for i in range(n - 1))
        m = PersistenceModule(grid_of(n), dims, maps)
        bars, reps = interval_decompose(m)
        check_representatives(m, bars, reps)
        for i in range(n):
            for j in range(i, n):
                alive = sum(1 for b in bars if b.birth <= i and b.death > j)
                assert alive == rank_invariant(m, i, j), (dims, i, j)
        # Multiplicity measure agrees pointwise too; at the last index the
        # measure counts the bars that survive past the grid (death INF).
        for i in range(n):
            for j in range(i, n):
                if j == n - 1:
                    died_at = sum(1 for b in bars if b.birth == i and b.death == INF)
                else:
                    died_at = sum(1 for b in bars if b.birth == i and b.death == j + 1)
                assert died_at == mu_measure(m, i, j)


def test_grid_insert():
    g = Grid((0, 1, 3))
    g2 = g.insert(2, 2)
    assert [int(t) for t in g2.times] == [0, 1, 2, 3]
