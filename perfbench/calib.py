"""Reference kernel that measures how fast the host runs right now.

The benchmark's host is shared: other tenants' load slows every instruction
by 20-70% in phases of seconds to minutes, which no statistic taken within
one run removes.  `kernel` is a fixed piece of pure-Python work of the kind
the engine does (Gauss-Jordan elimination over `Fraction`, then dict and
tuple churn like that of polynomial arithmetic).  It never calls `pmm`, so a
change to the program cannot change it.  Timed next to the program, its
duration tells how slow the host is at that moment.  The kernel reacts more
strongly to the host's load than the program does (its time moves about
1.7 times as much, in log terms), so the correction is damped:

    normalized = measured * (REF_S / kernel time measured alongside) ** DAMPING

estimates the time the program would take on a host that runs the kernel
in REF_S seconds.
"""
from __future__ import annotations

import random
import statistics
import time
from fractions import Fraction

# A round figure near the kernel's time on the 2-vCPU Xeon KVM guest the
# benchmark was built on (Python 3.11) in a quiet phase; it only sets the
# scale of normalized times.
REF_S = 0.015
# Exponent of the correction: the program's time moves as the kernel's
# time to this power (log-log slope, measured on the benchmark's host).
DAMPING = 0.6
# Kernel timings taken at the start and again at the end of each pass.
SAMPLES = 7

_rng = random.Random(20231208)
_MATRIX = [[_rng.choice((-2, -1, 0, 0, 1, 2)) for _ in range(16)] for _ in range(16)]


def kernel() -> int:
    """Fixed work: rank of a 16x16 integer matrix over Q, then dict churn."""
    a = [[Fraction(x) for x in row] for row in _MATRIX]
    n, rank = len(a), 0
    for c in range(n):
        p = next((i for i in range(rank, n) if a[i][c]), None)
        if p is None:
            continue
        a[rank], a[p] = a[p], a[rank]
        inv = 1 / a[rank][c]
        a[rank] = [x * inv for x in a[rank]]
        for i in range(n):
            if i != rank and a[i][c]:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[rank])]
        rank += 1
    poly: dict = {}
    for i in range(3000):
        mono = tuple(sorted((f"v{i % 7}", f"v{i % 5}")))
        poly[mono] = poly.get(mono, 0) + (i % 3) - 1
    return rank + len(poly)


def timings(count: int = SAMPLES) -> list[float]:
    out = []
    for _ in range(count):
        t0 = time.perf_counter()
        kernel()
        out.append(time.perf_counter() - t0)
    return out


def factor(samples: list[float]) -> float:
    """Scale from measured to normalized time for the given kernel timings."""
    return (REF_S / statistics.median(samples)) ** DAMPING
