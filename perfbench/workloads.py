"""Inputs of the three benchmark workloads, made from a seed.

Each generator returns the list of n that zdg receives, in ascending
order.  The same seed always gives the same list.  Seeded draws are
stratified, with a fixed count per stratum, so that the total work of a
workload changes little from one seed to the next.
"""
from __future__ import annotations

import random
from bisect import bisect_right
from math import log10

from sympy import nextprime

import reference as ref

DENSE_RANGE = (4, 1500)

# Explicit graphs near zdg's materialization guard of 2*10^5 vertices.
NEAR_GUARD_VERTICES = (14_000, 200_000)
NEAR_GUARD_EDGES = (100_000, 2_000_000)
NEAR_GUARD_DRAW = (20_000, 600_000)
# 11^5 is the one input here whose connectivity runs max-flows.  It also
# sets the workload's peak memory, so it is fixed rather than drawn.
NEAR_GUARD_FLOWS = 11**5
# Narrow cells of graph size, since build and connectivity time follow
# vertex and edge counts: (smallest prime factor, vertex range, edge range,
# count).  Each cell holds at least 30 candidates.  The cells' latencies do
# not overlap much, and the three-input cell holds the median, so neither
# the median nor the sum hinges on one draw.
NEAR_GUARD_CELLS = (
    (2, (28_000, 31_000), (115_000, 125_000), 2),
    (2, (66_000, 70_000), (280_000, 300_000), 2),
    (2, (100_000, 104_000), (200_000, 210_000), 3),
    (2, (175_000, 185_000), (175_000, 185_000), 1),
    (3, (75_000, 80_000), (150_000, 160_000), 1),
    (2, (88_000, 94_000), (800_000, 850_000), 1),
)

HIGHLY_COMPOSITE = (735134400, 6983776800, 73513440000, 321253732800, 963761198400)
ROADMAP_CUBE = 997**3
BIG_DRAW = (10**12, 10**13)
SEMIPRIME_FACTOR = (3_000_000, 3_300_000)
SEMIPRIMES = 4
# One composite is drawn from BIG_DRAW per stratum of reference.analyze_cost,
# and the BIG_STRATA strata hold equal shares of random composites, so the
# total work, its median and its tail barely depend on the seed.  The strata
# bounds come from BIG_KNOTS: quantiles of log10(analyze_cost) at BIG_KNOT_Q
# over 20000 random composites from BIG_DRAW, drawn with random.Random(12345).
BIG_STRATA = 186
BIG_KNOT_Q = (0.005, *(i / 32 for i in range(1, 32)), 0.995)
BIG_KNOTS = (
    3.9864, 4.2431, 4.3967, 4.5113, 4.6009, 4.6756, 4.7435, 4.8082, 4.8649,
    4.9166, 4.9719, 5.0267, 5.0837, 5.1414, 5.2012, 5.265, 5.3311, 5.4004,
    5.4679, 5.54, 5.619, 5.6982, 5.7799, 5.8712, 5.9674, 6.0603, 6.1563,
    6.2503, 6.3523, 6.4472, 6.5491, 6.6687, 6.7883,
)


def big_strata_bounds() -> list[float]:
    """log10 cost bounds between the strata, interpolated between knots."""
    bounds = []
    for k in range(1, BIG_STRATA):
        q = k / BIG_STRATA
        i = bisect_right(BIG_KNOT_Q, q) - 1
        q0, q1 = BIG_KNOT_Q[i], BIG_KNOT_Q[i + 1]
        x0, x1 = BIG_KNOTS[i], BIG_KNOTS[i + 1]
        bounds.append(x0 + (x1 - x0) * (q - q0) / (q1 - q0))
    return bounds


def dense_range(seed: int) -> list[int]:
    """Every n users audit; the seed does not change it."""
    lo, hi = DENSE_RANGE
    return list(range(lo, hi + 1))


def in_near_guard(n: int, fs: ref.Factors) -> bool:
    """True when n's explicit graph has a near-guard size."""
    if not ref.is_composite(n, fs):
        return False
    v_lo, v_hi = NEAR_GUARD_VERTICES
    e_lo, e_hi = NEAR_GUARD_EDGES
    return (
        v_lo <= ref.vertex_count(n, fs) <= v_hi
        and e_lo <= ref.edge_count(n, fs) <= e_hi
    )


def near_guard(seed: int) -> list[int]:
    """Eleven graphs of 1.4*10^4 to 2*10^5 vertices, drawn cell by cell."""
    rng = random.Random(seed)
    left = [cell[3] for cell in NEAR_GUARD_CELLS]
    chosen = [NEAR_GUARD_FLOWS]
    while any(left):
        n = rng.randrange(*NEAR_GUARD_DRAW)
        fs = ref.factors(n)
        if n in chosen or not in_near_guard(n, fs):
            continue
        v, e = ref.vertex_count(n, fs), ref.edge_count(n, fs)
        for i, (p, (v_lo, v_hi), (e_lo, e_hi), _) in enumerate(NEAR_GUARD_CELLS):
            if left[i] and fs[0][0] == p and v_lo <= v < v_hi and e_lo <= e < e_hi:
                left[i] -= 1
                chosen.append(n)
                break
    return sorted(chosen)


def big_n(seed: int) -> list[int]:
    """About 200 n in [10^12, 10^13) and beyond, all past the explicit guard."""
    rng = random.Random(seed)
    bounds = big_strata_bounds()
    left = set(range(BIG_STRATA))
    drawn = []
    while left:
        n = rng.randrange(*BIG_DRAW)
        fs = ref.factors(n)
        if not ref.is_composite(n, fs) or n in drawn:
            continue
        stratum = bisect_right(bounds, log10(ref.analyze_cost(fs)))
        if stratum in left:
            left.remove(stratum)
            drawn.append(n)
    semiprimes = [
        nextprime(rng.randrange(*SEMIPRIME_FACTOR))
        * nextprime(rng.randrange(*SEMIPRIME_FACTOR))
        for _ in range(SEMIPRIMES)
    ]
    return sorted(
        drawn + [int(s) for s in semiprimes] + [*HIGHLY_COMPOSITE, ROADMAP_CUBE]
    )


WORKLOADS = {
    "dense-range": dense_range,
    "near-guard": near_guard,
    "big-n": big_n,
}
