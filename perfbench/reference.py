"""Reference values that check zdg's rows without using zdg.

Factorizations come from sympy.  The connectivity value is the paper's
closed form: p - 2 for n = p^2, otherwise the smallest prime factor minus
one.  Vertex and edge counts come from the annihilator structure: a vertex
x with gcd(x, n) = d is adjacent to the d - 1 nonzero multiples of n/d,
minus x itself when n divides d^2.
"""
from __future__ import annotations

from itertools import product
from math import isqrt, prod

from sympy import factorint

Factors = tuple[tuple[int, int], ...]


def factors(n: int) -> Factors:
    """Ascending (prime, exponent) pairs of n."""
    return tuple(sorted(factorint(n).items()))


def is_composite(n: int, fs: Factors) -> bool:
    return n >= 4 and not (len(fs) == 1 and fs[0][1] == 1)


def factorization_text(fs: Factors) -> str:
    """The CSV spelling of a factorization, e.g. 2^2*3; n = 1 is "1"."""
    if not fs:
        return "1"
    return "*".join(f"{p}^{a}" if a > 1 else str(p) for p, a in fs)


def connectivity(fs: Factors) -> int:
    """kappa = kappa_e = delta of a composite n."""
    if len(fs) == 1 and fs[0][1] == 2:
        return fs[0][0] - 2
    return fs[0][0] - 1


def vertex_count(n: int, fs: Factors) -> int:
    """Nonzero zero divisors of Z_n: n - 1 - phi(n)."""
    return n - 1 - prod((p - 1) * p ** (a - 1) for p, a in fs)


def edge_count(n: int, fs: Factors) -> int:
    """Edges of the zero-divisor graph, summed over the divisor classes."""
    degree_sum = 0
    for exps in product(*(range(a + 1) for _, a in fs)):
        d = prod(p**b for (p, _), b in zip(fs, exps))
        if d == 1 or d == n:
            continue
        # the class of d holds phi(n/d) vertices
        size = prod(
            (p - 1) * p ** (a - b - 1) for (p, a), b in zip(fs, exps) if a > b
        )
        loop = all(2 * b >= a for (_, a), b in zip(fs, exps))  # n | d^2
        degree_sum += size * (d - 1 - loop)
    return degree_sum // 2


def trial_division_bound(primes) -> int:
    """Trial division of the product of primes (ascending, with multiplicity)
    runs to max(second largest prime, sqrt(largest))."""
    second = primes[-2] if len(primes) > 1 else 1
    return max(second, isqrt(primes[-1]))


def trial_division_work(fs: Factors) -> int:
    """Trial-division bounds summed over every divisor m > 1 of n.

    A divisor-class build factors n / d for every proper divisor d, so the
    sum tracks the factoring work per n.
    """
    total = 0
    for exps in product(*(range(a + 1) for _, a in fs)):
        primes = [p for (p, _), b in zip(fs, exps) for _ in range(b)]
        if primes:
            total += trial_division_bound(primes)
    return total


# Fitted to analyze latencies of n in [10^12, 10^13): one class pair costs
# about as much as 1.6 steps of trial division.
CLASS_PAIR_WEIGHT = 1.6


def analyze_cost(fs: Factors) -> float:
    """A model of zdg's work on one n past the explicit guard.

    n itself is factored twice (by analyze and by the divisor-class build),
    every other divisor m > 1 once, and the class-pair loop is quadratic in
    the divisor count.
    """
    primes = [p for p, a in fs for _ in range(a)]
    divisors = prod(a + 1 for _, a in fs)
    return (trial_division_work(fs) + trial_division_bound(primes)
            + CLASS_PAIR_WEIGHT * divisors * divisors)
