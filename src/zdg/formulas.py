"""Closed-form predictions for connectivity of zero-divisor graphs.

For composite n the three quantities (vertex connectivity, edge
connectivity, minimum degree) coincide and depend only on the smallest
prime factor, except that n = p^2 drops one lower because the graph is
complete on p - 1 vertices.  Each prediction carries a branch tag naming
the closed form that produced it, so audits can report which branch fired.
"""
from __future__ import annotations

from typing import NamedTuple

from .arith import Factorization
from .errors import NoZeroDivisorsError


class Prediction(NamedTuple):
    n: int
    quantity: str
    value: int
    theorem_tag: str


def _require_composite(f: Factorization) -> None:
    if not f.is_composite():
        raise NoZeroDivisorsError(
            f"no prediction for n={f.n}: Z_n has no nonzero zero divisors"
        )


def predict(f: Factorization) -> tuple[int, tuple[str, str, str]]:
    """The common value of delta, kappa_e and kappa, and the tags of the
    closed forms that give each, in that order.

    The prime-square case takes precedence over the multi-branch general
    form; applying the general minimum-over-primes rule to p^2 would
    overshoot by one, since the graph there is complete.
    """
    _require_composite(f)
    factors = f.factors
    if len(factors) == 1:
        p, a = factors[0]
        if a == 2:
            return p - 2, ("T4.5", "T4.1", "T3.1")
        return p - 1, ("T4.5", "T4.2", "T3.2-3.3")
    vertex_tag = "T3.4" if len(factors) == 2 else "T3.5"
    return factors[0][0] - 1, ("T4.5", "T4.3", vertex_tag)  # smallest prime


def predict_vertex_connectivity(f: Factorization) -> Prediction:
    """Vertex connectivity: p - 2 for n = p^2, else min prime minus one."""
    value, tags = predict(f)
    return Prediction(f.n, "vertex_connectivity", value, tags[2])


def predict_edge_connectivity(f: Factorization) -> Prediction:
    """Edge connectivity: always equal to the vertex-connectivity value."""
    value, tags = predict(f)
    return Prediction(f.n, "edge_connectivity", value, tags[1])


def predict_min_degree(f: Factorization) -> Prediction:
    """Minimum degree: equal to the edge-connectivity value."""
    value, tags = predict(f)
    return Prediction(f.n, "min_degree", value, tags[0])


def witness_cut(f: Factorization) -> tuple[int, ...]:
    """A vertex cut realizing the predicted vertex connectivity, ascending.

    n = p^2: the p - 2 smallest vertices of the complete graph (deleting
    them leaves K_1).  n = p^k, k >= 3: the multiples of p^(k-1), whose
    removal strands every vertex with a single prime factor of p.  Several
    primes: the class of multiples of n/p for the smallest prime p, whose
    removal isolates the vertices sharing only p with n.
    """
    _require_composite(f)
    factors = f.factors
    if len(factors) == 1:
        p, a = factors[0]
        if a == 2:
            return tuple(m * p for m in range(1, p - 1))
        return tuple(m * p ** (a - 1) for m in range(1, p))
    p = min(q for q, _ in factors)
    d = f.n // p
    return tuple(m * d for m in range(1, p))
