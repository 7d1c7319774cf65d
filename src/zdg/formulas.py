"""Closed-form predictions for connectivity of zero-divisor graphs.

For composite n the three quantities (vertex connectivity, edge
connectivity, minimum degree) coincide and depend only on the smallest
prime p, except that n = p^2 drops one lower: its graph is complete on
p - 1 vertices.  predict tags each value with its closed form, so audits
can report which branch fired.  The package root exports predict only;
Prediction and the predict_* helpers, one per quantity, are imported from
here.
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


def predict(f: Factorization) -> tuple[int, tuple[str, str, str]]:
    """The common value of delta, kappa_e and kappa, and the tags of the
    closed forms that give each, in that order.  One case split on the
    shape of n's factorization; n = 1 and n prime raise NoZeroDivisorsError.

    The p^2 case comes before the p^a, a >= 3, case, whose p - 1 would
    overshoot by one on the complete graph of p^2.
    """
    match f.factors:
        case () | ((_, 1),):
            raise NoZeroDivisorsError(
                f"no prediction for n={f.n}: Z_n has no nonzero zero divisors"
            )
        case ((p, 2),):
            return p - 2, ("T4.5", "T4.1", "T3.1")
        case ((p, _),):
            return p - 1, ("T4.5", "T4.2", "T3.2-3.3")
        case ((p, _), _):
            return p - 1, ("T4.5", "T4.3", "T3.4")
        case ((p, _), *_):  # p is the smallest prime
            return p - 1, ("T4.5", "T4.3", "T3.5")


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

