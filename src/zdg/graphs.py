"""Zero-divisor graphs of Z_n, explicit and compressed: the oracle side.

The explicit graph puts a vertex on every nonzero zero divisor of Z_n
(residues v with gcd(v, n) > 1) and an edge between u != w whenever
u*w = 0 (mod n).  Vertices group into divisor classes d = gcd(v, n), and
each class has a closed form (Anderson & Livingston, J. Algebra 217,
1999): a vertex x in class d is adjacent to exactly the nonzero multiples
of n/d other than x itself.  So every class-d vertex has degree
d - 1 - [n | d^2], and its neighbors are range(n/d, n, n/d) without x.
The class list, the size guard and the quotient engine that analyze,
sweep and audit run are in zdg.quotient; this module builds on them.

build_explicit materializes the graph that connectivity, the flow oracle,
runs on; degree_profile and residue_witnesses (a quotient_report witness
in residues) serve the oracle and the tests.  export_dot writes the graph
as DOT text from the class rule, building no graph; only the export-dot
command imports it, so no pipeline run loads this module.  The package
root exports none of these names.
"""
from __future__ import annotations

from collections.abc import Iterator
from math import gcd
from typing import NamedTuple

from .arith import Factorization, factorize
from .errors import CertificateError
from .quotient import (
    QuotientReport,
    _no_zero_divisors,
    divisor_classes,
    explicit_size,
)


class ZeroDivisorGraph(NamedTuple):
    """Explicit zero-divisor graph: sorted vertices, sorted neighbor lists."""

    n: int
    vertices: tuple[int, ...]
    adjacency: dict[int, tuple[int, ...]]
    edge_count: int


def _class_degree(n: int, d: int) -> int:
    """Degree of a class-d vertex: the d - 1 nonzero multiples of n/d, less
    the vertex itself when it is one of them (exactly when n | d^2)."""
    return d - 1 - (d * d % n == 0)


class CompressedZdg(NamedTuple):
    """Divisor classes of the zero-divisor graph: the (d, totient(n/d))
    pairs of divisor_classes, ascending in d.  Adjacency needs no storage,
    as the module docstring shows."""

    n: int
    classes: tuple[tuple[int, int], ...]

    def num_vertices(self) -> int:
        return sum(size for _, size in self.classes)

    def num_edges(self) -> int:
        """Edge count of the explicit graph this compression describes."""
        n = self.n
        return sum(size * _class_degree(n, d) for d, size in self.classes) // 2


class DegreeProfile(NamedTuple):
    """Vertex degrees of the explicit graph, aggregated per divisor class."""

    n: int
    class_degrees: dict[int, int]
    degree_counts: dict[int, int]


def build_compressed(n: int) -> CompressedZdg:
    """Compress Z_n's zero-divisor graph onto its divisor classes.

    Requires composite n >= 4.  Factors n once; the rest is linear in the
    divisor count, independent of n itself.
    """
    return compress(factorize(n))


def compress(f: Factorization) -> CompressedZdg:
    """build_compressed for an n whose factorization is already known."""
    if not f.is_composite():
        raise _no_zero_divisors(f.n)
    return CompressedZdg(f.n, tuple(sorted(divisor_classes(f))))


def degree_profile(c: CompressedZdg) -> DegreeProfile:
    """Per-class degrees and the whole-graph degree multiset."""
    class_degrees = {d: _class_degree(c.n, d) for d, _ in c.classes}
    degree_counts: dict[int, int] = {}
    for d, size in c.classes:
        deg = class_degrees[d]
        degree_counts[deg] = degree_counts.get(deg, 0) + size
    return DegreeProfile(c.n, class_degrees, degree_counts)


def class_members(n: int, d: int) -> list[int]:
    """Residues v in (0, n) with gcd(v, n) = d, ascending."""
    return [v for v in range(d, n, d) if gcd(v // d, n // d) == 1]


def residue_witnesses(
    rep: QuotientReport,
) -> tuple[tuple[int, ...], tuple[tuple[int, int], ...]]:
    """rep's vertex and edge cut in residues, in the flow oracle's form."""
    members, r = class_members(rep.n, rep.n // rep.root), rep.root
    edges = ((min(r, v), max(r, v)) for v in members if v != r)
    return tuple(members[: rep.delta]), tuple(sorted(edges))


def build_explicit(n: int) -> ZeroDivisorGraph:
    """Materialize the zero-divisor graph of Z_n.

    Refuses (ResourceLimitError) past the explicit_size guard, which is
    computed from the factorization before any allocation.  Members of a
    class share one neighbor tuple, except those that are multiples of
    n/d, which get it with themselves removed.  The adjacency's edge ends
    are checked against the closed-form count.
    """
    f = factorize(n)
    _, num_edges = explicit_size(f)
    c = compress(f)

    adjacency: dict[int, tuple[int, ...]] = {}
    for d, _ in c.classes:
        step = n // d
        shared = tuple(range(step, n, step))
        for v in class_members(n, d):
            if v % step:
                adjacency[v] = shared
            else:
                i = v // step - 1
                adjacency[v] = shared[:i] + shared[i + 1 :]
    ends = sum(len(a) for a in adjacency.values())
    if ends != 2 * num_edges:
        raise CertificateError(
            f"n={n}: adjacency lists hold {ends} edge ends, "
            f"expected {2 * num_edges}"
        )
    return ZeroDivisorGraph(n, tuple(sorted(adjacency)), adjacency, num_edges)


def export_dot(n: int, color_by_class: bool = False) -> Iterator[str]:
    """Graphviz DOT text of Z_n's zero-divisor graph, from the class rule,
    in chunks of whole lines: a vertex statement or a vertex's edges.  Every
    edge appears once, smaller end first; n is checked now, as build_explicit
    checks it.  With color_by_class, a class's vertices share a fill color
    (HSV, spread over the class list).
    """
    f = factorize(n)
    explicit_size(f)
    return _dot_chunks(n, [d for d, _ in compress(f).classes], color_by_class)


def _dot_chunks(n: int, classes: list[int], color: bool) -> Iterator[str]:
    yield f"graph zdg_{n} {{\n"
    k = len(classes)
    fill = {
        d: f' [style=filled, fillcolor="{i / k:.3f} 0.450 0.950"]' * color
        for i, d in enumerate(classes)
    }
    vertices = sorted(v for d in classes for v in class_members(n, d))
    for v in vertices:
        yield f"  {v}{fill[gcd(v, n)]};\n"
    for u in vertices:
        m = n // gcd(u, n)  # u's neighbors: the multiples of m, u aside
        yield "".join(f"  {u} -- {w};\n" for w in range(u + m - u % m, n, m))
    yield "}\n"
