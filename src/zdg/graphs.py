"""Zero-divisor graphs of Z_n, explicit and compressed.

The explicit graph puts a vertex on every nonzero zero divisor of Z_n
(residues v with gcd(v, n) > 1) and an edge between u != w whenever
u*w = 0 (mod n).  Vertices group into divisor classes d = gcd(v, n), and
each class has a closed form (Anderson & Livingston, J. Algebra 217,
1999): a vertex x in class d is adjacent to exactly the nonzero multiples
of n/d other than x itself.  So every class-d vertex has degree
d - 1 - [n | d^2], and its neighbors are range(n/d, n, n/d) without x.
Sizes and degrees therefore come from the factorization of n alone and
cost time linear in the number of divisors of n, for any n up to
2^63 - 1, without touching individual residues.  The graph's size takes
O(primes) (graph_size), so the explicit-graph guard builds no class.

quotient_report, the engine analyze, sweep and audit run, and export_dot
read only this class rule and build no graph.  One pass over the classes
in any order certifies kappa = kappa_e = delta, each class being a
module, and names the witness cuts by class (residue_witnesses expands
them).  The engine runs no flow; connectivity is its oracle, on the
graph build_explicit makes.  build_explicit and degree_profile serve the
oracle and the tests; the package root does not export them.
"""
from __future__ import annotations

from collections.abc import Iterable, Iterator
from math import gcd
from typing import NamedTuple

from .arith import Factorization, factorize
from .errors import CertificateError, NoZeroDivisorsError, ResourceLimitError

# Guards for materializing the explicit graph.
MAX_EXPLICIT_VERTICES = 200_000
MAX_EXPLICIT_EDGES = 50_000_000


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


def divisor_classes(f: Factorization) -> list[tuple[int, int]]:
    """(d, totient(n/d)) for every proper divisor 1 < d < n, in the order
    the prime-power product makes them; none for n = 1 or n prime."""
    # (d, totient(n/d)) over all divisors d, one prime p^a at a time: p^b in
    # d leaves p^(a-b) in n/d, whose totient is (p-1)*p^(a-b-1), or 1 if b = a
    pairs = [(1, 1)]
    for p, a in f.factors:
        if a == 1:  # most primes of most n: the loop's two pairs, unlooped
            powers = ((1, p - 1), (p, 1))
        else:
            q, t, powers = 1, (p - 1) * p ** (a - 1), []
            for _ in range(a):
                powers.append((q, t))
                q *= p
                t //= p
            powers.append((q, 1))
        pairs = [(d * q, t * s) for d, t in pairs for q, s in powers]
    return pairs[1:-1]  # the product makes d = 1 first and d = n last


def _no_zero_divisors(n: int) -> NoZeroDivisorsError:
    return NoZeroDivisorsError(
        f"Z_{n} has no nonzero zero divisors; need composite n >= 4"
    )


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


class QuotientReport(NamedTuple):
    """quotient_report's values, with its witness named by class.

    delta is also kappa_e and kappa, which quotient_report certifies equal
    to it.  root is the class of degree delta (no two classes share one),
    and it names both cuts.  The edge cut joins the residue root to its
    neighbors, the other members of class n/root, and the first delta
    members of that class are the vertex cut (for n = p^2 that class is
    the whole, complete graph).
    residue_witnesses expands both cuts to residues.
    """

    n: int
    num_vertices: int
    num_edges: int
    delta: int
    root: int


def residue_witnesses(
    rep: QuotientReport,
) -> tuple[tuple[int, ...], tuple[tuple[int, int], ...]]:
    """rep's vertex and edge cut in residues, in the flow oracle's form."""
    members, r = class_members(rep.n, rep.n // rep.root), rep.root
    edges = ((min(r, v), max(r, v)) for v in members if v != r)
    return tuple(members[: rep.delta]), tuple(sorted(edges))


def quotient_report(n: int, classes: Iterable[tuple[int, int]]) -> QuotientReport:
    """delta of Z_n's zero-divisor graph from its classes, certified equal
    to kappa_e and kappa.

    classes yields (d, size) for a set of proper divisors d of n, each at
    most once, with any sizes, in any order; any iterable of pairs serves,
    as it is read once, into a dict from d to size.  No flow runs and no
    class adjacency is built.  Each class is a module: its members are
    twins, and it is an independent set or a clique (Anderson & Livingston,
    J. Algebra 217, 1999).  A minimum separator of non-adjacent u and v is
    therefore their shared neighborhood (u, v in one class, size >= delta)
    or a nonempty union of whole classes (size >= the smallest class).  So
    once the class graph is certified connected and no class is smaller
    than delta, kappa >= delta; the root's star gives kappa <= delta, and
    Whitney's chain kappa <= kappa_e <= delta gives kappa_e = delta.
    Raises CertificateError, naming the smallest class at fault, when a
    certificate fails, and NoZeroDivisorsError when there is no class
    (n = 1 or n prime).  The witness is returned as its root class
    (QuotientReport).

    Connectedness goes through the hub L = n/p, p the smallest class.
    Classes d and e are adjacent when n | d*e, so a class d != L is joined
    to L directly when n | d*L, and otherwise through the class n/d.
    """
    present = dict(classes)  # read once: walked twice, and looked up by d
    if not present:
        raise _no_zero_divisors(n)
    hub = n // min(present)
    hub_present = hub in present
    num_vertices = ends = 0
    delta = smallest = root = stranded = n  # above every degree, size, class
    for d, size in present.items():
        degree = d - 1 - (d * d % n == 0)  # _class_degree(n, d), inlined
        num_vertices += size
        ends += size * degree
        # no tie: deg d = deg (d + 1) needs n | (d + 1)^2, so gcd(d, n) = 1
        if degree < delta:
            delta, root = degree, d
        if size < smallest:
            smallest = size
        # d = hub passes: n // hub = min(present) is present, times hub is n
        if d < stranded and not (
            hub_present
            and (d * hub % n == 0 or n // d in present and n // d * hub % n == 0)
        ):
            stranded = d
    if stranded < n:
        raise CertificateError(
            f"n={n}: class {stranded} reaches class {hub} neither directly nor "
            f"through class {n // stranded}, so connectedness is not certified"
        )
    # no exemption for K_m: n = p^2 has one class, of p - 1 > delta members
    if smallest < delta:
        small_class = min(d for d, size in present.items() if size == smallest)
        raise CertificateError(
            f"n={n}: smallest class {small_class} has size {smallest} < "
            f"delta={delta}, so kappa = delta is not certified"
        )
    return QuotientReport(n, num_vertices, ends // 2, delta, root)


def graph_size(f: Factorization) -> tuple[int, int]:
    """Vertex and edge count of Z_n's zero-divisor graph, from n's primes.

    Vertices are the n - 1 - phi(n) nonzero non-units.  Edges are
    (T - 2n - S + 2) / 2: of the T = prod((a+1) p^a - a p^(a-1)) ordered
    pairs with xy = 0, drop the 2n - 1 with a zero entry and the S - 1
    nonzero x with x^2 = 0, S = prod(p^(a//2)); each edge is left twice.
    """
    phi = pairs = squares = 1
    for p, a in f.factors:
        phi *= (p - 1) * p ** (a - 1)
        pairs *= (a + 1) * p**a - a * p ** (a - 1)
        squares *= p ** (a // 2)
    return f.n - 1 - phi, (pairs - 2 * f.n - squares + 2) // 2


def explicit_size(f: Factorization) -> tuple[int, int]:
    """Vertex and edge count of the explicit graph, if it may be built.

    Raises ResourceLimitError when the graph would exceed
    MAX_EXPLICIT_VERTICES vertices or MAX_EXPLICIT_EDGES edges.  This is
    the one guard that decides which n are refused, whether or not the
    graph is then materialized; it costs O(primes) and builds no class.
    """
    num_vertices, num_edges = graph_size(f)
    if num_vertices > MAX_EXPLICIT_VERTICES:
        raise ResourceLimitError(
            f"n={f.n}: {num_vertices} vertices exceed the explicit-graph limit "
            f"of {MAX_EXPLICIT_VERTICES}"
        )
    if num_edges > MAX_EXPLICIT_EDGES:
        raise ResourceLimitError(
            f"n={f.n}: {num_edges} edges exceed the explicit-graph limit "
            f"of {MAX_EXPLICIT_EDGES}"
        )
    return num_vertices, num_edges


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
