"""The quotient engine and the explicit-graph size guard: the pipeline's
half of the zero-divisor graph of Z_n.

Vertices of the zero-divisor graph (the nonzero residues v with
gcd(v, n) > 1) group into divisor classes d = gcd(v, n), and a class-d
vertex is adjacent to exactly the nonzero multiples of n/d other than
itself (Anderson & Livingston, J. Algebra 217, 1999).  divisor_classes
lists the classes with their sizes from the factorization alone, in time
linear in the number of divisors of n, for any n up to 2^63 - 1.

quotient_report, the engine analyze, sweep and audit run, reads only
this class rule and builds no graph.  One pass over the classes in any
order certifies kappa = kappa_e = delta, each class being a module, and
names the witness cuts by class.  graph_size counts the graph in
O(primes), so explicit_size, the one guard that decides which n are
refused, builds no class.  The explicit graph, the flow oracle's input,
and the DOT export live in zdg.graphs, which no pipeline command imports.
"""
from __future__ import annotations

from collections.abc import Iterable
from typing import NamedTuple

from .arith import Factorization
from .errors import CertificateError, NoZeroDivisorsError, ResourceLimitError

# Guards for materializing the explicit graph.
MAX_EXPLICIT_VERTICES = 200_000
MAX_EXPLICIT_EDGES = 50_000_000


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


class QuotientReport(NamedTuple):
    """quotient_report's values, with its witness named by class.

    delta is also kappa_e and kappa, which quotient_report certifies equal
    to it.  root is the class of degree delta (no two classes share one),
    and it names both cuts.  The edge cut joins the residue root to its
    neighbors, the other members of class n/root, and the first delta
    members of that class are the vertex cut (for n = p^2 that class is
    the whole, complete graph).
    graphs.residue_witnesses expands both cuts to residues.
    """

    n: int
    num_vertices: int
    num_edges: int
    delta: int
    root: int


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
        degree = d - 1 - (d * d % n == 0)  # as graphs._class_degree(n, d)
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
