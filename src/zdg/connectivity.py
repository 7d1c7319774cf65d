"""Exact connectivity of explicit graphs by max-flow: the flow oracle.

This module reads no divisor-class structure and imports nothing from
the rest of zdg, so it stays independent of the module argument the
quotient engine (quotient.quotient_report) rests on; it is the oracle that
engine is tested against.  min_degree, edge_connectivity and
vertex_connectivity take an explicit graph; the last two run flows with
unit edge or vertex capacities, by shortest augmenting paths.  A flow
that ends below its cutoff leaves its last, failed search as the
witness: the source side of the minimum cut closest to the source.
Vertex connectivity is the Menger minimum over a sufficient pair family
rooted at a minimum-degree vertex: its non-neighbors, then the
non-adjacent pairs inside its neighborhood (Esfahanian & Hakimi,
Networks 14, 1984).  That family is walked once, as one sequence, and
each shortcut is a filter on it.  Edge connectivity is the minimum of s-t
max-flows from a fixed minimum-degree source; targets are restricted to a
dominating set, which preserves exactness (a cut smaller than the
minimum degree strands a dominated vertex on each side) while cutting
the flow count by orders of magnitude.  Cheap certified bounds
(connectedness, articulation points, common-neighbor counts)
short-circuit flows whose value provably cannot lower the running
minimum; the returned values are exactly the Menger minima either way.
"""
from __future__ import annotations

from itertools import chain, combinations


class _View:
    """Index-based adjacency snapshot of a graph-like object."""

    __slots__ = ("verts", "nbrs", "degs")

    def __init__(self, g):
        if not g.vertices:
            raise ValueError("graph has no vertices")
        self.verts = list(g.vertices)
        index = {v: i for i, v in enumerate(self.verts)}
        self.nbrs = [[index[w] for w in g.adjacency[v]] for v in self.verts]
        self.degs = [len(a) for a in self.nbrs]


def min_degree(g) -> int:
    """Smallest vertex degree; 0 for a single-vertex graph."""
    if not g.vertices:
        raise ValueError("graph has no vertices")
    return min(len(g.adjacency[v]) for v in g.vertices)


class _FlowNet:
    """Shortest augmenting paths (Edmonds & Karp, J. ACM 19, 1972) on
    integer capacities, with arc-level undo.

    Arcs are stored flat; arc a and a^1 are mutual reverses.  max_flow
    pushes each path's bottleneck, capped so the flow never passes the
    cutoff, and stops as soon as it reaches the cutoff, recording touched
    arcs so a caller can roll back cheaply.
    """

    __slots__ = ("adj", "to", "cap", "init_cap")

    def __init__(self, num_nodes: int):
        self.adj: list[list[int]] = [[] for _ in range(num_nodes)]
        self.to: list[int] = []
        self.cap: list[int] = []
        self.init_cap: list[int] = []

    def add_pair(self, u: int, v: int, cap_uv: int, cap_vu: int) -> None:
        a = len(self.to)
        self.to.append(v)
        self.cap.append(cap_uv)
        self.to.append(u)
        self.cap.append(cap_vu)
        self.adj[u].append(a)
        self.adj[v].append(a + 1)

    def freeze(self) -> None:
        self.init_cap = self.cap[:]

    def restore(self, dirty: list[int]) -> None:
        cap, init = self.cap, self.init_cap
        for a in dirty:
            cap[a] = init[a]
            cap[a ^ 1] = init[a ^ 1]

    def max_flow(
        self, s: int, t: int, cutoff: int, dirty: list[int]
    ) -> tuple[int, dict[int, int]]:
        """Flow from s to t, at most cutoff, and the nodes the last search
        reached.

        Each search is a breadth-first search over residual arcs that stops
        once t is reached.  When the flow ends below cutoff, the last search
        failed, and the nodes it reached are the source side of the minimum
        cut closest to s, which is the same for every maximum flow.
        """
        adj, to, cap = self.adj, self.to, self.cap
        flow = 0
        while True:
            via = {s: -1}  # node -> residual arc that reached it
            queue = [s]
            for u in queue:
                for a in adj[u]:
                    if cap[a] > 0:
                        w = to[a]
                        if w not in via:
                            via[w] = a
                            queue.append(w)
                if t in via:
                    break
            else:
                return flow, via
            path = []
            w = t
            while w != s:
                a = via[w]
                path.append(a)
                w = to[a ^ 1]
            push = min(cutoff - flow, min(cap[a] for a in path))
            for a in path:
                cap[a] -= push
                cap[a ^ 1] += push
                dirty.append(a)
            flow += push
            if flow >= cutoff:
                return flow, via


def _min_degree_root(view: _View) -> int:
    best = 0
    for i in range(1, len(view.verts)):
        if view.degs[i] < view.degs[best]:
            best = i
    return best


def _smallest_articulation(view: _View) -> int | None:
    """Smallest articulation vertex of a connected graph, or None."""
    nv = len(view.verts)
    nbrs = view.nbrs
    parent = [-1] * nv
    disc = [0] * nv
    low = [0] * nv
    disc[0] = low[0] = 1
    timer = 1
    stack: list[tuple[int, int]] = [(0, 0)]
    root_children = 0
    arts: list[int] = []
    while stack:
        u, pos = stack[-1]
        if pos < len(nbrs[u]):
            stack[-1] = (u, pos + 1)
            w = nbrs[u][pos]
            if disc[w] == 0:
                parent[w] = u
                timer += 1
                disc[w] = low[w] = timer
                stack.append((w, 0))
            elif w != parent[u] and disc[w] < low[u]:
                low[u] = disc[w]
        else:
            stack.pop()
            p = parent[u]
            if p >= 0:
                if low[u] < low[p]:
                    low[p] = low[u]
                if p == 0:
                    root_children += 1
                elif low[u] >= disc[p]:
                    arts.append(p)
    if root_children > 1:
        arts.append(0)
    return min(arts) if arts else None


def _sorted_edge(u: int, w: int) -> tuple[int, int]:
    return (u, w) if u < w else (w, u)


def _dominating_set(view: _View, root: int) -> list[int]:
    """Greedy dominating set that starts at root; deterministic tie-break."""
    nv = len(view.verts)
    uncovered = set(range(nv))
    chosen = [root]
    uncovered.discard(root)
    uncovered.difference_update(view.nbrs[root])
    while uncovered:
        best_i = -1
        best_cover = 0
        for i in range(nv):
            cover = 1 if i in uncovered else 0
            for j in view.nbrs[i]:
                if j in uncovered:
                    cover += 1
            if cover > best_cover:
                best_cover = cover
                best_i = i
        chosen.append(best_i)
        uncovered.discard(best_i)
        uncovered.difference_update(view.nbrs[best_i])
    return chosen


def _splittable(view: _View) -> bool:
    """Connected with two or more vertices; any other graph has 0 for both."""
    seen = bytearray(len(view.verts))
    seen[0] = 1
    queue = [0]
    for u in queue:
        for w in view.nbrs[u]:
            if not seen[w]:
                seen[w] = 1
                queue.append(w)
    return len(queue) == len(view.verts) > 1


def edge_connectivity(g) -> tuple[int, tuple[tuple[int, int], ...]]:
    """Exact edge connectivity with a witness edge cut.

    Returns 0 with an empty witness for disconnected or single-vertex
    graphs.  Flow targets range over a dominating set of the source, which
    is sufficient: were some cut smaller than every computed flow and the
    minimum degree, each of its sides would contain a vertex whose whole
    closed neighborhood sits inside that side, and the dominating set
    would have to meet both sides.
    """
    view = _View(g)
    if not _splittable(view):
        return 0, ()
    nv = len(view.verts)
    si = _min_degree_root(view)
    best = view.degs[si]
    s_res = view.verts[si]
    witness = tuple(
        sorted(_sorted_edge(s_res, view.verts[j]) for j in view.nbrs[si])
    )
    if best <= 1:
        return best, witness  # connected, so 1 is already exact
    net = _FlowNet(nv)
    for i in range(nv):
        for j in view.nbrs[i]:
            if i < j:
                net.add_pair(i, j, 1, 1)
    net.freeze()
    for ti in _dominating_set(view, si)[1:]:
        dirty: list[int] = []
        flow, reached = net.max_flow(si, ti, best, dirty)
        if flow < best:
            best = flow
            witness = tuple(
                sorted(
                    _sorted_edge(view.verts[i], view.verts[j])
                    for i in range(nv)
                    for j in view.nbrs[i]
                    if i < j and (i in reached) != (j in reached)
                )
            )
        net.restore(dirty)
        if best <= 1:
            break
    return best, witness


def _split_network(view: _View) -> _FlowNet:
    """Vertex-split flow network: node 2i is i's in-side, 2i+1 its out-side.

    Edge arcs get capacity nv, more than any cut, so a minimum cut crosses
    only in-to-out arcs and names every vertex of the witness.
    """
    nv = len(view.verts)
    net = _FlowNet(2 * nv)
    for i in range(nv):
        net.add_pair(2 * i, 2 * i + 1, 1, 0)
    for i in range(nv):
        for j in view.nbrs[i]:
            if i < j:
                net.add_pair(2 * i + 1, 2 * j, nv, 0)
                net.add_pair(2 * j + 1, 2 * i, nv, 0)
    net.freeze()
    return net


def vertex_connectivity(g) -> tuple[int, tuple[int, ...]]:
    """Exact vertex connectivity with a witness cut.

    Conventions: 0 for disconnected or single-vertex graphs; a complete
    graph on m vertices yields m - 1 (deleting the witness leaves K_1).
    """
    view = _View(g)
    if not _splittable(view):
        return 0, ()
    nv = len(view.verts)
    num_edges = sum(view.degs) // 2
    if 2 * num_edges == nv * (nv - 1):
        return nv - 1, tuple(view.verts[: nv - 1])
    # connected and not complete, so nv >= 3 and some cut exists
    si = _min_degree_root(view)
    root_nbrs = view.nbrs[si]
    if len(root_nbrs) == 1:
        return 1, (view.verts[root_nbrs[0]],)
    ap = _smallest_articulation(view)
    if ap is not None:
        return 1, (view.verts[ap],)
    best = len(root_nbrs)
    witness = tuple(view.verts[j] for j in root_nbrs)
    nbr_sets = [set(a) for a in view.nbrs]
    pairs = chain(
        ((si, b) for b in range(nv) if b != si and b not in nbr_sets[si]),
        ((x, y) for x, y in combinations(root_nbrs, 2) if y not in nbr_sets[x]),
    )
    net = None  # built by the first flow the common-neighbor count allows
    for a, b in pairs:
        if best <= 2:
            break  # biconnected, so 2 is exact
        if len(nbr_sets[a] & nbr_sets[b]) >= best:
            continue  # that many disjoint 2-paths already
        if net is None:
            net = _split_network(view)
        dirty: list[int] = []
        flow, reached = net.max_flow(2 * a + 1, 2 * b, best, dirty)
        if flow < best:
            best = flow
            witness = tuple(
                view.verts[i]
                for i in range(nv)
                if 2 * i in reached and 2 * i + 1 not in reached
            )
        net.restore(dirty)
    return best, witness
