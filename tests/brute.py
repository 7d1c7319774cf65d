"""Brute-force connectivity, the reference the flow engine is tested against.

Kept deliberately separate from the package: it deletes every vertex or
edge subset in increasing size and checks what is left by breadth-first
search, sharing no code with zdg.connectivity.
"""
from __future__ import annotations

from itertools import combinations


def _alive_connected(verts, adj, dead_verts=frozenset(), dead_edges=frozenset()):
    alive = [v for v in verts if v not in dead_verts]
    if len(alive) <= 1:
        return True
    seen = {alive[0]}
    queue = [alive[0]]
    for u in queue:
        for w in adj[u]:
            if w in dead_verts or w in seen:
                continue
            if ((u, w) if u < w else (w, u)) in dead_edges:
                continue
            seen.add(w)
            queue.append(w)
    return len(seen) == len(alive)


def _brute_kappa(g) -> int:
    verts = list(g.vertices)
    if len(verts) == 1:
        return 0
    for k in range(len(verts)):
        for cut in combinations(verts, k):
            if len(verts) - k == 1:
                return k
            if not _alive_connected(verts, g.adjacency, frozenset(cut)):
                return k
    raise AssertionError("unreachable")


def _brute_kappa_e(g) -> int:
    verts = list(g.vertices)
    if len(verts) == 1:
        return 0
    edges = sorted((u, w) for u in verts for w in g.adjacency[u] if u < w)
    for k in range(len(edges) + 1):
        for cut in combinations(edges, k):
            if not _alive_connected(verts, g.adjacency, frozenset(), frozenset(cut)):
                return k
    raise AssertionError("unreachable")
