"""Connectivity: flow-based exact values, brute-force cross-checks, witnesses."""
from __future__ import annotations

import ast
import hashlib
import random
import time
from itertools import combinations
from math import gcd
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import zdg.connectivity as connectivity
from zdg.arith import factorize
from zdg.connectivity import (
    _FlowNet,
    edge_connectivity,
    min_degree,
    vertex_connectivity,
)
from zdg.errors import CertificateError, ResourceLimitError
from zdg.formulas import (
    predict,
    predict_edge_connectivity,
    predict_min_degree,
    predict_vertex_connectivity,
)
from zdg.graphs import (
    build_compressed,
    build_explicit,
    divisor_classes,
    explicit_size,
    quotient_report,
    residue_witnesses,
)

from brute import _alive_connected, _brute_kappa, _brute_kappa_e

PROPERTY_SETTINGS = settings(
    max_examples=120,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)

composite_mid = st.integers(min_value=4, max_value=300).filter(
    lambda n: factorize(n).is_composite()
)


# -- basics --


@pytest.mark.parametrize(
    "entry",
    [min_degree, edge_connectivity, vertex_connectivity],
    ids=lambda f: f.__name__,
)
def test_empty_graph_rejected(entry):
    with pytest.raises(ValueError, match="^graph has no vertices$"):
        entry(SimpleNamespace(n=0, vertices=(), adjacency={}))


def test_flow_oracle_imports_nothing_from_zdg():
    # the oracle stays independent of the class rule the quotient engine
    # rests on because it cannot import it
    tree = ast.parse(Path(connectivity.__file__).read_text())
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            imported.append("." * node.level + (node.module or ""))
        elif isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
    internal = [m for m in imported if m.startswith((".", "zdg.")) or m == "zdg"]
    assert internal == []


def test_min_degree():
    assert min_degree(build_explicit(25)) == 3
    assert min_degree(build_explicit(12)) == 1
    assert min_degree(build_explicit(4)) == 0


# -- frozen values --


def test_vertex_connectivity_known_values():
    assert vertex_connectivity(build_explicit(4)) == (0, ())
    assert vertex_connectivity(build_explicit(9)) == (1, (3,))
    assert vertex_connectivity(build_explicit(12)) == (1, (6,))
    assert vertex_connectivity(build_explicit(25)) == (3, (5, 10, 15))
    assert vertex_connectivity(build_explicit(27))[0] == 2
    assert vertex_connectivity(build_explicit(30)) == (1, (15,))
    assert vertex_connectivity(build_explicit(105)) == (2, (35, 70))


def test_edge_connectivity_known_values():
    assert edge_connectivity(build_explicit(4)) == (0, ())
    assert edge_connectivity(build_explicit(8)) == (1, ((2, 4),))
    assert edge_connectivity(build_explicit(9)) == (1, ((3, 6),))
    assert edge_connectivity(build_explicit(27))[0] == 2
    assert edge_connectivity(build_explicit(25)) == (3, ((5, 10), (5, 15), (5, 20)))
    assert edge_connectivity(build_explicit(30)) == (1, ((2, 15),))
    assert edge_connectivity(build_explicit(105)) == (2, ((3, 35), (3, 70)))


def test_exhaustive_known_values():
    # the brute-force reference itself, on values known by hand
    assert _brute_kappa(build_explicit(8)) == 1
    assert _brute_kappa(build_explicit(9)) == 1
    assert _brute_kappa(build_explicit(25)) == 3
    assert _brute_kappa(build_explicit(30)) == 1
    assert _brute_kappa_e(build_explicit(8)) == 1
    assert _brute_kappa_e(build_explicit(25)) == 3
    assert _brute_kappa_e(build_explicit(27)) == 2


def _oracle_values(g) -> tuple[int, int, int, int, int]:
    """Vertex count, edge count, delta, kappa_e and kappa of g, the edges
    counted from its adjacency lists and the rest by the flow oracle."""
    return (
        len(g.vertices),
        sum(len(a) for a in g.adjacency.values()) // 2,
        min_degree(g),
        edge_connectivity(g)[0],
        vertex_connectivity(g)[0],
    )


def test_connectivity_report_z12():
    g = build_explicit(12)
    assert g.n == 12
    assert _oracle_values(g) == (7, 8, 1, 1, 1)
    assert vertex_connectivity(g)[1] == (6,)
    assert edge_connectivity(g)[1] == ((2, 6),)


def test_connectivity_report_z25():
    assert _oracle_values(build_explicit(25)) == (4, 6, 3, 3, 3)


def test_flow_net_pushes_bottlenecks():
    # CLRS figure 26.1: max flow 23, min cut {s, v1, v2, v4}
    arcs = ((0, 1, 16), (0, 2, 13), (1, 3, 12), (2, 1, 4), (2, 4, 14),
            (3, 2, 9), (3, 5, 20), (4, 3, 7), (4, 5, 4))
    net = _FlowNet(6)
    for u, v, cap in arcs:
        net.add_pair(u, v, cap, 0)
    net.freeze()
    dirty: list[int] = []
    flow, reached = net.max_flow(0, 5, 1 << 62, dirty)
    assert flow == 23
    assert sorted(reached) == [0, 1, 2, 4]
    assert sum(c for u, v, c in arcs if u in reached and v not in reached) == 23
    net.restore(dirty)
    assert net.cap == net.init_cap
    for cutoff in (1, 10, 22):
        dirty = []
        assert net.max_flow(0, 5, cutoff, dirty)[0] == cutoff
        net.restore(dirty)
        assert net.cap == net.init_cap


def test_flow_net_reaches_cut_closest_to_source():
    # s -> a -> t has two minimum cuts, {s} | {a, t} and {s, a} | {t};
    # witnesses are read from the one closest to s
    net = _FlowNet(3)
    net.add_pair(0, 1, 1, 0)
    net.add_pair(1, 2, 1, 0)
    net.freeze()
    flow, reached = net.max_flow(0, 2, 1 << 62, [])
    assert flow == 1
    assert sorted(reached) == [0]


def test_quotient_matches_explicit_to_1500():
    # the explicit engine is the oracle for the quotient engine analyze runs
    for n in range(4, 1501):
        if not factorize(n).is_composite():
            continue
        g = build_explicit(n)
        quo = quotient_report(*build_compressed(n))
        vcut, ecut = residue_witnesses(quo)
        assert (quo.num_vertices, quo.num_edges) + (quo.delta,) * 3 == (
            _oracle_values(g)
        ), n
        verts = list(g.vertices)
        assert len(set(vcut)) == len(vcut) == quo.delta, n
        assert set(vcut) <= set(verts), n
        assert len(verts) - quo.delta == 1 or not _alive_connected(
            verts, g.adjacency, frozenset(vcut)
        ), n
        assert len(set(ecut)) == len(ecut) == quo.delta, n
        assert all(w in g.adjacency[u] for u, w in ecut), n
        assert len(verts) == 1 or not _alive_connected(
            verts, g.adjacency, frozenset(), frozenset(ecut)
        ), n


def test_explicit_matches_networkx_61_to_150():
    # a third, independent oracle for the explicit engine past the
    # brute-force cross-check of acceptance criterion 7 (4..60)
    nx = pytest.importorskip("networkx")
    for n in range(61, 151):
        if not factorize(n).is_composite():
            continue
        g = build_explicit(n)
        h = nx.Graph((u, w) for u in g.vertices for w in g.adjacency[u] if u < w)
        h.add_nodes_from(g.vertices)
        assert (nx.node_connectivity(h), nx.edge_connectivity(h)) == (
            vertex_connectivity(g)[0],
            edge_connectivity(g)[0],
        ), n


def test_quotient_report_witnesses():
    rep = quotient_report(*build_compressed(105))
    assert rep.delta == 2
    assert rep.root == 3
    assert residue_witnesses(rep) == ((35, 70), ((3, 35), (3, 70)))
    rep = quotient_report(*build_compressed(25))  # K_4
    assert rep.root == 5
    assert residue_witnesses(rep)[0] == (5, 10, 15)
    rep = quotient_report(*build_compressed(4))  # K_1
    assert (rep.num_vertices, rep.delta) == (1, 0)
    assert residue_witnesses(rep) == ((), ())


def test_residue_witnesses_pinned_to_60000():
    # sha256 of the residue witness_vertex_cut and witness_edge_cut that
    # quotient_report returned while it built them itself, on every
    # composite the explicit-graph guard admits
    digest = hashlib.sha256()
    for n in range(4, 60001):
        f = factorize(n)
        if not f.is_composite():
            continue
        try:
            explicit_size(f)
        except ResourceLimitError:
            continue
        rep = quotient_report(*build_compressed(n))
        # the engine's class witness is the closed form's: predict(f)
        # multiples of n/p, p the smallest prime
        assert (rep.root, rep.delta) == (f.factors[0][0], predict(f)[0]), n
        vcut, ecut = residue_witnesses(rep)
        digest.update(f"{n}:{vcut}:{ecut}\n".encode())
    assert digest.hexdigest() == (
        "91a8af36aa8d7cd0b2331a8c71a8da8be97cb2707156c3a71406acc9b9a00384"
    )


def _shuffled(classes, seed=0):
    classes = list(classes)
    random.Random(seed).shuffle(classes)
    return classes


@pytest.mark.parametrize(
    "n, planted, small_class",
    [
        # class 21 of Z_105 weighted 1 instead of 4 is a separator of
        # classes 3 and 5 smaller than delta = 2, which no zero-divisor
        # graph has
        (105, [(3, 24), (5, 12), (7, 8), (15, 6), (21, 1), (35, 2)], 21),
        # 3 vertices with degree sums 14 and 10, so no simple graph, though
        # delta = 2 = m - 1 is the minimum degree of the complete graph K_3
        (21, [(7, 2), (3, 1)], 3),
        (16, [(4, 2), (8, 1)], 8),
    ],
    ids=["105", "21", "16"],
)
def test_quotient_refuses_small_class(n, planted, small_class):
    # the kappa >= delta certificate fails, and the engine must raise
    # rather than report an uncertified value
    with pytest.raises(CertificateError) as err:
        quotient_report(n, _shuffled(planted))
    assert str(err.value) == (
        f"n={n}: smallest class {small_class} has size 1 < delta=2, "
        "so kappa = delta is not certified"
    )


def test_quotient_check_survives_optimize(run_optimized):
    # the smallest-class certificate must raise under -O as well
    proc = run_optimized(
        "import sys\n"
        "import random\n"
        "from zdg.errors import CertificateError\n"
        "from zdg.graphs import build_compressed, quotient_report\n"
        "c = build_compressed(105)\n"
        "sizes = [(d, 1 if d == 21 else k) for d, k in c.classes]\n"
        "random.Random(0).shuffle(sizes)\n"
        "try:\n"
        "    quotient_report(105, sizes)\n"
        "except CertificateError as err:\n"
        "    print(sys.flags.optimize, err)\n"
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (
        "1 n=105: smallest class 21 has size 1 < delta=2, "
        "so kappa = delta is not certified\n"
    )


@pytest.mark.parametrize(
    "dropped, stranded",
    [
        ((15,), 7),  # class 7's one neighbor is 15 = 105/7
        ((35,), 3),  # class 3's one neighbor is the hub L = 105/3 = 35
        ((15, 35), 3),
    ],
)
def test_quotient_refuses_disconnected_classes(dropped, stranded):
    c = build_compressed(105)
    planted = [(d, size) for d, size in c.classes if d not in dropped]
    with pytest.raises(CertificateError) as err:
        quotient_report(105, _shuffled(planted))
    assert str(err.value) == (
        f"n=105: class {stranded} reaches class 35 neither directly nor "
        f"through class {105 // stranded}, so connectedness is not certified"
    )


_MANY_CLASSES = [
    3**2 * 5**2 * 7**2 * 11 * 13 * 17 * 19 * 23,  # 862 classes, delta = 2
    963761198400,  # 6718 classes, delta = 1
    5**3 * 7**2 * 11 * 13 * 17 * 19,
    997**3,  # delta = 996
]


@pytest.mark.parametrize("n", _MANY_CLASSES)
def test_quotient_report_is_linear_in_classes(n):
    # the first two took seconds when the engine built class adjacency
    # and ran flows
    c = build_compressed(n)
    t0 = time.perf_counter()
    rep = quotient_report(*c)
    assert time.perf_counter() - t0 < 0.5
    f = factorize(n)
    assert (rep.delta,) * 3 == (
        predict_min_degree(f).value,
        predict_edge_connectivity(f).value,
        predict_vertex_connectivity(f).value,
    )
    vcut, ecut = residue_witnesses(rep)
    assert len(set(vcut)) == len(vcut) == rep.delta
    assert all(0 < v < n and gcd(v, n) > 1 for v in vcut)
    assert len(set(ecut)) == len(ecut) == rep.delta
    assert all(u != w and u * w % n == 0 for u, w in ecut)


def test_quotient_report_ignores_class_order():
    # analyze passes the classes in the order divisor_classes makes them
    for n in [*range(4, 1501), *_MANY_CLASSES]:
        f = factorize(n)
        if not f.is_composite():
            continue
        ascending = quotient_report(*build_compressed(n))
        classes = divisor_classes(f)
        assert quotient_report(n, classes) == ascending, n
        assert quotient_report(n, _shuffled(classes, n)) == ascending, n
        # read once, so a one-shot iterator gives the same report
        assert quotient_report(n, iter(classes)) == ascending, n
        assert quotient_report(n, (c for c in classes)) == ascending, n


def test_deterministic_output():
    g = build_explicit(105)
    assert vertex_connectivity(g) == vertex_connectivity(g)
    assert edge_connectivity(g) == edge_connectivity(g)


def test_explicit_reports_pinned():
    # witnesses included; zero-divisor graphs have kappa = delta, so no flow
    # finds a cut here: each witness is a star or a complete graph's prefix.
    # Each line is the repr of the ConnectivityReport record the oracle
    # returned when it had one, so the pin keeps that record's digest
    digest = hashlib.sha256()
    for n in range(4, 401):
        if factorize(n).is_composite():
            g = build_explicit(n)
            ne = sum(len(a) for a in g.adjacency.values()) // 2
            kappa_e, ecut = edge_connectivity(g)
            kappa, vcut = vertex_connectivity(g)
            digest.update(
                f"ConnectivityReport(n={n}, num_vertices={len(g.vertices)}, "
                f"num_edges={ne}, delta={min_degree(g)}, kappa_e={kappa_e}, "
                f"kappa={kappa}, witness_vertex_cut={vcut!r}, "
                f"witness_edge_cut={ecut!r})".encode()
            )
    assert digest.hexdigest() == (
        "4cf20f779f418ede7613c5d2f9b7c7ccfc13fc4837471a44125c44a73ac1cdbb"
    )


def _two_block_graph(rng: random.Random) -> SimpleNamespace:
    sizes = (rng.randint(4, 12), rng.randint(4, 12))
    nv = sum(sizes)
    blocks = (range(sizes[0]), range(sizes[0], nv))
    adj: dict[int, set[int]] = {i: set() for i in range(nv)}
    for block in blocks:
        for i, j in combinations(block, 2):
            if rng.random() < 0.85:
                adj[i].add(j)
                adj[j].add(i)
    for _ in range(rng.randint(2, 6)):
        i, j = rng.choice(blocks[0]), rng.choice(blocks[1])
        adj[i].add(j)
        adj[j].add(i)
    return SimpleNamespace(
        vertices=tuple(3 * i + 1 for i in range(nv)),
        adjacency={
            3 * i + 1: tuple(sorted(3 * j + 1 for j in adj[i])) for i in range(nv)
        },
    )


def test_flow_cuts_pinned():
    # two dense blocks joined by a few links: here the flows, not the
    # shortcuts, find the cuts below delta, and their witnesses are pinned
    # after each one is replayed
    rng = random.Random(7)
    digest = hashlib.sha256()
    edge_cuts = vertex_cuts = 0
    for _ in range(300):
        g = _two_block_graph(rng)
        kappa_e, kappa = edge_connectivity(g), vertex_connectivity(g)
        digest.update(repr((kappa_e, kappa)).encode())
        verts = list(g.vertices)
        assert len(set(kappa[1])) == kappa[0], kappa
        assert not _alive_connected(verts, g.adjacency, frozenset(kappa[1]))
        assert len(set(kappa_e[1])) == kappa_e[0], kappa_e
        assert not _alive_connected(
            verts, g.adjacency, frozenset(), frozenset(kappa_e[1])
        )
        delta = min_degree(g)
        edge_cuts += kappa_e[0] < delta
        vertex_cuts += 2 <= kappa[0] < delta  # below 2 needs no flow
    assert (edge_cuts, vertex_cuts) == (118, 169)
    assert digest.hexdigest() == (
        "8df81a661c84aeb8b1ae10844673177841f461a985b19b457faf3537668f9170"
    )


def test_vertex_cut_skips_network_when_no_flow_runs(monkeypatch):
    # in these prime-power graphs the common-neighbor count rules out every
    # flow, so the vertex-split network must never be built
    graphs = [build_explicit(n) for n in (125, 343, 1331, 2401, 14641)]
    expected = [vertex_connectivity(g) for g in graphs]
    assert [kappa for kappa, _ in expected] == [4, 6, 10, 6, 10]

    def refuse(num_nodes):
        raise AssertionError("a flow network was built")

    monkeypatch.setattr(connectivity, "_FlowNet", refuse)
    assert [vertex_connectivity(g) for g in graphs] == expected


# -- every small graph against the independent brute force --


# the minimum cut closest to 10 deletes 30 and 40; its flow also fills the
# edge 10-30, and the witness must name 30 rather than drop it for that edge
_SATURATED_SOURCE_EDGE = {
    10: (20, 30, 70),
    20: (10, 40, 70),
    30: (10, 50, 60),
    40: (20, 50, 60, 70),
    50: (30, 40, 60),
    60: (30, 40, 50),
    70: (10, 20, 40),
}

# the only 3-vertex separator is {10, 20, 30}, which holds every vertex of
# least degree, so only a pair inside the root's neighborhood finds it
_ROOT_IN_EVERY_SEPARATOR = {
    10: (40, 50, 60, 70),
    20: (40, 50, 60, 70),
    30: (40, 50, 60, 70),
    40: (10, 20, 30, 50),
    50: (10, 20, 30, 40),
    60: (10, 20, 30, 70),
    70: (10, 20, 30, 60),
}


def _labelled_graph(nv: int, mask: int) -> SimpleNamespace:
    """The graph on nv vertices with an edge on the b-th pair of
    combinations(range(nv), 2) wherever bit b of mask is set."""
    verts = tuple(10 * (i + 1) for i in range(nv))  # labels != indices
    adj: dict[int, list[int]] = {v: [] for v in verts}
    for b, (i, j) in enumerate(combinations(range(nv), 2)):
        if mask >> b & 1:
            adj[verts[i]].append(verts[j])
            adj[verts[j]].append(verts[i])
    return SimpleNamespace(
        vertices=verts,
        adjacency={v: tuple(sorted(a)) for v, a in adj.items()},
    )


def _oracle_graphs():
    """Every labelled graph on 1 to 6 vertices (33,867 graphs), a seeded
    sample of 1,000 graphs on 7, _SATURATED_SOURCE_EDGE and
    _ROOT_IN_EVERY_SEPARATOR."""
    for nv in range(1, 7):
        for mask in range(1 << nv * (nv - 1) // 2):
            yield _labelled_graph(nv, mask)
    rng = random.Random(20261018)
    for _ in range(1000):
        yield _labelled_graph(7, rng.getrandbits(21))
    for adj in (_SATURATED_SOURCE_EDGE, _ROOT_IN_EVERY_SEPARATOR):
        yield SimpleNamespace(vertices=tuple(adj), adjacency=adj)


def test_vertex_connectivity_matches_brute_force():
    for g in _oracle_graphs():
        value, cut = vertex_connectivity(g)
        assert value == _brute_kappa(g), g
        assert len(set(cut)) == len(cut) == value, g
        assert all(v in g.adjacency for v in cut), g
        verts = list(g.vertices)
        if len(verts) > 1 and _alive_connected(verts, g.adjacency):
            assert len(verts) - value == 1 or not _alive_connected(
                verts, g.adjacency, frozenset(cut)
            ), g


def test_edge_connectivity_matches_brute_force():
    for g in _oracle_graphs():
        value, cut = edge_connectivity(g)
        assert value == _brute_kappa_e(g), g
        assert len(set(cut)) == len(cut) == value, g
        assert all(u < w and w in g.adjacency[u] for u, w in cut), g
        verts = list(g.vertices)
        if len(verts) > 1 and _alive_connected(verts, g.adjacency):
            assert not _alive_connected(
                verts, g.adjacency, frozenset(), frozenset(cut)
            ), g


# -- structural properties on zero-divisor graphs --


@PROPERTY_SETTINGS
@given(composite_mid)
def test_zdg_always_connected(n):
    g = build_explicit(n)
    assert _alive_connected(list(g.vertices), g.adjacency)


@PROPERTY_SETTINGS
@given(composite_mid)
def test_whitney_inequalities(n):
    g = build_explicit(n)
    nv, _, delta, kappa_e, kappa = _oracle_values(g)
    if nv >= 2:
        assert 0 <= kappa <= kappa_e <= delta


@PROPERTY_SETTINGS
@given(composite_mid)
def test_flow_cuts_replay(n):
    g = build_explicit(n)
    verts = list(g.vertices)
    if len(verts) == 1:
        return
    kappa, vcut = vertex_connectivity(g)
    assert len(vcut) == kappa
    assert (
        len(verts) - kappa == 1
        or not _alive_connected(verts, g.adjacency, frozenset(vcut))
    )
    kappa_e, ecut = edge_connectivity(g)
    assert len(ecut) == kappa_e
    assert not _alive_connected(verts, g.adjacency, frozenset(), frozenset(ecut))
