"""Graph construction: explicit, compressed, degree profiles, DOT export."""
from __future__ import annotations

from math import gcd

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st
from sympy import divisors, totient

from zdg.arith import factorize
from zdg.errors import NoZeroDivisorsError, ResourceLimitError
from zdg.graphs import (
    build_compressed,
    build_explicit,
    class_members,
    compress,
    degree_profile,
    export_dot,
)
from zdg.quotient import divisor_classes, graph_size, quotient_report

PROPERTY_SETTINGS = settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)

composite_small = st.integers(min_value=4, max_value=400).filter(
    lambda n: factorize(n).is_composite()
)


def test_explicit_z8():
    g = build_explicit(8)
    assert g.vertices == (2, 4, 6)
    assert g.edge_count == 2
    assert g.adjacency == {2: (4,), 4: (2, 6), 6: (4,)}


def test_explicit_z25_is_complete():
    g = build_explicit(25)
    assert g.vertices == (5, 10, 15, 20)
    assert g.edge_count == 6
    for v in g.vertices:
        assert g.adjacency[v] == tuple(u for u in g.vertices if u != v)


def test_explicit_z12_degrees():
    g = build_explicit(12)
    assert g.vertices == (2, 3, 4, 6, 8, 9, 10)
    assert g.edge_count == 8
    assert sorted(len(g.adjacency[v]) for v in g.vertices) == [1, 1, 2, 2, 3, 3, 4]


def test_no_zero_divisors_rejected():
    for n in (1, 2, 3, 7, 13):
        with pytest.raises(NoZeroDivisorsError):
            build_explicit(n)
        with pytest.raises(NoZeroDivisorsError):
            build_compressed(n)
        with pytest.raises(NoZeroDivisorsError):  # at the call, no chunk made
            export_dot(n)
    # the quotient engine refuses an empty class list with compress's text
    for n, classes in ((7, divisor_classes(factorize(7))), (1, [])):
        with pytest.raises(NoZeroDivisorsError) as err:
            quotient_report(n, classes)
        assert str(err.value) == (
            f"Z_{n} has no nonzero zero divisors; need composite n >= 4"
        )


def test_out_of_range_rejected():
    with pytest.raises(ValueError):
        build_explicit(0)
    with pytest.raises(ValueError):
        build_compressed(-4)
    with pytest.raises(ValueError):
        export_dot(0)


def test_vertex_guard():
    # 10^6 implies 599999 vertices, over the 200000 cap
    with pytest.raises(ResourceLimitError, match="vertices"):
        build_explicit(10**6)
    with pytest.raises(ResourceLimitError, match="vertices"):
        export_dot(10**6)


def test_edge_guard():
    # 10007^2 gives a complete graph on 10006 vertices: 50055015 edges,
    # just over the 5*10^7 cap, while the vertex count is comfortably legal
    with pytest.raises(ResourceLimitError, match="edges"):
        build_explicit(10007**2)
    with pytest.raises(ResourceLimitError, match="edges"):
        export_dot(10007**2)


def test_edge_sum_check_survives_optimize(run_optimized):
    # a wrong edge count must be caught even where asserts are stripped
    proc = run_optimized(
        "import sys\n"
        "from zdg import graphs, quotient\n"
        "from zdg.errors import CertificateError\n"
        "quotient.graph_size = lambda f: (3, 5)\n"
        "try:\n"
        "    graphs.build_explicit(8)\n"
        "except CertificateError as err:\n"
        "    print(sys.flags.optimize, err)\n"
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "1 n=8: adjacency lists hold 4 edge ends, expected 10\n"


def test_graph_size_matches_class_sums_to_60000():
    # the closed form against the classes' own vertex and edge sums
    for n in range(4, 60001):
        f = factorize(n)
        if f.is_composite():
            c = compress(f)
            assert graph_size(f) == (c.num_vertices(), c.num_edges()), n


@pytest.mark.parametrize(
    "n",
    [
        963761198400,  # 6718 classes
        897612484786617600,  # 103678 classes
        997**3,
        2**62,
        3037000493**2,
        3037000453 * 3037000493,
        10007**2,
        2 * 199999,  # the guard boundaries of test_harness
        2 * 200003,
        7001 * 7129,
        7001 * 7151,
    ],
)
def test_graph_size_matches_class_sums_big_n(n):
    f = factorize(n)
    c = compress(f)
    assert graph_size(f) == (c.num_vertices(), c.num_edges())


def test_compressed_z27():
    c = build_compressed(27)
    assert c.classes == ((3, 6), (9, 2))
    assert c.num_vertices() == 8
    assert c.num_edges() == 13


def test_compressed_z12():
    c = build_compressed(12)
    assert c.classes == ((2, 2), (3, 2), (4, 2), (6, 1))
    assert c.num_vertices() == 7
    assert c.num_edges() == 8


def test_compressed_class_sizes_are_totients():
    # class d holds totient(n/d) residues; sizes come from n's exponents
    for n in (12, 27, 360, 1001, 2**10, 963761198400):
        c = build_compressed(n)
        assert [d for d, _ in c.classes] == divisors(n)[1:-1]
        for d, size in c.classes:
            assert size == totient(n // d)


def test_divisor_classes_unsorted():
    # the prime-power product order, which analyze uses as it comes
    assert divisor_classes(factorize(12)) == [(3, 2), (2, 2), (6, 1), (4, 2)]
    for n in (1, 2, 3, 13):
        assert divisor_classes(factorize(n)) == []


def test_degree_profile_z27():
    prof = degree_profile(build_compressed(27))
    assert prof.class_degrees == {3: 2, 9: 7}
    assert prof.degree_counts == {2: 6, 7: 2}


def test_degree_profile_z12():
    prof = degree_profile(build_compressed(12))
    assert prof.class_degrees == {2: 1, 3: 2, 4: 3, 6: 4}
    assert prof.degree_counts == {1: 2, 2: 2, 3: 2, 4: 1}


def test_class_members():
    assert class_members(12, 2) == [2, 10]
    assert class_members(12, 6) == [6]
    assert class_members(25, 5) == [5, 10, 15, 20]


def test_export_dot_z8():
    assert "".join(export_dot(8)) == (
        "graph zdg_8 {\n"
        "  2;\n"
        "  4;\n"
        "  6;\n"
        "  2 -- 4;\n"
        "  4 -- 6;\n"
        "}\n"
    )


def test_export_dot_z25():
    text = "".join(export_dot(25))
    lines = text.splitlines()
    assert lines[0] == "graph zdg_25 {"
    assert lines[-1] == "}"
    assert sum(1 for ln in lines if ln.endswith(";") and "--" not in ln) == 4
    assert sum(1 for ln in lines if "--" in ln) == 6


def test_export_dot_colored_same_structure():
    plain = "".join(export_dot(12))
    colored = "".join(export_dot(12, color_by_class=True))
    edge_lines = lambda s: [ln for ln in s.splitlines() if "--" in ln]
    assert edge_lines(plain) == edge_lines(colored)
    assert 'style=filled, fillcolor="' in colored
    # one node statement per vertex either way
    assert colored.count("fillcolor") == graph_size(factorize(12))[0]
    # same-class vertices share a fill color
    node_color = {}
    for ln in colored.splitlines():
        if "fillcolor" in ln:
            v = int(ln.split()[0])
            node_color[v] = ln.split('"')[1]
    assert node_color[2] == node_color[10]
    assert node_color[2] != node_color[6]


@PROPERTY_SETTINGS
@given(composite_small)
def test_vertex_count_formula(n):
    # vertices are exactly the residues sharing a factor with n
    g = build_explicit(n)
    assert len(g.vertices) == n - totient(n) - 1
    assert build_compressed(n).num_vertices() == len(g.vertices)


@PROPERTY_SETTINGS
@given(st.integers(min_value=4, max_value=200).filter(
    lambda n: factorize(n).is_composite()
))
def test_adjacency_matches_definition(n):
    g = build_explicit(n)
    vset = set(g.vertices)
    assert vset == {v for v in range(2, n) if gcd(v, n) > 1}
    for u in g.vertices:
        nbrs = set(g.adjacency[u])
        assert u not in nbrs
        for w in g.vertices:
            if w == u:
                continue
            assert (w in nbrs) == ((u * w) % n == 0)
            # symmetry
            assert (w in nbrs) == (u in set(g.adjacency[w]))


@PROPERTY_SETTINGS
@given(composite_small)
def test_quotient_degrees_match_explicit(n):
    g = build_explicit(n)
    prof = degree_profile(build_compressed(n))
    explicit_counts: dict[int, int] = {}
    for v in g.vertices:
        d = len(g.adjacency[v])
        explicit_counts[d] = explicit_counts.get(d, 0) + 1
    assert prof.degree_counts == explicit_counts
    for v in g.vertices:
        assert len(g.adjacency[v]) == prof.class_degrees[gcd(v, n)]


@PROPERTY_SETTINGS
@given(composite_small, st.data())
def test_same_class_vertices_interchangeable(n, data):
    c = build_compressed(n)
    multi = [d for d, size in c.classes if size >= 2]
    assume(multi)
    d = data.draw(st.sampled_from(multi))
    g = build_explicit(n)
    members = class_members(n, d)
    u, w = members[0], members[-1]
    assert set(g.adjacency[u]) - {w} == set(g.adjacency[w]) - {u}


@PROPERTY_SETTINGS
@given(composite_small)
def test_class_members_partition_vertices(n):
    c = build_compressed(n)
    seen: list[int] = []
    for d, size in c.classes:
        ms = class_members(n, d)
        assert len(ms) == size
        assert all(gcd(v, n) == d for v in ms)
        seen.extend(ms)
    assert sorted(seen) == list(build_explicit(n).vertices)
