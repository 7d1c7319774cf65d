"""Closed-form connectivity predictions and their witness cuts."""
from __future__ import annotations

import hashlib
from math import gcd

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from zdg.arith import factorize
from zdg.connectivity import edge_connectivity, min_degree, vertex_connectivity
from zdg.errors import NoZeroDivisorsError
from zdg.formulas import (
    Prediction,
    predict,
    predict_edge_connectivity,
    predict_min_degree,
    predict_vertex_connectivity,
    witness_cut,
)
from zdg.graphs import build_explicit

from test_arith import HARD_INPUTS

PROPERTY_SETTINGS = settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)

composite_mid = st.integers(min_value=4, max_value=300).filter(
    lambda n: factorize(n).is_composite()
)


def test_vertex_prediction_prime_square():
    pred = predict_vertex_connectivity(factorize(25))
    assert pred == Prediction(25, "vertex_connectivity", 3, "T3.1")
    assert predict_vertex_connectivity(factorize(4)).value == 0
    assert predict_vertex_connectivity(factorize(4)).theorem_tag == "T3.1"


def test_vertex_prediction_higher_prime_power():
    pred = predict_vertex_connectivity(factorize(32))
    assert (pred.value, pred.theorem_tag) == (1, "T3.2-3.3")
    assert predict_vertex_connectivity(factorize(27)).value == 2
    assert predict_vertex_connectivity(factorize(343)).value == 6


def test_vertex_prediction_multiple_primes():
    pred = predict_vertex_connectivity(factorize(12))
    assert (pred.value, pred.theorem_tag) == (1, "T3.4")
    pred = predict_vertex_connectivity(factorize(105))
    assert (pred.value, pred.theorem_tag) == (2, "T3.5")
    assert predict_vertex_connectivity(factorize(770)).value == 1
    assert predict_vertex_connectivity(factorize(1155)).value == 2


def test_edge_predictions():
    assert predict_edge_connectivity(factorize(9)) == Prediction(
        9, "edge_connectivity", 1, "T4.1"
    )
    pred = predict_edge_connectivity(factorize(27))
    assert (pred.value, pred.theorem_tag) == (2, "T4.2")
    pred = predict_edge_connectivity(factorize(30))
    assert (pred.value, pred.theorem_tag) == (1, "T4.3")


def test_min_degree_predictions():
    for n, value in ((25, 3), (12, 1), (8, 1), (105, 2)):
        pred = predict_min_degree(factorize(n))
        assert pred.quantity == "min_degree"
        assert pred.value == value
        assert pred.theorem_tag == "T4.5"


def test_predict_gives_value_and_tag_triple():
    # one call per row: the common value and the delta, kappa_e, kappa tags
    for n, tags in (
        (25, ("T4.5", "T4.1", "T3.1")),
        (27, ("T4.5", "T4.2", "T3.2-3.3")),
        (12, ("T4.5", "T4.3", "T3.4")),
        (105, ("T4.5", "T4.3", "T3.5")),
    ):
        f = factorize(n)
        preds = (
            predict_min_degree(f),
            predict_edge_connectivity(f),
            predict_vertex_connectivity(f),
        )
        assert predict(f) == (preds[0].value, tags)
        assert {p.value for p in preds} == {preds[0].value}
        assert tuple(p.theorem_tag for p in preds) == tags


def test_non_composite_rejected():
    refusers = (
        predict,
        predict_vertex_connectivity,
        predict_edge_connectivity,
        predict_min_degree,
        witness_cut,
    )
    for n in (1, 2, 3, 7, 97):
        f = factorize(n)
        for refuser in refusers:
            with pytest.raises(
                NoZeroDivisorsError, match=f"^no prediction for n={n}: "
            ):
                refuser(f)


def test_closed_forms_pinned():
    # sha256 of predict's value and tags, or its refusal, on 1..10^5 and
    # the hard inputs, and of witness_cut on the composites up to 10^5, as
    # recorded while predict and witness_cut each made their own case split
    predicted, cuts = hashlib.sha256(), hashlib.sha256()
    for n in [*range(1, 10**5 + 1), *HARD_INPUTS]:
        f = factorize(n)
        try:
            value, tags = predict(f)
        except NoZeroDivisorsError as err:
            predicted.update(f"{n}:{err}\n".encode())
            continue
        predicted.update(f"{n}:{value}:{tags}\n".encode())
        if n <= 10**5:
            cuts.update(f"{n}:{witness_cut(f)}\n".encode())
    assert predicted.hexdigest() == (
        "001313b65db49a93430132201628701ebef040d2892389ff00ebd5e80c2fd1d4"
    )
    assert cuts.hexdigest() == (
        "fd07250bf0bbcd9fe8d658dc601ce2baf6d1f5a3579bfbb54b9cc473d497288c"
    )


def test_witness_cut_values():
    assert witness_cut(factorize(9)) == (3,)
    assert witness_cut(factorize(25)) == (5, 10, 15)
    assert witness_cut(factorize(27)) == (9, 18)
    assert witness_cut(factorize(8)) == (4,)
    assert witness_cut(factorize(12)) == (6,)
    assert witness_cut(factorize(105)) == (35, 70)


def test_prime_square_beats_general_branch():
    # the general smallest-prime rule would give p - 1 on p^2; the complete
    # graph there only supports p - 2
    for p in (2, 3, 5, 7, 11, 13):
        pred = predict_vertex_connectivity(factorize(p * p))
        assert pred.value == p - 2
        assert pred.theorem_tag == "T3.1"


@PROPERTY_SETTINGS
@given(st.integers(min_value=4, max_value=5000).filter(
    lambda n: factorize(n).is_composite()
))
def test_three_quantities_agree_and_follow_smallest_prime(n):
    f = factorize(n)
    kv = predict_vertex_connectivity(f).value
    ke = predict_edge_connectivity(f).value
    kd = predict_min_degree(f).value
    assert kv == ke == kd
    p = f.factors[0][0]
    if len(f.factors) == 1 and f.factors[0][1] == 2:
        assert kv == p - 2
    else:
        assert kv == p - 1
    cut = witness_cut(f)
    assert len(cut) == kv
    assert list(cut) == sorted(set(cut))
    assert all(0 < v < n and gcd(v, n) > 1 for v in cut)


@PROPERTY_SETTINGS
@given(composite_mid)
def test_predictions_match_measured_connectivity(n):
    f = factorize(n)
    g = build_explicit(n)
    assert vertex_connectivity(g)[0] == predict_vertex_connectivity(f).value
    assert edge_connectivity(g)[0] == predict_edge_connectivity(f).value
    assert min_degree(g) == predict_min_degree(f).value


@PROPERTY_SETTINGS
@given(composite_mid)
def test_witness_cut_disconnects(n):
    f = factorize(n)
    g = build_explicit(n)
    cut = set(witness_cut(f))
    assert cut <= set(g.vertices)
    keep = [v for v in g.vertices if v not in cut]
    if len(keep) <= 1:
        return
    seen = {keep[0]}
    queue = [keep[0]]
    for u in queue:
        for w in g.adjacency[u]:
            if w not in cut and w not in seen:
                seen.add(w)
                queue.append(w)
    assert len(seen) < len(keep)
