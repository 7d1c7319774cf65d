"""Tests of the benchmark itself: python3 -m pytest perfbench"""
from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import hostspeed  # noqa: E402
import reference as ref  # noqa: E402
import run  # noqa: E402
import stats  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from zdg import arith, formulas, graphs, harness  # noqa: E402


@pytest.mark.parametrize(
    "count, permille",
    [(10, 500), (19, 500), (20, 500), (100, 900), (197, 900), (200, 950),
     (1000, 990), (1497, 990), (10_000, 999)],
)
def test_tail_is_highest_percentile_with_ten_beyond(count, permille):
    assert stats.tail_permille(count) == permille


def test_tail_leaves_ten_samples_beyond_and_no_higher_step_does():
    for count in range(20, 3000):
        p = stats.tail_permille(count)
        assert stats.beyond(p, count) >= stats.MIN_BEYOND
        higher = [q for q in stats.LADDER if q > p]
        assert not higher or stats.beyond(higher[0], count) < stats.MIN_BEYOND


def test_percentile_by_nearest_rank():
    values = list(range(100, 0, -1))
    assert stats.percentile(values, 500) == 50
    assert stats.percentile(values, 990) == 99
    assert stats.percentile(values, 999) == 100
    assert stats.percentile([7.0], 990) == 7.0


@pytest.mark.parametrize("name", ["near-guard", "big-n"])
def test_same_seed_gives_same_inputs(name):
    make = workloads.WORKLOADS[name]
    first = make(3)
    assert first == make(3)
    assert first != make(4)
    assert first == sorted(set(first))


def test_dense_range_ignores_the_seed():
    assert workloads.dense_range(1) == workloads.dense_range(2)
    assert workloads.dense_range(1) == list(range(4, 1501))


def test_reference_closed_form_agrees_with_formulas():
    for n in range(4, 301):
        fs = ref.factors(n)
        f = arith.factorize(n)
        assert ref.factorization_text(fs) == arith.format_factorization(f)
        assert ref.is_composite(n, fs) == f.is_composite()
        if not f.is_composite():
            continue
        value = ref.connectivity(fs)
        assert value == formulas.predict_vertex_connectivity(f).value
        assert value == formulas.predict_edge_connectivity(f).value
        assert value == formulas.predict_min_degree(f).value
        c = graphs.build_compressed(n)
        assert ref.vertex_count(n, fs) == c.num_vertices()
        assert ref.edge_count(n, fs) == c.num_edges()


def test_trial_division_work():
    # divisors 101, 103, 101*103: isqrt(101) + isqrt(103) + 101
    assert ref.trial_division_work(ref.factors(101 * 103)) == 121
    # 2, 101, 2*101, 101^2, 2*101^2: 1 + 10 + 10 + 101 + 101
    assert ref.trial_division_work(ref.factors(2 * 101**2)) == 223
    assert ref.trial_division_work(ref.factors(10007)) == 100


def test_near_guard_filter_keeps_only_graphs_in_range():
    v_lo, v_hi = workloads.NEAR_GUARD_VERTICES
    e_lo, e_hi = workloads.NEAR_GUARD_EDGES
    for seed in range(3):
        for n in workloads.near_guard(seed):
            fs = ref.factors(n)
            assert workloads.in_near_guard(n, fs)
            assert v_lo <= ref.vertex_count(n, fs) <= v_hi
            assert e_lo <= ref.edge_count(n, fs) <= e_hi
    # too small, prime, too many vertices (510510 = 2*3*5*7*11*13*17)
    for n in (1000, 100_003, 510_510):
        assert not workloads.in_near_guard(n, ref.factors(n))


def test_big_n_keeps_its_fixed_inputs_and_draws_one_composite_per_stratum():
    ns = workloads.big_n(5)
    assert set(workloads.HIGHLY_COMPOSITE) <= set(ns)
    assert workloads.ROADMAP_CUBE in ns
    drawn = [n for n in ns if workloads.BIG_DRAW[0] <= n < workloads.BIG_DRAW[1]]
    assert len(drawn) >= workloads.BIG_STRATA
    assert all(ref.is_composite(n, ref.factors(n)) for n in ns)
    bounds = workloads.big_strata_bounds()
    assert bounds == sorted(bounds)
    assert workloads.BIG_KNOTS[0] < bounds[0] and bounds[-1] < workloads.BIG_KNOTS[-1]
    costs = sorted(ref.analyze_cost(ref.factors(n)) for n in drawn
                   if n not in workloads.HIGHLY_COMPOSITE)
    assert costs[len(costs) // 2] == pytest.approx(
        10 ** workloads.BIG_KNOTS[16], rel=0.1)


def test_analyze_cost_counts_n_twice_and_class_pairs():
    # 101 * 103: bounds 101 (n, twice), 10 (101), 10 (103); 4 divisors
    assert ref.analyze_cost(ref.factors(101 * 103)) == pytest.approx(
        2 * 101 + 10 + 10 + ref.CLASS_PAIR_WEIGHT * 16)


def test_near_guard_draws_the_cells():
    for seed in range(3):
        ns = workloads.near_guard(seed)
        assert workloads.NEAR_GUARD_FLOWS in ns
        assert len(ns) == 1 + sum(cell[3] for cell in workloads.NEAR_GUARD_CELLS)


def test_host_speed_scales_by_the_probes_inside_or_beside_an_interval():
    r = hostspeed.REFERENCE_S
    line = hostspeed.Timeline([(1.0, r), (2.0, 2 * r), (3.0, 4 * r)])
    # probes inside [1.5, 3.5]: 2r and 4r, mean 3r
    assert line.scale(1.5, 3.5) == pytest.approx(2.0 / 3)
    # none inside [2.2, 2.3]: the nearest on each side, 2r and 4r
    assert line.factor(2.2, 2.3) == pytest.approx(1 / 3)
    # past the last probe: the last one only
    assert line.factor(5.0, 6.0) == pytest.approx(0.25)


def test_probe_processes_record_and_stop(tmp_path):
    import os
    import time

    cpu = min(os.sched_getaffinity(0))
    with hostspeed.Probes([cpu], tmp_path) as probes:
        time.sleep(0.2)
    assert all(p.poll() is not None for p in probes.procs)
    samples = probes.samples([cpu])
    assert len(samples) >= 3
    assert all(d > 0 for _, d in samples)


def test_checker_accepts_zdg_rows_and_counts_wrong_ones():
    ns = list(range(4, 60))
    text = harness.render_csv([harness.analyze(n) for n in ns])
    checker = run.Checker(ns)
    assert checker.check(text) == (0, 0)
    # n = 25 is K_4, so every value is 3; claim 2 instead
    bad = text.replace("25,5^2,4,6,3,3,3,", "25,5^2,4,6,3,3,2,")
    assert bad != text
    assert checker.check(bad) == (1, 0)
    assert checker.check(text.replace("\n12,", "\n13,")) == (1, 0)
    dropped = "\n".join(text.splitlines()[:-1]) + "\n"
    assert checker.check(dropped) == (1, 0)
    assert run.differing_lines(text, bad) == 1


def test_checker_counts_refused_rows():
    n = 997**3  # past the explicit guard
    text = harness.render_csv([harness.analyze(n)])
    assert run.Checker([n]).check(text) == (0, 1)


@pytest.mark.parametrize("n", [4, 9, 25, 27, 49, 100, 1435])
def test_witness_replay_accepts_zdg_cuts(n):
    from zdg import connectivity

    g = graphs.build_explicit(n)
    kappa_e, edge_cut = connectivity.edge_connectivity(g)
    kappa, vertex_cut = connectivity.vertex_connectivity(g)
    assert worker.witness_failures(g, kappa_e, edge_cut, kappa, vertex_cut) == 0


def test_witness_replay_rejects_bad_cuts():
    g = graphs.build_explicit(100)
    from zdg import connectivity

    kappa_e, edge_cut = connectivity.edge_connectivity(g)
    kappa, vertex_cut = connectivity.vertex_connectivity(g)
    assert worker.witness_failures(g, kappa_e + 1, edge_cut, kappa, vertex_cut) == 1
    assert worker.witness_failures(g, kappa_e, edge_cut, kappa, ()) == 1
    # 96 keeps its edges to 25 and 75
    assert worker.witness_failures(g, 1, ((50, 96),), kappa, vertex_cut) == 1
    assert worker.witness_failures(g, 1, ((50, 98),), kappa, vertex_cut) == 0


def test_contiguous_ranges_go_through_the_cli():
    assert run.contiguous([4, 5, 6]) == [4, 6]
    assert run.contiguous([4, 6]) is None


def test_metric_names_match_benchmark_json():
    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    ns = [4, 5, 6]
    rounds = [{"wall_s": 2.0, "raw_wall_s": 2.1, "jobs2_wall_s": 1.5,
               "raw_jobs2_wall_s": 1.6, "latencies": [0.1, 0.2, 0.3]}]
    result = {"peak_rss_mb": 20.0, "setup_s": [[0.1, 0.12], [0.2, 0.22]]}
    metrics, _ = run.end_to_end(rounds, result, ns)
    assert [(k, u) for k, (_, u) in metrics.items()] == [
        (m["name"], m["unit"]) for m in spec["end_to_end"]]
    names = ("arith.factorize", "graphs.build_compressed")
    rounds[0].update(
        span_s=dict.fromkeys(names, 1.0), factorize_max_s=0.001,
        trace_overhead_s=0.01,
        counts=dict.fromkeys(
            ("classes", "class_pairs", "vertices", "edges", "refused",
             "flow_graphs", "witness_failures"), 0))
    layers = run.per_layer(rounds)
    assert [(k, u) for k, (_, u) in layers.items()] == [
        (m["name"], m["unit"]) for m in spec["per_layer"]]


def test_tracer_self_time_excludes_child_spans():
    tracer = worker.Tracer()
    root = tracer.open("n", n=6)
    tracer.call(root, "arith.factorize", arith.factorize, 6)
    tracer.close(root)
    spans = tracer.spans
    whole = spans[0]["end"] - spans[0]["start"]
    child = spans[1]["end"] - spans[1]["start"]
    assert spans[1]["parent"] == root
    assert tracer.self_time("n") == pytest.approx(whole - child)
    assert 0 <= tracer.self_time("n") <= whole
