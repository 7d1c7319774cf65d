"""Measurement child of run.py; runs in a fresh interpreter per workload.

    python3 perfbench/worker.py SPEC.json RESULT.json

SPEC holds the inputs and settings, RESULT receives the measurements.  The
worker imports zdg from the checkout's src/ and only calls its public API
and CLI.  Each pass is a closed loop with one client: the next n starts
when the previous one has finished.  Rounds repeat while another one fits
in the time budget.  An untraced round is a serial pass, a --jobs 2 pass
and SETUP_SAMPLES set-ups; a traced round is a serial pass, a traced pass
and a --jobs 2 pass.  Serial passes and set-ups run pinned to one core.
Times are taken on the monotonic clock and turned into reference seconds
at the end by the host speed probes (hostspeed.py); raw seconds are kept.
"""
from __future__ import annotations

import json
import os
import random
import resource
import subprocess
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from multiprocessing import get_context
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import hostspeed  # noqa: E402
from zdg import arith, cli, connectivity, formulas, graphs, harness  # noqa: E402
from zdg.errors import ResourceLimitError  # noqa: E402

SETUP_SAMPLES = 5  # per untraced round
SETUP_CHILD = "import time; import zdg.cli; print(time.monotonic())"

clock = time.monotonic  # system-wide, so it matches the probes' stamps


@contextmanager
def pinned(cpus):
    """Run the block, and the processes it starts, on cpus only."""
    before = os.sched_getaffinity(0)
    os.sched_setaffinity(0, cpus)
    try:
        yield
    finally:
        os.sched_setaffinity(0, before)


def setup_times(count):
    """(start, end) of fresh interpreters starting and importing zdg.cli.

    The child stamps the end of its import, so its exit is not counted.
    """
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")
           + (os.pathsep + path if path else "")}
    spans = []
    for _ in range(count):
        start = clock()
        child = subprocess.run([sys.executable, "-c", SETUP_CHILD], env=env,
                               cwd=ROOT, check=True, capture_output=True, text=True)
        spans.append((start, float(child.stdout)))
    return spans


def serial_pass(ns, order):
    """analyze every n in turn, then render one CSV in ascending n.

    order is a permutation of the indices of ns.  It is shuffled so that
    the slow inputs are spread over the pass and meet more of the host's
    speed changes.  Returns the (start, end) of each n in the order of ns,
    that of the render, and the CSV.
    """
    found, spans = [None] * len(ns), [None] * len(ns)
    for i in order:
        start = clock()
        found[i] = harness.analyze(ns[i])
        spans[i] = (start, clock())
    start = clock()
    text = harness.render_csv(found)
    return spans, (start, clock()), text


def jobs2_pass(ns, sweep_range, tmp):
    """The same inputs on two worker processes; returns (start, end, csv).

    A contiguous range goes through the CLI's own pool; other inputs
    through a two-process pool of analyze calls, chunked like the CLI's.
    """
    start = clock()
    if sweep_range:
        out = tmp / "jobs2.csv"
        argv = ["sweep", "--from", str(sweep_range[0]), "--to",
                str(sweep_range[1]), "--jobs", "2", "--output", str(out)]
        code = cli.main(argv)
        end = clock()
        if code != 0:
            raise RuntimeError(f"zdg {' '.join(argv)} exited {code}")
        return start, end, out.read_text()
    with ProcessPoolExecutor(2, mp_context=get_context("spawn")) as pool:
        rows = list(pool.map(harness.analyze, ns, chunksize=max(1, len(ns) // 16)))
    text = harness.render_csv(rows)
    return start, clock(), text


class Tracer:
    """Spans kept in memory and written out once, at the end of the run."""

    def __init__(self):
        self.origin = clock()
        self.spans = []

    def open(self, name, parent=None, **attrs):
        self.spans.append(
            {"id": len(self.spans), "parent": parent, "name": name,
             "start": clock() - self.origin, "end": None, **attrs}
        )
        return len(self.spans) - 1

    def close(self, span):
        self.spans[span]["end"] = clock() - self.origin

    def call(self, parent, name, fn, *args):
        span = self.open(name, parent)
        try:
            return fn(*args)
        except ResourceLimitError:
            self.spans[span]["error"] = "ResourceLimit"
            raise
        finally:
            self.close(span)

    def durations(self, name):
        return [s["end"] - s["start"] for s in self.spans if s["name"] == name]

    def totals(self):
        out = {}
        for s in self.spans:
            out[s["name"]] = out.get(s["name"], 0.0) + s["end"] - s["start"]
        return out

    def self_time(self, name):
        """Time inside the spans called name that none of their children cover."""
        covered = {}
        for s in self.spans:
            if s["parent"] is not None:
                covered[s["parent"]] = (
                    covered.get(s["parent"], 0.0) + s["end"] - s["start"])
        return sum(s["end"] - s["start"] - covered.get(s["id"], 0.0)
                   for s in self.spans if s["name"] == name)


def predict(f):
    return (
        formulas.predict_min_degree(f),
        formulas.predict_edge_connectivity(f),
        formulas.predict_vertex_connectivity(f),
    )


def reached(g, start, cut_vertices=frozenset(), cut_edges=()):
    """Vertices reachable from start once the cut is deleted."""
    blocked = {(u, w) for u, w in cut_edges} | {(w, u) for u, w in cut_edges}
    ends = {u for u, _ in blocked}
    seen = {start}
    queue = [start]
    for u in queue:
        for w in g.adjacency[u]:
            if w in seen or w in cut_vertices or (u in ends and (u, w) in blocked):
                continue
            seen.add(w)
            queue.append(w)
    return len(seen)


def witness_failures(g, kappa_e, edge_cut, kappa, vertex_cut):
    """Replay both witness cuts; 0, 1 or 2 of them fail."""
    nv = len(g.vertices)
    failures = 0
    if nv == 1:
        edge_ok = kappa_e == 0 and not edge_cut
    else:
        edge_ok = (
            len(set(edge_cut)) == len(edge_cut) == kappa_e
            and all(w in g.adjacency.get(u, ()) for u, w in edge_cut)
            and reached(g, g.vertices[0], cut_edges=edge_cut) < nv
        )
    failures += not edge_ok
    cut = set(vertex_cut)
    rest = [v for v in g.vertices if v not in cut]
    vertex_ok = (
        len(cut) == len(vertex_cut) == kappa
        and cut <= set(g.adjacency)
        and len(rest) >= 1
        # deleting the cut leaves K_1 or a disconnected graph
        and (len(rest) == 1 or reached(g, rest[0], cut) < len(rest))
    )
    failures += not vertex_ok
    return failures


def traced_pass(ns, tracer):
    """Call each public function in pipeline order for every n, in spans."""
    counts = dict.fromkeys(
        ("classes", "class_pairs", "vertices", "edges", "refused",
         "flow_graphs", "witness_failures"), 0)
    rows = []
    for n in ns:
        root = tracer.open("n", n=n)
        f = tracer.call(root, "arith.factorize", arith.factorize, n)
        g = None
        if f.is_composite():
            c = tracer.call(root, "graphs.build_compressed", graphs.build_compressed, n)
            tracer.call(root, "graphs.degree_profile", graphs.degree_profile, c)
            d = len(c.classes)
            counts["classes"] += d
            counts["class_pairs"] += d * (d - 1) // 2
            del c
            try:
                g = tracer.call(root, "graphs.build_explicit", graphs.build_explicit, n)
            except ResourceLimitError:
                counts["refused"] += 1
            if g is not None:
                delta = tracer.call(
                    root, "connectivity.min_degree", connectivity.min_degree, g)
                kappa_e, edge_cut = tracer.call(
                    root, "connectivity.edge_connectivity",
                    connectivity.edge_connectivity, g)
                kappa, vertex_cut = tracer.call(
                    root, "connectivity.vertex_connectivity",
                    connectivity.vertex_connectivity, g)
            tracer.call(root, "formulas.predict", predict, f)
        rows.append(tracer.call(root, "harness.analyze", harness.analyze, n))
        tracer.close(root)
        if g is not None:
            # outside every span, so replay time is not charged to a layer
            nv = len(g.vertices)
            counts["vertices"] += nv
            counts["edges"] += g.edge_count
            complete = 2 * g.edge_count == nv * (nv - 1)
            counts["flow_graphs"] += not complete and delta > 2
            counts["witness_failures"] += witness_failures(
                g, kappa_e, edge_cut, kappa, vertex_cut)
            g = None
    text = tracer.call(None, "harness.render_csv", harness.render_csv, rows)
    tracer.call(None, "harness.render_json", harness.render_json, rows)
    return counts, text


def run_rounds(one_round, seconds):
    """Repeat one_round while the next is expected to end within seconds."""
    rounds = []
    start = clock()
    while True:
        rounds.append(one_round())
        elapsed = clock() - start
        if elapsed * (len(rounds) + 1) / len(rounds) > seconds:
            return rounds


def main(spec_path, result_path):
    spec = json.loads(Path(spec_path).read_text())
    ns = spec["ns"]
    sweep_range = spec["sweep_range"]
    tmp = Path(spec["tmp"])
    cpus = os.sched_getaffinity(0)
    home = {min(cpus)}
    tracers, setups = [], []
    rng = random.Random(spec["seed"])

    def untraced_round():
        with pinned(home):
            if not setups:
                setup_times(1)  # fills __pycache__
            spans, render, text = serial_pass(ns, rng.sample(range(len(ns)), len(ns)))
        *jobs2, jobs2_text = jobs2_pass(ns, sweep_range, tmp)
        with pinned(home):
            # spread over the run, so a slow spell of the host weighs less
            setups.extend(setup_times(SETUP_SAMPLES))
        return {"spans": spans, "render": render, "jobs2": jobs2,
                "csv": [text, jobs2_text]}

    def traced_round():
        with pinned(home):
            spans, render, text = serial_pass(ns, rng.sample(range(len(ns)), len(ns)))
            tracer = Tracer()
            tracers.append(tracer)
            counts, traced_text = traced_pass(ns, tracer)
        *jobs2, jobs2_text = jobs2_pass(ns, sweep_range, tmp)
        return {"spans": spans, "render": render, "jobs2": jobs2, "counts": counts,
                "span_s": tracer.totals(),
                "factorize_max_s": max(tracer.durations("arith.factorize")),
                # the tracer's own cost: per-n time outside every layer span
                "trace_overhead_s": tracer.self_time("n"),
                "csv": [text, traced_text, jobs2_text]}

    with hostspeed.Probes(sorted(cpus), tmp) as probes:
        rounds = run_rounds(traced_round if spec["trace"] else untraced_round,
                            spec["seconds"])
    on_home = hostspeed.Timeline(probes.samples(home))
    on_all = hostspeed.Timeline(probes.samples(cpus))
    for r in rounds:
        spans, render, (start, end) = r.pop("spans"), r.pop("render"), r.pop("jobs2")
        r["latencies"] = [on_home.scale(*span) for span in spans]
        r["wall_s"] = sum(r["latencies"]) + on_home.scale(*render)
        r["raw_wall_s"] = sum(b - a for a, b in spans) + render[1] - render[0]
        r["jobs2_wall_s"] = on_all.scale(start, end)
        r["raw_jobs2_wall_s"] = end - start
    result = {
        "zdg_file": sys.modules["zdg"].__file__,
        "rounds": rounds,
        "setup_s": [(on_home.scale(a, b), b - a) for a, b in setups],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if spec["trace"]:
        with open(spec["spans"], "w") as handle:
            for number, tracer in enumerate(tracers):
                for span in tracer.spans:
                    handle.write(json.dumps({"round": number, **span}) + "\n")
    Path(result_path).write_text(json.dumps(result))


if __name__ == "__main__":
    main(*sys.argv[1:3])
