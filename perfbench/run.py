"""zdg benchmark: runs one workload and prints its metrics.

    python3 perfbench/run.py --workload dense-range --seed 1 --seconds 40 --trace 0

Run it from the root of a checkout; it imports zdg from src/.  Workloads
are listed, with the reason for each, in BENCHMARK.json.  --trace 0 prints
the end-to-end metrics, --trace 1 the per-layer metrics of a separate
traced run.  Every row zdg returns is checked against an independent
reference (perfbench/reference.py).  End-to-end times are in reference
seconds, scaled by host speed probes (perfbench/hostspeed.py).

Standard output ends with two JSON lines: the run's details (seed, the
exact inputs, the environment, tail percentile and sample counts, refused
share, wrong rows), then the result line read by tools.  Both are also
written to .perfbench_out/, with the spans of a traced run.
"""
from __future__ import annotations

import argparse
import csv
import io
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import stats

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
WORKER_TIMEOUT_S = 170

clock = time.perf_counter


def environment() -> dict:
    cpu = None
    try:
        with open("/proc/cpuinfo") as handle:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in handle
                 if line.startswith("model name")), None)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        commit = done.stdout.strip() or None
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(), "commit": commit}


def run_worker(spec: Path, result: Path) -> int | None:
    """Run worker.py as a process group leader; kill the group on timeout."""
    worker = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), str(spec), str(result)],
        cwd=ROOT, start_new_session=True)
    try:
        return worker.wait(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None
    finally:
        if worker.poll() is None:
            os.killpg(worker.pid, signal.SIGKILL)
            worker.wait()


def contiguous(ns) -> list[int] | None:
    """[first, last] when ns is a whole range, which the CLI can sweep."""
    if all(b == a + 1 for a, b in zip(ns, ns[1:])):
        return [ns[0], ns[-1]]
    return None


class Checker:
    """Checks CSV rows against the reference; counts wrong and refused rows."""

    def __init__(self, ns):
        import reference

        self.ref = reference
        self.ns = ns
        self.factors = {n: reference.factors(n) for n in ns}

    def expected(self, n, row) -> bool:
        ref, fs = self.ref, self.factors[n]
        if row.get("n") != str(n):
            return False
        if row.get("factorization") != ref.factorization_text(fs):
            return False
        if not ref.is_composite(n, fs):
            return row.get("skip_reason") == "NoZeroDivisors"
        if row.get("skip_reason") == "ResourceLimit":
            return True
        if row.get("skip_reason") != "":
            return False
        value = str(ref.connectivity(fs))
        return (
            all(row.get(k) == value for k in
                ("delta", "kappa_e", "kappa", "pred_delta", "pred_kappa_e",
                 "pred_kappa"))
            and row.get("match") == "true"
            and row.get("vertices") == str(ref.vertex_count(n, fs))
            and row.get("edges") == str(ref.edge_count(n, fs))
        )

    def check(self, text) -> tuple[int, int]:
        """(wrong rows, refused rows) of one rendered CSV."""
        rows = list(csv.DictReader(io.StringIO(text)))
        wrong = abs(len(rows) - len(self.ns))
        wrong += sum(not self.expected(n, row) for n, row in zip(self.ns, rows))
        refused = sum(row.get("skip_reason") == "ResourceLimit" for row in rows)
        return wrong, refused


def differing_lines(a: str, b: str) -> int:
    la, lb = a.splitlines(), b.splitlines()
    return abs(len(la) - len(lb)) + sum(x != y for x, y in zip(la, lb))


def end_to_end(rounds, result, ns) -> tuple[dict, dict]:
    """Medians over the rounds, in reference seconds (see hostspeed.py)."""
    latencies = [t for r in rounds for t in r["latencies"]]
    permille = stats.tail_permille(len(ns))

    def med(key):
        return statistics.median(r[key] for r in rounds)

    metrics = {
        "setup_s": (statistics.median(t for t, _ in result["setup_s"]), "s"),
        "wall_s": (med("wall_s"), "s"),
        "jobs2_wall_s": (med("jobs2_wall_s"), "s"),
        "latency_p50_ms": (1000 * stats.percentile(latencies, 500), "ms"),
        "latency_tail_ms": (1000 * stats.percentile(latencies, permille), "ms"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB"),
    }
    detail = {"tail_percentile": permille / 10, "latency_samples": len(latencies),
              "samples_beyond_tail": stats.beyond(permille, len(latencies)),
              "raw_setup_s": statistics.median(raw for _, raw in result["setup_s"]),
              "raw_wall_s": med("raw_wall_s"),
              "raw_jobs2_wall_s": med("raw_jobs2_wall_s")}
    return metrics, detail


def per_layer(rounds) -> dict:
    def med(key):
        return statistics.median([key(r) for r in rounds])

    def span(name):
        return med(lambda r: r["span_s"].get(name, 0.0))

    def count(name):
        return med(lambda r: r["counts"][name])

    return {
        "arith.factorize_s": (span("arith.factorize"), "s"),
        "arith.factorize_max_ms": (1000 * med(lambda r: r["factorize_max_s"]), "ms"),
        "graphs.build_compressed_s": (span("graphs.build_compressed"), "s"),
        "graphs.classes": (count("classes"), "count"),
        "graphs.class_pairs": (count("class_pairs"), "count"),
        "graphs.degree_profile_s": (span("graphs.degree_profile"), "s"),
        "graphs.build_explicit_s": (span("graphs.build_explicit"), "s"),
        "graphs.explicit_self_s": (
            span("graphs.build_explicit") - span("graphs.build_compressed"), "s"),
        "graphs.vertices": (count("vertices"), "count"),
        "graphs.edges": (count("edges"), "count"),
        "graphs.refused": (count("refused"), "count"),
        "connectivity.min_degree_s": (span("connectivity.min_degree"), "s"),
        "connectivity.edge_connectivity_s": (
            span("connectivity.edge_connectivity"), "s"),
        "connectivity.vertex_connectivity_s": (
            span("connectivity.vertex_connectivity"), "s"),
        "connectivity.flow_graphs": (count("flow_graphs"), "count"),
        "connectivity.witness_failures": (count("witness_failures"), "count"),
        "formulas.predict_s": (span("formulas.predict"), "s"),
        "harness.analyze_s": (span("harness.analyze"), "s"),
        "harness.render_csv_s": (span("harness.render_csv"), "s"),
        "harness.render_json_s": (span("harness.render_json"), "s"),
        "harness.pool_efficiency": (
            med(lambda r: r["wall_s"] / (2 * r["jobs2_wall_s"])), "ratio"),
        "trace.overhead_s": (med(lambda r: r["trace_overhead_s"]), "s"),
    }


def run(args) -> int:
    if not (SRC / "zdg" / "__init__.py").is_file():
        print(f"perfbench: no zdg sources under {SRC}; run from the root "
              "of a checkout", file=sys.stderr)
        return 2
    try:
        from workloads import WORKLOADS
    except ImportError as err:
        print(f"perfbench: {err}; the reference needs sympy", file=sys.stderr)
        return 2
    ns = WORKLOADS[args.workload](args.seed)
    checker = Checker(ns)
    env = environment()
    env["loadavg_before"] = os.getloadavg()
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    OUT.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=stem + "-", dir=OUT))
    try:
        spec = {"ns": ns, "seed": args.seed, "sweep_range": contiguous(ns),
                "tmp": str(tmp),
                "seconds": args.seconds, "trace": args.trace,
                "spans": str(OUT / f"{stem}-spans.jsonl")}
        (tmp / "spec.json").write_text(json.dumps(spec))
        code = run_worker(tmp / "spec.json", tmp / "result.json")
        if code != 0:
            why = "timed out" if code is None else f"exited {code}"
            print(f"perfbench: worker {why}", file=sys.stderr)
            return 1
        result = json.loads((tmp / "result.json").read_text())
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    env["loadavg_after"] = os.getloadavg()
    if not Path(result["zdg_file"]).resolve().is_relative_to(SRC):
        print(f"perfbench: zdg was imported from {result['zdg_file']}, "
              f"not from {SRC}", file=sys.stderr)
        return 2

    rounds = result["rounds"]
    wrong = refused = attempted = 0
    for r in rounds:
        serial, *others = r["csv"]
        w, refused_here = checker.check(serial)
        wrong += w + sum(differing_lines(serial, o) for o in others)
        refused += refused_here
        attempted += len(ns) * len(r["csv"])
    composites = sum(checker.ref.is_composite(n, checker.factors[n]) for n in ns)
    witness_failures = sum(r["counts"]["witness_failures"] for r in rounds
                           if "counts" in r)
    failed = wrong + witness_failures

    if args.trace:
        metrics, extra = per_layer(rounds), {}
    else:
        metrics, extra = end_to_end(rounds, result, ns)
    detail = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "rounds": len(rounds), "ns": ns,
        **extra,
        "refused_ratio": refused / (composites * len(rounds)) if composites else 0.0,
        "wrong_rows": wrong, "witness_failures": witness_failures,
        "environment": env,
    }
    line = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    (OUT / f"{stem}.json").write_text(json.dumps({**detail, "result": line}))
    print(json.dumps(detail))
    print(json.dumps(line))
    return 0 if failed == 0 else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("dense-range", "near-guard", "big-n"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return run(parser.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
