"""Paired benchmark runs: a parent commit against HEAD, the change.

    python tools/benchpairs.py --parent HEAD~1 --workload dense-range \\
        --first-seed 41 --pairs 10

Commit the change first: the tool measures commits, not the working tree.
It unpacks a `git archive` of the --parent ref and one of HEAD, each to
its own temporary directory, so neither side carries a bytecode cache,
untracked files or an old .perfbench_out/.  --parent HEAD is an A/A run.
Each pair runs

    perfbench/run.py --workload W --seed S --seconds T --trace 0

with T the `run_seconds` of BENCHMARK.json, once in each tree, on seeds
first-seed, first-seed + 1, ...  The parent runs first in even pairs, the
change in odd ones.  Each run prints one line: its side, seed, round
count, whether its rows were correct, its failed operations and its
end-to-end metrics.
After a workload's pairs, one line gives each side's share of failed
operations, then one line per end-to-end metric of BENCHMARK.json gives
both medians, the parent's quartiles, the pairs the change wins (ties
count for neither side) and whether a claim of a gain holds (verdict).
The last line is one JSON object, the record: the parent ref, both
commits, the Python version, the CPU count and run_seconds, then per
workload every run and every end-to-end metric's verdict.

Standard library only.  A workload takes minutes, so no test runs it on
the benchmark; tests/test_benchpairs.py checks the verdict and the record
on fixed numbers.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
# a claim needs this many pairs, won in at least nine tenths of them
MIN_PAIRS = 10


class Verdict(NamedTuple):
    parent_median: float
    change_median: float
    parent_q1: float
    parent_q3: float
    wins: int  # pairs where the change is strictly better
    pairs: int
    holds: bool


def verdict(parent: list[float], change: list[float], better: str, *,
            change_failed: int) -> Verdict:
    """Whether the change's values beat the parent's, pair by pair.

    parent[i] and change[i] are one pair; better is "lower" or "higher";
    change_failed counts the failed operations over all the change's runs.
    The claim holds when no change run failed an operation (so none is
    incorrect, and the change fails no more than the parent), at least
    MIN_PAIRS pairs ran, the change wins at least nine tenths of them, and
    the medians differ in the better direction by more than the distance
    between the parent's quartiles (statistics.quantiles, inclusive method).
    """
    if len(parent) != len(change) or len(parent) < 2:
        raise ValueError("need one parent and one change value per pair, "
                         "and at least two pairs")
    if better not in ("lower", "higher"):
        raise ValueError(f"better is 'lower' or 'higher', not {better!r}")
    sign = 1 if better == "lower" else -1
    pairs = len(parent)
    wins = sum(sign * (p - c) > 0 for p, c in zip(parent, change))
    p_med, c_med = statistics.median(parent), statistics.median(change)
    q1, _, q3 = statistics.quantiles(parent, n=4, method="inclusive")
    holds = (
        change_failed == 0
        and pairs >= MIN_PAIRS
        and 10 * wins >= 9 * pairs
        and sign * (p_med - c_med) > q3 - q1
    )
    return Verdict(p_med, c_med, q1, q3, wins, pairs, holds)


def _unpack(ref: str, dest: Path) -> str:
    """Unpack a `git archive` of ref into dest, a new directory; return
    ref's commit."""
    def git(*args: str) -> bytes:
        return subprocess.run(["git", "-C", str(ROOT), *args],
                              capture_output=True, check=True).stdout

    commit = git("rev-parse", "--verify", f"{ref}^{{commit}}").decode().strip()
    dest.mkdir()
    subprocess.run(["tar", "-x", "-C", str(dest)],
                   input=git("archive", commit), check=True)
    return commit


def _run(tree: Path, workload: str, seed: int, seconds: int) -> dict:
    """One untraced perfbench run in tree: its rounds, verdict and metrics."""
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True)
    try:
        detail, result = map(json.loads, done.stdout.splitlines()[-2:])
    except ValueError:  # fewer than two lines, or not JSON
        sys.exit(f"benchpairs: perfbench in {tree} exited {done.returncode} "
                 f"without its result lines:\n{done.stderr[-2000:]}")
    return {
        "rounds": detail["rounds"],
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: m["value"] for k, m in result["metrics"].items()},
    }


def _pairs(trees: dict[str, Path], workload: str, seeds: range,
           seconds: int) -> list[dict]:
    """Every run of the workload, in the order they ran."""
    runs = []
    for i, seed in enumerate(seeds):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            run = {"side": side, "seed": seed,
                   **_run(trees[side], workload, seed, seconds)}
            runs.append(run)
            values = " ".join(f"{k}={v:.6g}" for k, v in run["metrics"].items())
            print(f"{workload} seed {seed} {side}: rounds={run['rounds']} "
                  f"correct={run['correct']} failed={run['failed']} {values}",
                  flush=True)
    return runs


def workload_record(runs: list[dict], metrics: list[dict]) -> dict:
    """A workload's runs and, per end-to-end metric, its verdict as a dict.

    runs are the dicts _pairs returns, one parent and one change run per
    seed; metrics are BENCHMARK.json's end_to_end entries.
    """
    sides = {side: [r for r in runs if r["side"] == side]
             for side in ("parent", "change")}
    change_failed = sum(r["failed"] for r in sides["change"])
    return {
        "runs": runs,
        "metrics": {
            m["name"]: verdict(
                [r["metrics"][m["name"]] for r in sides["parent"]],
                [r["metrics"][m["name"]] for r in sides["change"]],
                m["better"], change_failed=change_failed)._asdict()
            for m in metrics
        },
    }


def _report(workload: str, record: dict) -> None:
    runs = record["runs"]
    shares = ", ".join(
        f"{side} {sum(r['failed'] for r in runs if r['side'] == side)} of "
        f"{sum(r['attempted'] for r in runs if r['side'] == side)}"
        for side in ("parent", "change"))
    print(f"{workload}: failed operations {shares}; parent median [q1, q3] "
          f"-> change median, pairs the change wins")
    for name, v in record["metrics"].items():
        p_med, c_med = v["parent_median"], v["change_median"]
        gap = (c_med / p_med - 1) if p_med else 0
        print(f"  {name}: {p_med:.6g} [{v['parent_q1']:.6g}, "
              f"{v['parent_q3']:.6g}] -> {c_med:.6g} ({gap:+.1%}), "
              f"wins {v['wins']}/{v['pairs']}, claim "
              f"{'holds' if v['holds'] else 'does not hold'}", flush=True)


def main(argv: list[str] | None = None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True,
                        help="git ref of the parent commit")
    parser.add_argument("--workload", action="append",
                        choices=[w["name"] for w in bench["workloads"]],
                        help="repeatable; default every workload")
    parser.add_argument("--first-seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, default=MIN_PAIRS)
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2")
    seconds = bench["run_seconds"]
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    seeds = range(args.first_seed, args.first_seed + args.pairs)
    with tempfile.TemporaryDirectory(prefix="benchpairs-") as tmp:
        trees = {"parent": Path(tmp) / "parent", "change": Path(tmp) / "change"}
        commits = {side: _unpack(ref, trees[side])
                   for side, ref in (("parent", args.parent), ("change", "HEAD"))}
        print(f"parent {args.parent} = {commits['parent']}, change HEAD = "
              f"{commits['change']}; seeds {seeds.start}..{seeds.stop - 1}, "
              f"--seconds {seconds}", flush=True)
        record = {
            "parent_ref": args.parent,
            "parent_commit": commits["parent"],
            "change_commit": commits["change"],
            "python": platform.python_version(),
            "cpu_count": os.cpu_count(),
            "run_seconds": seconds,
            "workloads": {},
        }
        for workload in workloads:
            runs = _pairs(trees, workload, seeds, seconds)
            record["workloads"][workload] = done = workload_record(
                runs, bench["end_to_end"])
            _report(workload, done)
    print(json.dumps(record), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
