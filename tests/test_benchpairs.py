"""tools/benchpairs.py's verdict and record on fixed numbers, and which
trees it runs in, with git and perfbench stubbed out."""
from __future__ import annotations

import importlib.util
import json
import os
import platform
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "benchpairs.py"
_SPEC = importlib.util.spec_from_file_location("benchpairs", _PATH)
benchpairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(benchpairs)
Verdict = benchpairs.Verdict
BENCH = json.loads((benchpairs.ROOT / "BENCHMARK.json").read_text())


def verdict(parent, change, better, change_failed=0):
    return benchpairs.verdict(parent, change, better,
                              change_failed=change_failed)


# median 14.5, inclusive quartiles 12.25 and 16.75: a gap must exceed 4.5
PARENT = [10.0, 11.0, 12.0, 13.0, 14.0, 15.0, 16.0, 17.0, 18.0, 19.0]


def _shifted(by: float) -> list[float]:
    return [p + by for p in PARENT]


def test_verdict_all_pairs_won_past_the_quartiles():
    assert verdict(PARENT, _shifted(-5), "lower") == Verdict(
        14.5, 9.5, 12.25, 16.75, 10, 10, True
    )


def test_verdict_gap_inside_the_quartiles():
    v = verdict(PARENT, _shifted(-4), "lower")
    assert (v.wins, v.change_median, v.holds) == (10, 10.5, False)


def test_verdict_ties_count_for_neither_side():
    nine = _shifted(-5)
    nine[9] = PARENT[9]  # one tie: 9 wins of 10, median still 9.5
    assert verdict(PARENT, nine, "lower")[4:] == (9, 10, True)
    eight = nine[:]
    eight[8] = PARENT[8]  # two ties: 8 wins of 10
    v = verdict(PARENT, eight, "lower")
    assert (v.change_median, v.wins, v.holds) == (9.5, 8, False)


def test_verdict_one_lost_pair():
    lost = _shifted(-5)
    lost[9] = PARENT[9] + 1  # the median stays 9.5
    assert verdict(PARENT, lost, "lower")[4:] == (9, 10, True)
    lost[8] = PARENT[8] + 1
    assert verdict(PARENT, lost, "lower")[4:] == (8, 10, False)


def test_verdict_higher_is_better():
    assert verdict(PARENT, _shifted(5), "higher")[4:] == (10, 10, True)
    assert verdict(PARENT, _shifted(-5), "higher")[4:] == (0, 10, False)


def test_verdict_needs_ten_pairs():
    v = verdict(PARENT[:9], _shifted(-5)[:9], "lower")
    assert (v.wins, v.pairs, v.holds) == (9, 9, False)


def test_verdict_fails_when_the_change_fails_operations():
    # the timings alone would hold, as in the first test
    v = verdict(PARENT, _shifted(-5), "lower", change_failed=1)
    assert (v.wins, v.change_median, v.holds) == (10, 9.5, False)


def test_verdict_rejects_unpaired_values():
    with pytest.raises(ValueError):
        verdict(PARENT, PARENT[:9], "lower")
    with pytest.raises(ValueError):
        verdict([2.0], [1.0], "lower")
    with pytest.raises(ValueError):
        verdict(PARENT, PARENT, "smaller")


def _runs(parent, change, change_failed=0):
    """One parent and one change run per seed, as the tool's _pairs makes."""
    runs = []
    for seed, (p, c) in enumerate(zip(parent, change), start=1):
        for side, value, failed in (("parent", p, 0), ("change", c, change_failed)):
            runs.append({"side": side, "seed": seed, "rounds": 50,
                         "correct": failed == 0, "attempted": 100,
                         "failed": failed, "metrics": {"wall_s": value}})
    return runs


WALL = [{"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25}]


def test_workload_record_holds_runs_and_verdicts():
    runs = _runs(PARENT, _shifted(-5))
    record = benchpairs.workload_record(runs, WALL)
    assert record == {
        "runs": runs,
        "metrics": {"wall_s": {
            "parent_median": 14.5, "change_median": 9.5,
            "parent_q1": 12.25, "parent_q3": 16.75,
            "wins": 10, "pairs": 10, "holds": True,
        }},
    }
    assert json.loads(json.dumps(record)) == record
    failing = benchpairs.workload_record(_runs(PARENT, _shifted(-5), 1), WALL)
    assert failing["metrics"]["wall_s"]["holds"] is False


def test_main_runs_two_archives_and_never_the_root(monkeypatch, capsys):
    unpacked, ran = {}, []

    def unpack(ref, dest):
        dest.mkdir()
        unpacked[ref] = dest
        return f"commit of {ref}"

    def run(tree, workload, seed, seconds):
        ran.append(tree)
        return {"rounds": 50, "correct": True, "attempted": 100, "failed": 0,
                "metrics": {m["name"]: 1.0 for m in BENCH["end_to_end"]}}

    monkeypatch.setattr(benchpairs, "_unpack", unpack)
    monkeypatch.setattr(benchpairs, "_run", run)
    assert benchpairs.main(["--parent", "abc1234", "--workload", "near-guard",
                            "--first-seed", "7", "--pairs", "2"]) == 0
    assert list(unpacked) == ["abc1234", "HEAD"]
    assert unpacked["abc1234"] != unpacked["HEAD"]
    assert sorted(ran) == sorted([*unpacked.values()] * 2)
    root = benchpairs.ROOT
    assert not any(tree == root or tree.is_relative_to(root) for tree in ran)
    out = capsys.readouterr().out.splitlines()
    assert "commit of abc1234" in out[0] and "commit of HEAD" in out[0]
    record = json.loads(out[-1])
    assert {k: v for k, v in record.items() if k != "workloads"} == {
        "parent_ref": "abc1234", "parent_commit": "commit of abc1234",
        "change_commit": "commit of HEAD",
        "python": platform.python_version(), "cpu_count": os.cpu_count(),
        "run_seconds": BENCH["run_seconds"],
    }
    (workload,) = record["workloads"].values()
    assert [(r["side"], r["seed"]) for r in workload["runs"]] == [
        ("parent", 7), ("change", 7), ("change", 8), ("parent", 8)]
    assert list(workload["metrics"]) == [m["name"] for m in BENCH["end_to_end"]]
    assert all(v["wins"] == 0 and v["pairs"] == 2 and not v["holds"]
               for v in workload["metrics"].values())
