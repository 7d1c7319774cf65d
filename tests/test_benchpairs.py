"""tools/benchpairs.py's verdict on fixed numbers; the tool is not run."""
from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "benchpairs.py"
_SPEC = importlib.util.spec_from_file_location("benchpairs", _PATH)
benchpairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(benchpairs)
Verdict = benchpairs.Verdict


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
