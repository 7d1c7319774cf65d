"""Command-line interface: subcommands, formats, exit codes."""
from __future__ import annotations

import hashlib
import json
import multiprocessing
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from zdg.cli import main
from zdg.connectivity import quotient_report
from zdg.graphs import build_compressed, build_explicit, export_dot
from zdg.harness import CSV_HEADER, analyze, render_csv, sweep


def test_analyze_csv(capsys):
    assert main(["analyze", "--n", "25"]) == 0
    out = capsys.readouterr().out
    lines = out.splitlines()
    assert lines[0] == CSV_HEADER
    assert lines[1].startswith("25,5^2,4,6,3,3,3,")
    assert len(lines) == 2


def test_analyze_json(capsys):
    assert main(["analyze", "--n", "25", "--format", "json"]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert len(rows) == 1
    assert rows[0]["n"] == 25
    assert rows[0]["match"] is True


def test_analyze_prime_is_a_skip_row(capsys):
    assert main(["analyze", "--n", "13"]) == 0
    out = capsys.readouterr().out
    assert "NoZeroDivisors" in out


def test_analyze_prime_near_2_63(child_env):
    proc = subprocess.run(
        [sys.executable, "-m", "zdg.cli", "analyze", "--n", "9223372036854775783"],
        capture_output=True,
        text=True,
        env=child_env,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    row = proc.stdout.splitlines()[1]
    assert row.startswith("9223372036854775783,9223372036854775783,")
    assert row.endswith(",NoZeroDivisors")


def test_analyze_rejects_bad_n(capsys):
    assert main(["analyze", "--n", "0"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("zdg: error:")


def test_analyze_row_z27(capsys):
    assert main(["analyze", "--n", "27"]) == 0
    line = capsys.readouterr().out.splitlines()[1]
    assert line.startswith("27,3^3,8,13,2,2,2,")


def test_sweep_stdout(capsys):
    assert main(["sweep", "--from", "4", "--to", "12"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 10
    assert [ln.split(",")[0] for ln in lines[1:]] == [
        str(n) for n in range(4, 13)
    ]


def test_sweep_output_file(tmp_path, capsys):
    target = tmp_path / "rows.csv"
    assert main(["sweep", "--from", "4", "--to", "20", "--output", str(target)]) == 0
    assert capsys.readouterr().out == ""
    assert target.read_text() == render_csv(sweep(4, 20))


def test_sweep_rejects_reversed_range(capsys):
    assert main(["sweep", "--from", "9", "--to", "4"]) == 1
    assert "zdg: error:" in capsys.readouterr().err


def test_sweep_jobs_deterministic(tmp_path):
    one = tmp_path / "one.csv"
    two = tmp_path / "two.csv"
    assert main(["sweep", "--from", "4", "--to", "40", "--output", str(one)]) == 0
    assert main(
        ["sweep", "--from", "4", "--to", "40", "--jobs", "2", "--output", str(two)]
    ) == 0
    assert one.read_bytes() == two.read_bytes()


# sha256 of `zdg sweep --from 4 --to 2000` and `zdg audit --from 4 --to 3000`
# output, recorded while each run rendered all its rows at once
_RANGE_SHA256 = {
    ("sweep", "2000", "csv"): "c4773acb3eb33c0f0905c99d34ed5d63c654c71545edfed00c606fea722f4974",
    ("sweep", "2000", "json"): "71198b9c6174a32818d00e5826a7182bb0f0d4d00f217d156b55230c60db0500",
    ("audit", "3000", None): "478a961d1a28e2c61910d07e1d9a47d5a7656416e2a08fef4917d248378ebc82",
}


@pytest.mark.parametrize("jobs", ["1", "2"])
@pytest.mark.parametrize("command, stop, fmt", list(_RANGE_SHA256))
def test_range_bytes_pinned(tmp_path, monkeypatch, command, stop, fmt, jobs):
    monkeypatch.setattr(os, "cpu_count", lambda: 2)  # a child on any host
    path = tmp_path / "out"
    argv = [command, "--from", "4", "--to", stop, "--jobs", jobs]
    argv += ["--format", fmt] * (fmt is not None) + ["--output", str(path)]
    assert main(argv) == 0
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digest == _RANGE_SHA256[command, stop, fmt]
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("command", ["sweep", "audit"])
@pytest.mark.parametrize(
    "start, stop, jobs", [("9", "4", "2"), ("4", "9", "0"), ("4", str(2**63), "2")]
)
def test_range_refused_before_any_work(
    tmp_path, capsys, monkeypatch, command, start, stop, jobs
):
    def refuse(*args, **kwargs):
        raise AssertionError("a process was started")

    monkeypatch.setattr(multiprocessing, "Process", refuse)
    path = tmp_path / "out"
    argv = [command, "--from", start, "--to", stop, "--jobs", jobs]
    assert main(argv + ["--output", str(path)]) == 1
    assert not path.exists()
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("zdg: error:")


def test_audit_clean_range(capsys):
    assert main(["audit", "--from", "4", "--to", "30"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1] == "checked 19 composite values, 0 mismatches"
    # offenders listed above the verdict are exactly the prime skips
    assert len(lines) == 9
    assert all("NoZeroDivisors" in ln for ln in lines[:-1])


def test_export_dot(capsys):
    assert main(["export-dot", "--n", "8"]) == 0
    assert capsys.readouterr().out == "".join(export_dot(build_explicit(8)))


def test_export_dot_colored(capsys):
    assert main(["export-dot", "--n", "12", "--color-classes"]) == 0
    out = capsys.readouterr().out
    assert "fillcolor" in out
    assert out == "".join(export_dot(build_explicit(12), color_by_class=True))


@pytest.mark.parametrize("color", [False, True])
def test_export_dot_output_file(tmp_path, color):
    path = tmp_path / "z27.dot"
    argv = ["export-dot", "--n", "27", "--output", str(path)]
    assert main(argv + ["--color-classes"] * color) == 0
    expected = "".join(export_dot(build_explicit(27), color_by_class=color))
    assert path.read_bytes() == expected.encode()


# sha256 of `zdg export-dot` output, independent of export_dot itself, so a
# rewrite of it cannot move both sides of the comparison
_DOT_SHA256 = {
    (27, False): "f40083c5f03faa3a68ba693a30b8038134373d844d9ecaf60dd8530e0e82b0d1",
    (27, True): "9eecfc9ee2ca421192d553ca8be3d74ad3c7066b9d5f07e5d5b4b89047012542",
    (3600, False): "b487a2f19b37529176eead017070eee1235465221986f7461afa9ee9d0250f7c",
    (3600, True): "e0f782aa86a0ff2e7599d66ef5add4b0f30cc2b7536f67da502cd7125e0a6589",
}


@pytest.mark.parametrize("n, color", list(_DOT_SHA256))
def test_export_dot_bytes_pinned(tmp_path, n, color):
    path = tmp_path / "out.dot"
    argv = ["export-dot", "--n", str(n), "--output", str(path)]
    assert main(argv + ["--color-classes"] * color) == 0
    assert hashlib.sha256(path.read_bytes()).hexdigest() == _DOT_SHA256[n, color]


def test_export_dot_rejects_prime(capsys):
    assert main(["export-dot", "--n", "7"]) == 1
    assert "zdg: error:" in capsys.readouterr().err


def test_usage_errors_exit_1(capsys):
    assert main([]) == 1
    assert main(["analyze"]) == 1
    assert main(["analyze", "--n", "25", "--format", "xml"]) == 1
    assert main(["no-such-command"]) == 1
    capsys.readouterr()
    for command in ("sweep", "audit"):  # past 64 bits: no traceback
        assert main([command, "--from", "4", "--to", str(10**20)]) == 1
        assert capsys.readouterr().err == (
            f"zdg: error: n must be in [1, 2^63 - 1], got {10**20}\n"
        )


def test_unread_flags_are_usage_errors(capsys):
    # each subcommand takes only the flags it reads
    assert main(["export-dot", "--n", "8", "--jobs", "2"]) == 1
    assert main(["export-dot", "--n", "8", "--format", "json"]) == 1
    assert main(["export-dot", "--n", "8", "--oracle", "flow"]) == 1
    assert main(["analyze", "--n", "25", "--jobs", "2"]) == 1
    assert main(["audit", "--from", "4", "--to", "9", "--format", "csv"]) == 1
    # one connectivity engine, so no subcommand takes --oracle
    assert main(["analyze", "--n", "25", "--oracle", "flow"]) == 1
    assert main(["sweep", "--from", "4", "--to", "9", "--oracle", "flow"]) == 1
    assert main(["audit", "--from", "4", "--to", "9", "--oracle", "flow"]) == 1
    assert capsys.readouterr().out == ""


def test_help_exits_0(capsys):
    assert main(["--help"]) == 0
    assert "analyze" in capsys.readouterr().out


def test_module_entry_point(child_env):
    proc = subprocess.run(
        [sys.executable, "-m", "zdg.cli", "analyze", "--n", "25"],
        capture_output=True,
        text=True,
        env=child_env,
    )
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[0] == CSV_HEADER


def test_console_script(child_env):
    """The `[project.scripts]` entry gives a working `zdg` command.

    The target is read from pyproject.toml and run in a fresh interpreter the
    way a generated console script runs it, so no install is needed.
    """
    try:
        import tomllib
    except ModuleNotFoundError:  # Python 3.10
        tomllib = pytest.importorskip("tomli")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with pyproject.open("rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["zdg"]
    module, func = target.split(":")
    assert (module, func) == ("zdg.cli", "main")
    script = f"import sys; from {module} import {func}; sys.exit({func}())"
    proc = subprocess.run(
        [sys.executable, "-c", script, "audit", "--from", "4", "--to", "10"],
        capture_output=True,
        text=True,
        env=child_env,
    )
    assert proc.returncode == 0
    assert proc.stdout.rstrip().endswith("0 mismatches")


def test_import_loads_no_pool_or_dataclasses(child_env):
    # every command pays for what importing the CLI loads; only sweep and
    # audit with --jobs > 1 need the process pool
    script = (
        "import json, sys; before = set(sys.modules); import zdg.cli; "
        "print(json.dumps(sorted(set(sys.modules) - before)))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env=child_env,
    )
    assert proc.returncode == 0, proc.stderr
    added = json.loads(proc.stdout)
    assert "zdg.cli" in added
    heavy = ("multiprocessing", "concurrent.futures", "dataclasses")
    assert [m for m in added if m.startswith(heavy)] == []


def test_results_survive_pickle():
    # sweep(jobs > 1) gets each chunk's rows from its worker processes
    # pickled; the CLI's workers send rendered text instead
    for record in (analyze(25), quotient_report(build_compressed(12))):
        copy = pickle.loads(pickle.dumps(record))
        assert type(copy) is type(record)
        assert copy == record
