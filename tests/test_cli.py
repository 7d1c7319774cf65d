"""Command-line interface: subcommands, formats, exit codes."""
from __future__ import annotations

import ast
import builtins
import hashlib
import importlib
import json
import multiprocessing
import os
import pickle
import signal
import subprocess
import sys
import typing
from math import gcd
from pathlib import Path

import pytest

import zdg
from zdg import graphs
from zdg.arith import factorize
from zdg.cli import main
from zdg.errors import CertificateError, ResourceLimitError
from zdg.graphs import build_compressed, build_explicit, export_dot, quotient_report
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


@pytest.mark.parametrize("command", ["sweep", "audit"])
@pytest.mark.parametrize("jobs", ["1", "2"])
def test_reader_hanging_up_is_quiet(child_env, command, jobs):
    # `zdg sweep ... | head -n 2`: no message, exit 1 since the run did not
    # finish, and no worker left running in the process group
    script = (
        "import os, sys; os.cpu_count = lambda: 2; "  # a child on any host
        "from zdg.cli import main; sys.exit(main())"
    )
    argv = [command, "--from", "4", "--to", "100000", "--jobs", jobs]
    proc = subprocess.Popen(
        [sys.executable, "-c", script, *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=child_env,
        start_new_session=True,
    )
    assert all(proc.stdout.readline().endswith(b"\n") for _ in range(2))
    proc.stdout.close()
    try:
        assert proc.wait(timeout=120) == 1
        with pytest.raises(ProcessLookupError):
            os.killpg(proc.pid, 0)  # signal 0 only asks whether any is left
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    assert proc.stderr.read() == b""
    proc.stderr.close()


def test_audit_clean_range(capsys):
    assert main(["audit", "--from", "4", "--to", "30"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1] == "checked 19 composite values, 0 mismatches"
    # offenders listed above the verdict are exactly the prime skips
    assert len(lines) == 9
    assert all("NoZeroDivisors" in ln for ln in lines[:-1])


def _check_dot(text, n, color):
    """text is the explicit graph of Z_n in DOT, each edge once, smaller end
    first; with color, the fills differ exactly where the classes do."""
    g = build_explicit(n)
    lines = text.splitlines()
    assert (lines[0], lines[-1]) == (f"graph zdg_{n} {{", "}")
    vertices, edges, fills = [], [], set()
    for line in lines[1:-1]:
        head, _, tail = line.strip().rstrip(";").partition(" ")
        if tail.startswith("-- "):
            edges.append((int(head), int(tail[3:])))
        else:
            vertices.append(int(head))
            fills.add((gcd(int(head), n), tail))
    assert vertices == list(g.vertices)
    assert edges == [(u, w) for u in g.vertices for w in g.adjacency[u] if u < w]
    classes, colors = {d for d, _ in fills}, {a for _, a in fills}
    if color:
        assert len(fills) == len(colors) == len(classes)  # one fill per class
        assert all(a.startswith('[style=filled, fillcolor="') for a in colors)
    else:
        assert colors == {""}


_DOT_NS = [n for n in range(4, 301) if factorize(n).is_composite()] + [5005]


def test_export_dot(capsys):
    assert main(["export-dot", "--n", "8"]) == 0
    _check_dot(capsys.readouterr().out, 8, False)
    for n in _DOT_NS:
        _check_dot("".join(export_dot(n)), n, False)


def test_export_dot_colored(capsys):
    assert main(["export-dot", "--n", "12", "--color-classes"]) == 0
    _check_dot(capsys.readouterr().out, 12, True)
    for n in _DOT_NS:
        _check_dot("".join(export_dot(n, color_by_class=True)), n, True)


@pytest.mark.parametrize("color", [False, True])
def test_export_dot_output_file(tmp_path, capsys, color):
    path = tmp_path / "z27.dot"
    argv = ["export-dot", "--n", "27", "--output", str(path)]
    assert main(argv + ["--color-classes"] * color) == 0
    assert capsys.readouterr().out == ""
    _check_dot(path.read_text(), 27, color)


# sha256 of `zdg export-dot` output, independent of export_dot itself, so a
# rewrite of it cannot move both sides of the comparison; those from 4 on
# were recorded while export-dot still built the explicit graph
_DOT_SHA256 = {
    (27, False): "f40083c5f03faa3a68ba693a30b8038134373d844d9ecaf60dd8530e0e82b0d1",
    (27, True): "9eecfc9ee2ca421192d553ca8be3d74ad3c7066b9d5f07e5d5b4b89047012542",
    (3600, False): "b487a2f19b37529176eead017070eee1235465221986f7461afa9ee9d0250f7c",
    (3600, True): "e0f782aa86a0ff2e7599d66ef5add4b0f30cc2b7536f67da502cd7125e0a6589",
    (4, False): "515f1aaca08359eb97425204426cae169525eec5d6fbdae5fac269323c73cc71",
    (4, True): "d8adbef0c7f7615470c44a5b2de1ba57266f4721ba3332d94fca9d8366ebff84",
    (9, False): "3df0a6af6d026273dd2aa3201bd460a826c08e6a2c0953b0617ed14ef153a517",
    (9, True): "b71e9921631edefbe85fb3db145d6cdde21cc6d3970aded759db709075dc45fc",
    (12, False): "de423bd17646a560fb755e231004ede3f35e0e198a92e21500490ab20789b5f4",
    (12, True): "3ea4cd9b325b1d78297eb96f356ddbcdc89fe39a3d581e7121b1035c818c729d",
    (25, False): "4fb210d54923f79940f621feb647819679a77bcb10e63da32701a48468254485",
    (25, True): "bfabdf3558b96924fd8177a9ed040c1f94b5b55c73d95c4e1cffd215a6271f43",
    (5005, False): "a8f23e07f6123020db62f4e0781aa3f01ae64079f865a80b834fa00fc5934e95",
    (5005, True): "2cc548b1dfc9a55c10aed08bc0794b38c62dfbe8e3353d6295bfec6cc087ef1e",
    (161051, False): "d15cf84ed78dc4192dcc569f30e59a9c38ac9fbe994270155cfe5fa368366e45",
    (161051, True): "110c193972181c97e8508bb333c75f6d4a8f39def5722dfb3c3226da5308640d",
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


@pytest.mark.parametrize("n", ["7", "1000003000002"])  # prime, past the guard
def test_export_dot_refused_writes_no_file(tmp_path, capsys, n):
    path = tmp_path / "out.dot"
    assert main(["export-dot", "--n", n, "--output", str(path)]) == 1
    out, err = capsys.readouterr()
    assert (out, err.startswith("zdg: error:")) == ("", True)
    assert not path.exists()


@pytest.mark.parametrize("color", [False, True])
def test_export_dot_builds_no_explicit_graph(monkeypatch, capsys, color):
    def refuse(n):
        raise AssertionError(f"build_explicit({n}) called")

    monkeypatch.setattr(graphs, "build_explicit", refuse)
    assert main(["export-dot", "--n", "12"] + ["--color-classes"] * color) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == _DOT_SHA256[12, color]


# analyze's witness-root check fails at the planted n; the fork start
# method gives a worker child the same planted module
_PLANT = """\
import multiprocessing, os, sys
multiprocessing.set_start_method("fork")
os.cpu_count = lambda: 2
from zdg import cli, harness
report = harness.quotient_report
def planted(n, classes):
    rep = report(n, classes)
    return rep._replace(root=3) if n == {n} else rep
harness.quotient_report = planted
sys.exit(cli.main(["sweep", "--from", "990", "--to", "1010", "--jobs", "{jobs}"]))
"""


@pytest.mark.parametrize("flags", [[], ["-O"]])
@pytest.mark.parametrize("jobs, n", [(1, 1000), (2, 1000), (2, 1001)])
def test_certificate_failure_is_one_line(child_env, flags, jobs, n):
    # at --jobs 2 the chunks hold one n each and alternate, so the worker
    # child analyses 1001 and the calling process 1000
    proc = subprocess.run(
        [sys.executable, *flags, "-c", _PLANT.format(n=n, jobs=jobs)],
        capture_output=True,
        text=True,
        env=child_env,
        timeout=60,
    )
    least = {1000: 2, 1001: 7}[n]
    assert proc.returncode == 3
    assert proc.stderr == (
        f"zdg: certificate failed: n={n}: the engine's witness root is 3, "
        f"not the least prime {least}\n"
    )
    rows = proc.stdout.splitlines()
    assert rows[0] == CSV_HEADER
    assert [int(row.split(",")[0]) for row in rows[1:]] == list(range(990, n))


# factorize's product check fails at 2 * 1000003 = 2000006, whose cofactor
# 1000003 is planted to split into the wrong prime 1000005
_FACTORIZE_PLANT = """\
import multiprocessing, os, sys
multiprocessing.set_start_method("fork")
os.cpu_count = lambda: 2
from zdg import arith, cli
split = arith._split
def planted(m, out):
    if m == 1000003:
        out.append(1000005)
    else:
        split(m, out)
arith._split = planted
argv = ["sweep", "--from", "{start}", "--to", "2000016", "--jobs", "{jobs}"]
sys.exit(cli.main(argv))
"""


@pytest.mark.parametrize("flags", [[], ["-O"]])
@pytest.mark.parametrize("jobs, start", [(1, 2000000), (2, 2000000), (2, 2000001)])
def test_factorization_failure_is_one_line(child_env, flags, jobs, start):
    # at --jobs 2 the chunks hold one n each and alternate, so 2000006 is
    # the calling process's from 2000000 and the worker child's from 2000001
    proc = subprocess.run(
        [sys.executable, *flags, "-c", _FACTORIZE_PLANT.format(start=start, jobs=jobs)],
        capture_output=True,
        text=True,
        env=child_env,
        timeout=60,
    )
    assert proc.returncode == 3
    assert proc.stderr == (
        "zdg: certificate failed: n=2000006: prime powers multiply to 2000010, "
        "expected 2000006\n"
    )
    rows = proc.stdout.splitlines()
    assert rows[0] == CSV_HEADER
    assert [int(row.split(",")[0]) for row in rows[1:]] == list(range(start, 2000006))


# the worker child exits without a word at 1001, so its pipe reaches EOF
_DEATH_PLANT = """\
import multiprocessing, os, sys
multiprocessing.set_start_method("fork")
os.cpu_count = lambda: 2
from zdg import cli, harness
analyze = harness.analyze
def planted(n):
    if n == 1001 and multiprocessing.parent_process() is not None:
        os._exit(3)
    return analyze(n)
harness.analyze = planted
sys.exit(cli.main(["sweep", "--from", "990", "--to", "1010", "--jobs", "2"]))
"""


def test_dead_worker_is_one_line(child_env):
    proc = subprocess.Popen(
        [sys.executable, "-c", _DEATH_PLANT],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=child_env,
        start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=60)
        with pytest.raises(ProcessLookupError):
            os.killpg(proc.pid, 0)  # no worker left in the process group
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    assert proc.returncode == 1
    assert err == "zdg: error: worker 1 ended before sending n = 1001..1001\n"
    rows = out.splitlines()
    assert rows[0] == CSV_HEADER
    assert [int(row.split(",")[0]) for row in rows[1:]] == list(range(990, 1001))


# the classes cli.main reports in one line, not as a traceback
_ONE_LINE_ERRORS = (ValueError, OSError, ResourceLimitError, CertificateError)


def _raised_class(module, node: ast.expr):
    """The class a raise of node throws: a class named directly or called,
    or the return annotation of a called helper; None if unnamed."""
    if isinstance(node, ast.Call):
        node = node.func
    if not isinstance(node, ast.Name):
        return None
    named = getattr(module, node.id, getattr(builtins, node.id, None))
    if callable(named) and not isinstance(named, type):
        named = typing.get_type_hints(named).get("return")
    return named if isinstance(named, type) else None


def test_every_raise_is_one_line():
    # a raise the CLI does not catch prints a traceback and exits 1, the
    # usage-error code; a name bound by an except clause is a caught error
    # passed on, which is checked where it was first raised
    package = Path(zdg.__file__).parent
    offenders = []
    for path in sorted(package.glob("*.py")):
        name = "zdg" if path.stem == "__init__" else f"zdg.{path.stem}"
        module = importlib.import_module(name)
        tree = ast.parse(path.read_text())
        caught = {h.name for h in ast.walk(tree) if isinstance(h, ast.ExceptHandler)}
        for node in ast.walk(tree):
            if not isinstance(node, ast.Raise) or node.exc is None:
                continue
            if isinstance(node.exc, ast.Name) and node.exc.id in caught:
                continue
            cls = _raised_class(module, node.exc)
            if cls is None or not issubclass(cls, _ONE_LINE_ERRORS):
                offenders.append(f"{path.name}:{node.lineno}")
    assert offenders == []


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
    # audit with --jobs > 1 need the process pool, and only JSON output needs
    # json
    script = (
        "import sys; before = set(sys.modules); import zdg.cli; "
        "print(repr(sorted(set(sys.modules) - before)))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env=child_env,
    )
    assert proc.returncode == 0, proc.stderr
    added = ast.literal_eval(proc.stdout)
    assert "zdg.cli" in added
    heavy = (
        "multiprocessing", "concurrent.futures", "dataclasses", "zdg.connectivity",
        "json", "_json",
    )
    assert [m for m in added if m.startswith(heavy)] == []


def test_serial_sweep_loads_no_multiprocessing(child_env):
    # with one worker the runner starts no child, so nothing imports the
    # pool; and no command of the pipeline loads the flow oracle
    script = (
        "import os, sys; from zdg import cli; "
        "code = cli.main(['sweep', '--from', '4', '--to', '100']); "
        "quiet = ['--output', os.devnull]; "
        "codes = [code, cli.main(['audit', '--from', '4', '--to', '100', *quiet]), "
        "cli.main(['analyze', '--n', '105', *quiet])]; "
        "heavy = ('multiprocessing', 'zdg.connectivity'); "
        "loaded = sorted(m for m in sys.modules if m.startswith(heavy)); "
        "print(codes, loaded, file=sys.stderr)"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env=child_env,
    )
    assert proc.stderr == "[0, 0, 0] []\n"
    assert proc.stdout.startswith("n,factorization,")
    assert len(proc.stdout.splitlines()) == 98  # header and n = 4..100


def test_results_survive_pickle():
    # sweep(jobs > 1) gets each chunk's rows from its worker processes
    # pickled; the CLI's workers send rendered text instead
    for record in (analyze(25), quotient_report(*build_compressed(12))):
        copy = pickle.loads(pickle.dumps(record))
        assert type(copy) is type(record)
        assert copy == record
