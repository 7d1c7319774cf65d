"""Audit harness: findings, sweeps, rendering, mismatch detection."""
from __future__ import annotations

import hashlib
import json
import multiprocessing
import os
import time

import pytest

import zdg.connectivity as connectivity
import zdg.graphs as graphs
import zdg.harness as harness
import zdg.quotient as quotient
from zdg.arith import factorize
from zdg.chunks import chunked
from zdg.errors import CertificateError, ResourceLimitError
from zdg.harness import (
    CSV_HEADER,
    AuditFinding,
    analyze,
    audit,
    csv_row,
    render,
    render_csv,
    render_json,
    sweep,
)


def test_analyze_z25():
    row = analyze(25)
    assert row == AuditFinding(
        n=25,
        factorization="5^2",
        vertices=4,
        edges=6,
        delta=3,
        kappa_e=3,
        kappa=3,
        pred_delta=3,
        pred_kappa_e=3,
        pred_kappa=3,
        tags="T4.5;T4.1;T3.1",
        match=True,
        skip_reason="",
    )


def test_analyze_z12():
    row = analyze(12)
    assert row.factorization == "2^2*3"
    assert (row.vertices, row.edges) == (7, 8)
    assert (row.delta, row.kappa_e, row.kappa) == (1, 1, 1)
    assert (row.pred_delta, row.pred_kappa_e, row.pred_kappa) == (1, 1, 1)
    assert row.tags == "T4.5;T4.3;T3.4"
    assert row.match is True


def test_analyze_prime_skips():
    row = analyze(13)
    assert row.n == 13
    assert row.factorization == "13"
    assert row.skip_reason == "NoZeroDivisors"
    assert row.match is False
    assert row.vertices is None and row.kappa is None
    assert row.tags == ""


def test_analyze_resource_skip():
    row = analyze(10**6)
    assert row.skip_reason == "ResourceLimit"
    assert row.factorization == "2^6*5^6"
    assert row.vertices is None


def test_analyze_answers_promptly():
    # each took over 100 s when analyze ran flows on the explicit graph
    for n, value in ((77077, 6), (241133, 58)):  # 7^2*11^2*13, 59*61*67
        t0 = time.perf_counter()
        row = analyze(n)
        assert time.perf_counter() - t0 < 1.0, n
        assert row.match is True
        assert (row.delta, row.kappa_e, row.kappa) == (value,) * 3


@pytest.mark.parametrize(
    "n, skip_reason",
    [
        (2**61 - 1, "NoZeroDivisors"),  # took over a minute by trial division
        (3037000493**2, "ResourceLimit"),
        (3037000453 * 3037000493, "ResourceLimit"),
    ],
)
def test_analyze_big_n_promptly(n, skip_reason):
    t0 = time.perf_counter()
    row = analyze(n)
    assert time.perf_counter() - t0 < 1.0
    assert row.skip_reason == skip_reason


@pytest.mark.parametrize(
    "n, vertices, edges",
    [
        (2 * 199999, 199999, 199998),  # vertices at most the limit
        (2 * 200003, 200003, 200002),  # vertices past it
        (7001 * 7129, 14128, 49896000),  # edges at most the limit
        (7001 * 7151, 14150, 50050000),  # edges past it
    ],
)
def test_resource_limit_is_the_explicit_guard(n, vertices, edges):
    c = graphs.build_compressed(n)
    assert (c.num_vertices(), c.num_edges()) == (vertices, edges)
    refused = (
        vertices > quotient.MAX_EXPLICIT_VERTICES
        or edges > quotient.MAX_EXPLICIT_EDGES
    )
    try:
        graphs.build_explicit(n)
    except ResourceLimitError:
        assert refused
    else:
        assert not refused
    row = analyze(n)
    assert (row.skip_reason == "ResourceLimit") == refused
    if not refused:
        assert (row.vertices, row.edges) == (vertices, edges)


@pytest.mark.parametrize(
    "n, vertices, edges, refused",
    [
        (599997, 200_000, 399_996, False),  # 3 * 199999: vertices at the limit
        (369778, 200_001, 1_757_260, True),  # 2 * 19 * 37 * 263: one past it
        (9973**2, 9972, 49_715_406, False),  # edges under the limit
        (10007**2, 10006, 50_055_015, True),  # past the edge limit alone
    ],
)
def test_guard_boundaries_on_analyze(n, vertices, edges, refused):
    # no explicit graph is built: analyze decides on the closed-form counts
    assert quotient.graph_size(factorize(n)) == (vertices, edges)
    row = analyze(n)
    assert (row.skip_reason == "ResourceLimit") == refused
    if not refused:
        assert (row.vertices, row.edges) == (vertices, edges)


def test_refused_rows_pinned():
    # sha256 of these rows' CSV while the guard still summed the classes;
    # moving it ahead of compress must keep every row's bytes
    ns = [
        735134400,
        6983776800,
        73513440000,
        321253732800,
        963761198400,
        997**3,
        10**6,
        2 * 199999,
        2 * 200003,
        7001 * 7129,
        7001 * 7151,
    ]
    text = render_csv([analyze(n) for n in ns])
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "f5eb98ce01a130686cac154b6c2641606575d9f73471785e881bf7065f6a9a1b"
    )


def test_refused_analyze_builds_no_classes(monkeypatch):
    def refuse(f):
        raise AssertionError(f"divisor_classes({f.n}) called")

    monkeypatch.setattr(harness, "divisor_classes", refuse)
    for n in (10**6, 963761198400):
        assert analyze(n).skip_reason == "ResourceLimit"


def test_size_cross_check_survives_optimize(run_optimized):
    # a closed form one edge off must fail analyze even where asserts are
    # stripped, since the class sums disagree with it
    proc = run_optimized(
        "import sys\n"
        "from zdg import harness, quotient\n"
        "from zdg.errors import CertificateError\n"
        "size = quotient.graph_size\n"
        "quotient.graph_size = lambda f: (size(f)[0], size(f)[1] + 1)\n"
        "try:\n"
        "    harness.analyze(12)\n"
        "except CertificateError as err:\n"
        "    print(sys.flags.optimize, err)\n"
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (
        "1 n=12: closed form gives 7 vertices and 9 edges, "
        "class sums give 7 and 8\n"
    )


def test_witness_check_survives_optimize(run_optimized):
    # a witness rooted at 7, so in class 15 of Z_105 and not 35 = 105/3,
    # must fail analyze even where asserts are stripped
    proc = run_optimized(
        "import sys\n"
        "from zdg import harness\n"
        "from zdg.errors import CertificateError\n"
        "report = harness.quotient_report\n"
        "def planted(n, classes):\n"
        "    return report(n, classes)._replace(root=7)\n"
        "harness.quotient_report = planted\n"
        "try:\n"
        "    harness.analyze(105)\n"
        "except CertificateError as err:\n"
        "    print(sys.flags.optimize, err)\n"
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (
        "1 n=105: the engine's witness root is 7, not the least prime 3\n"
    )


def test_certificate_checks_raise_certificate_error(monkeypatch):
    # each of the four checks, planted, raises the type the CLI reports as
    # a failed certificate (exit 3) rather than a usage error
    classes = graphs.build_compressed(105).classes
    small = [(d, 1 if d == 21 else size) for d, size in classes]
    stranded = [(d, size) for d, size in classes if d != 35]
    for planted in (small, stranded):
        with pytest.raises(CertificateError, match="is not certified$"):
            quotient.quotient_report(105, planted)
    with monkeypatch.context() as m:
        size = quotient.graph_size
        m.setattr(quotient, "graph_size", lambda f: (size(f)[0], size(f)[1] + 1))
        with pytest.raises(CertificateError, match="^n=12: closed form"):
            analyze(12)
    report = harness.quotient_report
    monkeypatch.setattr(
        harness, "quotient_report", lambda n, c: report(n, c)._replace(root=7)
    )
    with pytest.raises(CertificateError, match="^n=105: the engine's witness"):
        analyze(105)


def test_flow_oracle_builds_no_explicit_graph(monkeypatch):
    expected = sweep(4, 200)

    def refuse(n):
        raise AssertionError(f"build_explicit({n}) called")

    monkeypatch.setattr(graphs, "build_explicit", refuse)
    assert sweep(4, 200) == expected


def test_analyze_runs_no_flow(monkeypatch):
    # the quotient engine certifies kappa = delta from class sizes; the
    # sha256 is that of the 4..2000 CSV produced while it still ran flows
    def refuse(num_nodes):
        raise AssertionError("a flow network was built")

    monkeypatch.setattr(connectivity, "_FlowNet", refuse)
    text = render_csv(sweep(4, 2000))
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "c4773acb3eb33c0f0905c99d34ed5d63c654c71545edfed00c606fea722f4974"
    )


def test_analyze_factorizes_once(monkeypatch):
    calls = []

    def counting(n):
        calls.append(n)
        return factorize(n)

    monkeypatch.setattr(harness, "factorize", counting)
    for n in (12, 25, 10**6, 963761198400):
        calls.clear()
        analyze(n)
        assert calls == [n]


def test_analyze_input_validation():
    with pytest.raises(ValueError):
        analyze(0)
    with pytest.raises(ValueError):
        analyze(2**63)


def test_sweep_range_and_order():
    rows = sweep(4, 30)
    assert [r.n for r in rows] == list(range(4, 31))
    checked = [r for r in rows if not r.skip_reason]
    assert len(checked) == 19
    skipped = [r.n for r in rows if r.skip_reason]
    assert skipped == [5, 7, 11, 13, 17, 19, 23, 29]
    assert all(r.match for r in checked)


def test_sweep_input_validation(monkeypatch):
    with pytest.raises(ValueError):
        sweep(0, 5)
    with pytest.raises(ValueError):
        sweep(5, 4)
    with pytest.raises(ValueError):
        sweep(4, 10, jobs=0)
    with pytest.raises(ValueError, match=r"\[1, 2\^63 - 1\], got 10{20}$"):
        sweep(4, 10**20)  # too long for len(range)

    def refuse(n):
        raise AssertionError(f"analyze({n}) called")

    # 2^63 fits len(range) but not factorize: refuse before the first n
    monkeypatch.setattr(harness, "analyze", refuse)
    with pytest.raises(ValueError, match=r"got 9223372036854775808$"):
        sweep(4, 2**63)


def test_sweep_jobs_deterministic():
    serial = render_csv(sweep(4, 60))
    parallel = render_csv(sweep(4, 60, jobs=2))
    assert serial == parallel


def test_sweep_clamps_workers(monkeypatch):
    made = []

    class InlineProcess:
        """Runs its target in this process when started; starts no process."""

        def __init__(self, target, args, daemon):
            made[-1] += 1
            self.target, self.args = target, args

        def start(self):
            self.target(*self.args)

        def terminate(self):
            pass

        def join(self):
            pass

    def counted(start, stop, jobs):
        made.append(1)  # worker 0 is the calling process
        return sweep(start, stop, jobs=jobs)

    monkeypatch.setattr(multiprocessing, "Process", InlineProcess)
    serial = sweep(4, 20)
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    assert counted(4, 20, 8) == serial  # clamped to the cpu count
    assert counted(4, 6, 8) == serial[:3]  # clamped to the range
    assert counted(4, 20, 2) == serial
    assert counted(4, 4, 8) == serial[:1]  # one value: serial path
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert counted(4, 20, 8) == serial  # unknown cpu count: serial path
    assert made == [4, 3, 2, 1, 1]


def _fail_in_child(values):
    if multiprocessing.parent_process() is not None:
        raise RuntimeError(f"planted at n = {values.start}")
    return list(values)


def _exit_in_child(values):
    if multiprocessing.parent_process() is not None:
        os._exit(3)
    return list(values)


@pytest.fixture
def two_cpus(monkeypatch):
    """Let jobs=2 start a child process on any host."""
    monkeypatch.setattr(os, "cpu_count", lambda: 2)


def test_chunked_raises_a_child_error(two_cpus):
    # 4..2000 on two workers: chunks of 124, the second on the child
    chunks = chunked(_fail_in_child, 4, 2000, jobs=2)
    assert next(chunks) == list(range(4, 128))
    with pytest.raises(RuntimeError, match=r"^planted at n = 128$"):
        next(chunks)
    assert multiprocessing.active_children() == []


def test_chunked_reports_a_child_that_died(two_cpus):
    chunks = chunked(_exit_in_child, 4, 2000, jobs=2)
    assert next(chunks) == list(range(4, 128))
    with pytest.raises(
        ChildProcessError, match=r"^worker 1 ended before .* 128\.\.251$"
    ):
        next(chunks)
    assert multiprocessing.active_children() == []


def test_chunked_close_stops_children(two_cpus):
    chunks = chunked(list, 4, 100_000, jobs=2)
    assert next(chunks) == list(range(4, 1028))  # chunks of at most 1024
    assert len(multiprocessing.active_children()) == 1
    chunks.close()
    assert multiprocessing.active_children() == []


@pytest.fixture
def pipe_readers(monkeypatch):
    """The reading ends of the pipes chunked opens, in order."""
    readers = []
    pipe = multiprocessing.Pipe

    def recording(duplex=True):
        reader, writer = pipe(duplex)
        readers.append(reader)
        return reader, writer

    monkeypatch.setattr(multiprocessing, "Pipe", recording)
    return readers


@pytest.mark.parametrize("stop", ["whole", "closed", "child error"])
def test_chunked_closes_its_pipes(two_cpus, pipe_readers, stop):
    # a Connection dropped open closes silently when collected, with no
    # ResourceWarning, so only this test sees a reader left open
    if stop == "whole":
        assert [n for rows in chunked(list, 4, 2000, jobs=2) for n in rows] == (
            list(range(4, 2001))
        )
    elif stop == "closed":
        chunks = chunked(list, 4, 100_000, jobs=2)
        next(chunks)
        next(chunks)  # a chunk from the child
        chunks.close()
    else:
        with pytest.raises(RuntimeError, match="planted"):
            list(chunked(_fail_in_child, 4, 2000, jobs=2))
    assert [reader.closed for reader in pipe_readers] == [True]
    assert multiprocessing.active_children() == []


def test_chunked_checks_before_running(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a process was started")

    monkeypatch.setattr(multiprocessing, "Process", refuse)
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    cases = [(9, 4, 2), (4, 9, 0), (4, 2**63, 2)]
    cases += [(4, 9, jobs) for jobs in ("2", 2.0, 2.5, True)]
    for start, stop, jobs in cases:
        with pytest.raises(ValueError):
            chunked(refuse, start, stop, jobs=jobs)  # not iterated


def test_audit_counts():
    result = audit(4, 9)
    assert result.checked == 4
    assert [r.n for r in result.rows] == [5, 7]  # only the rows audit prints
    assert result.mismatches == ()
    assert result.summary() == "checked 4 composite values, 0 mismatches"


def test_audit_range_4_100():
    result = audit(4, 100)
    assert result.checked == 74
    assert not result.mismatches


def test_audit_flags_planted_mismatch(monkeypatch):
    def wrong(f):
        return 99, ("T0.0", "T0.0", "T0.0")

    monkeypatch.setattr(harness, "predict", wrong)
    result = audit(4, 12)
    assert len(result.mismatches) == result.checked > 0
    assert result.summary().endswith(f"{len(result.mismatches)} mismatches")
    row = result.mismatches[0]
    assert row.match is False
    assert row.pred_kappa == 99 != row.kappa


def test_csv_row_values():
    assert csv_row(analyze(25)) == (
        "25,5^2,4,6,3,3,3,3,3,3,T4.5;T4.1;T3.1,true,"
    )
    assert csv_row(analyze(13)) == "13,13,,,,,,,,,,false,NoZeroDivisors"


def test_render_csv_layout():
    text = render_csv(sweep(8, 10))
    lines = text.splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 4
    assert text.endswith("\n")
    assert CSV_HEADER.count(",") == 12
    assert all(ln.count(",") == 12 for ln in lines[1:])


def test_render_json_round_trip():
    rows = sweep(4, 16)
    parsed = json.loads(render_json(rows))
    assert parsed == [r._asdict() for r in rows]
    assert [r["n"] for r in parsed] == list(range(4, 17))


def test_render_dispatch():
    rows = [analyze(25)]
    assert render(rows, "csv") == render_csv(rows)
    assert render(rows, "json") == render_json(rows)
    with pytest.raises(ValueError):
        render(rows, "yaml")


def test_csv_and_json_carry_same_values():
    rows = sweep(20, 28)
    parsed = json.loads(render_json(rows))
    csv_lines = render_csv(rows).splitlines()[1:]
    for obj, line in zip(parsed, csv_lines):
        cells = line.split(",")
        assert cells[0] == str(obj["n"])
        assert cells[1] == obj["factorization"]
        assert cells[11] == ("true" if obj["match"] else "false")
        assert cells[12] == obj["skip_reason"]


def test_finding_replace_keeps_schema():
    # the CSV column order is the record's field order
    row = analyze(25)._replace(n=26)
    assert list(row._asdict()) == CSV_HEADER.split(",")


def test_output_bytes_pinned():
    # sha256 of the CSV and JSON for 4..400 as produced before the graph
    # layer moved to the closed form; a refactor must keep these bytes
    rows = sweep(4, 400)
    assert hashlib.sha256(render_csv(rows).encode()).hexdigest() == (
        "a09c93f7d8a9f6aa6b0fe549fa3bfea004df7cc1d3c877f0c23facc0f8a496d2"
    )
    assert hashlib.sha256(render_json(rows).encode()).hexdigest() == (
        "4f9bc006ebd77d894d4eae28b090fff820231abd728bb52f95f7a55efc04f55e"
    )
