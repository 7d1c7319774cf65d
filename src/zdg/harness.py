"""Sweep and audit machinery: computed connectivity vs closed-form predictions.

A finding is one row of the audit table.  Each composite n is analysed on
its divisor classes alone (connectivity.quotient_report); no explicit graph
is built.  Rows for n with no zero-divisor graph (n prime, n <= 3) or past
the explicit-graph size guard carry a skip reason and no values.  The
guard takes its counts from the factorization (graphs.graph_size), so a
refused n builds no class; an answered n checks them against the class
sums.  Rendering is deterministic so sweeps can be diffed byte-for-byte.
The process pool is imported only when sweep runs with jobs > 1, so
importing this module (and the CLI) does not load multiprocessing.
"""
from __future__ import annotations

import json
import os
from typing import NamedTuple

from .arith import _check_range, factorize, format_factorization
from .connectivity import quotient_report
from .errors import ResourceLimitError
from .formulas import predict
from .graphs import compress, explicit_size


class AuditFinding(NamedTuple):
    """One audited n: sizes, computed triple, predicted triple, verdict."""

    n: int
    factorization: str
    vertices: int | None = None
    edges: int | None = None
    delta: int | None = None
    kappa_e: int | None = None
    kappa: int | None = None
    pred_delta: int | None = None
    pred_kappa_e: int | None = None
    pred_kappa: int | None = None
    tags: str = ""
    match: bool = False
    skip_reason: str = ""


# Column order of the CSV and key order of the JSON: the field order.
CSV_HEADER = ",".join(AuditFinding._fields)


def analyze(n: int) -> AuditFinding:
    """Audit one n: compute delta, kappa_e and kappa on the divisor classes.

    The values come from quotient_report on the classes of the one
    factorization of n.  The explicit_size guard runs first, on the
    factorization alone, so the same n are refused as by build_explicit
    and a refused n builds no class.  Raises RuntimeError naming n if the
    guard's closed-form counts differ from the classes' sums.
    """
    f = factorize(n)  # validates the 64-bit range
    ftext = format_factorization(f)
    if not f.is_composite():
        return AuditFinding(n, ftext, skip_reason="NoZeroDivisors")
    try:
        num_vertices, num_edges = explicit_size(f)
    except ResourceLimitError:
        return AuditFinding(n, ftext, skip_reason="ResourceLimit")
    rep = quotient_report(compress(f))
    if (rep.num_vertices, rep.num_edges) != (num_vertices, num_edges):
        raise RuntimeError(
            f"n={n}: closed form gives {num_vertices} vertices and "
            f"{num_edges} edges, class sums give {rep.num_vertices} and "
            f"{rep.num_edges}"
        )
    value, tags = predict(f)
    return AuditFinding(
        n=n,
        factorization=ftext,
        vertices=num_vertices,
        edges=num_edges,
        delta=rep.delta,
        kappa_e=rep.kappa_e,
        kappa=rep.kappa,
        pred_delta=value,
        pred_kappa_e=value,
        pred_kappa=value,
        tags=";".join(tags),
        match=rep.delta == rep.kappa_e == rep.kappa == value,
    )


def sweep(start: int, stop: int, *, jobs: int = 1) -> list[AuditFinding]:
    """Audit every n in [start, stop], in ascending order.

    With jobs > 1 the work is spread over a process pool of at most
    min(jobs, cpu count, range length) workers; results are emitted in
    input order, so output is identical for any jobs value.  Both ends
    must lie in [1, 2^63 - 1]; they are checked before any n is analysed.
    """
    _check_range(start)
    _check_range(stop)
    if stop < start:
        raise ValueError(f"need 1 <= start <= stop, got [{start}, {stop}]")
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    values = range(start, stop + 1)
    workers = min(jobs, os.cpu_count() or 1, len(values))
    if workers == 1:
        return [analyze(n) for n in values]
    from concurrent.futures import ProcessPoolExecutor

    chunk = max(1, len(values) // (workers * 8))
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(analyze, values, chunksize=chunk))


class AuditResult(NamedTuple):
    rows: tuple[AuditFinding, ...]
    checked: int
    mismatches: tuple[AuditFinding, ...]

    def summary(self) -> str:
        return (
            f"checked {self.checked} composite values, "
            f"{len(self.mismatches)} mismatches"
        )


def audit(start: int, stop: int, *, jobs: int = 1) -> AuditResult:
    """Sweep a range and fold the rows into an audit verdict."""
    rows = tuple(sweep(start, stop, jobs=jobs))
    mismatches = tuple(r for r in rows if not r.skip_reason and not r.match)
    checked = sum(1 for r in rows if not r.skip_reason)
    return AuditResult(rows, checked, mismatches)


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if value is True:
        return "true"
    if value is False:
        return "false"
    return str(value)


def csv_row(finding: AuditFinding) -> str:
    return ",".join(map(_csv_cell, finding))


def render_csv(findings) -> str:
    lines = [CSV_HEADER]
    lines.extend(csv_row(f) for f in findings)
    return "\n".join(lines) + "\n"


def render_json(findings) -> str:
    rows = [f._asdict() for f in findings]
    return json.dumps(rows, indent=2) + "\n"


def render(findings, fmt: str) -> str:
    if fmt == "csv":
        return render_csv(findings)
    if fmt == "json":
        return render_json(findings)
    raise ValueError(f"format must be 'csv' or 'json', got {fmt!r}")
