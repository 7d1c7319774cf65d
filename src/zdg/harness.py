"""Sweep and audit machinery: computed connectivity vs closed-form predictions.

A finding is one row of the audit table.  Rows for n with no zero-divisor
graph (n prime, n <= 3) or past a resource guard carry a skip reason and no
values.  Rendering is deterministic so sweeps can be diffed byte-for-byte.
"""
from __future__ import annotations

import json
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass

from .arith import factorize, format_factorization
from .connectivity import (
    DEFAULT_SUBSET_BUDGET,
    exhaustive_edge_connectivity,
    exhaustive_vertex_connectivity,
    min_degree,
    quotient_report,
)
from .errors import ResourceLimitError
from .formulas import (
    predict_edge_connectivity,
    predict_min_degree,
    predict_vertex_connectivity,
)
from .graphs import build_explicit, compress, explicit_size

CSV_HEADER = (
    "n,factorization,vertices,edges,delta,kappa_e,kappa,"
    "pred_delta,pred_kappa_e,pred_kappa,tags,match,skip_reason"
)


@dataclass(frozen=True)
class AuditFinding:
    """One audited n: sizes, computed triple, predicted triple, verdict."""

    n: int
    factorization: str
    vertices: int | None
    edges: int | None
    delta: int | None
    kappa_e: int | None
    kappa: int | None
    pred_delta: int | None
    pred_kappa_e: int | None
    pred_kappa: int | None
    tags: str
    match: bool
    skip_reason: str


def _skip(n: int, ftext: str, reason: str) -> AuditFinding:
    return AuditFinding(
        n=n,
        factorization=ftext,
        vertices=None,
        edges=None,
        delta=None,
        kappa_e=None,
        kappa=None,
        pred_delta=None,
        pred_kappa_e=None,
        pred_kappa=None,
        tags="",
        match=False,
        skip_reason=reason,
    )


def analyze(
    n: int,
    *,
    oracle: str = "flow",
    budget: int = DEFAULT_SUBSET_BUDGET,
) -> AuditFinding:
    """Audit one n.  oracle is "flow" (exact algorithms) or "exhaustive".

    The flow oracle works on the divisor classes alone (quotient_report);
    the exhaustive one enumerates cuts of the explicit graph.  Either way,
    n past the explicit_size guard is a ResourceLimit row.
    """
    if oracle not in ("flow", "exhaustive"):
        raise ValueError(f"oracle must be 'flow' or 'exhaustive', got {oracle!r}")
    f = factorize(n)  # validates the 64-bit range
    ftext = format_factorization(f)
    if not f.is_composite():
        return _skip(n, ftext, "NoZeroDivisors")
    c = compress(f)
    try:
        num_vertices, num_edges = explicit_size(c)
    except ResourceLimitError:
        return _skip(n, ftext, "ResourceLimit")
    if oracle == "exhaustive":
        g = build_explicit(n)
        delta = min_degree(g)
        try:
            kappa_e = exhaustive_edge_connectivity(g, budget)
            kappa = exhaustive_vertex_connectivity(g, budget)
        except ResourceLimitError:
            return _skip(n, ftext, "ResourceLimit")
    else:
        rep = quotient_report(c)
        delta, kappa_e, kappa = rep.delta, rep.kappa_e, rep.kappa
    pred_d = predict_min_degree(f)
    pred_e = predict_edge_connectivity(f)
    pred_v = predict_vertex_connectivity(f)
    tags = ";".join(
        (pred_d.theorem_tag, pred_e.theorem_tag, pred_v.theorem_tag)
    )
    match = (
        delta == pred_d.value
        and kappa_e == pred_e.value
        and kappa == pred_v.value
    )
    return AuditFinding(
        n=n,
        factorization=ftext,
        vertices=num_vertices,
        edges=num_edges,
        delta=delta,
        kappa_e=kappa_e,
        kappa=kappa,
        pred_delta=pred_d.value,
        pred_kappa_e=pred_e.value,
        pred_kappa=pred_v.value,
        tags=tags,
        match=match,
        skip_reason="",
    )


def _analyze_task(args: tuple[int, str, int]) -> AuditFinding:
    n, oracle, budget = args
    return analyze(n, oracle=oracle, budget=budget)


def sweep(
    start: int,
    stop: int,
    *,
    jobs: int = 1,
    oracle: str = "flow",
    budget: int = DEFAULT_SUBSET_BUDGET,
) -> list[AuditFinding]:
    """Audit every n in [start, stop], in ascending order.

    With jobs > 1 the work is spread over a process pool of at most
    min(jobs, cpu count, range length) workers; results are emitted in
    input order, so output is identical for any jobs value.
    """
    if start < 1 or stop < start:
        raise ValueError(f"need 1 <= start <= stop, got [{start}, {stop}]")
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    values = range(start, stop + 1)
    workers = min(jobs, os.cpu_count() or 1, len(values))
    if workers == 1:
        return [analyze(n, oracle=oracle, budget=budget) for n in values]
    tasks = [(n, oracle, budget) for n in values]
    chunk = max(1, len(tasks) // (workers * 8))
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(_analyze_task, tasks, chunksize=chunk))


@dataclass(frozen=True)
class AuditResult:
    rows: tuple[AuditFinding, ...]
    checked: int
    mismatches: tuple[AuditFinding, ...]
    skipped: tuple[AuditFinding, ...]

    def summary(self) -> str:
        return (
            f"checked {self.checked} composite values, "
            f"{len(self.mismatches)} mismatches"
        )


def audit(
    start: int,
    stop: int,
    *,
    jobs: int = 1,
    oracle: str = "flow",
    budget: int = DEFAULT_SUBSET_BUDGET,
) -> AuditResult:
    """Sweep a range and fold the rows into an audit verdict."""
    rows = tuple(sweep(start, stop, jobs=jobs, oracle=oracle, budget=budget))
    mismatches = tuple(r for r in rows if not r.skip_reason and not r.match)
    skipped = tuple(r for r in rows if r.skip_reason)
    checked = sum(1 for r in rows if not r.skip_reason)
    return AuditResult(rows, checked, mismatches, skipped)


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if value is True:
        return "true"
    if value is False:
        return "false"
    return str(value)


def csv_row(finding: AuditFinding) -> str:
    d = asdict(finding)
    return ",".join(_csv_cell(d[k]) for k in d)


def render_csv(findings) -> str:
    lines = [CSV_HEADER]
    lines.extend(csv_row(f) for f in findings)
    return "\n".join(lines) + "\n"


def render_json(findings) -> str:
    return json.dumps([asdict(f) for f in findings], indent=2) + "\n"


def render(findings, fmt: str) -> str:
    if fmt == "csv":
        return render_csv(findings)
    if fmt == "json":
        return render_json(findings)
    raise ValueError(f"format must be 'csv' or 'json', got {fmt!r}")
