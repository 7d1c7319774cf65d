"""Sweep and audit machinery: computed connectivity vs closed-form predictions.

A finding is one row of the audit table.  Each composite n is analysed on
its divisor classes alone (connectivity.quotient_report); no explicit graph
is built.  Rows for n with no zero-divisor graph (n prime, n <= 3) or past
the explicit-graph size guard carry a skip reason and no values.  The
guard takes its counts from the factorization (graphs.graph_size), so a
refused n builds no class; an answered n checks them against the class
sums.  Rendering is deterministic so sweeps can be diffed byte-for-byte.

Ranges run through chunks.chunked: consecutive chunks, each analysed and
rendered by one worker, yielded in input order.  That module is imported
only when a range runs, so importing this one (and the CLI) neither
compiles it nor loads multiprocessing.
"""
from __future__ import annotations

import json
from collections.abc import Iterator
from functools import partial
from typing import NamedTuple

from .arith import factorize, format_factorization
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


def _sweep_chunk(render_rows, values: range):
    return render_rows(map(analyze, values))


def _sweep_chunks(start: int, stop: int, render_rows, jobs: int) -> Iterator:
    from .chunks import chunked

    return chunked(partial(_sweep_chunk, render_rows), start, stop, jobs=jobs)


def sweep(start: int, stop: int, *, jobs: int = 1) -> list[AuditFinding]:
    """Audit every n in [start, stop], in ascending order.

    The work runs through chunks.chunked, so output is identical for any
    jobs value and both ends are checked before any n is analysed.
    """
    chunks = _sweep_chunks(start, stop, list, jobs)
    return [row for rows in chunks for row in rows]


def sweep_text(
    start: int, stop: int, fmt: str, *, jobs: int = 1
) -> Iterator[str]:
    """The text of render(sweep(start, stop, jobs=jobs), fmt), in pieces.

    Each worker renders its own chunks, so only text crosses between
    processes, and a piece is yielded as soon as its chunk is done: memory
    does not grow with the range.  The format and the range are checked
    now, before any piece is made.
    """
    render_rows, frame = _format(fmt)
    return frame(_sweep_chunks(start, stop, render_rows, jobs))


def summary(checked: int, mismatches: int) -> str:
    return f"checked {checked} composite values, {mismatches} mismatches"


class AuditResult(NamedTuple):
    """Counts of an audit, and its offenders: skip rows and mismatches."""

    rows: tuple[AuditFinding, ...]
    checked: int
    mismatches: tuple[AuditFinding, ...]

    def summary(self) -> str:
        return summary(self.checked, len(self.mismatches))


def _audit_chunk(render_rows, values: range):
    offenders, checked = [], 0
    for n in values:
        row = analyze(n)
        checked += not row.skip_reason
        if row.skip_reason or not row.match:
            offenders.append(row)
    mismatches = sum(1 for row in offenders if not row.skip_reason)
    return render_rows(offenders), checked, mismatches


def audit_chunks(
    start: int, stop: int, render_rows, *, jobs: int = 1
) -> Iterator:
    """Yield (render_rows(offenders), checked, mismatches) per chunk.

    Offenders are the skip rows and mismatches, the rows an audit prints;
    checked counts the composites.  Runs through chunks.chunked.
    """
    from .chunks import chunked

    return chunked(partial(_audit_chunk, render_rows), start, stop, jobs=jobs)


def audit(start: int, stop: int, *, jobs: int = 1) -> AuditResult:
    """Sweep a range and fold it into an audit verdict and its offenders."""
    rows, checked = [], 0
    for offenders, count, _ in audit_chunks(start, stop, tuple, jobs=jobs):
        rows.extend(offenders)
        checked += count
    mismatches = tuple(row for row in rows if not row.skip_reason)
    return AuditResult(tuple(rows), checked, mismatches)


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


def csv_chunk(findings) -> str:
    """The CSV lines of findings, no header, each ending in a newline."""
    return "".join([csv_row(f) + "\n" for f in findings])


def _csv_frame(chunks) -> Iterator[str]:
    yield CSV_HEADER + "\n"
    yield from chunks


def _json_chunk(findings) -> str:
    """The array elements of findings as json.dumps(rows, indent=2) has them."""
    # strip the array's "[\n" and "\n]"; an empty array "[]" leaves ""
    return json.dumps([f._asdict() for f in findings], indent=2)[2:-2]


def _json_frame(chunks) -> Iterator[str]:
    """The text of json.dumps(rows, indent=2) + "\n" around _json_chunks."""
    opener = "[\n"
    for chunk in chunks:
        if chunk:
            yield opener + chunk
            opener = ",\n"
    yield "[]\n" if opener == "[\n" else "\n]\n"


_FORMATS = {
    "csv": (csv_chunk, _csv_frame),
    "json": (_json_chunk, _json_frame),
}


def _format(fmt: str):
    """(chunk renderer, frame) of a format: render is frame([chunk(rows)])."""
    try:
        return _FORMATS[fmt]
    except KeyError:
        raise ValueError(
            f"format must be 'csv' or 'json', got {fmt!r}"
        ) from None


def render(findings, fmt: str) -> str:
    render_rows, frame = _format(fmt)
    return "".join(frame([render_rows(findings)]))


def render_csv(findings) -> str:
    return render(findings, "csv")


def render_json(findings) -> str:
    return render(findings, "json")
