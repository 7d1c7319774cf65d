"""Sweep and audit machinery: computed connectivity vs closed-form predictions.

A finding is one row of the audit table.  Each composite n is analysed in
one pass over its unsorted divisor classes (quotient.quotient_report),
building no explicit graph and no residue witness.  Rows for n with no
zero-divisor graph (n prime, n <= 3) or past the explicit-graph size guard
carry a skip reason and no values.  The guard counts from the factorization
(quotient.graph_size), so a refused n builds no class; an answered n checks
the counts against the class sums.  Rendering is deterministic.

Ranges run through chunks.chunked: consecutive chunks, each analysed and
rendered by one worker, yielded in input order.  That module is imported
only when a range runs, so importing this one (and the CLI) neither
compiles it nor loads multiprocessing.  Likewise json is imported only when
JSON is rendered; CSV, the default, never loads it.  The engine and the
guard come from quotient, so no run loads the explicit graph's module,
zdg.graphs.
"""
from __future__ import annotations

from collections.abc import Iterator
from functools import partial
from typing import NamedTuple

from .arith import factorize, format_factorization
from .errors import CertificateError, ResourceLimitError
from .formulas import predict
from .quotient import divisor_classes, explicit_size, quotient_report


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

    The explicit_size guard runs first, on the factorization alone, so the
    same n are refused as by build_explicit and a refused n builds no
    class.  Then quotient_report takes the classes of the one factorization
    in the order divisor_classes makes them; it certifies kappa = kappa_e =
    delta, so its delta fills all three cells.  Raises CertificateError
    naming n if the guard's closed-form counts differ from the classes'
    sums, or if the engine's witness is not rooted at p, the least prime.
    """
    f = factorize(n)  # validates the 64-bit range
    ftext = format_factorization(f)
    if not f.is_composite():
        return AuditFinding(n, ftext, skip_reason="NoZeroDivisors")
    try:
        num_vertices, num_edges = explicit_size(f)
    except ResourceLimitError:
        return AuditFinding(n, ftext, skip_reason="ResourceLimit")
    rep = quotient_report(n, divisor_classes(f))
    if (rep.num_vertices, rep.num_edges) != (num_vertices, num_edges):
        raise CertificateError(
            f"n={n}: closed form gives {num_vertices} vertices and "
            f"{num_edges} edges, class sums give {rep.num_vertices} and "
            f"{rep.num_edges}"
        )
    p = f.factors[0][0]
    if rep.root != p:
        raise CertificateError(
            f"n={n}: the engine's witness root is {rep.root}, not the least "
            f"prime {p}"
        )
    value, tags = predict(f)
    # _make skips the generated __new__ and its 13 parameters; the tuple
    # is AuditFinding's field order, skip_reason "" included
    return AuditFinding._make((
        n, ftext, num_vertices, num_edges, rep.delta, rep.delta, rep.delta,
        value, value, value, ";".join(tags), rep.delta == value, "",
    ))


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


def _offenders(render_rows, rows):
    offenders, checked = [], 0
    for row in rows:
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
    checked counts the composites.  Runs through the sweep's chunk pass.
    """
    return _sweep_chunks(start, stop, partial(_offenders, render_rows), jobs)


def audit(start: int, stop: int, *, jobs: int = 1) -> AuditResult:
    """Sweep a range and fold it into an audit verdict and its offenders."""
    rows, checked = [], 0
    for offenders, count, _ in audit_chunks(start, stop, tuple, jobs=jobs):
        rows.extend(offenders)
        checked += count
    mismatches = tuple(row for row in rows if not row.skip_reason)
    return AuditResult(tuple(rows), checked, mismatches)


def csv_row(finding: AuditFinding) -> str:
    """finding's cells joined by commas: None empty, booleans lower case."""
    return ",".join([
        "" if v is None else "true" if v is True else "false" if v is False
        else f"{v}"
        for v in finding
    ])


def csv_chunk(findings) -> str:
    """The CSV lines of findings, no header, each ending in a newline."""
    return "".join([csv_row(f) + "\n" for f in findings])


def _csv_frame(chunks) -> Iterator[str]:
    yield CSV_HEADER + "\n"
    yield from chunks


def _json_chunk(findings) -> str:
    """The array elements of findings as json.dumps(rows, indent=2) has them."""
    import json  # only JSON output needs it, so the CLI's import skips it

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
