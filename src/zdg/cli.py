"""Command-line front end.

Subcommands: analyze (one n), sweep (a range), audit (range + verdict),
export-dot (Graphviz text).  Exit codes: 0 success, 1 usage or input
error, a reader that hung up or a worker process that died, 2 audit found
mismatches, 3 a certificate failed.
"""
from __future__ import annotations

import argparse
import os
import sys
from collections.abc import Iterable

from .errors import CertificateError, ResourceLimitError
from .graphs import export_dot
from .harness import (
    analyze, audit_chunks, csv_chunk, render, summary, sweep_text,
)


_OPTIONS = {
    "format": dict(
        choices=("csv", "json"), default="csv",
        help="output format (default csv)",
    ),
    "output": dict(
        default=None, metavar="PATH", help="write to PATH instead of stdout",
    ),
    "jobs": dict(
        type=int, default=1, metavar="K", help="worker processes (default 1)",
    ),
}


def _add_options(sub: argparse.ArgumentParser, *names: str) -> None:
    for name in names:
        sub.add_argument(f"--{name}", **_OPTIONS[name])


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="zdg",
        description="Zero-divisor graph connectivity: compute, sweep, audit.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    p_analyze = commands.add_parser("analyze", help="audit a single n")
    p_analyze.add_argument("--n", type=int, required=True)
    _add_options(p_analyze, "format", "output")
    p_analyze.set_defaults(run=_cmd_analyze)

    p_sweep = commands.add_parser("sweep", help="audit a whole range")
    p_sweep.add_argument("--from", dest="start", type=int, required=True)
    p_sweep.add_argument("--to", dest="stop", type=int, required=True)
    _add_options(p_sweep, "format", "output", "jobs")
    p_sweep.set_defaults(run=_cmd_sweep)

    p_audit = commands.add_parser(
        "audit", help="sweep a range, print offenders and a verdict"
    )
    p_audit.add_argument("--from", dest="start", type=int, required=True)
    p_audit.add_argument("--to", dest="stop", type=int, required=True)
    _add_options(p_audit, "output", "jobs")
    p_audit.set_defaults(run=_cmd_audit)

    p_dot = commands.add_parser("export-dot", help="emit Graphviz DOT text")
    p_dot.add_argument("--n", type=int, required=True)
    p_dot.add_argument(
        "--color-classes", action="store_true",
        help="fill vertices by divisor class",
    )
    _add_options(p_dot, "output")
    p_dot.set_defaults(run=_cmd_export_dot)

    return parser


def _emit(chunks: Iterable[str], output: str | None) -> None:
    """Write chunks as they come, to stdout or to the file at output."""
    if output is None:
        sys.stdout.writelines(chunks)
    else:
        with open(output, "w", newline="") as handle:
            handle.writelines(chunks)


def _cmd_analyze(args) -> int:
    finding = analyze(args.n)
    _emit([render([finding], args.format)], args.output)
    return 0


def _cmd_sweep(args) -> int:
    text = sweep_text(args.start, args.stop, args.format, jobs=args.jobs)
    _emit(text, args.output)
    return 0


def _cmd_audit(args) -> int:
    chunks = audit_chunks(args.start, args.stop, csv_chunk, jobs=args.jobs)
    mismatches = 0

    def text():
        nonlocal mismatches
        checked = 0
        for lines, chunk_checked, chunk_mismatches in chunks:
            checked += chunk_checked
            mismatches += chunk_mismatches
            yield lines
        yield summary(checked, mismatches) + "\n"

    _emit(text(), args.output)
    return 2 if mismatches else 0


def _cmd_export_dot(args) -> int:
    _emit(export_dot(args.n, args.color_classes), args.output)
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exit_:
        # argparse exits 2 on bad usage and 0 on --help; fold usage into 1
        return 0 if exit_.code == 0 else 1
    try:
        return args.run(args)
    except BrokenPipeError:  # the reader hung up; the flush at exit goes nowhere
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except CertificateError as err:
        print(f"zdg: certificate failed: {err}", file=sys.stderr)
        return 3
    except (ResourceLimitError, ValueError, OSError) as err:
        print(f"zdg: error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
