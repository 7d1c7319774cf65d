"""Mutation gate: every recorded mutation of src/zdg must fail its tests.

Run from anywhere, with the test dependencies installed:

    python tests/mutants.py            # every row
    python tests/mutants.py NAME ...   # the named rows only

Each MUTANTS row names a file of src/zdg, an old text that must occur in
it exactly once, the new text that replaces it, and the fewest tests that
catch the change.  For each row the gate copies src/, tests/ and
pyproject.toml to a temporary directory, applies the edit there and runs
the row's tests in a child pytest with -x.  The copy is needed because
pyproject.toml puts src/ on pytest's path, which would import the
unmutated package.  A row is caught when its tests fail or time out; a row
whose tests pass survived, and the gate exits 1.  Before any row runs, the
gate checks that every old text, in MUTANTS and EQUIVALENT alike, occurs
exactly once, and that the rows' tests pass on an unmutated copy, so the
table follows the code.

EQUIVALENT lists mutants that no test can catch, each with its reason.
They are not run.  The file is not named test_*.py, so pytest does not
collect it.  Standard library only.
"""
from __future__ import annotations

import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
# seconds for one row's tests; every row takes well under this
TIMEOUT = 120


class Mutant(NamedTuple):
    name: str
    path: str  # under src/zdg
    old: str
    new: str
    tests: tuple[str, ...]  # pytest node ids, from the repository root


class Equivalent(NamedTuple):
    name: str
    path: str
    old: str
    new: str
    reason: str


_SMALL_CLASS_CHECK = """\
    if smallest < delta:
        small_class = min(d for d, size in classes if size == smallest)
        raise CertificateError(
            f"n={n}: smallest class {small_class} has size {smallest} < "
            f"delta={delta}, so kappa = delta is not certified"
        )
"""
_EDGE_END_CHECK = """\
    if ends != 2 * num_edges:
        raise CertificateError(
            f"n={n}: adjacency lists hold {ends} edge ends, "
            f"expected {2 * num_edges}"
        )
"""
_ROOT_CHECK = """\
    if rep.root != p:
        raise CertificateError(
            f"n={n}: the engine's witness root is {rep.root}, not the least "
            f"prime {p}"
        )
"""
_PRODUCT_CHECK = """\
    if product != n:
        raise CertificateError(
            f"n={n}: prime powers multiply to {product}, expected {n}"
        )
"""


def _as_assert(check: str, condition: str) -> str:
    """check, an `if ...: raise CertificateError(message)`, as an assert."""
    message = check[check.index("(\n") : check.rindex(")")] + ")"
    return f"    assert {condition}, {message}\n"


MUTANTS = [
    # graphs.py: the quotient engine's certificates and witness
    Mutant(
        "complete-graph exemption restored", "graphs.py",
        "    if smallest < delta:\n",
        "    if delta != num_vertices - 1 and smallest < delta:\n",
        ("tests/test_connectivity.py::test_quotient_refuses_small_class",),
    ),
    Mutant(
        "smallest-class check removed", "graphs.py",
        "    if smallest < delta:\n",
        "    if False:\n",
        ("tests/test_connectivity.py::test_quotient_refuses_small_class",),
    ),
    Mutant(
        "smallest-class check as an assert", "graphs.py",
        _SMALL_CLASS_CHECK,
        "    small_class = min(d for d, size in classes if size == smallest)\n"
        + _as_assert(_SMALL_CLASS_CHECK, "smallest >= delta"),
        ("tests/test_connectivity.py::test_quotient_check_survives_optimize",),
    ),
    Mutant(
        "connectedness check removed", "graphs.py",
        "    if stranded < n:\n",
        "    if False:\n",
        ("tests/test_connectivity.py::test_quotient_refuses_disconnected_classes",),
    ),
    Mutant(
        "first stranded class reported, not the smallest", "graphs.py",
        "        if d < stranded and not (\n",
        "        if stranded == n and not (\n",
        ("tests/test_connectivity.py::test_quotient_refuses_disconnected_classes",),
    ),
    Mutant(
        "hub taken from the first class", "graphs.py",
        "    hub = n // min(present)\n",
        "    hub = n // classes[0][0]\n",
        ("tests/test_connectivity.py::test_quotient_report_ignores_class_order",),
    ),
    Mutant(
        "expanded vertex cut shifted by one", "graphs.py",
        "    return tuple(members[: rep.delta]), tuple(sorted(edges))\n",
        "    return tuple(members[1 : rep.delta + 1]), tuple(sorted(edges))\n",
        ("tests/test_connectivity.py::test_quotient_report_witnesses",),
    ),
    Mutant(
        "an assert in quotient_report", "graphs.py",
        "    classes = tuple(classes)  # walked more than once; an iterator only once\n",
        "    classes = tuple(classes)  # walked more than once; an iterator only once\n"
        "    assert classes, n\n",
        ("tests/test_cli.py::test_every_raise_is_one_line",),
    ),
    Mutant(
        "edge-end check as an assert", "graphs.py",
        _EDGE_END_CHECK,
        _as_assert(_EDGE_END_CHECK, "ends == 2 * num_edges"),
        ("tests/test_graphs.py::test_edge_sum_check_survives_optimize",),
    ),
    Mutant(
        "edge-end check read from the class sums", "graphs.py",
        "    if ends != 2 * num_edges:\n",
        "    if ends != 2 * c.num_edges():\n",
        ("tests/test_graphs.py::test_edge_sum_check_survives_optimize",),
    ),
    Mutant(
        "vertex-only size guard", "graphs.py",
        "    if num_edges > MAX_EXPLICIT_EDGES:\n",
        "    if False:\n",
        ("tests/test_harness.py::test_resource_limit_is_the_explicit_guard",),
    ),
    Mutant(
        "export-dot edge range one step late", "graphs.py",
        "range(u + m - u % m, n, m)",
        "range(u + 2 * m - u % m, n, m)",
        ("tests/test_graphs.py::test_export_dot_z8",),
    ),
    Mutant(
        "export-dot hues over k + 1 classes", "graphs.py",
        '{i / k:.3f} 0.450 0.950',
        '{i / (k + 1):.3f} 0.450 0.950',
        ("tests/test_cli.py::test_export_dot_bytes_pinned",),
    ),
    Mutant(
        "export-dot checks moved into the generator", "graphs.py",
        "    return _dot_chunks(n, ",
        "    yield from _dot_chunks(n, ",
        ("tests/test_cli.py::test_export_dot_refused_writes_no_file",),
    ),
    # harness.py: analyze's guard, cross-checks and rendering
    Mutant(
        "analyze factorizes twice", "harness.py",
        "    rep = quotient_report(n, divisor_classes(f))\n",
        "    rep = quotient_report(n, divisor_classes(factorize(n)))\n",
        ("tests/test_harness.py::test_analyze_factorizes_once",),
    ),
    Mutant(
        "classes built before the size guard", "harness.py",
        "    try:\n        num_vertices, num_edges = explicit_size(f)\n",
        "    divisor_classes(f)\n"
        "    try:\n        num_vertices, num_edges = explicit_size(f)\n",
        ("tests/test_harness.py::test_refused_analyze_builds_no_classes",),
    ),
    Mutant(
        "size cross-check removed", "harness.py",
        "    if (rep.num_vertices, rep.num_edges) != (num_vertices, num_edges):\n",
        "    if False:\n",
        ("tests/test_harness.py::test_size_cross_check_survives_optimize",),
    ),
    Mutant(
        "witness root check as an assert", "harness.py",
        _ROOT_CHECK,
        _as_assert(_ROOT_CHECK, "rep.root == p"),
        ("tests/test_harness.py::test_witness_check_survives_optimize",),
    ),
    Mutant(
        "witness root check removed", "harness.py",
        "    if rep.root != p:\n",
        "    if False:\n",
        ("tests/test_harness.py::test_witness_check_survives_optimize",),
    ),
    Mutant(
        "one output byte changed", "harness.py",
        '"" if v is None else "true" if v is True',
        '"" if v is None else "True" if v is True',
        ("tests/test_harness.py::test_output_bytes_pinned",),
    ),
    Mutant(
        "a lambda sent to the workers", "harness.py",
        "chunked(partial(_sweep_chunk, render_rows), ",
        "chunked(lambda values: _sweep_chunk(render_rows, values), ",
        ("tests/test_cli.py::test_range_bytes_pinned[sweep-2000-csv-2-spawn]",),
    ),
    # chunks.py: the ordered chunk runner
    Mutant(
        "range and jobs checks moved into the generator", "chunks.py",
        "    return _run(fn, ",
        "    yield from _run(fn, ",
        ("tests/test_harness.py::test_chunked_checks_before_running",),
    ),
    Mutant(
        "children neither terminated nor joined", "chunks.py",
        "        for child in children:\n            child.terminate()\n"
        "        for child in children:\n            child.join()\n",
        "",
        ("tests/test_harness.py::test_chunked_close_stops_children",),
    ),
    Mutant(
        "pipe readers left open", "chunks.py",
        "        for reader in pipes:\n            reader.close()\n",
        "",
        ("tests/test_harness.py::test_chunked_closes_its_pipes",),
    ),
    Mutant(
        "workers not clamped", "chunks.py",
        "    workers = min(jobs, os.cpu_count() or 1, length)\n",
        "    workers = min(jobs, length)\n",
        ("tests/test_harness.py::test_sweep_clamps_workers",),
    ),
    Mutant(
        "worker count not clamped to the range", "chunks.py",
        "    workers = min(jobs, os.cpu_count() or 1, length)\n",
        "    workers = min(jobs, os.cpu_count() or 1)\n",
        ("tests/test_harness.py::test_sweep_clamps_workers",),
    ),
    Mutant(
        "worker count not clamped", "chunks.py",
        "    workers = min(jobs, os.cpu_count() or 1, length)\n",
        "    workers = jobs\n",
        ("tests/test_harness.py::test_sweep_clamps_workers",),
    ),
    # __init__.py: the package root
    Mutant(
        "build_explicit exported from the root again", "__init__.py",
        "__all__ = [\n",
        "from .graphs import build_explicit\n\n__all__ = [\n"
        '    "build_explicit",\n',
        ("tests/test_cli.py::test_root_exports_the_audit_pipeline_only",),
    ),
    # cli.py: flags and exit codes
    Mutant(
        "export-dot given --jobs", "cli.py",
        '    _add_options(p_dot, "output")\n',
        '    _add_options(p_dot, "output", "jobs")\n',
        ("tests/test_cli.py::test_unread_flags_are_usage_errors",),
    ),
    Mutant(
        "exit 1 for a failed certificate", "cli.py",
        "        return 3\n",
        "        return 1\n",
        ("tests/test_cli.py::test_certificate_failure_is_one_line",),
    ),
    Mutant(
        "CertificateError not caught", "cli.py",
        "    except CertificateError as err:\n"
        '        print(f"zdg: certificate failed: {err}", file=sys.stderr)\n'
        "        return 3\n",
        "",
        ("tests/test_cli.py::test_certificate_failure_is_one_line",),
    ),
    # connectivity.py: the flow oracle
    Mutant(
        "push ignores the cutoff", "connectivity.py",
        "            push = min(cutoff - flow, min(cap[a] for a in path))\n",
        "            push = min(cap[a] for a in path)\n",
        ("tests/test_connectivity.py::test_flow_net_pushes_bottlenecks",),
    ),
    Mutant(
        "restore resets one arc of each pair", "connectivity.py",
        "            cap[a ^ 1] = init[a ^ 1]\n",
        "",
        ("tests/test_connectivity.py::test_flow_net_pushes_bottlenecks",),
    ),
    Mutant(
        "minimum cut closest to t", "connectivity.py",
        "            else:\n                return flow, via\n",
        "            else:\n"
        "                seen = {t}\n"
        "                back = [t]\n"
        "                for w in back:\n"
        "                    for a in adj[w]:\n"
        "                        if cap[a ^ 1] > 0 and to[a] not in seen:\n"
        "                            seen.add(to[a])\n"
        "                            back.append(to[a])\n"
        "                return flow, set(range(len(adj))) - seen\n",
        ("tests/test_connectivity.py::test_flow_net_reaches_cut_closest_to_source",),
    ),
    Mutant(
        "complete graphs given nv - 2", "connectivity.py",
        "        return nv - 1, tuple(view.verts[: nv - 1])\n",
        "        return nv - 2, tuple(view.verts[: nv - 2])\n",
        ("tests/test_connectivity.py::test_vertex_connectivity_known_values",),
    ),
    Mutant(
        "minimum degree 2 taken as a cut vertex", "connectivity.py",
        "    if len(root_nbrs) == 1:\n",
        "    if len(root_nbrs) <= 2:\n",
        ("tests/test_connectivity.py::test_vertex_connectivity_known_values",),
    ),
    Mutant(
        "edge witness from a later flow of equal value", "connectivity.py",
        "        if flow < best:\n            best = flow\n"
        "            witness = tuple(\n                sorted(\n",
        "        if flow <= best:\n            best = flow\n"
        "            witness = tuple(\n                sorted(\n",
        ("tests/test_connectivity.py::test_edge_connectivity_known_values",),
    ),
    Mutant(
        "vertex witness from a later flow of equal value", "connectivity.py",
        "        if flow < best:\n            best = flow\n"
        "            witness = tuple(\n                view.verts[i]\n",
        "        if flow <= best:\n            best = flow\n"
        "            witness = tuple(\n                view.verts[i]\n",
        ("tests/test_connectivity.py::test_explicit_reports_pinned",),
    ),
    Mutant(
        "split-network edge arcs of capacity 1", "connectivity.py",
        "                net.add_pair(2 * i + 1, 2 * j, nv, 0)\n"
        "                net.add_pair(2 * j + 1, 2 * i, nv, 0)\n",
        "                net.add_pair(2 * i + 1, 2 * j, 1, 0)\n"
        "                net.add_pair(2 * j + 1, 2 * i, 1, 0)\n",
        ("tests/test_connectivity.py::test_flow_cuts_pinned",),
    ),
    Mutant(
        "common-neighbour skip at best - 1", "connectivity.py",
        "        if len(nbr_sets[a] & nbr_sets[b]) >= best:\n",
        "        if len(nbr_sets[a] & nbr_sets[b]) >= best - 1:\n",
        ("tests/test_connectivity.py::test_vertex_connectivity_matches_brute_force",),
    ),
    Mutant(
        "root's non-neighbours dropped from the pairs", "connectivity.py",
        "        ((si, b) for b in range(nv) if b != si and b not in nbr_sets[si]),\n",
        "",
        ("tests/test_connectivity.py::test_vertex_connectivity_matches_brute_force",),
    ),
    Mutant(
        "pairs inside the root's neighbourhood dropped", "connectivity.py",
        "        ((x, y) for x, y in combinations(root_nbrs, 2) if y not in nbr_sets[x]),\n",
        "",
        ("tests/test_connectivity.py::test_vertex_connectivity_matches_brute_force",),
    ),
    Mutant(
        "pair loop stops at best <= 3", "connectivity.py",
        "        if best <= 2:\n            break",
        "        if best <= 3:\n            break",
        ("tests/test_connectivity.py::test_flow_cuts_pinned",),
    ),
    # arith.py: factorization
    Mutant(
        "Miller-Rabin on its first base only", "arith.py",
        "    for a in bases:\n",
        "    for a in bases[:1]:\n",
        ("tests/test_arith.py::test_miller_rabin_psi_tiers",),
    ),
    Mutant(
        "product check removed", "arith.py",
        "    if product != n:\n",
        "    if False:\n",
        ("tests/test_arith.py::test_factorize_check_survives_optimize",),
    ),
    Mutant(
        "product check as an assert", "arith.py",
        _PRODUCT_CHECK,
        _as_assert(_PRODUCT_CHECK, "product == n"),
        ("tests/test_arith.py::test_factorize_check_survives_optimize",),
    ),
    Mutant(
        "997 dropped from the prime table", "arith.py",
        "_SMALL_PRIMES = _primes_below(_TRIAL_BOUND)\n",
        "_SMALL_PRIMES = _primes_below(_TRIAL_BOUND)[:-1]\n",
        ("tests/test_arith.py::test_factorize_prime_squares_near_trial_bound",),
    ),
    Mutant(
        "equal rho primes not merged", "arith.py",
        "factors.extend((p, large.count(p)) for p in sorted(set(large)))",
        "factors.extend((p, 1) for p in sorted(large))",
        ("tests/test_arith.py::test_factorize_hard_inputs",),
    ),
    Mutant(
        "tier chosen by m <= bound", "arith.py",
        "        if m < bound:\n",
        "        if m <= bound:\n",
        ("tests/test_arith.py::test_miller_rabin_psi_tiers",),
    ),
    Mutant(
        "(2, 7, 61) bound raised to the next row's", "arith.py",
        "    (4759123141, (2, 7, 61)),\n",
        "    (1122004669633, (2, 7, 61)),\n",
        ("tests/test_arith.py::test_miller_rabin_psi_tiers",),
    ),
    Mutant(
        "1662803 dropped from its row", "arith.py",
        "    (1122004669633, (2, 13, 23, 1662803)),\n",
        "    (1122004669633, (2, 13, 23)),\n",
        ("tests/test_arith.py::test_miller_rabin_psi_tiers",),
    ),
    Mutant(
        "prime's loop ends before its full power is out", "arith.py",
        "                    m //= p\n                    e += 1\n",
        "                    m //= p\n                    e += 1\n"
        "                    if small // p == 1:\n                        break\n",
        ("tests/test_arith.py::test_factorize_trial_division_exit",),
    ),
    Mutant(
        "small not divided by the primes found", "arith.py",
        "                small //= p\n",
        "",
        ("tests/test_arith.py::test_factorize_trial_division_visits",),
    ),
    Mutant(
        "trial division skipped for small == 2", "arith.py",
        "    if small > 1:\n",
        "    if small > 2:\n",
        ("tests/test_arith.py::test_factorize_trial_division_exit",),
    ),
    Mutant(
        "square split taken out", "arith.py",
        "    if r * r == m:\n",
        "    if False:\n",
        ("tests/test_arith.py::test_factorize_large_square",),
    ),
    Mutant(
        "gcd split taken out", "arith.py",
        "        d = gcd(m, _mid_primorial())\n",
        "        d = 1\n",
        ("tests/test_arith.py::test_factorize_gcd_split_needs_no_rho",),
    ),
    Mutant(
        "split at a gcd equal to m", "arith.py",
        "        if d == 1 or d == m:\n",
        "        if d == 1:\n",
        ("tests/test_arith.py::test_factorize_gcd_split",),
    ),
    Mutant(
        "mid primorial built at import", "arith.py",
        "def _is_prime(m: int) -> bool:\n",
        "_mid_primorial()\n\n\ndef _is_prime(m: int) -> bool:\n",
        ("tests/test_arith.py::test_mid_primorial_not_built_on_import",),
    ),
]

EQUIVALENT = [
    Equivalent(
        "degree tie rule restored", "graphs.py",
        "        if degree < delta:\n",
        "        if degree < delta or degree == delta and d < root:\n",
        "two proper divisors d < e of n share a degree only if e = d + 1 and "
        "n | e^2; then every prime of n divides e, so none divides d > 1, "
        "which divides n",
    ),
    Equivalent(
        "hub exempted from the connectedness test", "graphs.py",
        "        if d < stranded and not (\n",
        "        if d < stranded and d != hub and not (\n",
        "if d is the hub, n // d = min(present) is present and "
        "(n // d) * hub = n, so the test passes for it anyway",
    ),
    Equivalent(
        "psi_7 row dropped", "arith.py",
        "    (341550071728321, _SMALL_PRIMES[:7]),\n",
        "",
        "m in [psi_6, psi_7) is then tested on the first 9 primes, exact "
        "below psi_9; it costs two more bases",
    ),
]


def _copy(dest: Path) -> None:
    """src/, tests/ and pyproject.toml, without caches, into dest."""
    ignore = shutil.ignore_patterns(
        "__pycache__", ".hypothesis", ".pytest_cache"
    )
    for name in ("src", "tests"):
        shutil.copytree(ROOT / name, dest / name, ignore=ignore)
    shutil.copy2(ROOT / "pyproject.toml", dest)


def _run(copy: Path, args: list[str]) -> tuple[int | None, str]:
    """Run python args in copy, importing its src/; None on a timeout."""
    env = {
        **os.environ,
        "PYTHONPATH": str(copy / "src"),
        "PYTHONDONTWRITEBYTECODE": "1",
    }
    proc = subprocess.Popen(
        [sys.executable, *args],
        cwd=copy,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        start_new_session=True,  # one group, so a timeout kills its workers
    )
    try:
        out, _ = proc.communicate(timeout=TIMEOUT)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return None, ""
    return proc.returncode, out


def _pytest(copy: Path, tests, *flags: str) -> tuple[int | None, str]:
    flags = ("-q", "-p", "no:cacheprovider", *flags)
    return _run(copy, ["-m", "pytest", *flags, *tests])


# pytest's exit code: 0 all passed, 1 some failed; None is a timeout
_VERDICTS = {0: "SURVIVED", 1: "caught", None: "caught (timed out)"}


def _tail(out: str) -> str:
    return "".join(f"    {line}\n" for line in out.splitlines()[-5:])


def main(argv: list[str]) -> int:
    known = {row.name for row in MUTANTS}
    unknown = [name for name in argv if name not in known]
    if unknown:
        print(f"unknown rows: {unknown}", file=sys.stderr)
        return 2
    rows = [row for row in MUTANTS if not argv or row.name in argv]
    stale = []
    for row in MUTANTS + EQUIVALENT:
        count = (ROOT / "src/zdg" / row.path).read_text().count(row.old)
        if count != 1:
            stale.append(f"{row.name}: {count} matches in {row.path}")
    if stale:
        print("stale rows:\n" + "\n".join(stale))
        return 1
    start = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="zdg-mutants-") as tmp:
        base = Path(tmp)
        _copy(base)
        code, out = _run(base, ["-c", "import zdg; print(zdg.__file__)"])
        if code != 0 or not Path(out.strip()).is_relative_to(base):
            print(f"the copy does not import its own zdg:\n{_tail(out)}")
            return 1
        tests = list(dict.fromkeys(t for row in rows for t in row.tests))
        code, out = _pytest(base, tests)
        if code != 0:
            print(f"the rows' tests do not all pass unmutated:\n{_tail(out)}")
            return 1
    escaped = []
    for row in rows:
        t0 = time.perf_counter()
        with tempfile.TemporaryDirectory(prefix="zdg-mutant-") as tmp:
            copy = Path(tmp)
            _copy(copy)
            path = copy / "src" / "zdg" / row.path
            path.write_text(path.read_text().replace(row.old, row.new))
            code, out = _pytest(copy, row.tests, "-x")
        print(
            f"{_VERDICTS.get(code, f'ERROR, pytest exit {code}')}: {row.name} "
            f"({time.perf_counter() - t0:.1f} s)"
        )
        if code not in (1, None):
            escaped.append(row.name)
            print(_tail(out), end="")
    print(
        f"{len(rows) - len(escaped)} of {len(rows)} mutants caught, "
        f"{len(EQUIVALENT)} equivalent not run, "
        f"{time.perf_counter() - start:.0f} s"
    )
    return 1 if escaped else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
