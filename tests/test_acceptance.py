"""Acceptance gate for the connectivity claims, end to end.

One test per criterion; each prints a single `criterion N (...): PASS|FAIL`
line (visible with -s, or in the captured output of a failure) and the
pytest -v report carries the same verdict per test.
"""
from __future__ import annotations

import subprocess
import sys
import time

from sympy import totient

from zdg.arith import factorize
from zdg.connectivity import edge_connectivity, vertex_connectivity
from zdg.formulas import predict_min_degree, predict_vertex_connectivity
from zdg.graphs import (
    build_compressed,
    build_explicit,
    degree_profile,
    quotient_report,
    residue_witnesses,
)
from zdg.harness import analyze, audit, sweep

from brute import _brute_kappa, _brute_kappa_e


def _verdict(num: int, label: str, ok: bool, detail: str = "") -> None:
    line = f"criterion {num} ({label}): {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" [{detail}]"
    print(line)
    assert ok, line


def _composites(lo: int, hi: int) -> list[int]:
    return [n for n in range(lo, hi + 1) if factorize(n).is_composite()]


def test_criterion_01_prime_square_family():
    t0 = time.perf_counter()
    bad = []
    for p in (2, 3, 5, 7, 11, 13):
        row = analyze(p * p)
        if (row.delta, row.kappa_e, row.kappa) != (p - 2, p - 2, p - 2):
            bad.append(p * p)
    elapsed = time.perf_counter() - t0
    ok = not bad and elapsed < 1.0
    _verdict(1, "p^2 triple is p-2", ok, f"{elapsed:.2f}s, offenders={bad}")


def test_criterion_02_prime_power_family():
    t0 = time.perf_counter()
    bad = []
    for p, k in ((2, 3), (2, 4), (2, 5), (2, 6), (3, 3), (3, 4), (5, 3), (7, 3)):
        row = analyze(p**k)
        if (row.delta, row.kappa_e, row.kappa) != (p - 1, p - 1, p - 1):
            bad.append(p**k)
    elapsed = time.perf_counter() - t0
    ok = not bad and elapsed < 10.0
    _verdict(2, "p^k (k>=3) triple is p-1", ok, f"{elapsed:.2f}s, offenders={bad}")


def test_criterion_03_two_prime_family():
    bad = []
    for n in (6, 10, 12, 15, 18, 36, 45, 50, 75, 98, 200, 675):
        expected = factorize(n).factors[0][0] - 1
        if analyze(n).kappa != expected:
            bad.append(n)
    _verdict(3, "two primes: kappa is min(p,q)-1", not bad, f"offenders={bad}")


def test_criterion_04_multi_prime_family():
    bad = []
    for n in (30, 60, 105, 210, 420, 770, 1155):
        expected = factorize(n).factors[0][0] - 1
        row = analyze(n)
        if not (row.kappa == row.kappa_e == expected):
            bad.append(n)
    _verdict(4, "several primes: kappa = kappa_e = min(p_i)-1", not bad,
             f"offenders={bad}")


def test_criterion_05_full_audit_to_1000():
    t0 = time.perf_counter()
    result = audit(4, 1000)
    elapsed = time.perf_counter() - t0
    # audit keeps only the rows it prints, so the triples are read from sweep
    rows = sweep(4, 1000)
    equal_triples = all(
        r.delta == r.kappa_e == r.kappa for r in rows if not r.skip_reason
    )
    only_prime_skips = all(
        r.skip_reason == "NoZeroDivisors" for r in result.rows if r.skip_reason
    )
    offenders = [r for r in rows if r.skip_reason or not r.match]
    ok = (
        result.checked == 831
        and not result.mismatches
        and list(result.rows) == offenders
        and equal_triples
        and only_prime_skips
        and elapsed < 300.0
    )
    _verdict(5, "audit 4..1000: 0 mismatches, triples mutually equal", ok,
             f"{result.summary()}, {elapsed:.2f}s")


def test_criterion_06_whitney_chain_to_1500():
    rows = [r for r in sweep(4, 1500) if not r.skip_reason]
    bad = [
        r.n for r in rows
        if not (0 <= r.kappa <= r.kappa_e <= r.delta)
    ]
    ok = not bad and len(rows) == 1260
    _verdict(6, "kappa <= kappa_e <= delta on 4..1500", ok,
             f"{len(rows)} composites, offenders={bad}")


def test_criterion_07_oracle_cross_validation():
    t0 = time.perf_counter()
    bad = []
    values = _composites(4, 60)
    for n in values:
        g = build_explicit(n)
        if vertex_connectivity(g)[0] != _brute_kappa(g):
            bad.append(("kappa", n))
        if edge_connectivity(g)[0] != _brute_kappa_e(g):
            bad.append(("kappa_e", n))
    elapsed = time.perf_counter() - t0
    ok = not bad and len(values) == 42 and elapsed < 60.0
    _verdict(7, "flow equals brute force on 4..60", ok,
             f"{len(values)} composites, {elapsed:.2f}s, offenders={bad}")


def test_criterion_08_witness_soundness_to_1500():
    bad = []
    for n in _composites(4, 1500):
        f = factorize(n)
        cut = set(residue_witnesses(quotient_report(*build_compressed(n)))[0])
        if len(cut) != predict_vertex_connectivity(f).value:
            bad.append(n)
            continue
        g = build_explicit(n)
        keep = [v for v in g.vertices if v not in cut]
        if len(keep) <= 1:
            continue  # K_1 left, cut certified
        seen = {keep[0]}
        queue = [keep[0]]
        for u in queue:
            for w in g.adjacency[u]:
                if w not in cut and w not in seen:
                    seen.add(w)
                    queue.append(w)
        if len(seen) == len(keep):
            bad.append(n)
    _verdict(8, "witness cuts disconnect, size = predicted kappa", not bad,
             f"offenders={bad}")


def test_criterion_09_quotient_consistency_to_2000():
    bad = []
    for n in _composites(4, 2000):
        g = build_explicit(n)
        prof = degree_profile(build_compressed(n))
        counts: dict[int, int] = {}
        for v in g.vertices:
            d = len(g.adjacency[v])
            counts[d] = counts.get(d, 0) + 1
        if counts != prof.degree_counts:
            bad.append(n)
        if len(g.vertices) != n - totient(n) - 1:
            bad.append(n)
    t0 = time.perf_counter()
    delta_large = quotient_report(*build_compressed(10**6)).delta
    elapsed = time.perf_counter() - t0
    predicted = predict_min_degree(factorize(10**6)).value
    ok = (
        not bad
        and delta_large == predicted == 1
        and elapsed < 1.0
    )
    _verdict(9, "quotient degrees match explicit; compressed delta(10^6)", ok,
             f"delta={delta_large} in {elapsed:.3f}s, offenders={bad}")


def test_criterion_10_parallel_determinism(tmp_path, child_env):
    label = "sweep CSV byte-identical for --jobs 1 and 8"
    serial = tmp_path / "jobs1.csv"
    parallel = tmp_path / "jobs8.csv"
    base = [sys.executable, "-m", "zdg.cli", "sweep", "--from", "4", "--to", "500"]
    runs = {
        jobs: subprocess.run(
            base + ["--jobs", jobs, "--output", str(target)],
            capture_output=True, text=True, env=child_env,
        )
        for jobs, target in (("1", serial), ("8", parallel))
    }
    failed = [
        f"--jobs {jobs} exited {r.returncode}: "
        + " | ".join(r.stderr.strip().splitlines()[-3:])
        for jobs, r in runs.items() if r.returncode != 0
    ]
    if failed:
        _verdict(10, label, False, "; ".join(failed))
    data = serial.read_bytes()
    ok = len(data) > 0 and data == parallel.read_bytes()
    _verdict(10, label, ok, f"{len(data)} bytes")
