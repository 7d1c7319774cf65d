"""Percentiles by nearest rank, in per-mille so the ranks are exact."""
from __future__ import annotations

# Candidate tail percentiles, in per-mille: p50, p90, p95, p99, p99.9.
LADDER = (500, 900, 950, 990, 999)
MIN_BEYOND = 10


def rank(permille: int, count: int) -> int:
    """1-based nearest rank of the permille-th percentile of count samples."""
    return max(1, -(-permille * count // 1000))


def beyond(permille: int, count: int) -> int:
    """Samples ranked above the permille-th percentile."""
    return count - rank(permille, count)


def tail_permille(count: int) -> int:
    """The highest ladder percentile with MIN_BEYOND samples above it.

    Fewer than 2 * MIN_BEYOND samples leave only the median.
    """
    fit = [p for p in LADDER if beyond(p, count) >= MIN_BEYOND]
    return fit[-1] if fit else LADDER[0]


def percentile(values, permille: int) -> float:
    ordered = sorted(values)
    return ordered[rank(permille, len(ordered)) - 1]
