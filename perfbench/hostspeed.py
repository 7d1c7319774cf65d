"""Host speed probes: time a fixed pure-Python task that does not use zdg.

The benchmark runs on a few cores of a shared host whose speed changes by
up to half within a second, while CPU time keeps pace with wall time: the
change is in the hardware each core gets, not in scheduling, and the cores
do not change together.  So one probe process runs pinned to each core the
benchmark may use.  Every EVERY_S it runs the task warm, a short graph walk
and trial division like zdg's own work, and appends the task's CPU time to
its file.  A measured interval is scaled by REFERENCE_S / (the mean probe
time of its cores within it), which reports it in seconds at a reference
host speed.  Intervals shorter than EVERY_S use the nearest probe on each
side.  The probes take about 4% of each core, in every run alike.

    python3 perfbench/hostspeed.py CPU OUT   # one probe process
"""
from __future__ import annotations

import bisect
import os
import random
import subprocess
import sys
import time
from pathlib import Path

# About the probe time of a 2-core x86-64 VM under CPython 3.11 at its
# fastest; it sets the scale of the reported seconds, not their spread.
REFERENCE_S = 2.0e-4
EVERY_S = 0.005

_rng = random.Random(7)
_ADJACENCY = [[_rng.randrange(400) for _ in range(4)] for _ in range(400)]
_SEMIPRIME = 1_000_003 * 999_983


def _task() -> int:
    seen = {0}
    queue = [0]
    for u in queue:
        for w in _ADJACENCY[u]:
            if w not in seen:
                seen.add(w)
                queue.append(w)
    d = 3
    while d < 2000 and _SEMIPRIME % d:
        d += 2
    return len(seen) + d


def probe() -> float:
    """CPU seconds of one warm run of the task."""
    _task()
    start = time.thread_time()
    _task()
    return time.thread_time() - start


class Probes:
    """One probe process pinned to each of cpus, writing under directory."""

    def __init__(self, cpus, directory: Path):
        self.paths = {cpu: directory / f"probes-{cpu}.txt" for cpu in cpus}
        self.procs = []
        try:
            for cpu, path in self.paths.items():
                self.procs.append(subprocess.Popen(
                    [sys.executable, __file__, str(cpu), str(path)]))
        except BaseException:
            self.close()
            raise

    def close(self):
        for proc in self.procs:
            proc.kill()
        for proc in self.procs:
            proc.wait()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

    def samples(self, cpus) -> list[tuple[float, float]]:
        """(monotonic start, probe seconds) of the given cpus, by time."""
        out = []
        for cpu in cpus:
            path = self.paths[cpu]
            if path.exists():
                for line in path.read_text().splitlines():
                    fields = line.split()
                    if len(fields) == 2:  # the last line may be cut short
                        out.append((float(fields[0]), float(fields[1])))
        return sorted(out)


class Timeline:
    """Probe samples by time, to scale measured intervals."""

    def __init__(self, samples):
        self.samples = samples
        self.times = [t for t, _ in samples]
        if not samples:
            raise RuntimeError("no host speed probes were recorded")

    def factor(self, start: float, end: float) -> float:
        """Reference seconds per second measured in [start, end]."""
        lo = bisect.bisect_left(self.times, start)
        hi = bisect.bisect_right(self.times, end)
        chosen = self.samples[lo:hi] or self.samples[max(lo - 1, 0):lo + 1]
        return REFERENCE_S * len(chosen) / sum(d for _, d in chosen)

    def scale(self, start: float, end: float) -> float:
        """The interval's length in reference seconds."""
        return (end - start) * self.factor(start, end)


def main(cpu: str, out: str):
    os.sched_setaffinity(0, {int(cpu)})
    with open(out, "w", buffering=1) as handle:
        while True:
            time.sleep(EVERY_S)
            start = time.monotonic()
            handle.write(f"{start} {probe()}\n")


if __name__ == "__main__":
    main(*sys.argv[1:3])
