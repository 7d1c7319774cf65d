"""Ordered chunk runner: a function over consecutive chunks of a range.

The calling process is worker 0 and multiprocessing children are the
others, each sending its results down its own pipe.  With one worker no
child starts, and multiprocessing is not imported.
"""
from __future__ import annotations

import os
from collections.abc import Iterator

from .arith import _check_range

# Most values of n in one chunk, which bounds what a worker holds and sends
# at once on a long range.
_MAX_CHUNK = 1024


def chunked(fn, start: int, stop: int, *, jobs: int = 1) -> Iterator:
    """Yield fn(values) for consecutive ranges covering [start, stop], in order.

    Chunks hold len // (8 * workers) values, at most _MAX_CHUNK, and chunk
    i runs on worker i mod workers, with workers = min(jobs, cpu count,
    range length).  Worker 0 is the calling process; the others are child
    processes, started at the first next() and each sending its results
    down its own pipe.  A child's exception is raised here at its chunk's
    turn, and every child is stopped and joined when the iteration ends,
    fails or is closed.  The range and jobs are checked now, before any
    chunk runs.
    """
    _check_range(start)
    _check_range(stop)
    if stop < start:
        raise ValueError(f"need 1 <= start <= stop, got [{start}, {stop}]")
    if not isinstance(jobs, int) or isinstance(jobs, bool):
        raise ValueError(f"jobs must be an int, got {type(jobs).__name__}")
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    length = stop - start + 1
    workers = min(jobs, os.cpu_count() or 1, length)
    size = min(_MAX_CHUNK, max(1, length // (workers * 8)))
    return _run(fn, range(start, stop + 1, size), size, stop, workers)


def _chunks(starts: range, size: int, stop: int) -> Iterator[range]:
    return (range(lo, min(lo + size, stop + 1)) for lo in starts)


def _run(fn, starts: range, size: int, stop: int, workers: int) -> Iterator:
    pipes, children = [], []
    try:
        for w in range(1, workers):  # no child, so no import, at one worker
            import multiprocessing

            reader, writer = multiprocessing.Pipe(duplex=False)
            pipes.append(reader)
            child = multiprocessing.Process(
                target=_work,
                args=(fn, starts[w::workers], size, stop, writer),
                daemon=True,
            )
            child.start()
            children.append(child)
            writer.close()  # the child's exit is then EOF on reader
        for i, values in enumerate(_chunks(starts, size, stop)):
            w = i % workers
            if w == 0:
                yield fn(values)
                continue
            try:
                result, error = pipes[w - 1].recv()
            except EOFError:
                raise RuntimeError(
                    f"worker {w} ended before sending n = {values.start}.."
                    f"{values.stop - 1}"
                ) from None
            if error is not None:
                raise error
            yield result
    finally:
        for child in children:
            child.terminate()
        for child in children:
            child.join()
        for reader in pipes:
            reader.close()


def _work(fn, starts: range, size: int, stop: int, conn) -> None:
    """Child side of chunked: send (result, None) per chunk or (None, error)."""
    try:
        for values in _chunks(starts, size, stop):
            conn.send((fn(values), None))
    except Exception as error:
        conn.send((None, error))
    finally:
        conn.close()
