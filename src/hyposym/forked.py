"""Items produced as bytes in forked workers and consumed in order.

``ordered(produce, count, work)`` gives ``produce(i)`` for i in
range(count), in order.  Item i is produced by process i mod W: the
caller's own process for 0, and for the others a worker forked before the
first item, which sends its items length-prefixed through its own pipe.
The caller reads the items in order and produces its own in turn, so a
worker runs at most a pipe's worth ahead.  It produces itself the items of
a worker whose pipe ends early, or that could not be forked, so the items
never depend on W.

``produce`` runs in a forked copy of a process that may hold threads
(numpy's BLAS pool), so it must make no BLAS call: str, json and numpy
array code only.  A worker always ends in ``os._exit``, and every worker
is reaped when the items are left, however that happens.

The CLI's sidecar writer is its one caller, and imports it only where a
sidecar is written, so no other command compiles it.
"""

from __future__ import annotations

import contextlib
import os
import warnings

# most processes that produce one sequence of items, the caller included
MAX_PROCESSES = 8


def cpu_count() -> int:
    """The CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # a platform without CPU affinity
        return os.cpu_count() or 1


@contextlib.contextmanager
def ordered(produce, count: int, work: int):
    """Within the block, an iterator over ``produce(i)`` for i in
    range(count), item i produced by process i mod W.  ``work`` counts the
    units of the whole job worth a process each: W is the CPU count, capped
    by ``work``, ``count`` and MAX_PROCESSES, and 1 where ``os.fork`` is
    missing."""
    processes = max(1, min(cpu_count(), MAX_PROCESSES, work, count)) if hasattr(os, "fork") else 1
    workers = {}  # process index -> (pid, read end of its pipe)
    try:
        for w in range(1, processes):
            try:
                workers[w] = _fork(produce, range(w, count, processes), workers)
            except OSError:  # no process or pipe to spare: the caller produces the rest
                break
        yield _items(produce, count, processes, workers)
    finally:
        for pid, pipe in workers.values():
            pipe.close()
            os.waitpid(pid, 0)


def _items(produce, count: int, processes: int, workers: dict):
    live = set(workers)  # the workers whose pipes have not ended
    for i in range(count):
        w = i % processes
        data = _receive(workers[w][1]) if w in live else None
        if data is None:  # the caller's own item, or one a worker did not send
            live.discard(w)
            data = produce(i)
        yield data


def _fork(produce, indices, workers: dict) -> tuple:
    """Fork a worker that sends ``produce(i)`` for each i of ``indices``,
    length-prefixed, through a new pipe, then exits: ``(pid, read end)``.
    A full pipe blocks the worker."""
    read, write = os.pipe()
    try:
        with warnings.catch_warnings():  # Python 3.12 warns when a threaded process forks
            warnings.simplefilter("ignore", DeprecationWarning)
            pid = os.fork()
    except OSError:
        os.close(read)
        os.close(write)
        raise
    if pid:
        os.close(write)
        return pid, open(read, "rb")
    status = 1
    try:  # the worker: always os._exit
        os.close(read)
        for _, pipe in workers.values():  # so only the caller reads each pipe
            pipe.close()
        with open(write, "wb") as pipe:
            for i in indices:
                data = produce(i)
                pipe.write(len(data).to_bytes(8, "little"))
                pipe.write(data)
        status = 0
    finally:
        os._exit(status)


def _receive(pipe) -> bytes | None:
    """The next item from a worker's pipe, or None if the pipe ends first."""
    head = pipe.read(8)
    if len(head) < 8:
        return None
    size = int.from_bytes(head, "little")
    data = pipe.read(size)
    return data if len(data) == size else None
