"""Run a loop of independent seeded units on forked worker processes.

``fan_out(fn, count)`` returns ``[fn(i) for i in range(count)]``.  The
indices are split into contiguous chunks, one per worker: the first chunk
runs in this process, and each other chunk in an ``os.fork``ed child that
sends back its pickled results, or the exception that stopped it, over a
pipe.  Results are merged in index order, and when several chunks raise,
the earliest chunk's exception is raised, so the outcome is the sequential
loop's whatever the worker count.  A fork shares the parent's memory, so
``fn`` may be a closure over anything; only its results and exceptions are
pickled.  Side effects of a child's units (caches, counters, spies) stay in
the child.

Everything runs in this process when ``os.fork`` is missing, when other
threads are running (a fork copies only the calling thread, with any lock
another thread holds), or when there is only one unit or one worker.
"""

from __future__ import annotations

import os
from collections.abc import Callable

from .errors import SmaleLabError


def _cpus() -> int:
    """The CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not on every platform: run in-process there
        return 1


def _serve(fn: Callable, chunk: range, w: int) -> None:
    """The child's whole life: run ``chunk``, write the outcome, exit."""
    import pickle

    code = 1
    try:
        try:
            payload = (True, [fn(i) for i in chunk])
        except BaseException as exc:  # sent to the parent, which raises it
            payload = (False, exc)
        with os.fdopen(w, "wb") as out:
            out.write(pickle.dumps(payload))
        code = 0
    finally:
        os._exit(code)  # never unwind into the parent's frames


def fan_out(fn: Callable, count: int, workers: int | None = None) -> list:
    """``[fn(i) for i in range(count)]`` over ``workers`` processes (by
    default, one per CPU this process may run on)."""
    parts = min(count, workers or _cpus())
    if parts > 1 and hasattr(os, "fork"):
        # imported here, as pickle and signal in _forked: most callers never fork
        import threading

        if threading.active_count() == 1:
            return _forked(fn, count, parts)
    return [fn(i) for i in range(count)]


def _forked(fn: Callable, count: int, parts: int) -> list:
    """``fan_out`` on ``parts`` processes: this one and parts - 1 children."""
    import pickle
    import signal

    cuts = [count * j // parts for j in range(parts + 1)]
    chunks = [range(a, b) for a, b in zip(cuts, cuts[1:])]
    running = {}  # pid -> read end of its pipe, for every child not yet reaped
    try:
        for chunk in chunks[1:]:
            r, w = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(r)
                os.close(w)
                raise
            if pid == 0:
                os.close(r)
                _serve(fn, chunk, w)
            os.close(w)
            running[pid] = os.fdopen(r, "rb")
        results = [fn(i) for i in chunks[0]]
        for (pid, reader), chunk in zip(list(running.items()), chunks[1:]):
            data = reader.read()
            reader.close()
            status = os.waitpid(pid, 0)[1]
            del running[pid]
            if not data:
                raise SmaleLabError(
                    f"worker for units {chunk.start}..{chunk.stop - 1} sent no result "
                    f"(exit status {os.waitstatus_to_exitcode(status)})"
                )
            ok, value = pickle.loads(data)
            if not ok:
                raise value
            results += value
        return results
    finally:
        # after an error, stop the children whose results are not needed
        for pid, reader in running.items():
            reader.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
