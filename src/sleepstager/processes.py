"""Work on every CPU the process may use: the caller and forked workers.

Two kinds of work fan out here. Cross-validation's fold groups run through
``_in_processes``, whose process count ``_process_count`` leaves room for
each process's BLAS threads. ``ingest`` formats a table's rows through
``_forked`` on ``_cpu_count`` processes, since formatting calls no BLAS.
Both fork with ``_forked``: each child reads the caller's memory
copy-on-write and answers through its own pipe, and every child is killed,
if still running, and waited for on every path out of the caller.

The module deals in processes and pipes, not arrays: it imports nothing
outside the standard library.
"""

from __future__ import annotations

import os
import pickle
import signal
from contextlib import contextmanager

# what sets the threads of numpy's BLAS, in the order OpenBLAS reads them
BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def _cpu_count() -> int:
    """The CPUs this process may run on (``os.sched_getaffinity``); one where
    ``os.fork`` or ``sched_getaffinity`` is missing."""
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return 1
    return len(os.sched_getaffinity(0))


def _process_count() -> int:
    """How many processes cross-validation runs on: ``_cpu_count()`` divided
    by the threads each process's BLAS starts, so that processes and their
    BLAS threads do not outnumber the CPUs. The BLAS starts as many threads
    as the first of ``BLAS_THREAD_VARIABLES`` set to a positive integer
    says, else one per CPU."""
    cpus = _cpu_count()
    for name in BLAS_THREAD_VARIABLES:
        try:
            threads = int(os.environ.get(name, ""))
        except ValueError:
            continue
        if threads > 0:
            return max(1, cpus // threads)
    return 1


@contextmanager
def _forked(work, shares):
    """Fork a worker per share and yield ``(share, pid, pipe)`` for each.

    The worker runs ``work(share, out)``, with ``out`` the binary write end
    of its own pipe, and ends with ``os._exit(0)`` whatever happens, so it
    never returns into the caller's stack. ``pipe`` is the read end, a
    binary file; where ``os.fork`` fails, ``pid`` and ``pipe`` are None.
    On leaving, however it is left, every pipe is closed and every child
    killed, if still running, and waited for; none is waited for before
    then, so no pid is reused while the caller may signal it.
    """
    children = []
    try:
        for share in shares:
            read_end, write_end = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(read_end)
                os.close(write_end)
                children.append((share, None, None))
                continue
            if pid == 0:  # the worker
                try:
                    with open(write_end, "wb") as out:
                        work(share, out)
                finally:
                    os._exit(0)
            os.close(write_end)
            children.append((share, pid, open(read_end, "rb")))
        yield children
    finally:
        for _, pid, pipe in children:
            if pid is not None:
                pipe.close()
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)


def _run_share(run, items, share):
    """``run(items[i])`` for each index ``i`` of ``share`` in order, up to the
    first exception. Returns the results by index and the fault, as
    ``(index, exception)``, or None."""
    done = {}
    for i in share:
        try:
            done[i] = run(items[i])
        except Exception as exc:
            return done, (i, exc)
    return done, None


def _in_processes(run, items, workers: int) -> list:
    """``[run(item) for item in items]`` on ``workers`` processes.

    Items are dealt round-robin into ``workers`` shares. The calling process
    runs share 0 itself; a ``_forked`` worker runs each other share and
    sends its results, or its first exception, back pickled. Each share
    stops at its own first exception, so the fault with the lowest item
    index is the one a loop over ``items`` would raise, and it is raised
    (the caller's own as the same object). A share whose worker ends
    without a result (killed, or an outcome that does not pickle), or could
    not be forked, runs in the caller, up to the earliest fault seen so far.
    A worker whose whole share comes after a known fault is killed.
    """
    shares = [range(s, len(items), workers) for s in range(min(workers, len(items)))]

    def send(share, out):
        # an outcome that does not pickle is not sent: no result
        out.write(pickle.dumps(_run_share(run, items, share)))

    with _forked(send, shares[1:]) as children:
        done, fault = _run_share(run, items, shares[0])
        faults = [fault] if fault else []
        for share, pid, pipe in children:
            earliest = min((i for i, _ in faults), default=len(items))
            outcome = b""
            if pid is not None:
                if share[0] > earliest:
                    os.kill(pid, signal.SIGKILL)
                with pipe:
                    outcome = pipe.read()
            try:
                share_done, share_fault = pickle.loads(outcome)
            except Exception:  # no usable result: run what can still matter here
                share_done, share_fault = _run_share(run, items, [i for i in share if i < earliest])
            done.update(share_done)
            faults += [share_fault] if share_fault else []
    if faults:
        raise min(faults, key=lambda fault: fault[0])[1]
    return [done[i] for i in range(len(items))]
