"""Jobs shared between forked processes, with results in job order.

The fold and the harvest can be split across processes because any
(seed, cell, round) draw of the counter-based RNG is computed on its own,
so a job's result does not depend on which process runs it.
"""

from __future__ import annotations

import contextlib
import os
import pickle
from collections.abc import Callable, Sequence

# pipe buffer of a forked worker, the default pipe-max-size of Linux: it
# holds a whole job's pickled result (a harvest unit's 384 KiB, a fold
# block's 128 KiB), so a worker runs on instead of handing it over 64 KB at a
# time.  On 2 vCPU with one CPU kept busy, `generate` of 32 Mbit took
# 1.29-1.38 s with it and 1.33-2.00 s with the 64 KB default
_PIPE_BYTES = 1 << 20


def _workers(jobs: int) -> int:
    """Processes that share ``jobs`` jobs: one per usable CPU and at most one
    per job; only the calling one without os.fork."""
    if not hasattr(os, "fork"):
        return 1
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no CPU affinity on this platform
        cpus = os.cpu_count() or 1
    return max(1, min(cpus, jobs))


def _pipe() -> tuple[int, int]:
    """os.pipe(), with its buffer grown to _PIPE_BYTES where the platform
    allows it."""
    r, w = os.pipe()
    import fcntl  # here: only a call that forks needs it

    with contextlib.suppress(AttributeError, OSError):  # not Linux, or above the host's pipe-max-size
        fcntl.fcntl(w, fcntl.F_SETPIPE_SZ, _PIPE_BYTES)
    return r, w


@contextlib.contextmanager
def forked(jobs: Sequence, run: Callable):
    """Runs ``run(job)`` for every job across W = _workers(len(jobs))
    processes and yields an iterator over the jobs' results, in job order.

    Job i runs in process i mod W.  Process 0 is this one, which runs its
    jobs as the iterator reaches them; each of W - 1 forked workers runs its
    jobs in order and pickles their results into a pipe, which this process
    unpickles.  Only this process's own children write to the pipes, so no
    outside input is unpickled.  A worker runs ahead of the reader only as
    far as its pipe's buffer (_PIPE_BYTES) holds, so memory stays bounded.
    Where os.fork fails, this process runs that worker's jobs itself.

    A worker leaves only through os._exit.  Short data or a non-zero exit
    raises ChildProcessError; the workers are killed if the caller raises,
    and always reaped.  Fork before opening any buffered writer: a worker
    would hold a copy of its buffer.
    """
    workers = _workers(len(jobs))
    children = {}  # process index -> (pid, read end of its pipe)

    def results():
        for k, job in enumerate(jobs):
            if k % workers not in children:
                yield run(job)
                continue
            pid, src = children[k % workers]
            try:
                result = pickle.load(src)
            except (EOFError, pickle.UnpicklingError):
                raise ChildProcessError(f"worker {pid} sent short data") from None
            yield result

    try:
        for i in range(1, workers):
            r, w = _pipe()
            try:
                pid = os.fork()
            except OSError:  # no process to spare: this one runs the rest
                os.close(r)
                os.close(w)
                break
            if pid == 0:
                # the worker runs only its jobs and the pipe writes, and
                # leaves through os._exit: no return into the caller, no
                # stdio flush, no atexit handlers
                status = 1
                try:
                    os.close(r)
                    with open(w, "wb") as out:
                        for job in jobs[i::workers]:
                            pickle.dump(run(job), out, protocol=pickle.HIGHEST_PROTOCOL)
                    status = 0
                finally:
                    os._exit(status)
            os.close(w)
            children[i] = (pid, open(r, "rb"))
        yield results()
    except BaseException:
        # imported here: at the top it would add about 1 ms and 0.1 MB to
        # every CLI call for a path that runs only on failure
        import signal

        for pid, _ in children.values():
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        codes = []
        for pid, src in children.values():
            src.close()
            codes.append(os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]))
    if any(codes):
        raise ChildProcessError(f"worker exit codes {codes}")
