"""parallel.forked: results in job order for any process count, whatever
they are, the same results where fork fails, and a worker that stops
partway through a result fails the caller."""

import os
import pickle

import numpy as np
import pytest

from mramtrng import parallel

JOBS = range(7)  # W = 3 runs 3, 2 and 2 of them


def _result(job):
    """A mixed result: a tuple of an array, bytes, an int and a dict."""
    return np.arange(job * 1000, dtype=np.int64), bytes([job]) * (job + 1), -(job**40), {"job": job, "half": job / 2}


def _run(monkeypatch, workers, jobs=JOBS):
    monkeypatch.setattr(parallel, "_workers", lambda n: min(workers, n))
    with parallel.forked(jobs, _result) as results:
        return list(results)


def _assert_results(got, jobs=JOBS):
    assert len(got) == len(jobs)
    for job, (arr, data, big, record) in zip(jobs, got, strict=True):
        want = _result(job)
        assert arr.dtype == want[0].dtype and np.array_equal(arr, want[0]), job
        assert (data, big, record) == want[1:], job


def test_fold_workers_rule(monkeypatch):
    """One process per usable CPU, at most one per block, and only the
    calling process where os.fork does not exist."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    assert [parallel._workers(b) for b in (1, 2, 64)] == [1, min(2, cpus), min(64, cpus)]
    monkeypatch.delattr(os, "fork")
    assert parallel._workers(64) == 1


@pytest.mark.parametrize("pipe_bytes", [parallel._PIPE_BYTES, 4096])
@pytest.mark.parametrize("workers", [1, 2, 3])
def test_results_come_back_in_job_order(monkeypatch, workers, pipe_bytes):
    """Also through pipes of one page, which take a result in many turns."""
    monkeypatch.setattr(parallel, "_PIPE_BYTES", pipe_bytes)
    _assert_results(_run(monkeypatch, workers))


def test_falls_back_in_process_when_fork_fails(monkeypatch):
    def no_fork():
        raise OSError("no process to spare")

    monkeypatch.setattr(os, "fork", no_fork)
    _assert_results(_run(monkeypatch, 3))


def test_worker_stopping_partway_through_a_pickle_sends_short_data(monkeypatch):
    """A worker that writes half of a result's pickle and dies raises
    "short data", and every worker is reaped."""
    dumps = pickle.dumps

    def half_then_die(obj, out, protocol=None):
        data = dumps(obj, protocol)
        out.write(data[: len(data) // 2])
        out.flush()
        raise MemoryError("worker out of memory")

    monkeypatch.setattr(parallel.pickle, "dump", half_then_die)
    with pytest.raises(ChildProcessError, match="short data"):
        _run(monkeypatch, 2, range(2))
    with pytest.raises(ChildProcessError, match="short data"):
        _run(monkeypatch, 3)

