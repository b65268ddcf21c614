"""parallel.forked: results in job order for any process count, whatever
they are, each handed over as soon as its job ends, the same results where
fork fails, a job's exception raised at its place, and a worker that stops
partway through a result fails the caller."""

import os
import pickle
import threading
import time

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



def test_each_result_is_handed_over_when_its_job_ends(monkeypatch, tmp_path):
    """W = 2: the worker runs jobs 1 and 3, and job 3 waits up to 3 s for a
    marker that this process writes when it receives result 1.  A result
    left in the worker's write buffer would arrive only when the worker
    ends, after job 3 has given up."""
    marker = tmp_path / "result-1-received"

    def run(job):
        if job != 3:
            return job
        deadline = time.monotonic() + 3.0
        while not marker.exists() and time.monotonic() < deadline:
            time.sleep(0.005)
        return marker.exists()

    monkeypatch.setattr(parallel, "_workers", lambda n: min(2, n))
    got = []
    with parallel.forked(range(4), run) as results:
        for result in results:
            got.append(result)
            if len(got) == 2:
                marker.touch()
    assert got == [0, 1, 2, True]


def _failing_at(bad, exc):
    def run(job):
        if job == bad:
            raise exc
        return job

    return run


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_a_jobs_exception_is_raised_at_its_place(monkeypatch, workers):
    """Job 5 runs in a worker for W = 2 and 3 (in this process for W = 1);
    its ValueError arrives with its type and message after results 0-4,
    and every worker is reaped (the autouse fixture checks that)."""
    monkeypatch.setattr(parallel, "_workers", lambda n: min(workers, n))
    got = []
    with pytest.raises(ValueError) as exc:
        with parallel.forked(JOBS, _failing_at(5, ValueError("job 5: bad input"))) as results:
            got.extend(results)
    assert exc.type is ValueError and str(exc.value) == "job 5: bad input"
    assert got == [0, 1, 2, 3, 4]


@pytest.mark.parametrize("workers", [2, 3])
def test_a_worker_exception_that_cannot_travel_fails_as_short_data(monkeypatch, workers):
    """An exception that cannot be pickled, and a MemoryError, end the
    worker as short data."""
    monkeypatch.setattr(parallel, "_workers", lambda n: min(workers, n))
    for exc in (ValueError(threading.Lock()), MemoryError("worker out of memory")):
        got = []
        with pytest.raises(ChildProcessError, match="short data"):
            with parallel.forked(JOBS, _failing_at(5, exc)) as results:
                got.extend(results)
        assert got == [0, 1, 2, 3, 4]
