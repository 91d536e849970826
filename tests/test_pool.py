"""The streaming job runner: job order, a bounded window of submitted jobs,
early close, and the lazy one-worker path."""

import sys
import threading
import time

import pytest

from alignlab._pool import run_jobs


class Jobs:
    """A job function that records which jobs started and, at each start,
    how many jobs had started and not yet been consumed."""

    def __init__(self, delay=lambda job: 0.0):
        self.delay = delay
        self.lock = threading.Lock()
        self.started = []
        self.consumed = 0
        self.peak_outstanding = 0

    def __call__(self, job):
        with self.lock:
            self.started.append(job)
            self.peak_outstanding = max(self.peak_outstanding, len(self.started) - self.consumed)
        time.sleep(self.delay(job))
        return job * job

    def consume(self, results):
        out = []
        for res in results:
            with self.lock:
                self.consumed += 1
            out.append(res)
        return out


@pytest.mark.parametrize("threads", [2, 3])
def test_results_in_job_order_under_uneven_job_times(threads, monkeypatch):
    monkeypatch.setenv("ALIGNLAB_THREADS", str(threads))
    # early jobs are the slowest, so later ones finish first
    fn = Jobs(delay=lambda job: 0.002 * (job % 5 == 0) + 0.0005 * (24 - job) / 24)
    assert fn.consume(run_jobs(fn, range(24))) == [j * j for j in range(24)]


@pytest.mark.parametrize("threads", [1, 2, 4])
def test_window_of_submitted_unconsumed_jobs(threads, monkeypatch):
    # more workers than cores and a short switch interval, so threads
    # interleave at fine grain; a slow consumer lets the window fill
    monkeypatch.setenv("ALIGNLAB_THREADS", str(threads))
    fn = Jobs()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        out = []
        for res in run_jobs(fn, range(60)):
            with fn.lock:
                fn.consumed += 1
            out.append(res)
            time.sleep(0.0005)
    finally:
        sys.setswitchinterval(interval)
    assert out == [j * j for j in range(60)]
    assert sorted(fn.started) == list(range(60))
    assert 1 <= fn.peak_outstanding <= 2 * threads


@pytest.mark.parametrize("threads", [2, 3])
def test_close_after_first_result_starts_no_job_beyond_the_window(threads, monkeypatch):
    monkeypatch.setenv("ALIGNLAB_THREADS", str(threads))
    fn = Jobs(delay=lambda job: 0.001)
    results = run_jobs(fn, range(100))
    assert next(results) == 0
    results.close()
    time.sleep(0.02)
    assert set(fn.started) <= set(range(2 * threads))


def test_failing_job_stops_the_run(monkeypatch):
    monkeypatch.setenv("ALIGNLAB_THREADS", "2")
    fn = Jobs(delay=lambda job: 0.001)

    def fail_at_three(job):
        if job == 3:
            raise ValueError("job 3")
        return fn(job)

    with pytest.raises(ValueError, match="job 3"):
        list(run_jobs(fail_at_three, range(100)))
    time.sleep(0.02)
    assert max(fn.started) < 3 + 2 * 2


def test_one_worker_path_is_lazy(monkeypatch):
    monkeypatch.setenv("ALIGNLAB_THREADS", "1")
    fn = Jobs()
    threads = []
    results = run_jobs(lambda job: (threads.append(threading.get_ident()), fn(job))[1], range(5))
    assert fn.started == []
    assert next(results) == 0
    assert fn.started == [0]
    assert next(results) == 1
    assert fn.started == [0, 1]
    assert threads == [threading.get_ident()] * 2
