"""The one job runner: a thread pool capped by ALIGNLAB_THREADS.

Experiment jobs (harness) and Monte-Carlo batches (montecarlo) both fan out
here. Results stream back in job order, so callers that combine them in that
order produce the same bytes for any pool size. At most 2 x workers jobs are
submitted and not yet consumed, so the results held at once are O(workers)
whatever the number of jobs: a Monte-Carlo batch returns two sums per
statistic, so an estimate's memory is set by what its workers hold, for any n.
"""

from __future__ import annotations

import os
from collections import deque
from concurrent.futures import ThreadPoolExecutor

from .errors import ParameterError


def worker_count(n_jobs: int) -> int:
    env = os.environ.get("ALIGNLAB_THREADS", "").strip()
    if env:
        try:
            workers = int(env) if env.isdecimal() else 0
        except ValueError:  # more digits than int() converts
            workers = 0
        if workers < 1:
            raise ParameterError(f"ALIGNLAB_THREADS must be a positive integer, got {env!r}")
    else:
        workers = os.cpu_count() or 1
    return max(1, min(workers, n_jobs))


def run_jobs(fn, jobs):
    """Yield fn(job) for each job of the sequence, in job order, spread over
    the pool. A job is submitted only when fewer than 2 x workers are
    submitted and not yet consumed; one worker maps lazily in the calling
    thread. When the consumer stops early (closes the generator, or a job
    raises), jobs not yet started are cancelled."""
    workers = worker_count(len(jobs))
    if workers == 1:
        yield from map(fn, jobs)
        return
    pool = ThreadPoolExecutor(max_workers=workers)
    pending = deque()
    try:
        for job in jobs:
            if len(pending) == 2 * workers:
                yield pending.popleft().result()
            pending.append(pool.submit(fn, job))
        while pending:
            yield pending.popleft().result()
    finally:
        pool.shutdown(cancel_futures=True)
