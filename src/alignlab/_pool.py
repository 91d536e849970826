"""The one job runner: a thread pool capped by ALIGNLAB_THREADS.

Experiment jobs (harness) and Monte-Carlo batches (montecarlo) both fan out
here. Results come back in job order, so callers that combine them in that
order produce the same bytes for any pool size.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor

from .errors import ParameterError


def worker_count(n_jobs: int) -> int:
    env = os.environ.get("ALIGNLAB_THREADS", "").strip()
    if env:
        workers = int(env) if env.isdecimal() else 0
        if workers < 1:
            raise ParameterError(f"ALIGNLAB_THREADS must be a positive integer, got {env!r}")
    else:
        workers = os.cpu_count() or 1
    return max(1, min(workers, n_jobs))


def run_jobs(fn, jobs: list) -> list:
    """[fn(job) for job in jobs], spread over the pool."""
    workers = worker_count(len(jobs))
    if workers == 1:
        return [fn(job) for job in jobs]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, jobs))
