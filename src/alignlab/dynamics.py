"""SGD trajectories in the Hessian eigenbasis.

With diagonal noise each eigen-coordinate is a Gaussian AR(1) process,
c <- a*c - eta*kappa*z with a = 1 - eta*lambda and z ~ N(0, 1), so n steps
compose exactly in law into one jump (Gillespie 1996, Phys. Rev. E 54, 2084)
whose decay and noise standard deviation are `theory.mode_law`'s mean at c0 = 1
and root variance at t = n. A run jumps from record to record when every mode
has |a| < 1 and eta < 2/lambda (the range of `mode_law`) and the start lies
inside the divergence limit, else it steps; a one-step jump is the SGD step,
c <- a*c - (z*kappa)*eta, bit for bit. Projected updates are checked one step
at a time by `projected-test`.

There is one kernel, `run_trajectories`: it runs a list of jobs that share
d, k, eta, T and `record_every`, and `run_trajectory` is its one-job call.
It splits the jobs by jump plan and cuts each plan's jobs into groups of
`_group_size`; the groups are the jobs of `_pool.run_jobs`, the one job
runner, and each group's jobs step together. The plan is formed once: jump
j ends on step ends[j] = min((j + 1) R, T), and it is a record where
due[j], that is where ends[j] is a multiple of `record_every` or is T.
The record times are [0] + ends[due], a `DivergenceError` names ends[j], and
a chunk reduces all its states when each of its jumps is a record and the due
ones otherwise. Each job draws its noise from its own
``Generator(SFC64(seed))`` stream (SFC64 draws a normal faster than numpy's
default PCG64), a chunk of jumps at a time into one reused buffer; the chunk
holds jump j of every job in one (jobs, d) row, so one numpy call steps the
whole group. Each jump writes decay*c - noise over its own spent noise row,
and that row is the next jump's c; one pass per chunk checks every state
against the divergence limit (no replay) before the records are reduced in
place. A job that diverges leaves the group there, with the error it raises
alone, and the others run on. Every operation is elementwise per job or
reduces one job's row, so a job's records are the same bits in any group.
The bulk draws release the GIL, and so do numpy's loops over a group's rows:
numpy releases it only for loops over more than 500 values, which one job's
rows at d = 500 are not, so groups on the job pool overlap where single jobs
could not. Output bytes do not depend on the thread count."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._pool import run_jobs, worker_count
from .errors import AlignlabError, DivergenceError, ParameterError
from .spectrum import NoiseProfile, Spectrum
from .state import State, _check_dims, _theta
from .theory import mode_law

__all__ = [
    "TrajectoryRecord",
    "late_phase_statistic",
    "run_trajectories",
    "run_trajectory",
]

# abort once any coordinate leaves this range; keeps failures loud instead of NaN
_DIVERGENCE_LIMIT = 1e150

# noise values drawn per chunk, for all the jobs of a group: 16 jumps of 4 jobs
# at d = 500, or 64 jumps of one job. The state array has the same size, so
# the two stay small. 16 000 and 24 000 ran the grouped simulate grid slower,
# and 48 000 no faster within the spread (BENCH_30.json).
_CHUNK_VALUES = 32_000


# the most jobs of one jump plan that one pool job steps together (the output
# bytes do not depend on it). On a 2-vCPU host at d = 500, groups of 2 to 5
# ran the benchmark's 8-job grid at two threads within each other's spread, 4
# with the lowest median, and groups of 1 and 8 were slower; at d = 2000
# groups of 1, 2 and 4 were within each other's spread (BENCH_30.json). No
# run has checked more than two threads. `_group_size` makes the groups
# smaller where groups of four would leave a worker idle.
_GROUP_JOBS = 4


def _chunk_rows(d: int, jobs: int = 1) -> int:
    return max(1, _CHUNK_VALUES // (jobs * d))


def _group_size(n_jobs: int) -> int:
    """The jobs per group of a call of n_jobs: _GROUP_JOBS, or
    ceil(n_jobs / workers) where that is smaller. A pool with more workers
    than groups of _GROUP_JOBS would fill then runs one group per worker,
    and no worker steps more jobs than with one job per pool job."""
    return min(_GROUP_JOBS, -(-n_jobs // worker_count(n_jobs)))


@dataclass(frozen=True)
class TrajectoryRecord:
    """(step, alignment, loss) series sampled every `record_every` steps,
    with the block energies s_D and s_B at the same steps."""

    times: np.ndarray
    thetas: np.ndarray
    losses: np.ndarray
    s_d: np.ndarray
    s_b: np.ndarray

    def __post_init__(self):
        if len({len(series) for series in (self.times, self.thetas, self.losses, self.s_d, self.s_b)}) > 1:
            raise ParameterError("times/thetas/losses/s_d/s_b must have equal length")

    @property
    def final_time(self) -> int:
        return int(self.times[-1])


def late_phase_statistic(traj: TrajectoryRecord, T_start: int) -> tuple[float, float]:
    """Mean and standard deviation of the recorded alignment over steps in
    [T_start, T_end] -- the late-phase alignment estimator."""
    if T_start >= traj.final_time:
        raise ParameterError(f"T_start={T_start} leaves an empty window (final step {traj.final_time})")
    window = traj.thetas[traj.times >= T_start]
    return float(np.mean(window)), float(np.std(window))


def run_trajectory(
    spec: Spectrum,
    noise: NoiseProfile,
    init: State,
    eta: float,
    T: int,
    record_every: int,
    seed: int = 0,
) -> TrajectoryRecord:
    """Run T SGD steps with fresh i.i.d. noise, recording (t, theta, loss,
    s_D, s_B) at t = 0, every `record_every` steps, and t = T.
    Deterministic given `seed`; jumps between records as the module says.
    The one-job call of `run_trajectories`: it runs in the calling thread,
    and a bad ALIGNLAB_THREADS raises the pool's ParameterError.
    """
    (out,) = run_trajectories([(spec, noise, init, seed)], eta, T, record_every)
    if isinstance(out, AlignlabError):
        raise out
    return out


# Overflow, in the set-up (eta * lambda, lambda^2, a^2 at a huge lambda) or in
# the jumps, is expected on diverging runs and is reported as DivergenceError,
# not as a RuntimeWarning. numpy's error state is per thread, so the group
# that a pool worker runs sets its own.
@np.errstate(over="ignore", invalid="ignore")
def run_trajectories(jobs, eta: float, T: int, record_every: int) -> list:
    """`run_trajectory` for each (spec, noise, init, seed) of `jobs`, all of
    one d and k. Returns, in job order, each job's TrajectoryRecord or the
    DivergenceError or ParameterError that it raises when run alone; a job
    that fails leaves the others' records as they are. The jobs that share a
    jump plan step together in groups of `_group_size`, one pool job per
    group and one pass per chunk for all of its jobs.
    """
    if T < 1:
        raise ParameterError("T must be >= 1")
    if record_every < 1:
        raise ParameterError("record_every must be >= 1")
    for spec, noise, init, _ in jobs:
        _check_dims(init, spec, noise)
        if (spec.d, spec.k) != (jobs[0][0].d, jobs[0][0].k):
            raise ParameterError("the jobs of one call must share d and k")
    if not eta > 0:
        raise ParameterError("eta must be > 0")

    size = _group_size(len(jobs))
    # a job jumps R = min(record_every, T) steps at a time, or steps (R = 1)
    plans = [min(record_every, T) if _can_jump(spec, init, eta) else 1 for spec, _, init, _ in jobs]
    groups = []  # the indices of each group's jobs, which share a plan
    for R in set(plans):
        same = [i for i, plan in enumerate(plans) if plan == R]
        groups += [same[i : i + size] for i in range(0, len(same), size)]
    runs = run_jobs(lambda group: _run_group([jobs[i] for i in group], eta, T, record_every, plans[group[0]]), groups)
    done = {i: result for group, results in zip(groups, runs) for i, result in zip(group, results)}
    return [done[i] for i in range(len(jobs))]


def _can_jump(spec: Spectrum, init: State, eta: float) -> bool:
    """Every mode has |a| < 1 and eta < 2/lambda, and the start lies inside
    the divergence limit. (|a| < 1 can hold at eta = fl(2/lambda), outside
    the range of mode_law.)"""
    lam = spec.lambdas
    return bool(
        np.all(np.abs(1.0 - eta * lam) < 1.0)
        and np.all(eta < 2.0 / lam)
        and np.max(np.abs(init.c)) <= _DIVERGENCE_LIMIT
    )


@np.errstate(over="ignore", invalid="ignore")
def _run_group(jobs, eta: float, T: int, record_every: int, R: int) -> list:
    """The records or errors of jobs that share the jump plan R, stepped
    together: jump j of every job is one (jobs, d) row of a chunk."""
    n_jumps = -(-T // R)
    last = T - (n_jumps - 1) * R
    # the jump plan: jump j ends on step ends[j] and is a record where due[j]
    ends = np.minimum(np.arange(1, n_jumps + 1) * R, T)
    due = (ends % record_every == 0) | (ends == T)

    spec = jobs[0][0]
    lam = np.array([job[0].lambdas for job in jobs])
    kappa2 = np.array([job[1].kappa2 for job in jobs])
    lam2 = lam**2

    def law(n):
        """(decay, noise factors) of an n-step jump, per job: the SGD step
        itself at n = 1, else mode_law's mean at c0 = 1 and its standard
        deviation."""
        if n == 1:
            return 1.0 - eta * lam, (np.sqrt(kappa2), np.full_like(lam, eta))
        mean, var = mode_law(1.0, lam, kappa2, eta, n)
        return mean, (np.sqrt(var),)

    decay, factors = law(R)
    decay_last, factors_last = law(last) if last < R else (decay, factors)

    # slot s of every per-job array below holds job live[s]
    live = list(range(len(jobs)))
    rngs = [np.random.Generator(np.random.SFC64(job[3])) for job in jobs]
    n_rows = min(_chunk_rows(spec.d, len(jobs)), n_jumps)
    buf = np.empty((n_rows, len(jobs), spec.d))
    scratch = np.empty_like(buf)
    # each job draws its rows, in its stream's order, into its own block of scratch
    draws = scratch.reshape(len(jobs), n_rows, spec.d)
    c = np.array([job[2].c for job in jobs])
    tmp = np.empty_like(c)
    records = [([], [], []) for _ in jobs]  # s_D, s_B and loss of each job
    out = [None] * len(jobs)

    def reduce(states):
        """Append each live job's records of `states` (squared in place)."""
        c2 = np.square(states, out=states)
        w = scratch[: len(c2), : len(live)]
        dom, bulk = spec.split_sum(np.multiply(lam2, c2, out=w))
        losses = 0.5 * np.multiply(lam, c2, out=w).sum(axis=-1)
        for s, job in enumerate(live):
            for series, values in zip(records[job], (dom, bulk, losses)):
                series.append(values[:, s])

    reduce(c[None].copy())
    for j0 in range(0, n_jumps, n_rows):
        n = min(n_rows, n_jumps - j0)
        rows = buf[:n, : len(live)]
        for rng, job_draws in zip(rngs, draws):
            rng.standard_normal(out=job_draws[:n])
        n_full = min(n, n_jumps - 1 - j0)
        for part, fs in ((slice(0, n_full), factors), (slice(n_full, n), factors_last)):
            np.multiply(draws[: len(live), part].swapaxes(0, 1), fs[0], out=rows[part])
            for f in fs[1:]:
                rows[part] *= f
        # jump j0 + i writes the state it reaches over its spent noise row
        for i, row in enumerate(rows):
            np.multiply(decay if j0 + i < n_jumps - 1 else decay_last, c, out=tmp)
            c = np.subtract(tmp, row, out=row)
        peaks = np.abs(rows, out=scratch[:n, : len(live)]).max(axis=-1)
        bad = ~(peaks <= _DIVERGENCE_LIMIT)  # NaN is bad too
        ok = ~bad.any(axis=0)
        c = c.copy()  # the chunk's last state outlives its row, squared below
        if not ok.all():
            for s in np.flatnonzero(~ok):
                j = int(np.argmax(bad[:, s]))
                out[live[s]] = DivergenceError(int(ends[j0 + j]), f"max |c_i| = {float(peaks[j, s])}")
            live = [job for job, kept in zip(live, ok) if kept]
            rngs = [rng for rng, kept in zip(rngs, ok) if kept]
            lam, lam2, decay, decay_last, c, tmp = (x[ok] for x in (lam, lam2, decay, decay_last, c, tmp))
            factors, factors_last = (tuple(f[ok] for f in fs) for fs in (factors, factors_last))
            rows = rows[:, ok]
            if not live:
                break
        keep = due[j0 : j0 + n]
        reduce(rows if keep.all() else rows[keep])

    times = np.concatenate(([0], ends[due]))
    for job in live:
        s_d, s_b, losses = (np.concatenate(series) for series in records[job])
        # a run that stays inside the divergence limit can still record
        # energies past the float range, from huge eigenvalues
        if not np.all(np.isfinite(s_d + s_b + losses)):
            out[job] = ParameterError(
                "a recorded energy passes the float range: the eigenvalues or the start are too large"
            )
        else:
            out[job] = TrajectoryRecord(
                times=times.copy(), thetas=_theta(s_d, s_b), losses=losses, s_d=s_d, s_b=s_b
            )
    return out
