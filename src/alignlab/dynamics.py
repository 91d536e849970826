"""SGD trajectories in the Hessian eigenbasis.

With diagonal noise each eigen-coordinate is a Gaussian AR(1) process,
c <- a*c - eta*kappa*z with a = 1 - eta*lambda and z ~ N(0, 1), so n steps
compose exactly in law into one jump (Gillespie 1996, Phys. Rev. E 54, 2084)
whose decay and noise standard deviation are `theory.mode_law`'s mean at c0 = 1
and root variance at t = n. `run_trajectory` jumps from record to record when
every mode has |a| < 1 and eta < 2/lambda (the range of `mode_law`) and the
start lies inside the divergence limit, else it steps; a one-step jump is the
SGD step, c <- a*c - (z*kappa)*eta, bit for bit. Projected updates are checked
one step at a time by `projected-test`.

The jump plan is formed once: jump j ends on step ends[j] = min((j + 1) R, T),
and it is a record where due[j], that is where ends[j] is a multiple of
`record_every` or is T. The record times are [0] + ends[due], a
`DivergenceError` names ends[j], and a chunk reduces all its states when each
of its jumps is a record and the due ones otherwise. Noise comes from one
``Generator(SFC64(seed))`` stream (SFC64 draws a normal faster than numpy's
default PCG64), a chunk of jumps at a time into one reused buffer. Each jump
writes decay*c - noise over its own spent noise row, and that row is the next
jump's c; one pass per chunk checks every state against the divergence limit
(no replay) before the records are reduced in place. The bulk draws release
the GIL, and output bytes do not depend on the thread count."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DivergenceError, ParameterError
from .spectrum import NoiseProfile, Spectrum
from .state import State, _check_dims, _theta
from .theory import mode_law

__all__ = [
    "TrajectoryRecord",
    "late_phase_statistic",
    "run_trajectory",
]

# abort once any coordinate leaves this range; keeps failures loud instead of NaN
_DIVERGENCE_LIMIT = 1e150

# noise values drawn per chunk: 32 jumps at d = 500. The record scratch array
# has the same size, so the two stay small.
_CHUNK_VALUES = 16_000


def _chunk_rows(d: int) -> int:
    return max(1, _CHUNK_VALUES // d)


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
        n = len(self.times)
        if len(self.thetas) != n or len(self.losses) != n:
            raise ParameterError("times/thetas/losses must have equal length")

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


# Overflow, in the set-up (lambda^2, a^2 at a huge lambda) or in the jumps, is
# expected on diverging runs and is reported as DivergenceError, not as a
# RuntimeWarning.
@np.errstate(over="ignore", invalid="ignore")
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
    """
    if T < 1:
        raise ParameterError("T must be >= 1")
    if record_every < 1:
        raise ParameterError("record_every must be >= 1")
    _check_dims(init, spec, noise)
    if not eta > 0:
        raise ParameterError("eta must be > 0")

    lam = spec.lambdas
    lam2 = lam**2
    a = 1.0 - eta * lam

    c = init.c
    # |a| < 1 can hold at eta = fl(2/lambda), outside the range of mode_law
    jump = np.all(np.abs(a) < 1.0) and np.all(eta < 2.0 / lam) and np.max(np.abs(c)) <= _DIVERGENCE_LIMIT
    R = min(record_every, T) if jump else 1
    n_jumps = -(-T // R)
    last = T - (n_jumps - 1) * R
    # the jump plan: jump j ends on step ends[j] and is a record where due[j]
    ends = np.minimum(np.arange(1, n_jumps + 1) * R, T)
    due = (ends % record_every == 0) | (ends == T)

    def law(n):
        """(decay, noise factors) of an n-step jump: the SGD step itself at
        n = 1, else mode_law's mean at c0 = 1 and its standard deviation."""
        if n == 1:
            return a, (np.sqrt(noise.kappa2), eta)
        mean, var = mode_law(1.0, lam, noise.kappa2, eta, n)
        return mean, (np.sqrt(var),)

    decay, factors = law(R)
    decay_last, factors_last = law(last) if last < R else (decay, factors)

    rng = np.random.Generator(np.random.SFC64(seed))
    buf = np.empty((min(_chunk_rows(spec.d), n_jumps), spec.d))
    scratch = np.empty_like(buf)
    tmp = np.empty(spec.d)
    s_d, s_b, losses = [], [], []

    def reduce(states):
        """Append the records of `states` (squared in place)."""
        c2 = np.square(states, out=states)
        dom, bulk = spec.split_sum(np.multiply(lam2, c2, out=scratch[: len(c2)]))
        s_d.append(dom)
        s_b.append(bulk)
        losses.append(0.5 * np.multiply(lam, c2, out=scratch[: len(c2)]).sum(axis=1))

    reduce(np.array([c]))
    for j0 in range(0, n_jumps, len(buf)):
        rows = buf[: min(len(buf), n_jumps - j0)]
        rng.standard_normal(out=rows)
        n_full = min(len(rows), n_jumps - 1 - j0)
        for part, fs in ((rows[:n_full], factors), (rows[n_full:], factors_last)):
            for f in fs:
                part *= f
        # jump j0 + i writes the state it reaches over its spent noise row
        for i, row in enumerate(rows):
            np.multiply(decay if j0 + i < n_jumps - 1 else decay_last, c, out=tmp)
            c = np.subtract(tmp, row, out=row)
        peaks = np.abs(rows, out=scratch[: len(rows)]).max(axis=1)
        bad = np.flatnonzero(~(peaks <= _DIVERGENCE_LIMIT))  # NaN is bad too
        if len(bad):
            raise DivergenceError(int(ends[j0 + bad[0]]), f"max |c_i| = {float(peaks[bad[0]])}")
        c = c.copy()  # the chunk's last state outlives its row, squared below
        keep = due[j0 : j0 + len(rows)]
        reduce(rows if keep.all() else rows[keep])

    s_d, s_b, losses = np.concatenate(s_d), np.concatenate(s_b), np.concatenate(losses)
    # a run that stays inside the divergence limit can still record energies
    # past the float range, from huge eigenvalues
    if not np.all(np.isfinite(s_d + s_b + losses)):
        raise ParameterError("a recorded energy passes the float range: the eigenvalues or the start are too large")
    return TrajectoryRecord(
        times=np.concatenate(([0], ends[due])),
        thetas=_theta(s_d, s_b),
        losses=losses,
        s_d=s_d,
        s_b=s_b,
    )

