"""Trajectories of full and block-projected SGD in the Hessian eigenbasis.

With diagonal noise each updated eigen-coordinate is a Gaussian AR(1) process,
c <- a*c - eta*kappa*z with a = 1 - eta*lambda and z ~ N(0, 1), so R steps
compose exactly in law into one jump (Gillespie 1996, Phys. Rev. E 54, 2084):

    c <- a^R * c - ((z*kappa)*eta) * sqrt(G_R),   G_R = sum_{j<R} a^(2j).

`run_trajectory` jumps from record to record (R = record_every, one normal per
coordinate per record) when every updated mode has |a| < 1 and the start state
lies inside the divergence limit. Otherwise it runs step by step (R = 1, where
the jump is the SGD step bit for bit). Noise is drawn a chunk of jumps at a
time into one reused buffer; each jump writes its state over its spent noise
row, and one pass per chunk checks every state against the divergence limit
(no replay) before the records are reduced in place. The bulk draws release
the GIL, and output bytes do not depend on the thread count."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DivergenceError, ParameterError
from .spectrum import NoiseProfile, Spectrum
from .state import State, _check_dims

__all__ = [
    "ALGORITHMS",
    "TrajectoryRecord",
    "run_trajectory",
    "write_trajectory_csv",
]

ALGORITHMS = ("sgd", "dsgd", "bsgd")

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
    with the block energies s_D and s_B at the same steps (run_trajectory
    always records them)."""

    times: np.ndarray
    thetas: np.ndarray
    losses: np.ndarray
    s_d: np.ndarray | None = None
    s_b: np.ndarray | None = None

    def __post_init__(self):
        n = len(self.times)
        if len(self.thetas) != n or len(self.losses) != n:
            raise ParameterError("times/thetas/losses must have equal length")

    @property
    def final_time(self) -> int:
        return int(self.times[-1])


def _jump_coefficients(a: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """(a^n, sqrt(G_n)): decay and noise scale of an n-step jump. G_n is summed
    term by term: no 0/0 at a = 1 and no cancellation at small eta*lambda,
    unlike (1 - a^(2n)) / (1 - a^2)."""
    a2 = a * a
    g = np.zeros_like(a)
    term = np.ones_like(a)
    for _ in range(n):
        g += term
        term *= a2
    return a**n, np.sqrt(g)


def run_trajectory(
    spec: Spectrum,
    noise: NoiseProfile,
    init: State,
    eta: float,
    T: int,
    record_every: int,
    algo: str = "sgd",
    seed: int = 0,
) -> TrajectoryRecord:
    """Run T steps of the chosen update with fresh i.i.d. noise, recording
    (t, theta, loss, s_D, s_B) at t = 0, every `record_every` steps, and t = T.
    Deterministic given `seed`; jumps between records as the module says.
    """
    if T < 1:
        raise ParameterError("T must be >= 1")
    if record_every < 1:
        raise ParameterError("record_every must be >= 1")
    if algo not in ALGORITHMS:
        raise ParameterError(f"algo must be one of {ALGORITHMS}, got {algo!r}")
    _check_dims(init, spec, noise)
    if not eta > 0:
        raise ParameterError("eta must be > 0")

    lam = spec.lambdas
    lam2 = lam**2
    kappa = np.sqrt(noise.kappa2)
    k = spec.k
    sl = {"sgd": slice(None), "dsgd": slice(None, k), "bsgd": slice(k, None)}[algo]
    a = 1.0 - eta * lam[sl]

    c = init.c.copy()
    cv = c[sl]  # view: the update writes through to c
    R = min(record_every, T) if np.all(np.abs(a) < 1.0) and np.max(np.abs(c)) <= _DIVERGENCE_LIMIT else 1
    n_jumps = -(-T // R)
    decay, scale = _jump_coefficients(a, R)
    last = T - (n_jumps - 1) * R
    decay_last, scale_last = (decay, scale) if last == R else _jump_coefficients(a, last)

    rng = np.random.default_rng(seed)
    buf = np.empty((min(_chunk_rows(spec.d), n_jumps), spec.d))
    scratch = np.empty_like(buf)
    times, s_d, s_b, losses = [0], [], [], []

    def reduce(n):
        """Append the records of the states held in buf[:n] (squared in place)."""
        c2 = np.square(buf[:n], out=buf[:n])
        dom, bulk = spec.split_sum(np.multiply(lam2, c2, out=scratch[:n]))
        s_d.append(dom)
        s_b.append(bulk)
        losses.append(0.5 * np.multiply(lam, c2, out=scratch[:n]).sum(axis=1))

    def draw(rows, j0):
        """Noise of jumps j0, j0 + 1, ... into rows; returns its active columns."""
        rng.standard_normal(out=rows)
        rows *= kappa
        np.multiply(eta, rows, out=rows)
        active = rows[:, sl]
        n_full = min(len(rows), n_jumps - 1 - j0)
        active[:n_full] *= scale
        active[n_full:] *= scale_last
        return active

    # Overflow is expected on diverging runs and is reported as
    # DivergenceError below, not as a RuntimeWarning.
    with np.errstate(over="ignore", invalid="ignore"):
        buf[0] = c
        reduce(1)
        for j0 in range(0, n_jumps, len(buf)):
            n = min(len(buf), n_jumps - j0)
            # jump j0 + i overwrites its spent noise row buf[i] with the state it reaches
            for i, step in enumerate(draw(buf[:n], j0)):
                np.multiply(decay if j0 + i < n_jumps - 1 else decay_last, cv, out=cv)
                np.subtract(cv, step, out=cv)
                buf[i] = c
            t = np.minimum(np.arange(j0 + 1, j0 + n + 1) * R, T)
            peaks = np.abs(buf[:n], out=scratch[:n]).max(axis=1)
            bad = np.flatnonzero(~(peaks <= _DIVERGENCE_LIMIT))  # NaN is bad too
            if len(bad):
                raise DivergenceError(int(t[bad[0]]), f"max |c_i| = {float(peaks[bad[0]])}")
            # every jump ends on a record; single steps only every record_every-th
            due = np.flatnonzero((t % record_every == 0) | (t == T))
            if len(due) < n:
                buf[: len(due)] = buf[due]
            times += t[due].tolist()
            reduce(len(due))

    s_d, s_b = np.concatenate(s_d), np.concatenate(s_b)
    # theta = s_D / (s_D + s_B), with theta = 0 for the zero state
    tot = s_d + s_b
    thetas = np.divide(s_d, tot, out=np.zeros_like(tot), where=tot > 0)
    return TrajectoryRecord(
        times=np.asarray(times, dtype=int),
        thetas=thetas,
        losses=np.concatenate(losses),
        s_d=s_d,
        s_b=s_b,
    )


def write_trajectory_csv(path, traj: TrajectoryRecord) -> None:
    """Columns step,theta,loss, floats as repr, CRLF line ends (the bytes
    csv.writer gives). Identical inputs produce identical bytes."""
    rows = zip(traj.times.tolist(), traj.thetas.tolist(), traj.losses.tolist())
    with open(path, "w", newline="") as fh:
        fh.write("step,theta,loss\r\n" + "".join(f"{t},{th!r},{lo!r}\r\n" for t, th, lo in rows))
