"""Eigenbasis updates for full and block-projected stochastic steps, plus
trajectory execution with periodic recording.

`run_trajectory` draws its noise in chunks of steps into one reused buffer and
updates the state in place. One bulk draw yields the same numbers as the same
count of per-step draws, so every state and record is bit-identical to a
one-draw-per-step run. The bulk draws release the GIL, so trajectories run on
the harness thread pool overlap and `simulate`/`sweep-gap` get faster with more
threads; their output bytes still do not depend on the thread count."""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .errors import DivergenceError, ParameterError
from .spectrum import NoiseProfile, Spectrum
from .state import State

__all__ = [
    "ALGORITHMS",
    "TrajectoryRecord",
    "sgd_step",
    "projected_step",
    "sample_noise",
    "run_trajectory",
    "write_trajectory_csv",
]

ALGORITHMS = ("sgd", "dsgd", "bsgd")

# abort once any coordinate leaves this range; keeps failures loud instead of NaN
_DIVERGENCE_LIMIT = 1e150

# noise values drawn per chunk; 64 steps at d = 500, and the buffer stays small
_CHUNK_VALUES = 32_000


def _chunk_rows(d: int) -> int:
    return max(1, _CHUNK_VALUES // d)


@dataclass(frozen=True)
class TrajectoryRecord:
    """(step, alignment, loss) series sampled every `record_every` steps,
    with optional per-block energies."""

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


def _check_dims(state: State, spec: Spectrum, noise_sample: np.ndarray) -> None:
    if state.d != spec.d:
        raise ParameterError(f"state dimension {state.d} != spectrum dimension {spec.d}")
    if noise_sample.shape != (spec.d,):
        raise ParameterError(f"noise sample shape {noise_sample.shape} != ({spec.d},)")


def sgd_step(state: State, spec: Spectrum, noise_sample, eta: float) -> State:
    """One full update c_i <- (1 - eta*lambda_i) c_i - eta*zeta_i."""
    zeta = np.asarray(noise_sample, dtype=float)
    _check_dims(state, spec, zeta)
    c = (1.0 - eta * spec.lambdas) * state.c - eta * zeta
    return State(c=c, t=state.t + 1)


def projected_step(state: State, spec: Spectrum, noise_sample, eta: float, block: str) -> State:
    """Update only the coordinates of one block (gradient and noise both
    projected); the other block is untouched."""
    zeta = np.asarray(noise_sample, dtype=float)
    _check_dims(state, spec, zeta)
    if block == "D":
        sl = slice(None, spec.k)
    elif block == "B":
        sl = slice(spec.k, None)
    else:
        raise ParameterError(f"block must be 'D' or 'B', got {block!r}")
    c = state.c.copy()
    c[sl] = (1.0 - eta * spec.lambdas[sl]) * c[sl] - eta * zeta[sl]
    return State(c=c, t=state.t + 1)


def sample_noise(noise: NoiseProfile, rng: np.random.Generator) -> np.ndarray:
    """One eigenbasis noise vector with independent N(0, kappa_i^2) entries."""
    return rng.standard_normal(noise.d) * np.sqrt(noise.kappa2)


def _raise_first_divergence(c, steps, t0: int, decay, sl) -> None:
    """Replay one chunk step by step from its start state `c` (advanced in
    place) and raise DivergenceError at the first step whose state leaves the
    limit, with the step index and detail a per-step check would report.
    Returns if no step does."""
    cv = c[sl]
    for t, step in enumerate(steps, t0 + 1):
        np.multiply(decay, cv, out=cv)
        np.subtract(cv, step, out=cv)
        peak = float(np.max(np.abs(c)))
        if not np.isfinite(peak) or peak > _DIVERGENCE_LIMIT:
            raise DivergenceError(t, f"max |c_i| = {peak}")


def run_trajectory(
    spec: Spectrum,
    noise: NoiseProfile,
    init: State,
    eta: float,
    T: int,
    record_every: int,
    algo: str = "sgd",
    seed: int = 0,
    record_blocks: bool = False,
) -> TrajectoryRecord:
    """Run T steps of the chosen update with fresh i.i.d. noise, recording
    (t, theta, loss) at t = 0, every `record_every` steps, and t = T.
    Deterministic given `seed`.
    """
    if T < 1:
        raise ParameterError("T must be >= 1")
    if record_every < 1:
        raise ParameterError("record_every must be >= 1")
    if algo not in ALGORITHMS:
        raise ParameterError(f"algo must be one of {ALGORITHMS}, got {algo!r}")
    if init.d != spec.d or noise.d != spec.d:
        raise ParameterError("dimension mismatch")
    if not eta > 0:
        raise ParameterError("eta must be > 0")

    lam = spec.lambdas
    lam2 = lam**2
    kappa = np.sqrt(noise.kappa2)
    k = spec.k
    if algo == "sgd":
        sl = slice(None)
    elif algo == "dsgd":
        sl = slice(None, k)
    else:
        sl = slice(k, None)
    decay = 1.0 - eta * lam[sl]

    times, thetas, losses = [], [], []
    sd_list, sb_list = [], []

    def record(t, c):
        c2 = c**2
        w = lam2 * c2
        s_d = float(np.sum(w[:k]))
        s_b = float(np.sum(w[k:]))
        s = s_d + s_b
        times.append(t)
        thetas.append(s_d / s if s > 0 else 0.0)
        losses.append(float(0.5 * np.sum(lam * c2)))
        if record_blocks:
            sd_list.append(s_d)
            sb_list.append(s_b)

    rng = np.random.default_rng(seed)
    c = init.c.copy()
    cv = c[sl]  # view: the update writes through to c
    buf = np.empty((min(_chunk_rows(spec.d), T), spec.d))
    # Overflow is expected on diverging runs and is reported as
    # DivergenceError below, not as a RuntimeWarning.
    with np.errstate(over="ignore", invalid="ignore"):
        record(0, c)
        peak_start = float(np.max(np.abs(c)))
        for t0 in range(0, T, len(buf)):
            steps = buf[: min(len(buf), T - t0)]
            rng.standard_normal(out=steps)
            # eta * (z * kappa): the per-step order, so the bits match
            steps *= kappa
            np.multiply(eta, steps, out=steps)
            c_start = c.copy()
            active = steps[:, sl]
            for t, step in enumerate(active, t0 + 1):
                np.multiply(decay, cv, out=cv)
                np.subtract(cv, step, out=cv)
                if t % record_every == 0 or t == T:
                    record(t, c)
            # Within a chunk a contracting coordinate stays within its start
            # value plus its summed steps and a growing one within its end
            # value plus them, so this sum bounds every intermediate |c_i|
            # (NaN propagates); the half-limit margin absorbs rounding.
            peak_end = float(np.max(np.abs(c)))
            reach = len(steps) * (abs(float(active.max())) + abs(float(active.min())))
            if not peak_start + peak_end + reach < 0.5 * _DIVERGENCE_LIMIT:
                _raise_first_divergence(c_start, active, t0, decay, sl)
            peak_start = peak_end

    return TrajectoryRecord(
        times=np.asarray(times, dtype=int),
        thetas=np.asarray(thetas, dtype=float),
        losses=np.asarray(losses, dtype=float),
        s_d=np.asarray(sd_list, dtype=float) if record_blocks else None,
        s_b=np.asarray(sb_list, dtype=float) if record_blocks else None,
    )


def write_trajectory_csv(path, traj: TrajectoryRecord) -> None:
    """Header step,theta,loss plus sD,sB when block energies were recorded.
    Identical inputs produce identical bytes."""
    with_blocks = traj.s_d is not None
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        header = ["step", "theta", "loss"] + (["sD", "sB"] if with_blocks else [])
        writer.writerow(header)
        for i in range(len(traj.times)):
            row = [int(traj.times[i]), repr(float(traj.thetas[i])), repr(float(traj.losses[i]))]
            if with_blocks:
                row += [repr(float(traj.s_d[i])), repr(float(traj.s_b[i]))]
            writer.writerow(row)
