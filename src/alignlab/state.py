"""Iterates in the eigenbasis and their per-block statistics."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConstructionError, ParameterError
from .spectrum import NoiseProfile, Spectrum

__all__ = [
    "State",
    "BlockStats",
    "alignment",
    "block_stats",
    "loss",
    "random_init",
    "rescale_to_alignment",
]


@dataclass(frozen=True, eq=False)
class State:
    """Eigenbasis coordinates c_i of the iterate at time step t."""

    c: np.ndarray
    t: int = 0

    def __post_init__(self):
        c = np.asarray(self.c, dtype=float)
        if c.ndim != 1 or c.size == 0:
            raise ParameterError("c must be a non-empty 1-d array")
        if not np.all(np.isfinite(c)):
            raise ParameterError("state coordinates must be finite")
        if self.t < 0:
            raise ParameterError("time index must be >= 0")
        c = c.copy()
        c.flags.writeable = False
        object.__setattr__(self, "c", c)

    @property
    def d(self) -> int:
        return self.c.size

    @property
    def norm2(self) -> float:
        """Squared Euclidean norm of the iterate."""
        return float(np.dot(self.c, self.c))


@dataclass(frozen=True)
class BlockStats:
    """All block-wise weighted energies of one state, plus the alignment.

    s_* are lambda^2-weighted, tau_* lambda^3, u_* lambda^4; e_* are the noise
    energies sum lambda^2 kappa^2 and n_loss_* are sum lambda kappa^2. theta is
    s_d / s with the zero-state convention theta = 0.
    """

    s_d: float
    s_b: float
    s: float
    tau_d: float
    tau_b: float
    u_d: float
    u_b: float
    e_d: float
    e_b: float
    n_loss_d: float
    n_loss_b: float
    theta: float

    @property
    def mu_d(self) -> float:
        """Third-over-second moment of the dominant block (a convex combination
        of its eigenvalues)."""
        return self.tau_d / self.s_d

    @property
    def mu_b(self) -> float:
        return self.tau_b / self.s_b

    def block(self, block: str) -> tuple[float, float, float, float, float]:
        """(s, tau, u, e, n_loss) for block 'D' or 'B'."""
        if block == "D":
            return (self.s_d, self.tau_d, self.u_d, self.e_d, self.n_loss_d)
        if block == "B":
            return (self.s_b, self.tau_b, self.u_b, self.e_b, self.n_loss_b)
        raise ParameterError(f"block must be 'D' or 'B', got {block!r}")


def _check_dims(state: State, spec: Spectrum, noise: NoiseProfile | None = None) -> None:
    if state.d != spec.d:
        raise ParameterError(f"state dimension {state.d} != spectrum dimension {spec.d}")
    if noise is not None and noise.d != spec.d:
        raise ParameterError(f"noise dimension {noise.d} != spectrum dimension {spec.d}")


def _theta(s_d, s_b) -> np.ndarray:
    """s_d / (s_d + s_b) elementwise, with theta = 0 for the zero state.
    Scalar callers take float() of the 0-d result."""
    tot = s_d + s_b
    return np.divide(s_d, tot, out=np.zeros_like(tot), where=tot > 0)


def alignment(state: State, spec: Spectrum) -> float:
    """Fraction of the squared gradient norm carried by the dominant block."""
    _check_dims(state, spec)
    return float(_theta(*spec.split_sum(spec.lambdas**2 * state.c**2)))


def block_stats(state: State, spec: Spectrum, noise: NoiseProfile) -> BlockStats:
    """The block energies of state; one that passes the float range is a
    ParameterError, with no numpy warning."""
    _check_dims(state, spec, noise)
    lam = spec.lambdas
    with np.errstate(over="ignore", invalid="ignore"):
        c2 = state.c**2
        weights = np.stack([lam**2 * c2, lam**3 * c2, lam**4 * c2, lam**2 * noise.kappa2, lam * noise.kappa2])
        sums = spec.split_sum(weights)
    (s_d, tau_d, u_d, e_d, n_d), (s_b, tau_b, u_b, e_b, n_b) = (x.tolist() for x in sums)
    s = s_d + s_b
    if not (np.all(np.isfinite(sums)) and np.isfinite(s)):
        raise ParameterError("a block energy passes the float range: the eigenvalues, noise or state are too large")
    return BlockStats(
        s_d=s_d,
        s_b=s_b,
        s=s,
        tau_d=tau_d,
        tau_b=tau_b,
        u_d=u_d,
        u_b=u_b,
        e_d=e_d,
        e_b=e_b,
        n_loss_d=n_d,
        n_loss_b=n_b,
        theta=float(_theta(s_d, s_b)),
    )


def loss(state: State, spec: Spectrum) -> float:
    """Quadratic loss (1/2) sum lambda_i c_i^2."""
    _check_dims(state, spec)
    return float(0.5 * np.sum(spec.lambdas * state.c**2))


def random_init(d: int, scale: float, seed: int) -> State:
    """i.i.d. Gaussian coordinates with standard deviation `scale`, at t = 0."""
    if not scale > 0:
        raise ParameterError("scale must be > 0")
    rng = np.random.default_rng(seed)
    return State(c=rng.standard_normal(d) * scale, t=0)


def rescale_to_alignment(state: State, spec: Spectrum, theta: float, which: str = "dominant") -> State:
    """Rescale one block of coordinates so the alignment equals `theta` exactly.

    `which` chooses the rescaled block; the target must lie in (0, 1) and both
    blocks of the input state must carry energy.
    """
    _check_dims(state, spec)
    if not 0 < theta < 1:
        raise ConstructionError(f"target alignment {theta} outside (0, 1)")
    s_d, s_b = map(float, spec.split_sum((spec.lambdas * state.c) ** 2))
    if s_d == 0.0 or s_b == 0.0:
        raise ConstructionError("both blocks must be nonzero to rescale to a target alignment")
    c = state.c.copy()
    if which == "dominant":
        c[: spec.k] *= np.sqrt(theta / (1 - theta) * s_b / s_d)
    elif which == "bulk":
        c[spec.k :] *= np.sqrt((1 - theta) / theta * s_d / s_b)
    else:
        raise ParameterError(f"which must be 'dominant' or 'bulk', got {which!r}")
    return State(c=c, t=state.t)

