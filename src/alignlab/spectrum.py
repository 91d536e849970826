"""Eigenvalue spectra with a dominant/bulk split, and per-direction noise profiles.

Everything downstream works in the eigenbasis, so a problem instance is fully
described by the eigenvalues, the split index k, and the per-direction noise
variances kappa_i^2. No dense matrix is ever materialized.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError

__all__ = [
    "Spectrum",
    "NoiseProfile",
    "build_spectrum",
    "isotropic_noise",
]


@dataclass(frozen=True, eq=False)
class Spectrum:
    """Ordered positive eigenvalues with a split index k (1-based count of dominant modes).

    Invariants checked at construction: lambda_1 >= ... >= lambda_d > 0 with a
    strict gap lambda_k > lambda_{k+1}.
    """

    lambdas: np.ndarray
    k: int

    def __post_init__(self):
        lam = np.asarray(self.lambdas, dtype=float)
        if lam.ndim != 1 or lam.size < 2:
            raise ParameterError("need at least two eigenvalues in a 1-d array")
        if not (1 <= self.k <= lam.size - 1):
            raise ParameterError(f"split index k={self.k} outside [1, {lam.size - 1}]")
        if not np.all(np.isfinite(lam)):
            raise ParameterError("eigenvalues must be finite")
        if lam[-1] <= 0:
            raise ParameterError("eigenvalues must be strictly positive")
        if np.any(np.diff(lam) > 0):
            raise ParameterError("eigenvalues must be non-increasing")
        if not lam[self.k - 1] > lam[self.k]:
            raise ParameterError("need a strict gap at the split: lambda_k > lambda_{k+1}")
        lam = lam.copy()
        lam.flags.writeable = False
        object.__setattr__(self, "lambdas", lam)

    @property
    def d(self) -> int:
        return self.lambdas.size

    @property
    def gap1(self) -> float:
        return float(self.lambdas[self.k - 1] - self.lambdas[self.k])

    @property
    def gap2(self) -> float:
        return float(self.lambdas[self.k - 1] ** 2 - self.lambdas[self.k] ** 2)

    @property
    def gap_ratio(self) -> float:
        """m = lambda_k / lambda_{k+1} > 1."""
        return float(self.lambdas[self.k - 1] / self.lambdas[self.k])

    @property
    def rho(self) -> float:
        """Block proportion k / (d - k)."""
        return self.k / (self.d - self.k)

    def split_sum(self, w: np.ndarray):
        """(dominant, bulk) sums of w over its last axis: w[..., :k] and
        w[..., k:]. Every block sum of a per-mode weight goes through here."""
        return w[..., : self.k].sum(axis=-1), w[..., self.k :].sum(axis=-1)

    @property
    def psi_dominant(self) -> float:
        return float(self.split_sum(self.lambdas**2)[0])

    @property
    def psi_bulk(self) -> float:
        return float(self.split_sum(self.lambdas**2)[1])

    @property
    def lambda_max(self) -> float:
        return float(self.lambdas[0])

    @property
    def lambda_min(self) -> float:
        return float(self.lambdas[-1])

    @property
    def spread2(self) -> float:
        """lambda_max^2 - lambda_min^2; OverflowError past the float range."""
        return self.lambda_max**2 - self.lambda_min**2


@dataclass(frozen=True, eq=False)
class NoiseProfile:
    """Per-eigendirection noise variances kappa_i^2 with covariance spectral bounds.

    s_min/s_max default to min/max of kappa2, which is exact for a covariance
    that is diagonal in the eigenbasis. An all-zero profile is allowed (it
    models noiseless runs); operations that require positive noise raise.
    """

    kappa2: np.ndarray
    s_min: float = None  # type: ignore[assignment]
    s_max: float = None  # type: ignore[assignment]

    def __post_init__(self):
        k2 = np.asarray(self.kappa2, dtype=float)
        if k2.ndim != 1 or k2.size == 0:
            raise ParameterError("kappa2 must be a non-empty 1-d array")
        if not np.all(np.isfinite(k2)) or np.any(k2 < 0):
            raise ParameterError("kappa2 entries must be finite and >= 0")
        s_min = float(np.min(k2)) if self.s_min is None else float(self.s_min)
        s_max = float(np.max(k2)) if self.s_max is None else float(self.s_max)
        if s_min > np.min(k2) or s_max < np.max(k2) or s_min > s_max:
            raise ParameterError("need s_min <= min kappa2 <= max kappa2 <= s_max")
        k2 = k2.copy()
        k2.flags.writeable = False
        object.__setattr__(self, "kappa2", k2)
        object.__setattr__(self, "s_min", s_min)
        object.__setattr__(self, "s_max", s_max)

    @property
    def d(self) -> int:
        return self.kappa2.size

    @property
    def trace(self) -> float:
        return float(np.sum(self.kappa2))


def build_spectrum(
    d: int,
    k: int,
    m: float,
    bulk_range: tuple[float, float],
    top_spread: float = 0.0,
    seed: int = 0,
) -> Spectrum:
    """Draw a spectrum with an exact gap ratio lambda_k / lambda_{k+1} = m.

    Bulk eigenvalues are uniform on `bulk_range`; lambda_k is pinned to
    m * max(bulk); the remaining k-1 dominant eigenvalues are uniform on
    [lambda_k, lambda_k * (1 + top_spread)]. Deterministic given `seed`.
    """
    lo, hi = bulk_range
    if d < 2 or not (1 <= k <= d - 1):
        raise ParameterError(f"invalid dimensions d={d}, k={k}")
    if not m > 1:
        raise ParameterError("gap ratio m must exceed 1")
    if not (0 < lo <= hi):
        raise ParameterError("bulk_range must satisfy 0 < lo <= hi")
    if top_spread < 0:
        raise ParameterError("top_spread must be >= 0")
    rng = np.random.default_rng(seed)
    bulk = np.sort(rng.uniform(lo, hi, size=d - k))[::-1]
    lam_split = m * bulk[0]
    top = np.sort(rng.uniform(lam_split, lam_split * (1 + top_spread), size=k - 1))[::-1]
    lambdas = np.concatenate([top, [lam_split], bulk])
    return Spectrum(lambdas=lambdas, k=k)


def isotropic_noise(d: int, sigma2: float) -> NoiseProfile:
    """Noise with kappa_i^2 = sigma2 in every direction."""
    if not sigma2 > 0:
        raise ParameterError("sigma2 must be > 0")
    return NoiseProfile(kappa2=np.full(d, float(sigma2)))

