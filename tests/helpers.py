"""Shared random-problem generators for the test suite, the step-by-step SGD
reference that `run_trajectory` is checked against, the per-sample one-step
references that the Monte-Carlo kernels are checked against, a 60-digit
solve of the alignment thresholds' auxiliary quadratic, the Monte-Carlo
batch schedule listed in full, and a hook that stops the sign tests at a
chosen look."""

import decimal

import numpy as np

from alignlab import NoiseProfile, ParameterError, Spectrum, State, build_spectrum, montecarlo, random_init
from alignlab.state import _check_dims

DIMS = (10, 50, 200)


def random_problem(rng, d=None, degenerate_blocks=False, isotropic_only=False, dominant_noise_only=False):
    """Random (spectrum, noise, state) triple with both blocks active.

    degenerate_blocks collapses each block to a single eigenvalue (all dominant
    modes equal lambda_k, all bulk modes equal lambda_{k+1}); dominant_noise_only
    zeroes the bulk noise variances (noise concentrated in the high-curvature
    directions).
    """
    if d is None:
        d = int(rng.choice(DIMS))
    k = int(rng.integers(1, d))
    m = float(np.exp(rng.uniform(np.log(1.5), np.log(300.0))))
    lo = float(rng.uniform(0.2, 1.0))
    if degenerate_blocks:
        bulk_range = (lo, lo)
        top_spread = 0.0
    else:
        bulk_range = (lo, lo * (1.0 + float(rng.uniform(0.0, 1.0))))
        top_spread = float(rng.uniform(0.0, 1.0))
    spec = build_spectrum(d, k, m, bulk_range, top_spread, seed=int(rng.integers(2**63)))
    if isotropic_only or rng.random() < 0.5:
        sigma2 = float(np.exp(rng.uniform(np.log(0.1), np.log(10.0))))
        kappa2 = np.full(d, sigma2)
    else:
        kappa2 = np.exp(rng.normal(0.0, 1.0, d))
    if dominant_noise_only:
        kappa2 = kappa2.copy()
        kappa2[k:] = 0.0
    noise = NoiseProfile(kappa2=kappa2)
    scale = float(np.exp(rng.uniform(np.log(0.1), np.log(10.0))))
    state = random_init(d, scale, seed=int(rng.integers(2**63)))
    return spec, noise, state


def shared_draw_problem(seed, d, n_states=3):
    """A random (spectrum, noise) pair and n_states random states on it."""
    rng = np.random.default_rng(seed)
    spec, noise, state = random_problem(rng, d=d)
    return spec, noise, [state] + [State(c=rng.normal(0.0, 1.0, d)) for _ in range(n_states - 1)]


def sgd_step(state: State, spec: Spectrum, noise_sample, eta: float) -> State:
    """One full update c_i <- (1 - eta*lambda_i) c_i - eta*zeta_i."""
    _check_dims(state, spec)
    zeta = np.asarray(noise_sample, dtype=float)
    if zeta.shape != (spec.d,):
        raise ParameterError(f"noise sample shape {zeta.shape} != ({spec.d},)")
    c = (1.0 - eta * spec.lambdas) * state.c - eta * zeta
    return State(c=c)


def sample_noise(noise: NoiseProfile, rng: np.random.Generator) -> np.ndarray:
    """One eigenbasis noise vector with independent N(0, kappa_i^2) entries."""
    return rng.standard_normal(noise.d) * np.sqrt(noise.kappa2)


def direct_one_step(state: State, spec: Spectrum, noise: NoiseProfile, eta: float, z):
    """Per-sample (f, sD_next, sB_next, theta_next) of one step from each row
    of the (n, d) draw z, with the update written out, and the size of the
    two products f subtracts."""
    lam, k = spec.lambdas, spec.k
    w = lam**2 * ((1.0 - eta * lam) * state.c - eta * np.sqrt(noise.kappa2) * z) ** 2
    s_d1, s_b1 = w[:, :k].sum(axis=1), w[:, k:].sum(axis=1)
    w0 = lam**2 * state.c**2
    s_d0, s_b0 = w0[:k].sum(), w0[k:].sum()
    return (s_b0 * s_d1 - s_d0 * s_b1, s_d1, s_b1, s_d1 / (s_d1 + s_b1)), s_b0 * s_d1 + s_d0 * s_b1


def direct_projected(state: State, spec: Spectrum, noise: NoiseProfile, eta: float, z):
    """Per-sample loss change of the step projected on the dominant and on the
    bulk block, rows (D, B), from each row of the (n, d) draw z with the step
    written out, and the size of its two terms."""
    lam, k = spec.lambdas, spec.k
    grad = lam * state.c
    g = grad + np.sqrt(noise.kappa2) * z
    rows, sizes = [], []
    for sl in (slice(None, k), slice(k, None)):
        lin, sq = g[:, sl] @ grad[sl], (g[:, sl] ** 2) @ lam[sl]
        rows.append(-eta * lin + 0.5 * eta**2 * sq)
        sizes.append(eta * np.abs(lin) + eta**2 * sq)
    return np.array(rows), np.array(sizes)


def decimal_aux_root(a, m, h) -> decimal.Decimal:
    """The positive root r of a r^2 + (a - m - h) r - h (theory._aux_root's
    quadratic) in 60-digit decimal arithmetic from the exact weights."""
    with decimal.localcontext(prec=60):
        a, m, h = map(decimal.Decimal, (a, m, h))
        return (m + h - a + ((a - m - h) ** 2 + 4 * a * h).sqrt()) / (2 * a)


def batch_schedule(pairs):
    """The Monte-Carlo batches (j, begin, end) of an estimate over `pairs`
    pairs, listed up to the total: each batch is as long as the pairs before
    it, clamped to [_FINISH, _BATCH]. The sequential looks are the batch ends
    that are _FINISH * 2^i, and the total."""
    first, full = montecarlo._FINISH, montecarlo._BATCH
    batches, end = [], 0
    while end < pairs:
        begin, end = end, min(pairs, end + min(max(end, first), full))
        batches.append((len(batches), begin, end))
    looks = [end for _, _, end in batches if end == pairs or (end % first == 0 and (end // first).bit_count() == 1)]
    return batches, looks


def stop_at_pairs(monkeypatch, pairs):
    """Make every sign test stop at the look of `pairs` pairs, which must be a
    look of its cap, whatever its rows read there."""
    estimate = montecarlo._estimate

    def stopped(n, seed, spec, kernels, stop=None):
        return estimate(n, seed, spec, kernels, stop and (lambda ests: ests[0].n == pairs))

    monkeypatch.setattr(montecarlo, "_estimate", stopped)
