"""Monte-Carlo estimates of one-step conditional expectations, and sign tests
of the drift predictions against them.

Sampling schedule: an estimate of n samples with seed s draws ceil(n/2)
noise vectors z and uses each twice, as z and as -z (antithetic pairs,
Hammersley & Morton 1956). The draws are split into fixed batches of _BATCH
vectors; batch j uses the stream ``default_rng(SeedSequence([s, j]))``.
Batches run on the job pool (ALIGNLAB_THREADS). Each worker draws its batch
in row blocks of about _BLOCK_VALUES normals into one reused buffer that
stays in cache; successive blocks continue one generator stream, so the
draws equal one whole (batch, d) draw. Per-batch results come back in batch
order, are accumulated in the calling thread, and partial sums are combined
with ``math.fsum``, which is exactly rounded. Results are therefore
bit-identical for a given (n, seed) whatever the pool size, and two
estimates with the same seed share their noise draws (common random
numbers).

Kernel: every statistic estimated here is quadratic in the noise, so a
draw z enters a state's statistics only through block sums: two linear forms
per block that depend on the state, and one weighted sum of squares per block
that depends only on the spectrum and the noise (`_block_sums`). The linear
forms are odd in z and the sum of squares is even, so the sums of -z are
those of z with the linear forms negated, and the mirrored sample costs no
draw. Each pair contributes one sample, the mean of its two rows, so
`McEstimate.n` counts pairs and its stderr is the pair std / sqrt(pairs).
Pair means are i.i.d. and unbiased; the part of a statistic that is linear
in z cancels within a pair; per draw the variance never rises
(Var((g(z) + g(-z))/2) <= Var g(z)), and per requested sample it rises at
most 2x, for a statistic even in z.

One estimate serves several states on one spectrum and noise profile: each
draw is reduced to every state's linear forms and the shared sums of
squares, and what is left per state, step size and block is O(batch) work.
The verdict presets therefore draw once per preset: `drift-test` for all its
targets and step sizes, `projected-test` for all its states and both blocks.
Their verdicts are correlated across states, while each keeps its own
marginal law and n. The sums use numpy's own einsum loop rather than BLAS, so
their bits do not depend on BLAS's thread count either.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from ._pool import run_jobs
from .dynamics import TrajectoryRecord
from .errors import InsufficientDataError, ParameterError
from .spectrum import NoiseProfile, Spectrum
from .state import BlockStats, State, _check_dims, block_stats
from .theory import drift_quadratic, expected_drift, g_gap, loss_threshold, theta_star

__all__ = [
    "McEstimate",
    "DriftVerdict",
    "DriftSignResult",
    "ProjectedLossResult",
    "one_step_estimates",
    "drift_sign_test",
    "projected_loss_test",
    "late_phase_statistic",
    "phase1_decay_fit",
    "suggest_phase2_start",
]

# noise vectors per batch; each serves an antithetic pair of samples
_BATCH = 4096
# normals per row block of a batch's draw: the block stays in cache while
# every kernel's sums pass over it
_BLOCK_VALUES = 65536
# sample floor of the sign tests
_VERDICT_MIN_N = 1000


@dataclass(frozen=True)
class McEstimate:
    """Sample mean with its standard error (sample std / sqrt(n)). For the
    Monte-Carlo estimates n counts antithetic pairs, ceil(samples / 2), and
    each sample of the mean is one pair's mean."""

    mean: float
    stderr: float
    n: int


@dataclass(frozen=True)
class DriftVerdict:
    """Outcome of one sign test: confirmed when the estimate significantly
    carries the predicted sign, inconclusive when not significant, and
    contradicted when significantly the wrong sign."""

    quantity: str
    predicted_sign: str
    estimate: McEstimate
    verdict: str
    z: float
    asymptotic: bool = False


@dataclass(frozen=True)
class DriftSignResult:
    """Verdict pair for one (state, eta): the exact finite-d test on the
    comparison functional and the asymptotic test on the alignment itself."""

    f_drift: DriftVerdict
    theta_drift: DriftVerdict
    theta: float
    eta: float
    eta_star: float | None
    regime: str


@dataclass(frozen=True)
class ProjectedLossResult:
    """Loss-change verdict for one block, with the closed-form target."""

    verdict: DriftVerdict
    block: str
    theta: float
    eta: float
    eta_loss: float | None
    target: float
    target_ok: bool


class _Accumulator:
    """Streaming mean/stderr for several statistics at once, fed (width, nb)
    arrays with one row per statistic; per-row sums are shifted by the first
    batch's mean to avoid cancellation."""

    def __init__(self):
        self.pivot = None
        self._sums = []
        self._sqs = []
        self.n = 0

    def add(self, rows: np.ndarray) -> None:
        if self.pivot is None:
            self.pivot = rows.mean(axis=1, keepdims=True)
        shifted = rows - self.pivot
        self._sums.append(shifted.sum(axis=1))
        self._sqs.append(np.square(shifted, out=shifted).sum(axis=1))
        self.n += rows.shape[1]

    def estimates(self) -> list[McEstimate]:
        out = []
        for j, pivot in enumerate(self.pivot[:, 0]):
            s1 = math.fsum(sums[j] for sums in self._sums)
            s2 = math.fsum(sqs[j] for sqs in self._sqs)
            mean = float(pivot) + s1 / self.n
            var = max(0.0, (s2 - s1 * s1 / self.n) / (self.n - 1))
            out.append(McEstimate(mean=mean, stderr=math.sqrt(var / self.n), n=self.n))
        return out


def _batches(n: int, seed: int):
    start = 0
    j = 0
    while start < n:
        nb = min(_BATCH, n - start)
        yield np.random.default_rng(np.random.SeedSequence([seed, j])), nb
        start += nb
        j += 1


def _check(state: State, spec: Spectrum, noise: NoiseProfile, n: int, n_min: int) -> None:
    _check_dims(state, spec, noise)
    if n < n_min:
        raise ParameterError(f"need at least {n_min} samples, got {n}")


class _Kernel(NamedTuple):
    """One state's share of a draw z: the linear-form weights a and b, the
    weights q of the sum of squares, and finish(l1, l2, quad), which turns the
    (D, B) block sums of a z, b z and q z^2 into (width, nb) per-sample rows."""

    a: np.ndarray
    b: np.ndarray
    q: np.ndarray
    finish: Callable


def _estimate(n: int, seed: int, spec: Spectrum, kernels: list) -> list[McEstimate]:
    """Mean and standard error of every row of every kernel, kernel by kernel,
    from ceil(n/2) antithetic pairs over the batches of the schedule, which
    run on the job pool. The kernels come from one factory on spec and one
    noise profile, so they share q and every draw. Each worker draws a batch
    in row blocks of about _BLOCK_VALUES normals into one reused buffer
    (successive standard_normal(out=) calls on a generator continue one
    stream) and reduces each block to its block sums. Every kernel then
    finishes the batch's rows from the sums of z and of -z, which differ only
    in the sign of the linear forms, and yields the mean of the two. Batch
    results are accumulated in batch order."""
    if not kernels:
        return []
    k, d, q = spec.k, spec.d, kernels[0].q
    vectors = [v for kernel in kernels for v in (kernel.a, kernel.b)]
    pairs = -(-n // 2)
    block_rows = min(pairs, _BATCH, max(1, _BLOCK_VALUES // d))
    local = threading.local()

    def run(batch):
        rng, nb = batch
        if not hasattr(local, "buffer"):
            local.buffer = np.empty((block_rows, d))
        sums = np.empty((len(vectors) + 1, 2, nb))
        for start in range(0, nb, block_rows):
            z = local.buffer[: min(block_rows, nb - start)]
            rng.standard_normal(out=z)
            _block_sums(z, k, vectors, q, sums[:, :, start : start + len(z)])
        quad = sums[-1]
        rows = []
        for i, kernel in enumerate(kernels):
            l1, l2 = sums[2 * i], sums[2 * i + 1]
            rows.append(0.5 * (kernel.finish(l1, l2, quad) + kernel.finish(-l1, -l2, quad)))
        return np.concatenate(rows)

    acc = _Accumulator()
    for rows in run_jobs(run, list(_batches(pairs, seed))):
        acc.add(rows)
    return acc.estimates()


def _block_sums(z: np.ndarray, k: int, vectors: list, q: np.ndarray, out: np.ndarray) -> None:
    """Write into out (len(vectors) + 1, 2, nb) the per-draw block sums:
    out[i] = (D, B) sums of vectors[i] z, then out[-1] = those of q z^2; z is
    squared in place. einsum runs numpy's own loop, not BLAS: a BLAS
    product's bits depend on BLAS's thread count, and BLAS threads started
    from every pool worker contend for the same cores."""
    for i, v in enumerate([*vectors, q]):
        if i == len(vectors):
            np.square(z, out=z)
        np.einsum("ij,j->i", z[:, :k], v[:k], out=out[i, 0])
        np.einsum("ij,j->i", z[:, k:], v[k:], out=out[i, 1])


def _one_step_kernel(state: State, spec: Spectrum, noise: NoiseProfile, etas: list) -> _Kernel:
    """Kernel whose rows are, for each eta, the per-sample f, sD_next,
    sB_next and theta_next.

    With zeta = kappa * z, the next energy of block X is
    s_X' = sum_X lam^2 ((1 - eta lam) c - eta zeta)^2
         = m_X(eta) - 2 eta (L1_X - eta L2_X) + eta^2 Q_X,
    where L1 = sum lam^2 c zeta, L2 = sum lam^3 c zeta and Q = sum lam^2 zeta^2
    per block do not depend on eta, and Q not on the state either: six block
    sums per draw serve every step size of a state. The random part of
    f = s_B s_D' - s_D s_B' is formed from the random parts of s_D' and s_B'
    directly, so it does not cancel two large products."""
    lam = spec.lambdas
    lam2c = lam**2 * state.c
    a = np.sqrt(noise.kappa2) * lam2c
    s_d0, s_b0 = map(float, spec.split_sum(lam2c * state.c))
    # step sizes along axis 0, blocks (D, B) along axis 1, draws along axis 2
    eta = np.array(etas)[:, None, None]
    w = lam**2 * ((1.0 - eta[:, 0] * lam) * state.c) ** 2
    m = np.stack(spec.split_sum(w), axis=1)[:, :, None]
    f0 = s_b0 * m[:, 0] - s_d0 * m[:, 1]

    def finish(l1, l2, quad):
        rows = np.empty((len(etas), 4, l1.shape[1]))
        r = eta**2 * quad - 2.0 * eta * (l1 - eta * l2)
        np.add(f0, s_b0 * r[:, 0] - s_d0 * r[:, 1], out=rows[:, 0])
        # s' >= 0; the clamp only removes rounding below zero
        s1 = np.maximum(m + r, 0.0, out=rows[:, 1:3])
        tot = s1[:, 0] + s1[:, 1]
        theta1 = rows[:, 3]
        theta1.fill(0.0)
        np.divide(s1[:, 0], tot, out=theta1, where=tot > 0)
        return rows.reshape(4 * len(etas), -1)

    return _Kernel(a, lam * a, lam**2 * noise.kappa2, finish)


def _one_step_estimates(jobs, spec: Spectrum, noise: NoiseProfile, n: int, seed: int, n_min: int) -> list[dict]:
    """one_step_estimates for each (state, etas) job, all from the same n
    draws; one {eta: {...}} dict per job."""
    jobs = [(state, [float(e) for e in etas]) for state, etas in jobs]
    for state, etas in jobs:
        if not etas or not all(0 <= e < math.inf for e in etas):
            raise ParameterError("etas must be non-empty, finite and non-negative")
        _check(state, spec, noise, n, n_min)
    ests = iter(_estimate(n, seed, spec, [_one_step_kernel(state, spec, noise, etas) for state, etas in jobs]))
    keys = ("f", "sD_next", "sB_next", "theta_next")
    return [{eta: dict(zip(keys, [next(ests) for _ in keys])) for eta in etas} for _, etas in jobs]


def one_step_estimates(
    state: State,
    spec: Spectrum,
    noise: NoiseProfile,
    etas,
    n: int,
    seed: int,
) -> dict:
    """Estimate, from n shared one-step noise draws, the comparison functional
    f, the next block energies, and the next alignment, for every eta in
    `etas`. Returns {eta: {"f"|"sD_next"|"sB_next"|"theta_next": McEstimate}}.
    """
    return _one_step_estimates([(state, etas)], spec, noise, n, seed, 100)[0]


def _sign_of(value: float, tol: float) -> str:
    if abs(value) <= tol:
        return "0"
    return "+" if value > 0 else "-"


def _classify(est: McEstimate, predicted: str, z_crit: float, abs_slack: float) -> str:
    if abs(est.mean) <= z_crit * est.stderr + abs_slack:
        return "inconclusive"
    actual = "+" if est.mean > 0 else "-"
    return "confirmed" if actual == predicted else "contradicted"


def _zscore(est: McEstimate) -> float:
    if est.stderr > 0:
        return est.mean / est.stderr
    return 0.0 if est.mean == 0 else math.copysign(math.inf, est.mean)


def _regime_label(stats: BlockStats, spec: Spectrum, noise: NoiseProfile) -> str:
    if noise.s_min <= 0:
        return "unknown"
    if stats.theta <= g_gap(spec, noise):
        return "low"
    if stats.theta >= theta_star(stats, spec, noise).theta_star:
        return "high"
    return "stable"


def _drift_result(
    stats: BlockStats,
    spec: Spectrum,
    noise: NoiseProfile,
    eta: float,
    ests: dict,
    z_crit: float,
    theta_abs_slack: float,
) -> DriftSignResult:
    """Verdict pair at step size eta from that eta's one_step_estimates entry."""
    dq = drift_quadratic(stats)
    target = expected_drift(dq, eta)
    tol = 1e-12 * (abs(dq.p) * eta**2 + abs(dq.q) * eta)
    predicted = _sign_of(target, tol)

    f_est = ests["f"]
    th_est = ests["theta_next"]
    dtheta = McEstimate(mean=th_est.mean - stats.theta, stderr=th_est.stderr, n=th_est.n)

    f_verdict = DriftVerdict(
        quantity="f_drift",
        predicted_sign=predicted,
        estimate=f_est,
        verdict=_classify(f_est, predicted, z_crit, 0.0),
        z=_zscore(f_est),
    )
    theta_verdict = DriftVerdict(
        quantity="theta_drift",
        predicted_sign=predicted,
        estimate=dtheta,
        verdict=_classify(dtheta, predicted, z_crit, theta_abs_slack),
        z=_zscore(dtheta),
        asymptotic=True,
    )
    eta_star = dq.eta_star if dq.eta_star is not None and dq.eta_star > 0 else None
    return DriftSignResult(
        f_drift=f_verdict,
        theta_drift=theta_verdict,
        theta=stats.theta,
        eta=eta,
        eta_star=eta_star,
        regime=_regime_label(stats, spec, noise),
    )


def drift_sign_test(
    state: State,
    spec: Spectrum,
    noise: NoiseProfile,
    eta: float,
    n: int,
    z_crit: float = 3.0,
    seed: int = 0,
    theta_abs_slack: float = 0.0,
) -> DriftSignResult:
    """Test the sign of the one-step drift at this state and step size.

    The f-drift test targets the exact finite-d expectation p*eta^2 + q*eta.
    The theta-drift test targets E[theta_{t+1}] - theta_t, which the regime
    results describe only asymptotically; `theta_abs_slack` widens its
    inconclusive band accordingly.
    """
    stats = block_stats(state, spec, noise)
    ests = _one_step_estimates([(state, [eta])], spec, noise, n, seed, _VERDICT_MIN_N)[0][float(eta)]
    return _drift_result(stats, spec, noise, eta, ests, z_crit, theta_abs_slack)


def _projected_kernel(state: State, spec: Spectrum, noise: NoiseProfile, eta: float) -> _Kernel:
    """Kernel whose rows are the per-sample loss change of the step projected
    on the dominant and on the bulk block.

    With g = grad + zeta on block X (grad = lam c, zeta = kappa z), the loss
    change -eta g.grad + eta^2/2 sum lam g^2 expands to a constant plus
    -eta zeta.grad + eta^2 sum lam grad zeta + eta^2/2 sum lam zeta^2."""
    lam = spec.lambdas
    grad = lam * state.c
    a = np.sqrt(noise.kappa2) * grad
    g2 = grad**2
    # (D, B) block sums of grad^2 and lam grad^2
    g2_sum, lg2_sum = np.stack(spec.split_sum(np.stack([g2, lam * g2])), axis=1)
    base = (-eta * g2_sum + 0.5 * eta**2 * lg2_sum)[:, None]

    def finish(l1, l2, quad):
        return base + (eta**2 * (l2 + 0.5 * quad) - eta * l1)

    return _Kernel(a, lam * a, lam * noise.kappa2, finish)


def _projected_estimates(jobs, spec: Spectrum, noise: NoiseProfile, n: int, seed: int) -> list[dict]:
    """Loss change of the step projected on each block, {"D": ..., "B": ...},
    for each (state, eta) job, all from the same n draws."""
    for state, eta in jobs:
        if not math.isfinite(eta):
            raise ParameterError(f"eta must be finite, got {eta}")
        _check(state, spec, noise, n, _VERDICT_MIN_N)
    ests = _estimate(n, seed, spec, [_projected_kernel(state, spec, noise, eta) for state, eta in jobs])
    return [{"D": ests[2 * i], "B": ests[2 * i + 1]} for i in range(len(jobs))]


def _projected_result(
    stats: BlockStats, block: str, eta: float, est: McEstimate, z_crit: float
) -> ProjectedLossResult:
    """Sign verdict and closed-form check of one block's loss-change estimate."""
    s, tau, _, _, n_loss = stats.block(block)
    target = -eta * s + 0.5 * eta**2 * (tau + n_loss)
    tol = 1e-12 * (eta * s + 0.5 * eta**2 * (tau + n_loss))
    predicted = _sign_of(target, tol)
    eta_loss = loss_threshold(stats, block) if tau + n_loss > 0 else None
    verdict = DriftVerdict(
        quantity="loss_change",
        predicted_sign=predicted,
        estimate=est,
        verdict=_classify(est, predicted, z_crit, 0.0),
        z=_zscore(est),
    )
    target_ok = abs(est.mean - target) <= 4.0 * est.stderr + 1e-12 * (1.0 + abs(target))
    return ProjectedLossResult(
        verdict=verdict,
        block=block,
        theta=stats.theta,
        eta=eta,
        eta_loss=eta_loss,
        target=target,
        target_ok=target_ok,
    )


def projected_loss_test(
    state: State,
    spec: Spectrum,
    noise: NoiseProfile,
    eta: float,
    block: str,
    n: int,
    z_crit: float = 3.0,
    seed: int = 0,
) -> ProjectedLossResult:
    """Estimate the expected loss change of a block-projected step and test its
    sign against the stability threshold; also checks agreement with the
    closed-form target -eta*s + eta^2 (tau + n_loss)/2."""
    stats = block_stats(state, spec, noise)
    stats.block(block)  # rejects a bad block name before drawing
    est = _projected_estimates([(state, eta)], spec, noise, n, seed)[0][block]
    return _projected_result(stats, block, eta, est, z_crit)


def late_phase_statistic(traj: TrajectoryRecord, T_start: int) -> tuple[float, float]:
    """Mean and standard deviation of the recorded alignment over steps in
    [T_start, T_end] -- the late-phase alignment estimator."""
    if T_start >= traj.final_time:
        raise ParameterError(f"T_start={T_start} leaves an empty window (final step {traj.final_time})")
    window = traj.thetas[traj.times >= T_start]
    return float(np.mean(window)), float(np.std(window))


def phase1_decay_fit(traj: TrajectoryRecord, t_star: int) -> tuple[float, float]:
    """Least-squares slope and r^2 of log(theta) vs log(t) over recorded steps
    in [1, t_star]."""
    mask = (traj.times >= 1) & (traj.times <= t_star) & (traj.thetas > 0)
    if int(np.sum(mask)) < 4:
        raise InsufficientDataError("need at least 4 recorded points in [1, t_star]")
    x = np.log(traj.times[mask].astype(float))
    y = np.log(traj.thetas[mask])
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0 else 1.0 - float(np.sum(resid**2)) / ss_tot
    return float(slope), r2


def suggest_phase2_start(traj: TrajectoryRecord) -> int:
    """Convention, not a contract: smooth the alignment with a moving average
    and return the recorded step at its minimum, as a late-phase window start."""
    th = traj.thetas
    width = max(3, len(th) // 20)
    kernel = np.ones(width) / width
    smooth = np.convolve(th, kernel, mode="same")
    return int(traj.times[int(np.argmin(smooth))])
