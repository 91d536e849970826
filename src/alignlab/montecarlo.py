"""Monte-Carlo estimates of one-step conditional expectations, and sign tests
of the drift predictions against them.

Sampling schedule: an estimate with sample count n and seed s is split into
fixed batches of _BATCH draws; batch j uses the stream
``default_rng(SeedSequence([s, j]))``. Batches run on the job pool
(ALIGNLAB_THREADS), each worker reusing one pair of (batch, d) buffers that
it updates in place. Per-batch results come back in batch order, are
accumulated in the calling thread, and partial sums are combined with
``math.fsum``, which is exactly rounded. Results are therefore bit-identical
for a given (n, seed) whatever the pool size, and two estimates with the
same seed share their noise draws (common random numbers across step sizes
and blocks). The verdict presets draw each seed once: one
`one_step_estimates` call covers every step size of a drift target, and one
draw serves both blocks of a projected-loss state.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass

import numpy as np

from ._pool import run_jobs
from .dynamics import TrajectoryRecord
from .errors import InsufficientDataError, ParameterError
from .spectrum import NoiseProfile, Spectrum
from .state import BlockStats, State, block_stats
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

_BATCH = 8192
# sample floor of the sign tests
_VERDICT_MIN_N = 1000


@dataclass(frozen=True)
class McEstimate:
    """Sample mean with its standard error (sample std / sqrt(n))."""

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
    """Streaming mean/stderr for several statistics at once; per-column sums
    are shifted by the first batch's mean to avoid cancellation."""

    def __init__(self, width: int):
        self.width = width
        self.pivot = None
        self._sums = [[] for _ in range(width)]
        self._sqs = [[] for _ in range(width)]
        self.n = 0

    def add(self, block: np.ndarray) -> None:
        if self.pivot is None:
            self.pivot = block.mean(axis=0)
        shifted = block - self.pivot
        for j in range(self.width):
            col = shifted[:, j]
            self._sums[j].append(float(np.sum(col)))
            self._sqs[j].append(float(np.sum(col * col)))
        self.n += block.shape[0]

    def estimates(self) -> list[McEstimate]:
        out = []
        for j in range(self.width):
            s1 = math.fsum(self._sums[j])
            s2 = math.fsum(self._sqs[j])
            mean = float(self.pivot[j]) + s1 / self.n
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
    if state.d != spec.d or noise.d != spec.d:
        raise ParameterError("dimension mismatch")
    if n < n_min:
        raise ParameterError(f"need at least {n_min} samples, got {n}")


def _pooled(n: int, seed: int, kappa: np.ndarray, kernel) -> list:
    """kernel(zeta, work) on every batch of the (n, seed) schedule, spread over
    the job pool; results come back in batch order. zeta holds the batch's
    noise draw already scaled by kappa, and work is scratch of the same
    (nb, d) shape; each worker thread reuses one pair of buffers."""
    local = threading.local()
    shape = (min(n, _BATCH), kappa.size)

    def run(batch):
        rng, nb = batch
        if not hasattr(local, "buffers"):
            local.buffers = (np.empty(shape), np.empty(shape))
        zeta, work = (buf[:nb] for buf in local.buffers)
        rng.standard_normal(out=zeta)
        np.multiply(zeta, kappa, out=zeta)
        return kernel(zeta, work)

    return run_jobs(run, list(_batches(n, seed)))


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
    etas = [float(e) for e in etas]
    if not etas or any(e < 0 for e in etas):
        raise ParameterError("etas must be non-empty and non-negative")
    _check(state, spec, noise, n, 100)
    lam = spec.lambdas
    lam2 = lam**2
    k = spec.k
    w0 = lam2 * state.c**2
    s_d0 = float(np.sum(w0[:k]))
    s_b0 = float(np.sum(w0[k:]))
    decayed = [(1.0 - eta * lam) * state.c for eta in etas]

    def kernel(zeta, w):
        cols = np.empty((zeta.shape[0], 4 * len(etas)))
        for idx, eta in enumerate(etas):
            # w = lam2 * ((1 - eta*lam)*c - eta*zeta)**2, in place
            np.multiply(zeta, eta, out=w)
            np.subtract(decayed[idx], w, out=w)
            np.square(w, out=w)
            np.multiply(lam2, w, out=w)
            s_d1 = w[:, :k].sum(axis=1)
            s_b1 = w[:, k:].sum(axis=1)
            tot = s_d1 + s_b1
            theta1 = np.divide(s_d1, tot, out=np.zeros_like(s_d1), where=tot > 0)
            cols[:, 4 * idx] = s_b0 * s_d1 - s_d0 * s_b1
            cols[:, 4 * idx + 1] = s_d1
            cols[:, 4 * idx + 2] = s_b1
            cols[:, 4 * idx + 3] = theta1
        return cols

    acc = _Accumulator(4 * len(etas))
    for cols in _pooled(n, seed, np.sqrt(noise.kappa2), kernel):
        acc.add(cols)
    ests = acc.estimates()
    out = {}
    for idx, eta in enumerate(etas):
        out[eta] = {
            "f": ests[4 * idx],
            "sD_next": ests[4 * idx + 1],
            "sB_next": ests[4 * idx + 2],
            "theta_next": ests[4 * idx + 3],
        }
    return out


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
    _check(state, spec, noise, n, _VERDICT_MIN_N)
    stats = block_stats(state, spec, noise)
    ests = one_step_estimates(state, spec, noise, [eta], n, seed)[float(eta)]
    return _drift_result(stats, spec, noise, eta, ests, z_crit, theta_abs_slack)


def _projected_estimates(
    state: State, spec: Spectrum, noise: NoiseProfile, eta: float, blocks, n: int, seed: int
) -> list[McEstimate]:
    """Loss change of the step projected on each of `blocks`, all from the
    same n noise draws."""
    lam = spec.lambdas
    parts = []
    for block in blocks:
        sl = slice(None, spec.k) if block == "D" else slice(spec.k, None)
        parts.append((sl, lam[sl], lam[sl] * state.c[sl]))

    def kernel(zeta, work):
        nb = zeta.shape[0]
        out = []
        for sl, lam_s, grad_s in parts:
            # g = grad_s + zeta[:, sl] in a contiguous (nb, width) view, laid
            # out like a fresh array so the matmuls keep their summation order
            g = work.reshape(-1)[: nb * lam_s.size].reshape(nb, lam_s.size)
            np.add(grad_s, zeta[:, sl], out=g)
            lin = g @ grad_s
            np.square(g, out=g)
            out.append(-eta * lin + 0.5 * eta**2 * (g @ lam_s))
        return out

    accs = [_Accumulator(1) for _ in parts]
    for dls in _pooled(n, seed, np.sqrt(noise.kappa2), kernel):
        for acc, dl in zip(accs, dls):
            acc.add(dl[:, None])
    return [acc.estimates()[0] for acc in accs]


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
    _check(state, spec, noise, n, _VERDICT_MIN_N)
    stats = block_stats(state, spec, noise)
    stats.block(block)  # rejects a bad block name before drawing
    [est] = _projected_estimates(state, spec, noise, eta, [block], n, seed)
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
