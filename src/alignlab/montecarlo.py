"""Monte-Carlo estimates of one-step conditional expectations, and sign tests
of the drift predictions against them.

Sampling schedule: an estimate of n samples with seed s draws ceil(n/2)
noise vectors z and uses each twice, as z and as -z (antithetic pairs,
Hammersley & Morton 1956). The pairs are split into batches: a batch is as
long as the pairs before it, clamped to [_FINISH, _BATCH], so batches hold
1024, 1024, 2048 and then 4096 pairs and their bounds pass through every
1024 * 2^i below the total. Batch j uses the stream
``Generator(SFC64(SeedSequence([s, j])))`` (SFC64 draws a normal faster than
numpy's default PCG64).
Batches run on the job pool (ALIGNLAB_THREADS). Each worker draws its batch
in row blocks of about _BLOCK_VALUES normals into one reused buffer that
stays in cache; successive blocks continue one generator stream, so the
draws equal one whole (batch, d) draw. It forms the pair means in chunks of
_FINISH pairs and reduces each chunk to a sum and a sum of squares per
statistic, shifted by a pivot: the statistic at zero linear forms and the
mean sum of squares, which is its exact mean when it is affine in the block
sums (Chan, Golub & LeVeque 1983, Am. Stat. 37(3): a shift near the mean
keeps the one-pass variance free of cancellation). The pivot needs no draw,
so it does not depend on the pool size. Per-batch sums stream back in batch
order, at most 2 x workers batches at a time, and are combined with
``math.fsum``, which is exactly rounded. An estimate's memory is therefore
O(workers x (block + chunk x width)), width being the number of statistics,
whatever n is, besides the two partial sums per statistic and batch that the
exactly rounded total keeps; its results are bit-identical for a given
(n, seed) whatever the pool size, and two estimates with the same seed share
their noise draws (common random numbers).

Group-sequential verdicts: for the sign tests n is a cap. They look at the
estimate at every batch bound 1024 * 2^i and at the cap, K looks fixed by
the cap alone, and test each row at z_K, where
2 (1 - Phi(z_K)) = 2 (1 - Phi(z_crit)) / K: Bonferroni over the looks
(Jennison & Turnbull 2000, Group Sequential Methods with Applications to
Clinical Trials), so a row's chance of a false sign stays within the
two-sided level of z_crit. A row is settled when it is decided at z_K, or
when mean +- z_K stderr lies inside its slack band (a settled inconclusive);
the draw stops at the first look where every row that shares it is settled,
and every row reports at that look. Each look's batches run in their own
pass over the pool, so no batch past the stopping look is drawn, and the
sums run in batch order, so the stopping look and the bytes do not depend on
the thread count. The estimates of `one_step_estimates` never stop early.

Kernel: every statistic estimated here is quadratic in the noise, so a
draw z enters a state's statistics only through block sums: linear forms per
block that depend on the state, and one weighted sum of squares per block
that depends only on the spectrum and the noise (`_block_sums`). The linear
forms are odd in z and the sum of squares is even, so the sums of -z are
those of z with the linear forms negated, and the mirrored sample costs no
draw. Each pair contributes one sample, the mean of its two values, so
`McEstimate.n` counts pairs and its stderr is the pair std / sqrt(pairs).
Pair means are formed in closed form: a statistic affine in the block sums
(f, the next block energies, the projected loss change) has as pair mean
its even part, with the linear forms dropped, and only theta_next, a ratio,
is evaluated at z and at -z. A projected-loss state therefore reads no
linear form at all. Pair means are i.i.d. and unbiased; per draw the
variance never rises (Var((g(z) + g(-z))/2) <= Var g(z)), and per requested
sample it rises at most 2x, for a statistic even in z.

One estimate serves several states on one spectrum and noise profile: each
draw is reduced to the linear forms its states read and the shared sums of
squares, and what is left per state, step size and block is O(batch) work.
The verdict presets therefore draw once per preset: `drift-test` for all its
targets and step sizes, `projected-test` for all its states and both blocks.
Their verdicts are correlated across states, while each keeps its own
marginal law; a state's rows equal those it would get alone on the same
seed stopped at the same look, but which look that is depends on every row
that shares the draw. The sums use numpy's own einsum loop rather than BLAS, so
their bits do not depend on BLAS's thread count either.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from ._pool import run_jobs
from .errors import ParameterError
from .spectrum import NoiseProfile, Spectrum
from .state import State, _check_dims, _theta
from .theory import drift_quadratic, expected_drift, expected_loss_change, loss_threshold

__all__ = [
    "McEstimate",
    "Verdict",
    "VERDICT_COLUMNS",
    "one_step_estimates",
    "drift_verdicts",
    "projected_verdicts",
]

# noise vectors per full batch; each serves an antithetic pair of samples
_BATCH = 4096
# normals per row block of a batch's draw: the block stays in cache while
# every kernel's sums pass over it
_BLOCK_VALUES = 65536
# pairs per call of a kernel's finish: bounds its (width, pairs) temporaries;
# also the first batch and the first look of an estimate
_FINISH = 1024
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


# the verdict tables' header; the threshold column keeps its first name
VERDICT_COLUMNS = ["test", "theta", "eta", "eta_star", "predicted", "mean", "stderr", "pairs", "z", "verdict"]


@dataclass(frozen=True)
class Verdict:
    """One row of a verdict table: the sign test `test` at alignment theta
    and step size eta, whose threshold step (eta* for the drift rows, the
    block's loss threshold for the projected rows) is `threshold`, None when
    undefined. The verdict is confirmed when the estimate significantly
    carries the predicted sign, inconclusive when not significant, and
    contradicted when significantly the wrong sign. settled is True when the
    row needs no more draws: it is decided, or its interval lies inside its
    slack band. target_ok is False when the estimate misses the closed-form
    mean it is checked against, which only the projected rows are."""

    test: str
    theta: float
    eta: float
    threshold: float | None
    predicted: str
    estimate: McEstimate
    z: float
    verdict: str
    target_ok: bool = True
    settled: bool = True

    @property
    def failed(self) -> bool:
        """A contradicted verdict or a missed closed-form target: the row fails its preset."""
        return self.verdict == "contradicted" or not self.target_ok

    def cells(self) -> list:
        """The row's values in VERDICT_COLUMNS order."""
        est = self.estimate
        return [self.test, self.theta, self.eta, self.threshold, self.predicted,
                est.mean, est.stderr, est.n, self.z, self.verdict]


def _check(state: State, spec: Spectrum, noise: NoiseProfile, n: int, n_min: int) -> None:
    _check_dims(state, spec, noise)
    if n < n_min:
        raise ParameterError(f"need at least {n_min} samples, got {n}")


class _Kernel(NamedTuple):
    """One state's share of a draw z: the weights of the linear forms it reads
    (none when every row is affine in the block sums), the weights q of the
    sum of squares, and finish(lin, quad), which turns the (D, B) block sums
    of the forms on z, shape (len(forms), 2, nb), and of q z^2, shape (2, nb),
    into (width, nb) rows of antithetic pair means: the sums of -z are those
    of z with the linear forms negated."""

    forms: tuple
    q: np.ndarray
    finish: Callable


def _pivot(kernel: _Kernel, q_sums: np.ndarray) -> np.ndarray:
    """The kernel's rows at lin = 0 and quad = E[quad] = q_sums, the (D, B)
    block sums of q. It needs no draw. For a row affine in the block sums (f,
    the next block energies, the projected loss change) it is the row's exact
    mean; for theta_next it is theta_next at the mean noise energy."""
    return kernel.finish(np.zeros((len(kernel.forms), 2, 1)), q_sums[:, None])[:, 0]


def _batch_bounds(pairs: int) -> list[int]:
    """Pair bounds 0 = b_0 < b_1 < ... < b_J = pairs of the batches: batch j
    covers [b_j, b_{j+1}) and is as long as the pairs before it, clamped to
    [_FINISH, _BATCH]."""
    bounds = [0]
    while bounds[-1] < pairs:
        bounds.append(min(pairs, bounds[-1] + min(max(bounds[-1], _FINISH), _BATCH)))
    return bounds


def _looks(bounds: list[int]) -> list[int]:
    """The batch counts at which a sequential estimate looks: every bound that
    is _FINISH * 2^i, and the cap."""
    looks = []
    for j, b in enumerate(bounds[1:], 1):
        q, r = divmod(b, _FINISH)
        if b == bounds[-1] or (r == 0 and q & (q - 1) == 0):
            looks.append(j)
    return looks


def _z_looks(z_crit: float, n: int) -> float:
    """z_K with 2 (1 - Phi(z_K)) = 2 (1 - Phi(z_crit)) / K for the K looks of
    an estimate capped at n samples, by bisection on math.erfc. Since the
    normal's Mills ratio falls, z_K <= sqrt(z_crit^2 + 2 log K), which is
    taken where the tail underflows."""
    k = len(_looks(_batch_bounds(-(-n // 2))))
    if k == 1:
        return z_crit
    lo, hi = z_crit, math.sqrt(z_crit * z_crit + 2.0 * math.log(k))
    level = math.erfc(z_crit / math.sqrt(2.0)) / k
    if level == 0.0:
        return hi
    while lo < hi:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break  # adjacent floats
        if math.erfc(mid / math.sqrt(2.0)) > level:
            lo = mid
        else:
            hi = mid
    return hi


@np.errstate(over="ignore", invalid="ignore")  # an overflow shows in the pivots or sums: ParameterError below
def _estimate(n: int, seed: int, spec: Spectrum, kernels: list, stop=None) -> list[McEstimate]:
    """Mean and standard error of every row of every kernel, kernel by kernel,
    from ceil(n/2) antithetic pairs over the batches of the schedule, which
    run on the job pool. With stop, n is a cap: the estimates are formed at
    each look of the schedule, and returned at the first where stop(estimates)
    holds, or at the cap. The kernels come from one factory on spec and one
    noise profile, so they share q and every draw. Each worker draws a batch
    in row blocks of about _BLOCK_VALUES normals into one reused buffer
    (successive standard_normal(out=) calls on a generator continue one
    stream) and writes each block's sums into a reused block-sum buffer.
    Every kernel then turns chunks of _FINISH pairs into pair means; finish
    works pair by pair, so a chunk's rows equal those of the whole batch.
    The worker shifts them by a data-free pivot (`_pivot`), which keeps the
    sums of squares free of cancellation (a pivot that is not finite stops
    the estimate before any draw), and returns per row the shifted
    sum and sum of squares. These stream back in batch order and are
    combined with math.fsum, so a worker holds O(block + chunk x width)
    values and the calling thread O(batches x width) whatever n is."""
    if not kernels:
        return []
    k, d, q = spec.k, spec.d, kernels[0].q
    vectors = [v for kernel in kernels for v in kernel.forms]
    q_sums = np.stack(spec.split_sum(q))
    pivots = [_pivot(kernel, q_sums) for kernel in kernels]
    if not np.all(np.isfinite(np.concatenate(pivots))):
        raise ParameterError(
            "a Monte-Carlo statistic is not finite at the mean noise: the step size or the state is too large"
        )
    centres = np.concatenate(pivots)
    # kernel i reads the linear-form sums forms[i]:forms[i + 1]
    forms = np.cumsum([0] + [len(kernel.forms) for kernel in kernels])
    bounds = _batch_bounds(-(-n // 2))
    batch_rows = min(bounds[-1], _BATCH)
    block_rows = min(batch_rows, max(1, _BLOCK_VALUES // d))
    local = threading.local()

    @np.errstate(over="ignore", invalid="ignore")  # pool threads start from numpy's defaults
    def run(j):
        nb = bounds[j + 1] - bounds[j]
        rng = np.random.Generator(np.random.SFC64(np.random.SeedSequence([seed, j])))
        if not hasattr(local, "buffer"):
            local.buffer = np.empty((block_rows, d))
            local.sums = np.empty((len(vectors) + 1, 2, batch_rows))
        sums = local.sums[:, :, :nb]
        for start in range(0, nb, block_rows):
            z = local.buffer[: min(block_rows, nb - start)]
            rng.standard_normal(out=z)
            _block_sums(z, k, vectors, q, sums[:, :, start : start + len(z)])
        moments = []
        for kernel, centre, first, last in zip(kernels, pivots, forms, forms[1:]):
            shifted = np.zeros((2, len(centre)))
            for lo in range(0, nb, _FINISH):
                chunk = sums[:, :, lo : lo + _FINISH]
                rows = kernel.finish(chunk[first:last], chunk[-1])
                rows -= centre[:, None]
                shifted[0] += rows.sum(axis=1)
                shifted[1] += np.square(rows, out=rows).sum(axis=1)
            moments.append(shifted)
        return np.concatenate(moments, axis=1)

    parts = []
    for look in _looks(bounds) if stop else [len(bounds) - 1]:
        # this look's batches only: none past it is started
        parts += run_jobs(run, range(len(parts), look))
        out = _combine(np.array(parts), centres, bounds[look])
        if stop and stop(out):
            break
    return out


def _combine(parts: np.ndarray, centres: np.ndarray, pairs: int) -> list[McEstimate]:
    """The estimates from the per-batch shifted sums parts, shape (batches, 2,
    rows), over pairs pairs, summed in batch order."""
    if not np.all(np.isfinite(parts.sum(axis=0))):
        raise ParameterError("a Monte-Carlo sum of squares is not finite: the step size or the state is too large")
    out = []
    for j, centre in enumerate(centres):
        s1 = math.fsum(parts[:, 0, j])
        s2 = math.fsum(parts[:, 1, j])
        mean = float(centre) + s1 / pairs
        var = max(0.0, (s2 - s1 * s1 / pairs) / (pairs - 1))
        out.append(McEstimate(mean=mean, stderr=math.sqrt(var / pairs), n=pairs))
    return out


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


@np.errstate(over="ignore", invalid="ignore")  # an overflow shows in the pivot: _estimate rejects it
def _one_step_kernel(state: State, spec: Spectrum, noise: NoiseProfile, etas: list) -> _Kernel:
    """Kernel whose rows are, for each eta, the pair means of f, sD_next,
    sB_next and theta_next.

    With zeta = kappa * z, the next energy of block X is
    s_X' = sum_X lam^2 ((1 - eta lam) c - eta zeta)^2
         = m_X(eta) + eta^2 Q_X - 2 eta (L1_X - eta L2_X),
    where L1 = sum lam^2 c zeta, L2 = sum lam^3 c zeta and Q = sum lam^2 zeta^2
    per block do not depend on eta, and Q not on the state either: six block
    sums per draw serve every step size of a state. The last term is odd in z,
    so the pair mean of s_X' is its even part m_X + eta^2 Q_X, and that of
    f = s_B s_D' - s_D s_B', affine in s', is f0 + eta^2 (s_B Q_D - s_D Q_B),
    formed from the random parts directly so that it does not cancel two large
    products. Only theta_next, a ratio, needs s' at z and at -z."""
    lam = spec.lambdas
    lam2c = lam**2 * state.c
    a = np.sqrt(noise.kappa2) * lam2c
    s_d0, s_b0 = map(float, spec.split_sum(lam2c * state.c))
    # step sizes along axis 0, blocks (D, B) along axis 1, draws along axis 2
    eta = np.array(etas)[:, None, None]
    w = lam**2 * ((1.0 - eta[:, 0] * lam) * state.c) ** 2
    m = np.stack(spec.split_sum(w), axis=1)[:, :, None]
    f0 = s_b0 * m[:, 0] - s_d0 * m[:, 1]

    def finish(lin, quad):
        l1, l2 = lin
        rows = np.empty((len(etas), 4, quad.shape[1]))
        even = eta**2 * quad
        np.add(f0, s_b0 * even[:, 0] - s_d0 * even[:, 1], out=rows[:, 0])
        np.add(m, even, out=rows[:, 1:3])
        odd = 2.0 * eta * (l1 - eta * l2)
        thetas = []
        for s1 in (rows[:, 1:3] - odd, rows[:, 1:3] + odd):
            # s' >= 0; the clamp only removes rounding below zero
            np.maximum(s1, 0.0, out=s1)
            thetas.append(_theta(s1[:, 0], s1[:, 1]))
        np.multiply(0.5, thetas[0] + thetas[1], out=rows[:, 3])
        return rows.reshape(4 * len(etas), -1)

    return _Kernel((a, lam * a), lam**2 * noise.kappa2, finish)


def _one_step_estimates(jobs, spec: Spectrum, noise: NoiseProfile, n: int, seed: int, n_min: int, stop=None) -> list:
    """The estimates of f, sD_next, sB_next and theta_next at each step size
    of each (state, etas) job, in that order, all from the same draws: n of
    them, or with stop, up to n (`_estimate`)."""
    for state, etas in jobs:
        if not etas or not all(0 <= e < math.inf for e in etas):
            raise ParameterError("etas must be non-empty, finite and non-negative")
        _check(state, spec, noise, n, n_min)
    return _estimate(n, seed, spec, [_one_step_kernel(state, spec, noise, etas) for state, etas in jobs], stop)


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
    `etas`. Returns {eta: {"f"|"sD_next"|"sB_next"|"theta_next": McEstimate}},
    each over all ceil(n/2) pairs: these estimates never stop early.
    """
    etas = [float(e) for e in etas]
    ests = iter(_one_step_estimates([(state, etas)], spec, noise, n, seed, 100))
    keys = ("f", "sD_next", "sB_next", "theta_next")
    return {eta: dict(zip(keys, [next(ests) for _ in keys])) for eta in etas}


def _verdict(test, theta, eta, threshold, target, tol, est, z_crit, slack=0.0, target_ok=True) -> Verdict:
    """The row of a sign test whose closed-form prediction is target, its
    sign read as 0 within tol; slack widens the inconclusive band. An
    inconclusive row is settled when mean +- z_crit stderr lies inside
    [-slack, slack]."""
    predicted = "0" if abs(target) <= tol else "+" if target > 0 else "-"
    settled = True
    if abs(est.mean) <= z_crit * est.stderr + slack:
        verdict = "inconclusive"
        settled = abs(est.mean) + z_crit * est.stderr <= slack
    else:
        verdict = "confirmed" if ("+" if est.mean > 0 else "-") == predicted else "contradicted"
    if est.stderr > 0:
        z = est.mean / est.stderr
    else:
        z = 0.0 if est.mean == 0 else math.copysign(math.inf, est.mean)
    return Verdict(test, theta, eta, threshold, predicted, est, z, verdict, target_ok, settled)

def drift_verdicts(
    jobs,
    spec: Spectrum,
    noise: NoiseProfile,
    n: int,
    seed: int,
    z_crit: float = 3.0,
    theta_abs_slack: float = 0.0,
) -> list[Verdict]:
    """Sign tests of the one-step drift at each step size of each (state,
    stats, etas) job, stats being the state's `block_stats`, all from one
    estimate on seed of at most n samples, stopped at the first look where
    every row is settled (module docstring). Per job and step size, in order:
    the f_drift row, which tests the exact finite-d expectation
    p*eta^2 + q*eta, and the theta_drift row, which tests
    E[theta_{t+1}] - theta_t against the same sign. The regime results
    describe that drift only asymptotically; `theta_abs_slack` widens its
    inconclusive band accordingly. Every row is tested at z_K for the K looks
    of the cap n."""
    jobs = [(state, stats, [float(e) for e in etas]) for state, stats, etas in jobs]
    checks = []
    for _, stats, etas in jobs:
        dq = drift_quadratic(stats)
        eta_star = dq.eta_star if dq.eta_star is not None and dq.eta_star > 0 else None
        for eta in etas:
            target = expected_drift(dq, eta)  # rejects a step whose drift overflows, before drawing
            checks.append((stats.theta, eta, eta_star, target, 1e-12 * (abs(dq.p) * eta**2 + abs(dq.q) * eta)))
    z = _z_looks(z_crit, n)

    def rows(ests):
        ests, out = iter(ests), []
        for theta, eta, eta_star, target, tol in checks:
            f, _, _, theta_next = (next(ests) for _ in range(4))
            dtheta = McEstimate(mean=theta_next.mean - theta, stderr=theta_next.stderr, n=theta_next.n)
            out.append(_verdict("f_drift", theta, eta, eta_star, target, tol, f, z))
            out.append(_verdict("theta_drift", theta, eta, eta_star, target, tol, dtheta, z, theta_abs_slack))
        return out

    # stop at the first look where every row is settled
    return rows(_one_step_estimates(
        [(state, etas) for state, _, etas in jobs], spec, noise, n, seed, _VERDICT_MIN_N,
        lambda ests: all(row.settled for row in rows(ests)),
    ))


def _projected_kernel(state: State, spec: Spectrum, noise: NoiseProfile, eta: float) -> _Kernel:
    """Kernel whose rows are the pair means of the loss change of the step
    projected on the dominant and on the bulk block.

    With g = grad + zeta on block X (grad = lam c, zeta = kappa z), the loss
    change -eta g.grad + eta^2/2 sum lam g^2 expands to a constant plus
    -eta zeta.grad + eta^2 sum lam grad zeta + eta^2/2 sum lam zeta^2. The
    two middle terms are odd in z, so the pair mean is the constant plus
    eta^2/2 sum lam zeta^2 and the kernel reads no linear form."""
    lam = spec.lambdas
    grad = lam * state.c
    g2 = grad**2
    # (D, B) block sums of grad^2 and lam grad^2
    g2_sum, lg2_sum = np.stack(spec.split_sum(np.stack([g2, lam * g2])), axis=1)
    base = (-eta * g2_sum + 0.5 * eta**2 * lg2_sum)[:, None]

    def finish(_lin, quad):
        return base + (0.5 * eta**2) * quad

    return _Kernel((), lam * noise.kappa2, finish)


def projected_verdicts(
    jobs,
    spec: Spectrum,
    noise: NoiseProfile,
    n: int,
    seed: int,
    z_crit: float = 3.0,
) -> list[Verdict]:
    """Sign tests of the expected loss change of the step projected on the
    dominant and on the bulk block, for each (state, stats, eta) job, stats
    being the state's `block_stats`, all from one estimate on seed of at most
    n samples, stopped as in `drift_verdicts`: per job the loss_change_D row,
    then the loss_change_B row. Each tests the sign of its block's
    closed-form theory.expected_loss_change at z_K, and its target_ok checks
    the estimate at the stopping look against that change within 4 stderr."""
    jobs = [(state, stats, float(eta)) for state, stats, eta in jobs]
    checks = []
    for state, stats, eta in jobs:
        _check(state, spec, noise, n, _VERDICT_MIN_N)
        for block in ("D", "B"):
            target = expected_loss_change(stats, block, eta)  # rejects a step whose change overflows, before drawing
            s, tau, _, _, n_loss = stats.block(block)
            threshold = loss_threshold(stats, block) if tau + n_loss > 0 else None
            tol = 1e-12 * (eta * s + 0.5 * eta**2 * (tau + n_loss))
            checks.append((f"loss_change_{block}", stats.theta, eta, threshold, target, tol))
    kernels = [_projected_kernel(state, spec, noise, eta) for state, _, eta in jobs]
    z = _z_looks(z_crit, n)

    def rows(ests):
        out = []
        for (test, theta, eta, threshold, target, tol), est in zip(checks, ests):
            target_ok = abs(est.mean - target) <= 4.0 * est.stderr + 1e-12 * (1.0 + abs(target))
            out.append(_verdict(test, theta, eta, threshold, target, tol, est, z, target_ok=target_ok))
        return out

    return rows(_estimate(n, seed, spec, kernels, lambda ests: all(row.settled for row in rows(ests))))
