"""Monte-Carlo estimates of one-step conditional expectations, and sign tests
of the drift predictions against them.

Sampling schedule: an estimate of n samples with seed s draws ceil(n/2)
noise vectors z and uses each twice, as z and as -z (antithetic pairs,
Hammersley & Morton 1956). The pairs are split into batches by a rule: a
batch is as long as the pairs before it, clamped to [_FINISH, _BATCH], so
batches hold 512, 512, 1024, 2048 and then 4096 pairs and their bounds pass
through every 512 * 2^i below the total. Batch j uses the stream
``Generator(SFC64(SeedSequence([s, j])))`` (SFC64 draws a normal faster than
numpy's default PCG64). The rule is applied a look at a time (below), so the
batches are formed as they are drawn and never listed up to the total.
Batches run on the job pool (ALIGNLAB_THREADS). Each batch is drawn in row
blocks of about _BLOCK_VALUES normals into one buffer of its own that stays
in cache; successive blocks continue one generator stream, so the draws
equal one whole (batch, d) draw. A batch returns the moments of Q (the
Kernel paragraph) shifted by its mean E[Q]: the sum of Q - E[Q] and the sum
of its outer products, six values whatever the number of rows (Chan, Golub &
LeVeque 1983, Am. Stat. 37(3): a shift near the mean keeps the one-pass
variance free of cancellation). A ratio row is formed pair by pair instead,
in chunks of _FINISH pairs, and reduced to its sum and sum of squares
shifted by its value at Q = E[Q]. Neither shift needs a draw, so neither
depends on the pool size. Per-batch sums stream back in batch order, at most
2 x workers batches at a time, and are combined with ``math.fsum``, which is
exactly rounded. An estimate's memory is therefore O(workers x (block +
chunk x ratio rows)) whatever n is, besides the six values and the two per
ratio row of each batch that the exactly rounded total keeps; its results
are bit-identical for a given (n, seed) whatever the pool size, and two
estimates with the same seed share their noise draws (common random
numbers).

Group-sequential verdicts: for the sign tests n is a cap. They look at the
estimate at every batch bound 512 * 2^i and at the cap, K looks fixed by
the cap alone, and test each row at z_K, where
2 (1 - Phi(z_K)) = 2 (1 - Phi(z_crit)) / K: Bonferroni over the looks
(Jennison & Turnbull 2000, Group Sequential Methods with Applications to
Clinical Trials), so a row's chance of a false sign stays within the
two-sided level of z_crit. The looks are pair counts read off the cap in
O(log cap) (`_looks`), so a sign test's set-up does not grow with its cap. A
row is settled when it is decided at z_K, or when mean +- z_K stderr lies
inside its slack band (a settled inconclusive); the draw stops at the first
look where every row that shares it is settled, and every row reports at
that look. Each look's batches are formed when the draw reaches that look
and run in their own pass over the pool, so no batch past the stopping look
is formed or drawn, and the sums run in batch order, so the stopping look
and the bytes do not depend on the thread count. Both presets run their
sign tests through `_sign_tests`. The estimates of `one_step_estimates` are
one look at n and never stop early.

Kernel: every statistic estimated here is quadratic in the noise, so a
draw z enters a state's statistics only through block sums: linear forms per
block that depend on the state, and Q, the (D, B) block sums of q z^2, which
depend only on the spectrum and the noise (`_block_sums`). The linear forms
are odd in z and Q is even, so the sums of -z are those of z with the linear
forms negated, and the mirrored sample costs no draw. Each pair contributes
one sample, the mean of its two values, so `McEstimate.n` counts pairs and
its stderr is the pair std / sqrt(pairs). A statistic affine in the block
sums (f, the next block energies, the projected loss change) has as pair
mean its even part, which is affine in Q: a kernel holds it as data, the row
c + w.Q. Its estimate is its draw-free pivot c + w.E[Q], the exact mean, plus
w.(Qbar - E[Q]), so its sums over the pairs are w times the shifted moments
of Q (`_combine`), and its Monte-Carlo checks only the sampler's Q. Only
theta_next, a ratio, is formed per pair, at z and at -z, and only it reads
linear forms; `drift_verdicts` estimates it, and `one_step_estimates`, the
oracle's estimator of f and the next block energies, drops it, so a
projected-loss state and the oracle read no linear form. Pair means are
i.i.d. and unbiased; per draw the variance never rises
(Var((g(z) + g(-z))/2) <= Var g(z)), and per requested sample it rises at
most 2x, for a statistic even in z.

One estimate serves several states on one spectrum and noise profile: each
draw is reduced to the linear forms its ratio rows read and the shared Q,
and what is left is O(batch) work per ratio row and none per affine row.
The verdict presets therefore draw once per preset: `drift-test` for all its
targets and step sizes, `projected-test` for all its states and both blocks.
Their verdicts are correlated across states, while each keeps its own
marginal law; a state's rows equal those it would get alone on the same
seed stopped at the same look, but which look that is depends on every row
that shares the draw. The sums and the w products use numpy's own einsum
loop rather than BLAS, so their bits do not depend on BLAS's thread count
either.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from ._pool import run_jobs
from .errors import ParameterError
from .spectrum import NoiseProfile, Spectrum
from .state import BlockStats, State, _check_dims, _theta, block_stats
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
# pairs per call of a kernel's ratio: bounds its (rows, pairs) temporaries;
# also the first batch and the first look of an estimate: the least power of
# two whose 2 x _FINISH samples reach the sign tests' floor, so the first look
# can already decide
_FINISH = 512
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


class _Kernel(NamedTuple):
    """One state's share of a draw z. Its affine rows are the pair means
    c + w.Q, where Q is the (D, B) block sums of q z^2: c has shape (rows,)
    and w shape (rows, 2). ratio(lin, quad), when given, turns the (D, B)
    block sums of the linear forms on z, shape (len(forms), 2, nb), and Q,
    shape (2, nb), into (rows, nb) pair means of the rows that are not affine
    in Q, evaluated at z and at -z: the sums of -z are those of z with the
    linear forms negated. An estimate lists the affine rows of every kernel,
    then the ratio rows of every kernel."""

    c: np.ndarray
    w: np.ndarray
    q: np.ndarray
    forms: tuple = ()
    ratio: Callable | None = None


def _looks(pairs: int) -> list[int]:
    """The pair counts at which a sequential estimate of `pairs` pairs looks:
    every _FINISH * 2^i below the cap, then the cap."""
    return [_FINISH << i for i in range(((pairs - 1) // _FINISH).bit_length())] + [pairs]


def _bisect(above, lo: float, hi: float) -> tuple[float, float]:
    """The bracket [lo, hi] of the point where above(x) turns false, halved
    from above(lo) and not above(hi) until lo and hi are adjacent floats, or
    at most 200 times."""
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break  # adjacent floats: neither bound can move again
        lo, hi = (mid, hi) if above(mid) else (lo, mid)
    return lo, hi


def _z_looks(z_crit: float, n: int) -> float:
    """z_K with 2 (1 - Phi(z_K)) = 2 (1 - Phi(z_crit)) / K for the K looks of
    an estimate capped at n samples, by bisection on math.erfc. Since the
    normal's Mills ratio falls, z_K <= sqrt(z_crit^2 + 2 log K), which is
    taken where the tail underflows."""
    k = len(_looks(-(-n // 2)))
    if k == 1:
        return z_crit
    hi = math.sqrt(z_crit * z_crit + 2.0 * math.log(k))
    level = math.erfc(z_crit / math.sqrt(2.0)) / k
    if level == 0.0:
        return hi
    return _bisect(lambda z: math.erfc(z / math.sqrt(2.0)) > level, z_crit, hi)[1]


@np.errstate(over="ignore", invalid="ignore")  # an overflow shows in the pivots or sums: ParameterError below
def _estimate(n: int, seed: int, spec: Spectrum, kernels: list, stop=None) -> list[McEstimate]:
    """Mean and standard error of every affine row of every kernel, kernel by
    kernel, then of every ratio row likewise, from ceil(n/2) antithetic pairs
    over the batches of the schedule, which run on the job pool. With stop, n
    is a cap: the estimates are formed at each look (`_looks`), and returned
    at the first where stop(estimates) holds, or at the cap. A look's batches are formed only when the estimate
    reaches it, so no set-up grows with the cap. The kernels come from one
    factory on spec and one noise profile, so they share q and every draw.
    Each batch is drawn in row blocks of about _BLOCK_VALUES normals into a
    buffer of its own (successive standard_normal(out=) calls on a generator
    continue one stream), and each block's sums are written into the batch's
    block-sum buffer. The worker returns the moments of Q shifted by E[Q],
    and for each ratio row its sum and sum of squares over chunks of _FINISH
    pairs, shifted by its value at lin = 0 and Q = E[Q]; ratio works pair by
    pair, so a chunk's rows equal those of the whole batch. Each row's pivot
    (c + w.E[Q] for an affine row) needs no draw, and one that is not finite
    stops the estimate before any draw. The batch sums stream back in batch
    order and are combined with math.fsum, so a worker holds O(block + chunk
    x ratio rows) values and the calling thread O(batches x ratio rows)
    whatever n is."""
    if not kernels:
        return []
    k, d, q = spec.k, spec.d, kernels[0].q
    q_mean = np.stack(spec.split_sum(q))
    ratios = [kernel for kernel in kernels if kernel.ratio]
    vectors = [v for kernel in ratios for v in kernel.forms]
    # ratio kernel i reads the linear-form sums forms[i]:forms[i + 1]
    forms = np.cumsum([0] + [len(kernel.forms) for kernel in ratios])
    pivots = [kernel.ratio(np.zeros((len(kernel.forms), 2, 1)), q_mean[:, None])[:, 0] for kernel in ratios]
    # every kernel's affine rows, then every ratio row, whose sums the workers form
    w = np.concatenate([kernel.w for kernel in kernels])
    centres = np.concatenate([kernel.c for kernel in kernels] + pivots)
    centres[: len(w)] += np.einsum("ri,i->r", w, q_mean)
    if not np.all(np.isfinite(centres)):
        raise ParameterError(
            "a Monte-Carlo statistic is not finite at the mean noise: the step size or the state is too large"
        )
    pairs = -(-n // 2)
    block_rows = max(1, _BLOCK_VALUES // d)

    @np.errstate(over="ignore", invalid="ignore")  # pool threads start from numpy's defaults
    def run(batch):
        j, begin, end = batch
        nb = end - begin
        rng = np.random.Generator(np.random.SFC64(np.random.SeedSequence([seed, j])))
        buffer = np.empty((min(block_rows, nb), d))
        sums = np.empty((len(vectors) + 1, 2, nb))
        for start in range(0, nb, len(buffer)):
            z = buffer[: nb - start]
            rng.standard_normal(out=z)
            _block_sums(z, k, vectors, q, sums[:, :, start : start + len(z)])
        dq = sums[-1] - q_mean[:, None]
        shifted = [np.zeros((2, len(centre))) for centre in pivots]
        for kernel, centre, out, first, last in zip(ratios, pivots, shifted, forms, forms[1:]):
            for lo in range(0, nb, _FINISH):
                chunk = sums[:, :, lo : lo + _FINISH]
                rows = kernel.ratio(chunk[first:last], chunk[-1])
                rows -= centre[:, None]
                out[0] += rows.sum(axis=1)
                out[1] += np.square(rows, out=rows).sum(axis=1)
        moments = [dq.sum(axis=1), np.einsum("in,jn->ij", dq, dq).ravel()]
        return np.concatenate([*moments, *np.hstack([np.zeros((2, 0)), *shifted])])

    parts, end = [], 0
    for look in _looks(pairs) if stop else [pairs]:
        # this look's batches (j, begin, end) only: none past it is started;
        # each is as long as the pairs before it, clamped to [_FINISH, _BATCH]
        batches = []
        while end < look:
            begin, end = end, min(look, end + min(max(end, _FINISH), _BATCH))
            batches.append((len(parts) + len(batches), begin, end))
        parts += run_jobs(run, batches)
        out = _combine(np.array(parts), centres, w, look)
        if stop and stop(out):
            break
    return out


def _combine(parts: np.ndarray, centres: np.ndarray, w: np.ndarray, pairs: int) -> list[McEstimate]:
    """The estimates of the rows whose pivots are centres over pairs pairs,
    from the per-batch sums parts, shape (batches, 6 + 2 R): the sum of
    dQ = Q - E[Q], the sum of dQ dQ^T, and the shifted sums and sums of
    squares of the R ratio rows, each summed in batch order. The affine rows
    c + w.Q come first, and have the shifted sum w.sum(dQ) and sum of squares
    w.sum(dQ dQ^T).w^T; the ratio rows follow. A sum of squares of zero over
    a nonzero sum can only have underflowed."""
    # a column whose sum is not finite may overflow math.fsum; the rows show it
    totals = np.array([math.fsum(col) if math.isfinite(t) else t for col, t in zip(parts.T, parts.sum(axis=0))])
    ratio_s1, ratio_s2 = totals[6:].reshape(2, -1)
    s1 = np.concatenate([np.einsum("ri,i->r", w, totals[:2]), ratio_s1])
    s2 = np.concatenate([np.einsum("ri,ij,rj->r", w, totals[2:6].reshape(2, 2), w), ratio_s2])
    if not (np.all(np.isfinite(s1)) and np.all(np.isfinite(s2))):
        raise ParameterError("a Monte-Carlo sum of squares is not finite: the step size or the state is too large")
    out = []
    for centre, a, b in zip(centres.tolist(), s1.tolist(), s2.tolist()):
        if b == 0.0 and a != 0.0:
            raise ParameterError(
                "a Monte-Carlo sum of squares underflows: the spectrum, the state or the noise is too small"
            )
        var = max(0.0, (b - a * a / pairs) / (pairs - 1))
        out.append(McEstimate(mean=centre + a / pairs, stderr=math.sqrt(var / pairs), n=pairs))
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
def _one_step_kernel(state: State, stats: BlockStats, spec: Spectrum, noise: NoiseProfile, etas: list) -> _Kernel:
    """Kernel whose affine rows are, for each eta, the pair means of f,
    sD_next and sB_next, and whose ratio rows are those of theta_next for each
    eta; stats is the state's `block_stats`, whose block energies s_D and s_B
    it reads.

    With zeta = kappa * z, the next energy of block X is
    s_X' = sum_X lam^2 ((1 - eta lam) c - eta zeta)^2
         = m_X(eta) + eta^2 Q_X - 2 eta (L1_X - eta L2_X),
    where L1 = sum lam^2 c zeta, L2 = sum lam^3 c zeta and Q = sum lam^2 zeta^2
    per block do not depend on eta, and Q not on the state either: six block
    sums per draw serve every step size of a state. The last term is odd in z,
    so the pair mean of s_X' is its even part m_X + eta^2 Q_X, and that of
    f = s_B s_D' - s_D s_B', affine in s', is f0 + eta^2 (s_B Q_D - s_D Q_B).
    Both parts are formed without cancelling two large products: the random
    part from Q directly, and f0 = s_B m_D - s_D m_B as s_B dm_D - s_D dm_B
    from dm_X = m_X - s_X = sum_X lam^2 c^2 x (x - 2), x = eta lam, which is
    0 at eta = 0. Only theta_next, a ratio, needs s' at z and at -z, and so
    the linear forms L1 and L2."""
    if not etas or not all(0 <= e < math.inf for e in etas):
        raise ParameterError("etas must be non-empty, finite and non-negative")
    _check_dims(state, spec, noise)
    lam = spec.lambdas
    a = np.sqrt(noise.kappa2) * (lam**2 * state.c)
    # step sizes along axis 0, blocks (D, B) along axis 1, draws along axis 2
    eta = np.array(etas)[:, None, None]
    x = eta[:, 0] * lam
    m = np.stack(spec.split_sum(lam**2 * ((1.0 - x) * state.c) ** 2), axis=1)[:, :, None]
    dm = np.stack(spec.split_sum(lam**2 * state.c**2 * x * (x - 2.0)), axis=1)
    f0 = stats.s_b * dm[:, 0] - stats.s_d * dm[:, 1]
    c = np.column_stack([f0, m[:, :, 0]]).ravel()
    w = (eta**2 * np.array([[stats.s_b, -stats.s_d], [1.0, 0.0], [0.0, 1.0]])).reshape(-1, 2)

    def ratio(lin, quad):
        even = m + eta**2 * quad
        odd = 2.0 * eta * (lin[0] - eta * lin[1])
        # s' at -z and at z; s' >= 0, and the clamp only removes rounding below zero
        s_minus, s_plus = (np.maximum(s1, 0.0, out=s1) for s1 in (even - odd, even + odd))
        return 0.5 * (_theta(s_minus[:, 0], s_minus[:, 1]) + _theta(s_plus[:, 0], s_plus[:, 1]))

    return _Kernel(c, w, lam**2 * noise.kappa2, (a, lam * a), ratio)


def one_step_estimates(
    state: State,
    spec: Spectrum,
    noise: NoiseProfile,
    etas,
    n: int,
    seed: int,
) -> dict:
    """Estimate, from n shared one-step noise draws, the comparison functional
    f and the next block energies for every eta in `etas`: the one-step
    statistics with closed-form means (theory.expected_drift and
    expected_next_block_energy), which these estimates check. Returns
    {eta: {"f"|"sD_next"|"sB_next": McEstimate}}, each over all ceil(n/2)
    pairs: these estimates never stop early. All three are affine in the
    block sums, so the kernel's theta_next rows are dropped and the draw is
    reduced to the moments of Q alone; the next alignment is estimated by
    `drift_verdicts`. A state whose `block_stats` pass the float range is a
    ParameterError.
    """
    if n < 100:
        raise ParameterError(f"need at least 100 samples, got {n}")
    etas = [float(e) for e in etas]
    kernel = _one_step_kernel(state, block_stats(state, spec, noise), spec, noise, etas)
    ests = iter(_estimate(n, seed, spec, [kernel._replace(forms=(), ratio=None)]))
    keys = ("f", "sD_next", "sB_next")
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


def _sign_tests(n: int, seed: int, spec: Spectrum, kernels: list, rows: Callable, z_crit: float) -> list[Verdict]:
    """The verdicts rows(ests, z_K) on the estimates of the kernels' rows,
    from one estimate on seed of at most n samples, stopped at the first look
    where every verdict is settled (module docstring); z_K is z_crit spread
    over the K looks of the cap n."""
    if n < _VERDICT_MIN_N:
        raise ParameterError(f"need at least {_VERDICT_MIN_N} samples, got {n}")
    z = _z_looks(z_crit, n)
    return rows(_estimate(n, seed, spec, kernels, lambda ests: all(row.settled for row in rows(ests, z))), z)


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
    every row is settled (`_sign_tests`). Per job and step size, in order:
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
        # rejects a step whose drift overflows, before drawing
        checks += [(stats.theta, eta, eta_star, expected_drift(dq, eta),
                    1e-12 * (abs(dq.p) * eta**2 + abs(dq.q) * eta)) for eta in etas]
    kernels = [_one_step_kernel(state, stats, spec, noise, etas) for state, stats, etas in jobs]

    def rows(ests, z):
        # f, sD_next and sB_next per step size of every job, then theta_next per step size
        out, fs = [], ests[: 3 * len(checks) : 3]
        for (theta, eta, eta_star, target, tol), f, theta_next in zip(checks, fs, ests[3 * len(checks) :]):
            dtheta = McEstimate(mean=theta_next.mean - theta, stderr=theta_next.stderr, n=theta_next.n)
            out.append(_verdict("f_drift", theta, eta, eta_star, target, tol, f, z))
            out.append(_verdict("theta_drift", theta, eta, eta_star, target, tol, dtheta, z, theta_abs_slack))
        return out

    return _sign_tests(n, seed, spec, kernels, rows, z_crit)


def _projected_kernel(stats: BlockStats, spec: Spectrum, noise: NoiseProfile, eta: float) -> _Kernel:
    """Kernel whose affine rows are the pair means of the loss change of the
    step projected on the dominant and on the bulk block, for the state whose
    `block_stats` are stats.

    With g = grad + zeta on block X (grad = lam c, zeta = kappa z), the loss
    change -eta g.grad + eta^2/2 sum lam g^2 expands to the constant
    -eta s_X + eta^2/2 tau_X plus -eta zeta.grad + eta^2 sum lam grad zeta +
    eta^2/2 sum lam zeta^2. The two middle terms are odd in z, so the pair
    mean is the constant plus eta^2/2 Q_X, with q = lam kappa^2: both rows are
    affine, and the kernel reads no linear form, nor the state."""
    if noise.d != spec.d:
        raise ParameterError(f"noise dimension {noise.d} != spectrum dimension {spec.d}")
    c = np.array([-eta * s + 0.5 * eta**2 * tau for s, tau, *_ in map(stats.block, "DB")])
    return _Kernel(c, 0.5 * eta**2 * np.eye(2), spec.lambdas * noise.kappa2)


def projected_verdicts(
    jobs,
    spec: Spectrum,
    noise: NoiseProfile,
    n: int,
    seed: int,
    z_crit: float = 3.0,
) -> list[Verdict]:
    """Sign tests of the expected loss change of the step projected on the
    dominant and on the bulk block, for each (stats, eta) job, stats being a
    state's `block_stats`, all from one estimate on seed of at most n
    samples, stopped as in `drift_verdicts`: per job the loss_change_D row,
    then the loss_change_B row. Each tests the sign of its block's
    closed-form theory.expected_loss_change at z_K, and its target_ok checks
    the estimate at the stopping look against that change within 4 stderr."""
    jobs = [(stats, float(eta)) for stats, eta in jobs]
    checks = []
    for stats, eta in jobs:
        for block in ("D", "B"):
            target = expected_loss_change(stats, block, eta)  # rejects a step whose change overflows, before drawing
            s, tau, _, _, n_loss = stats.block(block)
            threshold = loss_threshold(stats, block) if tau + n_loss > 0 else None
            tol = 1e-12 * (eta * s + 0.5 * eta**2 * (tau + n_loss))
            checks.append((f"loss_change_{block}", stats.theta, eta, threshold, target, tol))
    kernels = [_projected_kernel(stats, spec, noise, eta) for stats, eta in jobs]

    def rows(ests, z):
        out = []
        for (test, theta, eta, threshold, target, tol), est in zip(checks, ests):
            target_ok = abs(est.mean - target) <= 4.0 * est.stderr + 1e-12 * (1.0 + abs(target))
            out.append(_verdict(test, theta, eta, threshold, target, tol, est, z, target_ok=target_ok))
        return out

    return _sign_tests(n, seed, spec, kernels, rows, z_crit)
