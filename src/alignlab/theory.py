"""Closed-form thresholds and one-step predictions for the alignment dynamics.

All quantities here are exact functions of (lambdas, kappa2, c) at finite
dimension; nothing in this module samples noise.

Every closed form of a mode c_t reads `mode_law`, the exact Gaussian AR(1) law
(Gillespie 1996, Phys. Rev. E 54, 2084), whose 1 - a^(2t) = -expm1(2t log|a|)
does not cancel at small eta lambda; the trajectory jumps of `dynamics` read it
too. Projected updates are checked one step at a time: `projected-test` tests
`expected_loss_change`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    AlignlabError,
    DegenerateBlockError,
    DegenerateStateError,
    InsufficientDataError,
    ParameterError,
    StepSizeError,
    UndefinedBoundError,
    UnsupportedNoiseError,
)
from .spectrum import NoiseProfile, Spectrum
from .state import BlockStats, State, _check_dims, block_stats

__all__ = [
    "DriftQuadratic",
    "RegimeThresholds",
    "CrossoverQuadratic",
    "CsgdFlags",
    "CsgdPlan",
    "drift_quadratic",
    "expected_drift",
    "expected_loss_change",
    "g_gap",
    "theta_star",
    "theta_star_rate_fit",
    "eta_star_lower_bound",
    "eta_star_upper_bound",
    "loss_threshold",
    "crossover",
    "crossover_gap_bounds",
    "csgd_plan",
    "mode_law",
    "expected_second_moment",
    "expected_next_block_energy",
    "theory_report",
]

# Residual tolerance for the stable quadratic-root solves, relative to the
# largest term that enters the evaluation.
_ROOT_RTOL = 1e-9


@dataclass(frozen=True)
class DriftQuadratic:
    """Coefficients of the one-step expected drift p*eta^2 + q*eta of the
    block-energy comparison functional. eta_star = -q/p is the sign-change
    step size; it is absent when p = 0 and negative when p < 0 (no positive
    root, the drift is negative for every step size)."""

    p: float
    q: float
    eta_star: float | None


@dataclass(frozen=True)
class RegimeThresholds:
    """Alignment levels delimiting step-size-dependent vs self-correcting drift."""

    g_gap: float
    theta_star: float
    a_aux: float
    h_aux: float
    m_aux: float
    r0: float


@dataclass(frozen=True)
class CrossoverQuadratic:
    """Quadratic h(theta) whose unique root in (0,1) swaps the ordering of the
    per-block loss-stability thresholds. theta_crit_gap carries 1 - theta_crit
    at full precision (theta_crit itself saturates near 1)."""

    alpha: float
    beta: float
    gamma: float
    theta_crit: float
    theta_crit_gap: float

    def __call__(self, theta: float) -> float:
        return self.alpha * theta**2 + self.beta * theta + self.gamma


@dataclass(frozen=True)
class CsgdFlags:
    step_size_ok: bool
    init_coords_ok: bool
    init_energy_ok: bool

    @property
    def all_ok(self) -> bool:
        return self.step_size_ok and self.init_coords_ok and self.init_energy_ok


@dataclass(frozen=True)
class CsgdPlan:
    """Two-phase prediction for constant-step runs: per-mode stationary second
    moments beta_i, initial surplus varrho_d, threshold delta, predicted length
    t_star of the decreasing phase (None when undefined or past the float
    range), and the late-time alignment theta_inf."""

    eta: float
    beta_coeffs: np.ndarray
    varrho_d: float
    delta: float
    t_star: int | None
    theta_inf: float
    flags: CsgdFlags


def drift_quadratic(stats: BlockStats) -> DriftQuadratic:
    """p and q from the block energies; requires a state with some energy."""
    if stats.s == 0.0:
        raise DegenerateStateError("drift quadratic undefined for the zero state")
    q = 2.0 * (stats.s_d * stats.tau_b - stats.s_b * stats.tau_d)
    p = stats.s_b * (stats.u_d + stats.e_d) - stats.s_d * (stats.u_b + stats.e_b)
    eta_star = None if p == 0.0 else -q / p
    return DriftQuadratic(p=p, q=q, eta_star=eta_star)


def _quadratic_in_eta(a: float, b: float, eta: float, what: str) -> float:
    """a eta^2 + b eta for eta >= 0; a step at which it overflows or is not
    finite is a ParameterError, so callers reject it before any draw."""
    if eta < 0:
        raise ParameterError("eta must be >= 0")
    try:
        value = a * eta**2 + b * eta
    except OverflowError:
        value = math.inf
    if not math.isfinite(value):
        raise ParameterError(f"the closed-form {what} at eta={eta!r} is not finite")
    return value


def expected_drift(dq: DriftQuadratic, eta: float) -> float:
    """Exact conditional expectation of the comparison functional after one step."""
    return _quadratic_in_eta(dq.p, dq.q, eta, "drift")


def g_gap(spec: Spectrum, noise: NoiseProfile) -> float:
    """State-independent alignment level below which p is guaranteed positive."""
    if noise.s_min <= 0:
        raise UnsupportedNoiseError("g_gap needs s_min > 0")
    ratio2 = (spec.lambdas[spec.k] / spec.lambdas[spec.k - 1]) ** 2
    return float(1.0 / (1.0 + (noise.s_max / noise.s_min) * (1.0 / spec.rho) * ratio2))


def _check_root(a: float, b: float, c: float, root: float) -> None:
    """Raise unless a*root^2 + b*root + c vanishes to _ROOT_RTOL of its largest term."""
    scale = max(abs(a * root * root), abs(b * root), abs(c))
    residual = abs(a * root * root + b * root + c)
    if residual > _ROOT_RTOL * max(scale, 1e-300):
        raise AlignlabError(f"quadratic root residual {residual} exceeds tolerance")


def _stable_positive_root(a: float, b: float, c: float) -> float:
    """Positive root of a*x^2 + b*x + c with a > 0 > c, avoiding cancellation."""
    disc = b * b - 4.0 * a * c
    sq = math.sqrt(disc)
    if b <= 0:
        root = (-b + sq) / (2.0 * a)
    else:
        root = (2.0 * c) / (-b - sq)
    _check_root(a, b, c, root)
    return root


def theta_star(stats: BlockStats, spec: Spectrum, noise: NoiseProfile) -> RegimeThresholds:
    """Self-correcting threshold: above it the expected alignment drops for any
    step size. Solves the auxiliary quadratic in r = theta/(1-theta)."""
    if stats.s == 0.0:
        raise DegenerateStateError("theta_star undefined for the zero state")
    if noise.s_min <= 0:
        raise UnsupportedNoiseError("theta_star needs s_min > 0")
    a_aux = noise.s_min * spec.psi_bulk
    h_aux = noise.s_max * spec.psi_dominant
    m_aux = stats.s * (spec.lambda_max**2 - spec.lambda_min**2)
    if a_aux == 0.0:
        raise UnsupportedNoiseError("theta_star needs a_aux = s_min * psi_bulk > 0")
    r0 = _stable_positive_root(a_aux, a_aux - m_aux - h_aux, -h_aux)
    return RegimeThresholds(
        g_gap=g_gap(spec, noise),
        theta_star=r0 / (1.0 + r0),
        a_aux=a_aux,
        h_aux=h_aux,
        m_aux=m_aux,
        r0=r0,
    )


def theta_star_rate_fit(sweep) -> tuple[float, float]:
    """Least-squares (slope, intercept) of log(1 - theta_star) against log m."""
    pts = [(float(m), float(ts)) for m, ts in sweep]
    ms = [m for m, _ in pts]
    if len(pts) < 4 or len(set(ms)) != len(ms):
        raise InsufficientDataError("need >= 4 sweep points with distinct m values")
    x = np.log(ms)
    y = np.log1p([-ts for _, ts in pts])
    slope, intercept = np.polyfit(x, y, 1)
    return float(slope), float(intercept)


def eta_star_lower_bound(
    stats: BlockStats, spec: Spectrum, noise: NoiseProfile, x_norm2: float
) -> float:
    """Gap-aware lower bound on eta_star in terms of theta and ||x||^2."""
    if stats.theta <= 0:
        raise UndefinedBoundError("lower bound undefined at zero alignment")
    if not x_norm2 > 0:
        raise ParameterError("x_norm2 must be > 0")
    scale = spec.lambda_min**2 * x_norm2 * stats.theta
    if scale == 0.0:
        raise UndefinedBoundError("lower bound undefined: lambda_min^2 * ||x||^2 * theta rounds to 0")
    denom = (spec.lambda_max**2 - spec.lambda_min**2) + (noise.s_max * spec.psi_dominant / scale)
    return 2.0 * spec.gap1 / denom


def eta_star_upper_bound(stats: BlockStats, spec: Spectrum) -> float | None:
    """Upper bound on eta_star, valid once the alignment clears the noise ratio
    e_B / (e_B + e_D); returns None when that gate fails."""
    e_total = stats.e_b + stats.e_d
    if e_total > 0 and stats.theta < stats.e_b / e_total:
        return None
    lam = spec.lambdas
    k = spec.k
    return 2.0 * (lam[0] - lam[-1]) / (lam[k - 1] * lam[0] - lam[k] * lam[-1])


def loss_threshold(stats: BlockStats, block: str) -> float:
    """Largest step size for which the block-projected update decreases the
    expected loss: 2 s / (tau + n_loss)."""
    s, tau, _, _, n_loss = stats.block(block)
    if tau + n_loss == 0.0:
        raise DegenerateBlockError(f"block {block} has neither signal nor noise energy")
    return 2.0 * s / (tau + n_loss)


def expected_loss_change(stats: BlockStats, block: str, eta: float) -> float:
    """Exact conditional expectation of the loss change of one step projected
    on the block: -eta s + eta^2 (tau + n_loss) / 2, zero at loss_threshold."""
    s, tau, _, _, n_loss = stats.block(block)
    return _quadratic_in_eta(0.5 * (tau + n_loss), -s, eta, "loss change")


def crossover(stats: BlockStats) -> CrossoverQuadratic:
    """Alignment level at which the two loss thresholds swap order.

    The root is found through the substitution g = 1 - theta, whose quadratic
    alpha*g^2 - (alpha + n_B + n_D)*g + n_B has an all-positive citardauq
    denominator, so theta_crit is accurate even when it sits next to 1.
    """
    if stats.s_d == 0.0 or stats.s_b == 0.0:
        raise DegenerateBlockError("crossover needs both blocks nonzero")
    alpha = stats.s * (stats.mu_d - stats.mu_b)
    beta = -alpha + stats.n_loss_b + stats.n_loss_d
    gamma = -stats.n_loss_d
    n_b = stats.n_loss_b
    big = alpha + n_b + stats.n_loss_d
    gap = 2.0 * n_b / (big + math.sqrt(big * big - 4.0 * alpha * n_b))
    _check_root(alpha, -big, n_b, gap)
    return CrossoverQuadratic(
        alpha=alpha, beta=beta, gamma=gamma, theta_crit=1.0 - gap, theta_crit_gap=gap
    )


def crossover_gap_bounds(stats: BlockStats, spec: Spectrum) -> tuple[float, float]:
    """Two-sided bound on 1 - theta_crit in terms of the gap ratio m."""
    if stats.s == 0.0:
        raise DegenerateStateError("bounds undefined for the zero state")
    denom = stats.s * spec.lambdas[spec.k] * (spec.gap_ratio - 1.0)
    lo = stats.n_loss_b / (denom + stats.n_loss_b + stats.n_loss_d)
    hi = stats.n_loss_b / denom
    return lo, hi


def _gap_step(spec: Spectrum) -> float:
    """2 gap1 / (lambda_max^2 - lambda_min^2): the step-size cap of the
    two-phase plan, and the step `drift-test` falls back on where eta* is
    undefined. A spectrum whose squared extremes round to one value (both
    underflow) is a ParameterError rather than a division by zero."""
    spread = spec.lambda_max**2 - spec.lambda_min**2
    if spread == 0.0:
        raise ParameterError(
            f"lambda_max^2 - lambda_min^2 rounds to 0 for eigenvalues {spec.lambda_max!r} and {spec.lambda_min!r}"
        )
    return 2.0 * spec.gap1 / spread


def csgd_plan(spec: Spectrum, noise: NoiseProfile, init: State, eta: float) -> CsgdPlan:
    """Two-phase prediction for a constant-step run started at `init`."""
    if not eta > 0:
        raise ParameterError("eta must be > 0")
    _check_dims(init, spec, noise)
    lam = spec.lambdas
    beta = mode_law(init.c, lam, noise.kappa2, eta, math.inf)[1]
    k = spec.k
    # a far-out start may square past the float range: varrho_d is then inf
    with np.errstate(over="ignore"):
        c2 = init.c**2
    varrho_d = float(spec.split_sum(c2 - beta)[0])
    step_cap = min(2.0 / spec.lambda_max, _gap_step(spec))
    # at a tiny eta the product may pass the float range: delta is then 0
    with np.errstate(over="ignore"):
        denom = float(
            spec.lambda_min**2 * lam[k - 1] ** 2
            * (2.0 * spec.gap1 / eta - (spec.lambda_max**2 - spec.lambda_min**2))
        )
    delta = (noise.s_max * spec.psi_dominant * spec.lambda_max**2 / denom) if denom != 0 else math.inf

    lam2beta = lam**2 * beta
    total = float(np.sum(lam2beta))
    if total == 0.0:
        raise UnsupportedNoiseError("theta_inf undefined for an all-zero noise profile")
    theta_inf = float(spec.split_sum(lam2beta)[0] / total)

    gap_to_floor = delta - float(spec.split_sum(beta)[0])
    flags = CsgdFlags(
        step_size_ok=bool(eta < step_cap),
        init_coords_ok=bool(np.all(c2[:k] > beta[:k])),
        init_energy_ok=bool(varrho_d > gap_to_floor),
    )
    t_star = None
    ratio = varrho_d / gap_to_floor if flags.all_ok and gap_to_floor > 0 else math.nan
    if math.isfinite(ratio):
        if ratio <= 1.0:
            t_star = 0
        else:
            # decay rate of the slowest-contracting squared factor (1-eta*lam_1)^2,
            # its log formed without cancellation as mode_law forms log|a| (at
            # tiny eta, (1-x)^2 rounds to 1); at x = 1 the top mode empties in one step
            x = eta * spec.lambda_max
            if x == 1.0:
                t_star = 0
            else:
                log_contraction2 = 2.0 * (math.log1p(-x) if x < 1.0 else math.log(x - 1.0))
                steps = math.log(ratio) / -log_contraction2
                # None past the float range, where the phase outlasts any run
                t_star = math.floor(steps) if math.isfinite(steps) else None
    return CsgdPlan(
        eta=eta,
        beta_coeffs=beta,
        varrho_d=varrho_d,
        delta=delta,
        t_star=t_star,
        theta_inf=theta_inf,
        flags=flags,
    )


def mode_law(c0, lam, kappa2, eta: float, t) -> tuple[np.ndarray, np.ndarray]:
    """Per-mode mean a^t c0 and variance beta (1 - a^(2t)) of c_t, a = 1 - eta lam,
    vectorised over modes; t = math.inf gives the stationary law (0, beta)."""
    c0, lam, kappa2 = np.broadcast_arrays(*(np.asarray(v, dtype=float) for v in (c0, lam, kappa2)))
    if not np.all((0 < eta) & (eta < 2.0 / lam)):
        raise StepSizeError(f"eta must lie in (0, 2/lambda_1) = (0, {2.0 / np.max(lam)})")
    if not t >= 0:
        raise ParameterError("t must be >= 0")
    if t == 0:
        return c0.copy(), np.zeros_like(c0)
    beta = eta * kappa2 / (2.0 * lam - eta * lam**2)
    a = 1.0 - eta * lam
    # log|a| by log1p where a > 0; a <= 0 is exact (Sterbenz), and -inf at a = 0
    with np.errstate(divide="ignore", invalid="ignore"):
        log_a = np.where(a > 0.0, np.log1p(-eta * lam), np.log(np.abs(a)))
    return np.where(a < 0.0, np.power(a, t), np.exp(t * log_a)) * c0, -beta * np.expm1(2.0 * t * log_a)


def expected_second_moment(c0: float, lam: float, kappa2: float, eta: float, t: int) -> float:
    """Closed-form E[c_t^2] = mu^2 + sigma^2 for one mode, from `mode_law`."""
    mu, sigma2 = mode_law(c0, lam, kappa2, eta, t)
    return float(mu**2 + sigma2)


def expected_next_block_energy(stats: BlockStats, eta: float, block: str) -> float:
    """Exact conditional expectation of the block energy after one step:
    s - 2 eta tau + eta^2 (u + e)."""
    if eta < 0:
        raise ParameterError("eta must be >= 0")
    s, tau, u, e, _ = stats.block(block)
    return s - 2.0 * eta * tau + eta**2 * (u + e)


def theory_report(spec: Spectrum, noise: NoiseProfile, state: State, eta: float) -> dict:
    """Every closed-form quantity for one (spectrum, noise, state, eta) tuple,
    as a JSON-ready dict. State-dependent entries are None for the zero state."""
    stats = block_stats(state, spec, noise)
    report: dict = {
        "d": spec.d,
        "k": spec.k,
        "gap_ratio": spec.gap_ratio,
        "gap1": spec.gap1,
        "gap2": spec.gap2,
        "psi_dominant": spec.psi_dominant,
        "psi_bulk": spec.psi_bulk,
        "noise_trace": noise.trace,
        "eta": eta,
        "theta": stats.theta,
        "s_d": stats.s_d,
        "s_b": stats.s_b,
        "e_d": stats.e_d,
        "e_b": stats.e_b,
        "n_loss_d": stats.n_loss_d,
        "n_loss_b": stats.n_loss_b,
        "two_over_lambda1": 2.0 / spec.lambda_max,
    }
    report["g_gap"] = g_gap(spec, noise) if noise.s_min > 0 else None

    zero_state = stats.s == 0.0
    for key in ("p", "q", "eta_star", "theta_star", "theta_crit", "eta_loss_d",
                "eta_loss_b", "eta_star_lower", "eta_star_upper", "expected_drift"):
        report[key] = None
    if not zero_state:
        dq = drift_quadratic(stats)
        report["p"], report["q"], report["eta_star"] = dq.p, dq.q, dq.eta_star
        report["expected_drift"] = expected_drift(dq, eta)
        if noise.s_min > 0:
            report["theta_star"] = theta_star(stats, spec, noise).theta_star
        if stats.s_d > 0 and stats.s_b > 0:
            report["theta_crit"] = crossover(stats).theta_crit
        for block, key in (("D", "eta_loss_d"), ("B", "eta_loss_b")):
            try:
                report[key] = loss_threshold(stats, block)
            except DegenerateBlockError:
                report[key] = None
        if stats.theta > 0:
            report["eta_star_lower"] = eta_star_lower_bound(stats, spec, noise, state.norm2)
        report["eta_star_upper"] = eta_star_upper_bound(stats, spec)

    try:
        plan = csgd_plan(spec, noise, state, eta)
        report["csgd"] = {
            "beta_coeffs": plan.beta_coeffs.tolist(),
            "varrho_d": plan.varrho_d,
            "delta": plan.delta,
            "t_star": plan.t_star,
            "theta_inf": plan.theta_inf,
            "assumption_ok": {
                "step_size": plan.flags.step_size_ok,
                "init_coords": plan.flags.init_coords_ok,
                "init_energy": plan.flags.init_energy_ok,
            },
        }
    except (StepSizeError, UnsupportedNoiseError) as exc:
        report["csgd"] = {"error": str(exc)}
    return report
