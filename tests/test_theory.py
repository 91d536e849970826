import math
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest

from alignlab import (
    DegenerateBlockError,
    DegenerateStateError,
    InsufficientDataError,
    NoiseProfile,
    ParameterError,
    Spectrum,
    State,
    StepSizeError,
    UndefinedBoundError,
    UnsupportedNoiseError,
    block_stats,
    build_spectrum,
    crossover,
    crossover_gap_bounds,
    csgd_plan,
    drift_quadratic,
    eta_star_lower_bound,
    eta_star_upper_bound,
    expected_drift,
    expected_loss_change,
    expected_next_block_energy,
    expected_second_moment,
    g_gap,
    loss_threshold,
    mode_law,
    random_init,
    rescale_to_alignment,
    theory_report,
    theta_star,
    theta_star_rate_fit,
)
from alignlab import theory
from alignlab.harness import _state_above_theta_star

from helpers import decimal_aux_root, random_problem

# Oracle values for the 2-d fixture, each re-derivable by hand from the
# defining sums (verified against a 50-digit computation before freezing).
R0_FIXA = 9.0 + math.sqrt(85.0)
THETA_STAR_FIXA = R0_FIXA / (1.0 + R0_FIXA)  # 0.94796963...
THETA_CRIT_FIXA = (2.0 + math.sqrt(44.0)) / 10.0  # 0.86332495...
THETA_INF_FIXA = (4.0 / 36.0) / (4.0 / 36.0 + 0.1 / 1.9)  # 0.67857142...


def stats_of(fixa):
    spec, noise, state = fixa
    return block_stats(state, spec, noise)


class TestDriftQuadratic:
    def test_fixture_coefficients(self, fixa):
        dq = drift_quadratic(stats_of(fixa))
        assert dq.q == -8.0
        assert dq.p == 12.0
        assert dq.eta_star == pytest.approx(2.0 / 3.0, rel=1e-15)

    def test_dominant_only_state_collapses(self, fixa):
        spec, noise, _ = fixa
        st = block_stats(State(c=np.array([1.0, 0.0])), spec, noise)
        dq = drift_quadratic(st)
        assert st.s_b == st.tau_b == st.u_b == 0.0
        assert dq.p == pytest.approx(-st.s_d * st.e_b)
        assert dq.p <= 0.0

    def test_scaling_keeps_q_negative(self, fixa):
        spec, noise, state = fixa
        for a in (0.5, 2.0, 10.0):
            dq = drift_quadratic(block_stats(State(c=a * state.c), spec, noise))
            assert dq.q < 0

    def test_zero_state_rejected(self, fixa):
        spec, noise, _ = fixa
        with pytest.raises(DegenerateStateError):
            drift_quadratic(block_stats(State(c=np.zeros(2)), spec, noise))

    def test_q_negative_random_sweep(self):
        rng = np.random.default_rng(10)
        for _ in range(10_000):
            spec, noise, state = random_problem(rng)
            dq = drift_quadratic(block_stats(state, spec, noise))
            assert dq.q < 0


class TestExpectedDrift:
    def test_fixture_value(self, fixa):
        dq = drift_quadratic(stats_of(fixa))
        assert expected_drift(dq, 0.1) == pytest.approx(-0.68, rel=1e-14)

    def test_small_eta_sign_is_q_sign(self, fixa):
        dq = drift_quadratic(stats_of(fixa))
        assert expected_drift(dq, 1e-9) < 0

    def test_zero_at_critical_step(self, fixa):
        dq = drift_quadratic(stats_of(fixa))
        assert expected_drift(dq, dq.eta_star) == pytest.approx(0.0, abs=1e-14)

    # at 1e154 eta^2 is finite and p eta^2 overflows; above it eta^2 does
    @pytest.mark.parametrize("eta", [1e154, 1e200, 1e308])
    def test_overflowing_drift_rejected(self, fixa, eta):
        dq = drift_quadratic(stats_of(fixa))
        with pytest.raises(ParameterError, match="not finite"):
            expected_drift(dq, eta)


class TestGGap:
    def test_fixture_value(self, fixa):
        spec, noise, _ = fixa
        assert g_gap(spec, noise) == pytest.approx(0.8, rel=1e-15)

    def test_monotone_in_gap_ratio(self):
        rng = np.random.default_rng(11)
        values = []
        for m in (5.0, 50.0, 500.0):
            spec = Spectrum(
                lambdas=np.concatenate([np.full(5, m), np.ones(5)]), k=5
            )
            noise = NoiseProfile(kappa2=np.ones(10))
            values.append(g_gap(spec, noise))
        assert values[0] < values[1] < values[2] < 1.0
        assert values[2] > 0.999

    def test_boundary_limit_half(self):
        spec = Spectrum(lambdas=np.array([1.0 + 1e-9, 1.0]), k=1)
        noise = NoiseProfile(kappa2=np.ones(2))
        assert g_gap(spec, noise) == pytest.approx(0.5, abs=1e-8)

    def test_zero_noise_unsupported(self, fixa):
        spec, _, _ = fixa
        with pytest.raises(UnsupportedNoiseError):
            g_gap(spec, NoiseProfile(kappa2=np.zeros(2)))


class TestThetaStar:
    def test_fixture_values(self, fixa):
        spec, noise, _ = fixa
        rt = theta_star(stats_of(fixa), spec, noise)
        assert (rt.a_aux, rt.h_aux, rt.m_aux) == (1.0, 4.0, 15.0)
        assert rt.r0 == pytest.approx(R0_FIXA, rel=1e-14)
        assert rt.theta_star == pytest.approx(THETA_STAR_FIXA, rel=1e-14)
        assert rt.g_gap < rt.theta_star  # 0.8 < 0.948

    def test_threshold_ordering_random(self):
        rng = np.random.default_rng(12)
        for _ in range(500):
            spec, noise, state = random_problem(rng)
            rt = theta_star(block_stats(state, spec, noise), spec, noise)
            assert rt.g_gap < rt.theta_star

    def test_approaches_one_with_dominant_mass(self):
        noise = NoiseProfile(kappa2=np.ones(10))
        state = State(c=np.ones(10))
        last = 0.0
        for m in (2.0, 5.0, 20.0, 100.0, 500.0):
            spec = Spectrum(lambdas=np.concatenate([np.full(5, m), np.ones(5)]), k=5)
            rt = theta_star(block_stats(state, spec, noise), spec, noise)
            assert rt.theta_star > last
            last = rt.theta_star
        assert last > 0.999

    def test_root_solves_quadratic(self):
        rng = np.random.default_rng(13)
        for _ in range(200):
            spec, noise, state = random_problem(rng, d=20)
            rt = theta_star(block_stats(state, spec, noise), spec, noise)
            resid = rt.a_aux * rt.r0**2 + (rt.a_aux - rt.m_aux - rt.h_aux) * rt.r0 - rt.h_aux
            scale = max(rt.a_aux * rt.r0**2, rt.h_aux, abs((rt.a_aux - rt.m_aux - rt.h_aux) * rt.r0))
            assert abs(resid) <= 1e-9 * scale


    def test_root_keeps_its_bits_at_any_scale(self):
        # the weights are scaled by a power of two before the discriminant: a
        # root agrees bit for bit with the unscaled formula, and with itself
        # on weights scaled by 2^-960, where b*b underflows, or by 2^960,
        # where it overflows
        rng = np.random.default_rng(14)
        for _ in range(2000):
            a, m, h = map(float, np.exp(rng.uniform(-30.0, 30.0, 3)))
            root = theory._aux_root(a, m, h)
            b = a - m - h
            sq = math.sqrt(b * b + 4.0 * a * h)
            assert root == ((-b + sq) / (2.0 * a) if b <= 0 else (2.0 * h) / (b + sq))
            for e in (-960, 960):
                assert theory._aux_root(math.ldexp(a, e), math.ldexp(m, e), math.ldexp(h, e)) == root


class TestThetaStarRateFit:
    def test_exact_power_law(self):
        sweep = [(m, 1.0 - 3.0 / m**2) for m in (5.0, 10.0, 20.0, 50.0)]
        slope, intercept = theta_star_rate_fit(sweep)
        assert slope == pytest.approx(-2.0, abs=1e-9)
        assert intercept == pytest.approx(math.log(3.0), abs=1e-9)

    def test_constant_data_flags_flat(self):
        sweep = [(m, 0.9) for m in (5.0, 10.0, 20.0, 50.0)]
        slope, _ = theta_star_rate_fit(sweep)
        assert slope == pytest.approx(0.0, abs=1e-12)

    def test_insufficient_points(self):
        with pytest.raises(InsufficientDataError):
            theta_star_rate_fit([(5.0, 0.9), (10.0, 0.95), (20.0, 0.99)])
        with pytest.raises(InsufficientDataError):
            theta_star_rate_fit([(5.0, 0.9)] * 5)


class TestEtaStarBounds:
    def test_fixture_lower(self, fixa):
        spec, noise, state = fixa
        bound = eta_star_lower_bound(stats_of(fixa), spec, noise, state.norm2)
        assert bound == pytest.approx(2.0 / 5.5, rel=1e-14)
        assert bound <= 2.0 / 3.0

    def test_lower_limit_large_aligned_state(self, fixa):
        spec, noise, _ = fixa
        big = State(c=np.array([1e9, 1.0]))
        stats = block_stats(big, spec, noise)
        bound = eta_star_lower_bound(stats, spec, noise, big.norm2)
        assert bound == pytest.approx(2.0 * spec.gap1 / (spec.lambda_max**2 - spec.lambda_min**2), rel=1e-6)

    def test_lower_requires_alignment(self, fixa):
        spec, noise, _ = fixa
        stats = block_stats(State(c=np.array([0.0, 1.0])), spec, noise)
        with pytest.raises(UndefinedBoundError):
            eta_star_lower_bound(stats, spec, noise, 1.0)

    def test_fixture_upper_tight(self, fixa):
        spec, noise, _ = fixa
        stats = stats_of(fixa)
        assert stats.e_b / (stats.e_b + stats.e_d) == pytest.approx(0.2)
        assert eta_star_upper_bound(stats, spec) == pytest.approx(2.0 / 3.0, rel=1e-15)

    def test_upper_gated_on_low_alignment(self, fixa):
        spec, noise, _ = fixa
        low = block_stats(State(c=np.array([0.01, 10.0])), spec, noise)
        assert low.theta < low.e_b / (low.e_b + low.e_d)
        assert eta_star_upper_bound(low, spec) is None

    def test_upper_collapsed_spectrum_form(self):
        spec = Spectrum(lambdas=np.array([3.0, 3.0, 1.0, 1.0]), k=2)
        noise = NoiseProfile(kappa2=np.ones(4))
        stats = block_stats(State(c=np.ones(4)), spec, noise)
        expected = 2.0 * (3.0 - 1.0) / (3.0 * 3.0 - 1.0 * 1.0)  # = 2/(l1+ld)
        assert eta_star_upper_bound(stats, spec) == pytest.approx(expected)
        assert expected == pytest.approx(2.0 / (3.0 + 1.0))

    def test_lower_bound_brackets_eta_star_random(self):
        rng = np.random.default_rng(14)
        checked = 0
        for _ in range(500):
            spec, noise, state = random_problem(rng)
            stats = block_stats(state, spec, noise)
            dq = drift_quadratic(stats)
            if dq.p > 0:
                lower = eta_star_lower_bound(stats, spec, noise, state.norm2)
                assert lower <= dq.eta_star * (1 + 1e-12)
                checked += 1
        assert checked > 50

    def test_upper_bound_brackets_eta_star_on_its_validity_family(self):
        # The stated constant and gate are provably sufficient only when each
        # block is spectrally degenerate and the noise sits in the dominant
        # block (the noise residual s_b*e_D - s_d*e_B is then nonnegative for
        # every state); on wider families the stated gate does not control the
        # residual's sign and the bound genuinely fails.
        rng = np.random.default_rng(20)
        checked = 0
        for _ in range(500):
            spec, noise, state = random_problem(
                rng, degenerate_blocks=True, dominant_noise_only=True
            )
            stats = block_stats(state, spec, noise)
            dq = drift_quadratic(stats)
            upper = eta_star_upper_bound(stats, spec)
            assert upper is not None  # e_B = 0 always passes the gate
            if dq.p > 0:
                assert dq.eta_star <= upper * (1 + 1e-12)
                checked += 1
        assert checked > 50


class TestLossThreshold:
    def test_fixture_values(self, fixa):
        stats = stats_of(fixa)
        assert loss_threshold(stats, "D") == pytest.approx(0.8, rel=1e-15)
        assert loss_threshold(stats, "B") == pytest.approx(1.0, rel=1e-15)

    def test_noiseless_single_mode_matches_descent_limit(self):
        spec = Spectrum(lambdas=np.array([2.0, 1.0]), k=1)
        noise = NoiseProfile(kappa2=np.zeros(2))
        stats = block_stats(State(c=np.array([1.0, 1.0])), spec, noise)
        assert loss_threshold(stats, "D") == pytest.approx(2.0 / 2.0)
        assert loss_threshold(stats, "B") == pytest.approx(2.0 / 1.0)

    def test_zero_signal_gives_zero(self, fixa):
        spec, noise, _ = fixa
        stats = block_stats(State(c=np.array([0.0, 1.0])), spec, noise)
        assert loss_threshold(stats, "D") == 0.0

    def test_fully_degenerate_block_rejected(self):
        spec = Spectrum(lambdas=np.array([2.0, 1.0]), k=1)
        noise = NoiseProfile(kappa2=np.zeros(2))
        stats = block_stats(State(c=np.array([0.0, 1.0])), spec, noise)
        with pytest.raises(DegenerateBlockError):
            loss_threshold(stats, "D")


class TestExpectedLossChange:
    def test_fixture_values(self, fixa):
        stats = stats_of(fixa)
        # -eta s + eta^2 (tau + n_loss)/2 with (s, tau + n_loss) = (4, 10) on D and (1, 2) on B
        assert expected_loss_change(stats, "D", 0.3) == pytest.approx(-0.75, rel=1e-14)
        assert expected_loss_change(stats, "B", 0.3) == pytest.approx(-0.21, rel=1e-14)

    @pytest.mark.parametrize("block", ["D", "B"])
    def test_zero_at_loss_threshold(self, fixa, block):
        stats = stats_of(fixa)
        assert expected_loss_change(stats, block, loss_threshold(stats, block)) == pytest.approx(0.0, abs=1e-14)

    def test_negative_step_rejected(self, fixa):
        with pytest.raises(ParameterError, match=">= 0"):
            expected_loss_change(stats_of(fixa), "D", -0.1)

    # at 1e154 eta^2 is finite and the curvature term overflows; above it eta^2 does
    @pytest.mark.parametrize("eta", [1e154, 1e200, 1e308, math.inf, math.nan])
    def test_non_finite_change_rejected(self, fixa, eta):
        with pytest.raises(ParameterError, match="loss change at eta=.* is not finite"):
            expected_loss_change(stats_of(fixa), "D", eta)


class TestCrossover:
    def test_fixture_values(self, fixa):
        cq = crossover(stats_of(fixa))
        assert (cq.alpha, cq.beta, cq.gamma) == (5.0, -2.0, -2.0)
        assert cq.theta_crit == pytest.approx(THETA_CRIT_FIXA, rel=1e-14)

    def test_fixture_sign_consistency(self, fixa):
        stats = stats_of(fixa)
        cq = crossover(stats)
        assert stats.theta < cq.theta_crit
        assert loss_threshold(stats, "D") < loss_threshold(stats, "B")

    def test_fixture_rate_bounds(self, fixa):
        spec, _, _ = fixa
        stats = stats_of(fixa)
        lo, hi = crossover_gap_bounds(stats, spec)
        assert lo == pytest.approx(0.125, rel=1e-15)
        assert hi == pytest.approx(0.2, rel=1e-15)
        gap = crossover(stats).theta_crit_gap
        assert lo <= gap <= hi

    def test_sign_agreement_random_general_spectra(self):
        rng = np.random.default_rng(15)
        for _ in range(2000):
            spec, noise, state = random_problem(rng)
            stats = block_stats(state, spec, noise)
            cq = crossover(stats)
            diff = loss_threshold(stats, "D") - loss_threshold(stats, "B")
            lhs = math.copysign(1.0, diff)
            rhs = math.copysign(1.0, stats.theta - cq.theta_crit)
            assert lhs == rhs

    def test_boundary_values_of_h(self, fixa):
        cq = crossover(stats_of(fixa))
        stats = stats_of(fixa)
        assert cq(0.0) == cq.gamma < 0
        assert cq(1.0) == pytest.approx(stats.n_loss_b)

    def test_degenerate_block_rejected(self, fixa):
        spec, noise, _ = fixa
        with pytest.raises(DegenerateBlockError):
            crossover(block_stats(State(c=np.array([1.0, 0.0])), spec, noise))

    def test_no_bulk_noise(self):
        # n_B = 0: the loss thresholds never swap, theta_crit = 1 exactly
        rng = np.random.default_rng(19)
        for _ in range(50):
            spec, noise, state = random_problem(rng, dominant_noise_only=True)
            cq = crossover(block_stats(state, spec, noise))
            assert (cq.theta_crit, cq.theta_crit_gap) == (1.0, 0.0)

    def test_no_dominant_noise(self, fixa):
        # n_D = 0: h(theta) = theta (alpha theta - alpha + n_B), so
        # theta_crit = 1 - n_B / alpha = 1 - 1/5 on fixa
        spec, _, state = fixa
        cq = crossover(block_stats(state, spec, NoiseProfile(kappa2=np.array([0.0, 1.0]))))
        assert cq.gamma == 0.0
        assert (cq.theta_crit, cq.theta_crit_gap) == (0.8, 0.2)

    @pytest.mark.parametrize("degenerate", [False, True], ids=["general", "degenerate"])
    def test_gap_matches_a_decimal_solve(self, degenerate):
        # 1 - theta_crit = 1/(1 + r) against the root of n_B r^2 + (n_B -
        # alpha - n_D) r - n_D solved in 60 digits from the same weights
        rng = np.random.default_rng(20 + degenerate)
        worst = 0.0
        for _ in range(2000):
            spec, noise, state = random_problem(rng, degenerate_blocks=degenerate)
            stats = block_stats(state, spec, noise)
            cq = crossover(stats)
            exact = 1 / (1 + decimal_aux_root(stats.n_loss_b, cq.alpha, stats.n_loss_d))
            worst = max(worst, float(abs(Decimal(cq.theta_crit_gap) - exact) / exact))
        assert worst <= 1e-15


class TestCsgdPlan:
    def test_fixture_plan(self, fixa):
        spec, noise, state = fixa
        plan = csgd_plan(spec, noise, state, 0.1)
        assert plan.beta_coeffs[0] == pytest.approx(1.0 / 36.0, rel=1e-14)
        assert plan.beta_coeffs[1] == pytest.approx(0.1 / 1.9, rel=1e-14)
        assert plan.varrho_d == pytest.approx(35.0 / 36.0, rel=1e-14)
        assert plan.delta == pytest.approx(16.0 / 68.0, rel=1e-14)
        assert plan.flags.all_ok
        assert plan.t_star == 3
        assert plan.theta_inf == pytest.approx(THETA_INF_FIXA, rel=1e-14)

    def test_step_too_large(self, fixa):
        spec, noise, state = fixa
        with pytest.raises(StepSizeError):
            csgd_plan(spec, noise, state, 1.0)  # 2/lambda_1 = 1

    def test_small_step_isotropic_limit(self):
        spec = Spectrum(lambdas=np.array([4.0, 3.0, 1.0, 0.5]), k=2)
        noise = NoiseProfile(kappa2=np.ones(4))
        state = State(c=np.ones(4))
        plan = csgd_plan(spec, noise, state, 1e-7)
        expected = (4.0 + 3.0) / (4.0 + 3.0 + 1.0 + 0.5)
        assert plan.theta_inf == pytest.approx(expected, rel=1e-6)

    def test_small_init_blocks_t_star(self, fixa):
        spec, noise, _ = fixa
        tiny = State(c=np.array([0.2, 0.2]))  # varrho below the floor gap
        plan = csgd_plan(spec, noise, tiny, 0.1)
        assert not plan.flags.init_energy_ok
        assert plan.t_star is None

    @pytest.mark.parametrize("scale", [1e155, 1e200])
    def test_energy_past_float_range_leaves_t_star_undefined(self, fixa, scale):
        # c^2 overflows, so varrho_d and the ratio it enters are infinite and
        # the phase length has no finite value
        spec, noise, _ = fixa
        plan = csgd_plan(spec, noise, State(c=np.array([scale, 1.0])), 0.1)
        assert plan.varrho_d == math.inf
        assert plan.t_star is None
        assert plan.theta_inf == pytest.approx(THETA_INF_FIXA, rel=1e-14)

    @pytest.mark.parametrize("eta", [1e-300, 1e-305])
    def test_tiny_step_t_star_free_of_cancellation(self, fixa, eta):
        # (1 - 2 eta)^2 rounds to 1, while -log of it is 4 eta to double precision
        spec, noise, state = fixa
        plan = csgd_plan(spec, noise, state, eta)
        assert plan.flags.all_ok
        ratio = plan.varrho_d / (plan.delta - plan.beta_coeffs[0])
        assert plan.t_star == math.floor(math.log(ratio) / (4.0 * eta))

    def test_phase_length_past_float_range_is_undefined(self, fixa):
        # log(ratio) / (4 eta) overflows the float range
        plan = csgd_plan(*fixa, 3e-307)
        assert plan.flags.all_ok
        assert plan.t_star is None

    def test_delta_near_the_gap_cap(self):
        # the golden report problem one float below eta = 2 gap1 / spread2,
        # where 2 gap1 / eta and spread2 agree to rounding in delta's bracket;
        # from the cap on delta is undefined
        spec = build_spectrum(24, 4, 8.0, (0.5, 1.0), seed=5)
        noise, state = NoiseProfile(kappa2=np.ones(24)), random_init(24, 3.0, seed=6)
        cap = theory._gap_step(spec)
        assert csgd_plan(spec, noise, state, math.nextafter(cap, 1.0)).delta is None
        eta = math.nextafter(cap, 0.0)
        assert eta == 0.21977893265592466
        plan = csgd_plan(spec, noise, state, eta)
        with localcontext(prec=60):
            lam = [Decimal(x) for x in spec.lambdas.tolist()]
            gap1, spread2 = lam[3] - lam[4], lam[0] ** 2 - lam[-1] ** 2
            psi_d = sum(x * x for x in lam[:4])
            exact = psi_d * lam[0] ** 2 / (lam[-1] ** 2 * lam[3] ** 2 * (2 * gap1 / Decimal(eta) - spread2))
        assert abs(Decimal(plan.delta) - exact) / exact <= Decimal(1e-15)

    def test_beta_positive_when_stable(self):
        rng = np.random.default_rng(16)
        for _ in range(100):
            spec, _, state = random_problem(rng, d=20)
            noise = NoiseProfile(kappa2=np.full(20, 0.5))
            eta = 1.9 / spec.lambda_max
            plan = csgd_plan(spec, noise, state, eta)
            assert np.all(plan.beta_coeffs > 0)

    def test_theta_inf_monotone_in_gap_sweep(self):
        noise = NoiseProfile(kappa2=np.ones(12))
        state = State(c=np.ones(12))
        last = 0.0
        for m in (2.0, 5.0, 20.0, 100.0):
            spec = Spectrum(lambdas=np.concatenate([np.full(3, m), np.ones(9)]), k=3)
            plan = csgd_plan(spec, noise, state, 0.1 / m)
            assert 0.0 < plan.theta_inf < 1.0
            assert plan.theta_inf > last
            last = plan.theta_inf


class TestSecondMoments:
    def test_closed_form_example(self):
        assert expected_second_moment(1.0, 2.0, 1.0, 0.1, 1) == pytest.approx(0.65, rel=1e-14)

    def test_t_zero_returns_initial(self):
        assert expected_second_moment(1.7, 2.0, 1.0, 0.1, 0) == pytest.approx(1.7**2)

    def test_monotone_decay_to_beta(self):
        beta = 0.1 / (2 * 2 - 0.1 * 4)
        values = [expected_second_moment(1.0, 2.0, 1.0, 0.1, t) for t in (0, 1, 5, 50, 500)]
        assert all(a > b for a, b in zip(values, values[1:]))
        assert values[-1] == pytest.approx(beta, rel=1e-6)

    def test_step_size_domain(self):
        with pytest.raises(StepSizeError):
            expected_second_moment(1.0, 2.0, 1.0, 1.0, 1)
        with pytest.raises(StepSizeError):
            expected_second_moment(1.0, 2.0, 1.0, 0.0, 1)


def exact_second_moments(c0, lam, kappa2, eta, t):
    """(sigma^2, E[c_t^2], Var c_t^2) of the mode law in exact rational arithmetic."""
    c0, lam, kappa2, eta = map(Fraction, (c0, lam, kappa2, eta))
    a = 1 - eta * lam
    beta = eta * kappa2 / (2 * lam - eta * lam**2)
    mu2 = (a**t * c0) ** 2
    sigma2 = beta * (1 - a ** (2 * t))
    return sigma2, mu2 + sigma2, 2 * sigma2**2 + 4 * mu2 * sigma2


class TestModeLaw:
    @pytest.mark.parametrize("t", [0, 1, 2, 3, 10, 1000])
    @pytest.mark.parametrize("x", [1e-12, 1e-9, 1e-6, 1e-3, 0.3, 1.0, 1.3, 1.9])
    def test_second_moments_free_of_cancellation(self, x, t):
        # 1 - a^(2t) formed from a rounded a loses digits as eta*lam -> 0
        for lam in (1.0, 3.0):
            for c0 in (0.0, 1.0):
                eta = x / lam
                sigma2, moment, variance = exact_second_moments(c0, lam, 0.7, eta, t)
                mu, got_sigma2 = (float(v) for v in mode_law(c0, lam, 0.7, eta, t))
                got_moment = mu**2 + got_sigma2
                got_variance = 2.0 * got_sigma2**2 + 4.0 * mu**2 * got_sigma2
                assert abs(Fraction(got_sigma2) - sigma2) <= Fraction(1e-14) * sigma2
                assert abs(Fraction(got_moment) - moment) <= Fraction(1e-14) * moment
                assert expected_second_moment(c0, lam, 0.7, eta, t) == got_moment
                assert abs(Fraction(got_variance) - variance) <= Fraction(1e-14) * variance

    def test_stationary_law_is_csgd_beta_bit_for_bit(self):
        spec = build_spectrum(24, 4, 8.0, (0.5, 1.0), seed=5)
        noise = NoiseProfile(kappa2=np.linspace(0.5, 2.0, 24))
        state = State(c=np.linspace(-3.0, 3.0, 24))
        eta, lam = 0.2, spec.lambdas
        mean, var = mode_law(state.c, lam, noise.kappa2, eta, math.inf)
        assert np.array_equal(var, eta * noise.kappa2 / (2.0 * lam - eta * lam**2))
        assert np.array_equal(var, csgd_plan(spec, noise, state, eta).beta_coeffs)
        assert np.all(mean == 0.0)

    def test_t_zero_is_the_start(self):
        c0 = np.array([1.5, -2.0, 0.0])
        mean, var = mode_law(c0, np.array([1.0, 0.5, 1.9]), 1.0, 1.0, 0)
        assert np.array_equal(mean, c0)
        assert np.array_equal(var, np.zeros(3))

    @pytest.mark.parametrize("t", [0, 1, 2, math.inf])
    def test_a_zero_forgets_the_start(self, t):
        # eta*lam = 1: log|a| = -inf, with no NaN and no RuntimeWarning
        mean, var = mode_law(2.0, 2.0, 1.0, 0.5, t)
        assert mean == (2.0 if t == 0 else 0.0)
        assert var == (0.0 if t == 0 else 0.25)

    def test_negative_a_alternates(self):
        mean, var = mode_law(1.0, 1.5, 1.0, 1.0, 3)
        assert mean == -0.125
        assert var == pytest.approx((1.0 - 0.5**6) / 0.75, rel=1e-15)

    def test_domain(self):
        lam = np.array([1.0, 2.0])
        for eta in (0.0, 1.0, -0.1, math.nan):
            with pytest.raises(StepSizeError):
                mode_law(1.0, lam, 1.0, eta, 1)
        with pytest.raises(ParameterError):
            mode_law(1.0, lam, 1.0, 0.5, -1)


class TestNextBlockEnergy:
    def test_fixture_values(self, fixa):
        stats = stats_of(fixa)
        assert expected_next_block_energy(stats, 0.1, "D") == pytest.approx(2.6, rel=1e-14)
        assert expected_next_block_energy(stats, 0.1, "B") == pytest.approx(0.82, rel=1e-14)

    def test_eta_zero_identity(self, fixa):
        stats = stats_of(fixa)
        assert expected_next_block_energy(stats, 0.0, "D") == stats.s_d
        assert expected_next_block_energy(stats, 0.0, "B") == stats.s_b

    # at 1e154 eta^2 is finite and the curvature term overflows; above it eta^2 does
    @pytest.mark.parametrize("eta", [1e154, 1e200, 1e308, math.inf, math.nan])
    def test_non_finite_energy_rejected(self, fixa, eta):
        with pytest.raises(ParameterError, match="next block energy at eta=.* is not finite"):
            expected_next_block_energy(stats_of(fixa), eta, "D")

    def test_bilinearity_matches_drift(self):
        rng = np.random.default_rng(17)
        for _ in range(300):
            spec, noise, state = random_problem(rng)
            stats = block_stats(state, spec, noise)
            dq = drift_quadratic(stats)
            eta = float(np.exp(rng.uniform(np.log(1e-4), np.log(1.0))))
            term_d = stats.s_b * expected_next_block_energy(stats, eta, "D")
            term_b = stats.s_d * expected_next_block_energy(stats, eta, "B")
            direct = expected_drift(dq, eta)
            # identity is exact; tolerance is relative to the products being
            # differenced (the s_b*s_d constant terms cancel only in real
            # arithmetic)
            scale = max(abs(term_d), abs(term_b), abs(direct))
            assert abs((term_d - term_b) - direct) <= 1e-12 * scale


class TestRegimeConsistency:
    def test_low_alignment_implies_p_positive(self):
        rng = np.random.default_rng(18)
        for _ in range(300):
            spec, noise, state = random_problem(rng)
            gg = g_gap(spec, noise)
            frac = float(rng.uniform(0.05, 1.0))
            low = rescale_to_alignment(state, spec, frac * gg)
            dq = drift_quadratic(block_stats(low, spec, noise))
            assert dq.p > 0

    def test_high_alignment_implies_p_nonpositive(self):
        rng = np.random.default_rng(19)
        for _ in range(100):
            spec, noise, state = random_problem(rng, d=20)
            high = _state_above_theta_star(state, spec, noise)
            stats = block_stats(high, spec, noise)
            rt = theta_star(stats, spec, noise)
            assert stats.theta >= rt.theta_star
            dq = drift_quadratic(stats)
            assert dq.p <= 0


class TestTheoryReport:
    def test_fixture_report_values(self, fixa):
        spec, noise, state = fixa
        report = theory_report(spec, noise, state, 0.1)
        assert report["eta_star"] == pytest.approx(2.0 / 3.0)
        assert report["g_gap"] == pytest.approx(0.8)
        assert report["theta_star"] == pytest.approx(THETA_STAR_FIXA)
        assert report["theta_crit"] == pytest.approx(THETA_CRIT_FIXA)
        assert report["eta_loss_d"] == pytest.approx(0.8)
        assert report["eta_loss_b"] == pytest.approx(1.0)
        assert report["csgd"]["theta_inf"] == pytest.approx(THETA_INF_FIXA)
        assert report["csgd"]["t_star"] == 3

    def test_zero_state_marks_undefined(self, fixa):
        spec, noise, _ = fixa
        report = theory_report(spec, noise, State(c=np.zeros(2)), 0.1)
        assert report["theta"] == 0.0
        for key in ("p", "q", "eta_star", "theta_star", "theta_crit", "eta_loss_d"):
            assert report[key] is None
