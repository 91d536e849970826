import numpy as np
import pytest

from alignlab import (
    InsufficientDataError,
    NoiseProfile,
    ParameterError,
    Spectrum,
    State,
    block_stats,
    drift_quadratic,
    drift_sign_test,
    expected_drift,
    expected_next_block_energy,
    late_phase_statistic,
    one_step_estimates,
    phase1_decay_fit,
    projected_loss_test,
    rescale_to_alignment,
    run_trajectory,
    sgd_step,
    suggest_phase2_start,
)
from alignlab.dynamics import TrajectoryRecord
from alignlab.harness import _state_above_theta_star

from helpers import random_problem

# E[theta_{t+1}] for the 2-d fixture at eta=0.1, frozen from two independent
# quadratures (400-node Gauss-Hermite grid and adaptive integration agree to
# 13 digits).
NEXT_THETA_FIXA = 0.753720001400620


def one_step(state, spec, noise, eta, n, seed):
    """one_step_estimates at a single step size."""
    return one_step_estimates(state, spec, noise, [eta], n, seed)[eta]


class TestConditionalAlignment:
    def test_noiseless_is_deterministic(self, fixa):
        spec, _, state = fixa
        silent = NoiseProfile(kappa2=np.zeros(2))
        est = one_step(state, spec, silent, 0.1, 500, seed=0)["theta_next"]
        assert est.stderr == 0.0
        expected = block_stats(sgd_step(state, spec, np.zeros(2), 0.1), spec, silent).theta
        assert est.mean == pytest.approx(expected, rel=1e-15)

    def test_matches_quadrature_oracle(self, fixa):
        spec, noise, state = fixa
        est = one_step(state, spec, noise, 0.1, 100_000, seed=11)["theta_next"]
        assert abs(est.mean - NEXT_THETA_FIXA) <= 4.0 * est.stderr

    def test_small_n_rejected(self, fixa):
        spec, noise, state = fixa
        with pytest.raises(ParameterError):
            one_step(state, spec, noise, 0.1, 10, seed=0)


class TestFDrift:
    def test_matches_exact_expectation(self, fixa):
        spec, noise, state = fixa
        est = one_step(state, spec, noise, 0.1, 100_000, seed=12)["f"]
        assert abs(est.mean - (-0.68)) <= 4.0 * est.stderr

    def test_zero_at_critical_step(self, fixa):
        spec, noise, state = fixa
        est = one_step(state, spec, noise, 2.0 / 3.0, 100_000, seed=13)["f"]
        assert abs(est.mean) <= 4.0 * est.stderr

    def test_noiseless_small_step_is_negative_constant(self, fixa):
        spec, _, state = fixa
        silent = NoiseProfile(kappa2=np.zeros(2))
        est = one_step(state, spec, silent, 0.01, 500, seed=0)["f"]
        assert est.stderr == 0.0 and est.mean < 0


class TestNextBlockEnergy:
    def test_matches_closed_form_both_blocks(self, fixa):
        spec, noise, state = fixa
        stats = block_stats(state, spec, noise)
        ests = one_step(state, spec, noise, 0.1, 100_000, seed=14)
        for block, target in (("D", 2.6), ("B", 0.82)):
            est = ests[f"s{block}_next"]
            assert expected_next_block_energy(stats, 0.1, block) == pytest.approx(target)
            assert abs(est.mean - target) <= 5.0 * est.stderr


class TestEstimatorMechanics:
    def test_bitwise_deterministic_given_seed(self, fixa):
        spec, noise, state = fixa
        a = one_step(state, spec, noise, 0.1, 30_000, seed=9)["f"]
        b = one_step(state, spec, noise, 0.1, 30_000, seed=9)["f"]
        assert (a.mean, a.stderr) == (b.mean, b.stderr)

    def test_shared_seed_shares_draws_across_etas(self, fixa):
        # common random numbers: the multi-eta call and single-eta calls with
        # the same seed see identical noise, hence identical means and stderrs
        spec, noise, state = fixa
        etas = [0.05, 0.1, 0.4]
        multi = one_step_estimates(state, spec, noise, etas, 20_001, seed=4)
        for eta in etas:
            assert multi[eta] == one_step(state, spec, noise, eta, 20_001, seed=4)

    def test_stderr_halves_when_n_quadruples(self, fixa):
        spec, noise, state = fixa
        small = one_step(state, spec, noise, 0.1, 25_000, seed=5)["f"]
        big = one_step(state, spec, noise, 0.1, 100_000, seed=6)["f"]
        assert big.stderr == pytest.approx(small.stderr / 2.0, rel=0.2)

    def test_mc_mean_tracks_closed_form_random_problems(self):
        rng = np.random.default_rng(22)
        for _ in range(10):
            spec, noise, state = random_problem(rng, d=10)
            stats = block_stats(state, spec, noise)
            dq = drift_quadratic(stats)
            eta = 0.5 / spec.lambda_max
            out = one_step_estimates(state, spec, noise, [eta], 40_000, seed=int(rng.integers(2**31)))
            est = out[eta]
            assert abs(est["f"].mean - expected_drift(dq, eta)) <= 5.0 * est["f"].stderr
            assert abs(est["sD_next"].mean - expected_next_block_energy(stats, eta, "D")) <= 5.0 * est["sD_next"].stderr
            assert abs(est["sB_next"].mean - expected_next_block_energy(stats, eta, "B")) <= 5.0 * est["sB_next"].stderr


class TestThreadCountInvariance:
    # 20_001 is not a multiple of the batch size: two full batches and a short one
    N = 20_001

    def _under_threads(self, monkeypatch, run):
        results = []
        for threads in ("1", "2", "3"):
            monkeypatch.setenv("ALIGNLAB_THREADS", threads)
            results.append(run())
        return results

    def test_one_step_estimates(self, monkeypatch):
        spec, noise, state = random_problem(np.random.default_rng(24), d=50)
        etas = [f / spec.lambda_max for f in (0.1, 0.5, 1.5)]
        a, b, c = self._under_threads(
            monkeypatch, lambda: one_step_estimates(state, spec, noise, etas, self.N, seed=17)
        )
        assert a == b == c
        assert a[etas[0]]["f"].n == self.N

    @pytest.mark.parametrize("block", ["D", "B"])
    def test_projected_loss_test(self, monkeypatch, block):
        spec, noise, state = random_problem(np.random.default_rng(25), d=50)
        a, b, c = self._under_threads(
            monkeypatch, lambda: projected_loss_test(state, spec, noise, 0.3, block, self.N, seed=18)
        )
        assert a == b == c
        assert a.verdict.estimate.n == self.N


class TestDriftSignTest:
    def test_small_step_confirms_decrease(self, fixa):
        spec, noise, state = fixa
        res = drift_sign_test(state, spec, noise, 0.1, 50_000, seed=30)
        assert res.f_drift.predicted_sign == "-"
        assert res.f_drift.verdict == "confirmed"
        assert res.eta_star == pytest.approx(2.0 / 3.0)

    def test_large_step_confirms_increase_below_g_gap(self):
        rng = np.random.default_rng(23)
        spec, noise, state = random_problem(rng, d=50, isotropic_only=True)
        from alignlab import g_gap

        low = rescale_to_alignment(state, spec, 0.5 * g_gap(spec, noise), "dominant")
        dq = drift_quadratic(block_stats(low, spec, noise))
        assert dq.p > 0
        res = drift_sign_test(low, spec, noise, 2.0 * dq.eta_star, 50_000, seed=31)
        assert res.f_drift.predicted_sign == "+"
        assert res.f_drift.verdict == "confirmed"
        assert res.regime == "low"

    def test_high_alignment_decreases_for_any_step(self):
        rng = np.random.default_rng(24)
        spec, noise, state = random_problem(rng, d=50, isotropic_only=True)
        high = _state_above_theta_star(state, spec, noise)
        dq = drift_quadratic(block_stats(high, spec, noise))
        assert dq.p <= 0
        for eta in (0.01 / spec.lambda_max, 1.0 / spec.lambda_max, 10.0 / spec.lambda_max):
            res = drift_sign_test(high, spec, noise, eta, 50_000, seed=32)
            assert res.f_drift.predicted_sign == "-"
            assert res.f_drift.verdict in ("confirmed", "inconclusive")
            assert res.regime == "high"

    def test_critical_step_is_inconclusive(self, fixa):
        spec, noise, state = fixa
        res = drift_sign_test(state, spec, noise, 2.0 / 3.0, 50_000, seed=33)
        assert res.f_drift.predicted_sign == "0"
        assert res.f_drift.verdict == "inconclusive"

    def test_sample_floor(self, fixa):
        spec, noise, state = fixa
        with pytest.raises(ParameterError):
            drift_sign_test(state, spec, noise, 0.1, 500, seed=0)


class TestProjectedLossTest:
    def test_boundary_step_inconclusive(self, fixa):
        spec, noise, state = fixa
        res = projected_loss_test(state, spec, noise, 0.8, "D", 50_000, seed=40)
        assert res.target == pytest.approx(0.0, abs=1e-14)
        assert res.verdict.predicted_sign == "0"
        assert res.verdict.verdict == "inconclusive"
        assert res.eta_loss == pytest.approx(0.8)

    def test_between_thresholds_dominant_up_bulk_down(self, fixa):
        spec, noise, state = fixa
        up = projected_loss_test(state, spec, noise, 0.9, "D", 100_000, seed=41)
        assert up.verdict.predicted_sign == "+"
        assert up.verdict.verdict == "confirmed"
        assert up.target_ok
        down = projected_loss_test(state, spec, noise, 0.9, "B", 100_000, seed=41)
        assert down.verdict.predicted_sign == "-"
        assert down.verdict.verdict == "confirmed"
        assert down.target_ok

    def test_tiny_step_decreases(self, fixa):
        spec, noise, state = fixa
        res = projected_loss_test(state, spec, noise, 0.01, "D", 50_000, seed=42)
        assert res.verdict.predicted_sign == "-"
        assert res.verdict.verdict == "confirmed"

    def test_closed_form_target(self, fixa):
        spec, noise, state = fixa
        stats = block_stats(state, spec, noise)
        res = projected_loss_test(state, spec, noise, 0.3, "D", 50_000, seed=43)
        expected = -0.3 * stats.s_d + 0.5 * 0.3**2 * (stats.tau_d + stats.n_loss_d)
        assert res.target == pytest.approx(expected, rel=1e-14)
        assert res.target_ok


class TestTrajectoryStatistics:
    def test_constant_series(self):
        traj = TrajectoryRecord(
            times=np.arange(0, 110, 10),
            thetas=np.full(11, 0.7),
            losses=np.ones(11),
        )
        mean, std = late_phase_statistic(traj, 50)
        assert mean == pytest.approx(0.7, rel=1e-15)
        assert std <= 1e-15

    def test_window_bounds(self):
        traj = TrajectoryRecord(times=np.array([0, 10]), thetas=np.array([0.5, 0.6]), losses=np.ones(2))
        with pytest.raises(ParameterError):
            late_phase_statistic(traj, 10)

    def test_power_law_fit_exact(self):
        t = np.arange(1, 101)
        traj = TrajectoryRecord(times=t, thetas=t**-0.5, losses=np.ones(100))
        slope, r2 = phase1_decay_fit(traj, 100)
        assert slope == pytest.approx(-0.5, abs=1e-12)
        assert r2 == pytest.approx(1.0, abs=1e-12)

    def test_fit_needs_points(self):
        t = np.arange(1, 4)
        traj = TrajectoryRecord(times=t, thetas=t**-0.5, losses=np.ones(3))
        with pytest.raises(InsufficientDataError):
            phase1_decay_fit(traj, 3)

    def test_noiseless_fit_deterministic(self, fixa):
        spec, _, state = fixa
        silent = NoiseProfile(kappa2=np.zeros(2))
        a = run_trajectory(spec, silent, state, 0.1, 100, 1, seed=0)
        b = run_trajectory(spec, silent, state, 0.1, 100, 1, seed=1)
        fa = phase1_decay_fit(a, 100)
        fb = phase1_decay_fit(b, 100)
        assert fa == fb

    def test_phase2_heuristic_finds_dip(self):
        t = np.arange(0, 200)
        theta = np.concatenate([np.linspace(0.9, 0.2, 100), np.linspace(0.2, 0.8, 100)])
        traj = TrajectoryRecord(times=t, thetas=theta, losses=np.ones(200))
        start = suggest_phase2_start(traj)
        assert 80 <= start <= 120
