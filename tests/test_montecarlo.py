import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import alignlab

from alignlab import (
    InsufficientDataError,
    build_spectrum,
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
    suggest_phase2_start,
)
from alignlab import montecarlo
from alignlab.dynamics import TrajectoryRecord
from alignlab.harness import _state_above_theta_star
from alignlab.montecarlo import (
    _block_sums,
    _estimate,
    _one_step_estimates,
    _one_step_kernel,
    _projected_estimates,
    _projected_kernel,
)

from helpers import random_problem, sgd_step, shared_draw_problem

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


def kernel_rows(kernel, k, z):
    """A kernel's per-sample rows from one whole draw z (overwritten)."""
    sums = np.empty((3, 2, len(z)))
    _block_sums(z, k, [kernel.a, kernel.b], kernel.q, sums)
    return kernel.finish(*sums)


def direct_one_step(state, spec, noise, eta, z):
    """Per-sample (f, sD_next, sB_next, theta_next) from the (n, d) update
    written out, and the size of the two products f subtracts."""
    lam, k = spec.lambdas, spec.k
    w = lam**2 * ((1.0 - eta * lam) * state.c - eta * np.sqrt(noise.kappa2) * z) ** 2
    s_d1, s_b1 = w[:, :k].sum(axis=1), w[:, k:].sum(axis=1)
    w0 = lam**2 * state.c**2
    s_d0, s_b0 = w0[:k].sum(), w0[k:].sum()
    return (s_b0 * s_d1 - s_d0 * s_b1, s_d1, s_b1, s_d1 / (s_d1 + s_b1)), s_b0 * s_d1 + s_d0 * s_b1


def wide_blocks_problem(seed, d, degenerate=False):
    """A random triple whose blocks both hold at least two coordinates."""
    rng = np.random.default_rng(seed)
    k = int(rng.integers(2, d - 1))
    bulk = (0.5, 0.5) if degenerate else (0.5, 1.0)
    spec = build_spectrum(d, k, float(rng.uniform(2.0, 50.0)), bulk, 0.0 if degenerate else 0.3, seed=seed)
    noise = NoiseProfile(kappa2=np.exp(rng.normal(0.0, 1.0, d)))
    state = State(c=rng.normal(0.0, 2.0, d))
    return spec, noise, state


class TestSufficientStatisticsKernel:
    """The one-step kernel works from six block-wise sums per draw; its
    per-sample statistics must equal the update written out on (n, d)."""

    @pytest.mark.parametrize("d", [10, 50, 200])
    @pytest.mark.parametrize("degenerate", [False, True])
    def test_per_sample_statistics_match_direct_update(self, d, degenerate):
        # with degenerate blocks every dominant mode has lambda_1, so at
        # eta = 1/lambda_1 the dominant block's deterministic part and its
        # linear noise term both cancel
        spec, noise, state = wide_blocks_problem(d, d, degenerate)
        dq = drift_quadratic(block_stats(state, spec, noise))
        etas = [f / spec.lambda_max for f in (0.1, 1.0, 1.9)]
        if dq.eta_star is not None and dq.eta_star > 0:
            etas.append(dq.eta_star)
        z = np.random.default_rng(d).standard_normal((4096, d))
        rows = kernel_rows(_one_step_kernel(state, spec, noise, etas), spec.k, z.copy())
        for idx, eta in enumerate(etas):
            (f, s_d1, s_b1, theta1), scale = direct_one_step(state, spec, noise, eta, z)
            assert np.all(np.abs(rows[4 * idx] - f) <= 1e-9 * scale)
            np.testing.assert_allclose(rows[4 * idx + 1], s_d1, rtol=1e-9, atol=0)
            np.testing.assert_allclose(rows[4 * idx + 2], s_b1, rtol=1e-9, atol=0)
            np.testing.assert_allclose(rows[4 * idx + 3], theta1, rtol=1e-9, atol=0)

    def test_single_mode_blocks_within_rounding_of_the_terms(self, fixa):
        # a one-mode block's next energy is one square (a - b)^2 that the
        # expansion a^2 - 2ab + b^2 can only resolve to the size of a^2 + b^2
        spec, noise, state = fixa
        lam = spec.lambdas
        z = np.random.default_rng(3).standard_normal((8192, 2))
        etas = [0.1, 0.5, 2.0 / 3.0, 1.0]
        rows = kernel_rows(_one_step_kernel(state, spec, noise, etas), spec.k, z.copy())
        for idx, eta in enumerate(etas):
            (f, s_d1, s_b1, _), _ = direct_one_step(state, spec, noise, eta, z)
            terms = lam**2 * (((1.0 - eta * lam) * state.c) ** 2 + (eta * z) ** 2)
            s_d0, s_b0 = lam**2 * state.c**2
            assert np.all(np.abs(rows[4 * idx] - f) <= 1e-12 * (s_b0 * terms[:, 0] + s_d0 * terms[:, 1]))
            assert np.all(np.abs(rows[4 * idx + 1] - s_d1) <= 1e-12 * terms[:, 0])
            assert np.all(np.abs(rows[4 * idx + 2] - s_b1) <= 1e-12 * terms[:, 1])

    def test_theta_next_in_unit_interval_at_cancelling_draws(self, fixa):
        # draws within a few ulps of the root (1 - eta lam) c = eta zeta drive
        # the expanded energy to rounding level, where it may come out below 0
        spec, noise, state = fixa
        nudge = 1.0 + np.arange(-500, 501)[:, None] * 2.0**-52
        for eta in (0.1, 0.3, 0.7, 0.9, 1.3):
            root = (1.0 - eta * spec.lambdas) * state.c / eta
            free = np.random.default_rng(1).standard_normal((1001, 2))
            for mask in ([1, 0], [0, 1], [1, 1]):
                z = np.where(mask, root * nudge, free)
                rows = kernel_rows(_one_step_kernel(state, spec, noise, [eta]), spec.k, z)
                assert np.all(rows[1:3] >= 0.0)
                assert np.all((rows[3] >= 0.0) & (rows[3] <= 1.0))

    def test_projected_rows_match_direct_step(self):
        spec, noise, state = wide_blocks_problem(7, 30)
        z = np.random.default_rng(8).standard_normal((4096, 30))
        lam, k = spec.lambdas, spec.k
        grad = lam * state.c
        for eta in (0.1 / spec.lambda_max, 1.0 / spec.lambda_max, 3.0 / spec.lambda_max):
            rows = kernel_rows(_projected_kernel(state, spec, noise, eta), k, z.copy())
            g = grad + np.sqrt(noise.kappa2) * z
            for row, sl in zip(rows, (slice(None, k), slice(k, None))):
                lin, sq = g[:, sl] @ grad[sl], (g[:, sl] ** 2) @ lam[sl]
                np.testing.assert_allclose(row, -eta * lin + 0.5 * eta**2 * sq, rtol=0,
                                           atol=1e-12 * np.max(eta * np.abs(lin) + eta**2 * sq))

    @staticmethod
    def f_coefficients(d):
        """A problem, and per step size the coefficients a (linear) and b
        (quadratic) of f - E f = sum a_i zeta_i + sum b_i (zeta_i^2 - kappa_i^2)."""
        spec, noise, state = wide_blocks_problem(100 + d, d)
        lam, k = spec.lambdas, spec.k
        stats = block_stats(state, spec, noise)
        weight = np.where(np.arange(d) < k, stats.s_b, -stats.s_d)
        coeffs = {}
        for eta in (0.3 / spec.lambda_max, 1.5 / spec.lambda_max):
            a = -2.0 * eta * weight * lam**2 * (1.0 - eta * lam) * state.c
            coeffs[eta] = (a, eta**2 * weight * lam**2)
        return spec, noise, state, coeffs

    @pytest.mark.parametrize("d", [10, 50])
    def test_f_variance_matches_gaussian_quadratic_form(self, d):
        # the linear part of f is odd in z and cancels within an antithetic
        # pair, so a pair mean has Var = 2 sum b_i^2 kappa_i^4
        # (Mathai & Provost 1992, Quadratic Forms in Random Variables)
        spec, noise, state, coeffs = self.f_coefficients(d)
        n = 100_000
        for eta, (_, b) in coeffs.items():
            var = 2.0 * np.sum(b**2 * noise.kappa2**2)
            est = one_step(state, spec, noise, eta, n, seed=d)["f"]
            assert est.n == n // 2
            assert est.stderr**2 * est.n == pytest.approx(var, rel=0.05)

    @pytest.mark.parametrize("d", [10, 50])
    def test_one_sided_f_variance_matches_gaussian_quadratic_form(self, d):
        # the kernel's rows on plain draws carry the full law of f, linear
        # part included: Var f = sum a_i^2 kappa_i^2 + 2 sum b_i^2 kappa_i^4
        spec, noise, state, coeffs = self.f_coefficients(d)
        rng = np.random.default_rng(200 + d)
        for eta, (a, b) in coeffs.items():
            var = np.sum(a**2 * noise.kappa2) + 2.0 * np.sum(b**2 * noise.kappa2**2)
            f = np.concatenate([
                kernel_rows(_one_step_kernel(state, spec, noise, [eta]), spec.k, rng.standard_normal((10_000, d)))[0]
                for _ in range(10)
            ])
            assert np.var(f, ddof=1) == pytest.approx(var, rel=0.05)


class TestSharedDraw:
    """All states of one estimate share each draw, which each worker draws in
    row blocks and uses as an antithetic pair z, -z; every state's rows must
    equal the mean of those computed from the whole (nb, d) draw of the batch
    and from its negation, bit for bit."""

    # 20_001 samples = 10_001 pairs: two full batches and a short one; at
    # d = 10, 60 and 500 the last row block of every batch is short as well
    @pytest.mark.parametrize("d", [2, 10, 60, 500])
    def test_row_blocks_equal_whole_batch_draw(self, d, monkeypatch):
        monkeypatch.setenv("ALIGNLAB_THREADS", "1")
        spec, noise, states = shared_draw_problem(d, d)
        etas = [f / spec.lambda_max for f in (0.5, 1.5)]
        families = (
            [_one_step_kernel(state, spec, noise, etas) for state in states],
            [_projected_kernel(state, spec, noise, 0.7 / spec.lambda_max) for state in states],
        )
        seed, sizes = 28, (4096, 4096, 1809)
        fed = []
        add = montecarlo._Accumulator.add

        def capture(acc, rows):
            fed.append(rows.copy())
            add(acc, rows)

        monkeypatch.setattr(montecarlo._Accumulator, "add", capture)
        for family in families:
            fed.clear()
            ests = _estimate(20_001, seed, spec, family)
            expected = []
            for j, nb in enumerate(sizes):
                z = np.random.default_rng(np.random.SeedSequence([seed, j])).standard_normal((nb, d))
                expected.append(np.concatenate([
                    0.5 * (kernel_rows(kernel, spec.k, z.copy()) + kernel_rows(kernel, spec.k, -z))
                    for kernel in family
                ]))
            assert len(fed) == len(expected)
            for got, want in zip(fed, expected):
                assert np.array_equal(got, want)
            assert len(ests) == len(expected[0])
            assert all(est.n == sum(sizes) for est in ests)

    def test_each_state_equals_its_own_estimate(self):
        # sharing a draw changes no state's estimate: each equals the estimate
        # made for that state alone on the same seed
        spec, noise, states = shared_draw_problem(29, 40)
        jobs = [(state, [f / spec.lambda_max for f in (0.2 * (i + 1), 1.9)]) for i, state in enumerate(states)]
        shared = _one_step_estimates(jobs, spec, noise, 20_001, 30, 100)
        assert shared == [one_step_estimates(state, spec, noise, etas, 20_001, 30) for state, etas in jobs]
        jobs = [(state, (0.3 + 0.2 * i) / spec.lambda_max) for i, state in enumerate(states)]
        shared = _projected_estimates(jobs, spec, noise, 20_001, 31)
        assert shared == [_projected_estimates([job], spec, noise, 20_001, 31)[0] for job in jobs]


class TestThreadCountInvariance:
    # 20_001 samples are 10_001 antithetic pairs: two full batches and a short one
    N = 20_001
    PAIRS = 10_001

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
        assert a[etas[0]]["f"].n == self.PAIRS

    @pytest.mark.parametrize("block", ["D", "B"])
    def test_projected_loss_test(self, monkeypatch, block):
        spec, noise, state = random_problem(np.random.default_rng(25), d=50)
        a, b, c = self._under_threads(
            monkeypatch, lambda: projected_loss_test(state, spec, noise, 0.3, block, self.N, seed=18)
        )
        assert a == b == c
        assert a.verdict.estimate.n == self.PAIRS

    def test_multi_state_estimates(self, monkeypatch):
        spec, noise, states = shared_draw_problem(32, 50)
        etas = [f / spec.lambda_max for f in (0.1, 1.5)]

        def run():
            return (
                _one_step_estimates([(state, etas) for state in states], spec, noise, self.N, 33, 100),
                _projected_estimates([(state, 0.3) for state in states], spec, noise, self.N, 34),
            )

        a, b, c = self._under_threads(monkeypatch, run)
        assert a == b == c
        assert len(a[0]) == len(a[1]) == len(states)

    def test_multi_state_blas_thread_count(self):
        script = (
            "import numpy as np, sys\n"
            "sys.path.insert(0, 'tests')\n"
            "from helpers import shared_draw_problem\n"
            "from alignlab.montecarlo import _one_step_estimates, _projected_estimates\n"
            "spec, noise, states = shared_draw_problem(35, 500)\n"
            "print(_one_step_estimates([(s, [0.5 / spec.lambda_max]) for s in states], spec, noise, 20_001, 36, 100))\n"
            "print(_projected_estimates([(s, 0.3) for s in states], spec, noise, 20_001, 37))\n"
        )
        src = str(Path(alignlab.__file__).resolve().parent.parent)
        outputs = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads, ALIGNLAB_THREADS="2",
                       PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
            run = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True,
                                 cwd=Path(__file__).resolve().parent.parent, check=True)
            outputs.append(run.stdout)
        assert outputs[0] == outputs[1]

    def test_blas_thread_count(self):
        # BLAS reads its thread count once, at start-up; a matrix product's
        # bits at these sizes depend on it, so the kernels must not use one
        script = (
            "import numpy as np, sys\n"
            "sys.path.insert(0, 'tests')\n"
            "from helpers import random_problem\n"
            "from alignlab import one_step_estimates, projected_loss_test\n"
            "spec, noise, state = random_problem(np.random.default_rng(26), d=500)\n"
            "print(one_step_estimates(state, spec, noise, [0.5 / spec.lambda_max], 20_001, seed=19))\n"
            "print(projected_loss_test(state, spec, noise, 0.3, 'B', 20_001, seed=19))\n"
        )
        src = str(Path(alignlab.__file__).resolve().parent.parent)
        outputs = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads, ALIGNLAB_THREADS="1",
                       PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
            run = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True,
                                 cwd=Path(__file__).resolve().parent.parent, check=True)
            outputs.append(run.stdout)
        assert outputs[0] == outputs[1]


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

    @pytest.mark.parametrize("eta", [np.nan, np.inf])
    def test_non_finite_step_rejected(self, fixa, eta):
        spec, noise, state = fixa
        with pytest.raises(ParameterError, match="finite"):
            drift_sign_test(state, spec, noise, eta, 5_000, seed=0)
        with pytest.raises(ParameterError, match="finite"):
            one_step_estimates(state, spec, noise, [0.1, eta], 5_000, seed=0)


class TestProjectedLossTest:
    @pytest.mark.parametrize("eta", [np.nan, np.inf])
    def test_non_finite_step_rejected(self, fixa, eta):
        spec, noise, state = fixa
        with pytest.raises(ParameterError, match="finite"):
            projected_loss_test(state, spec, noise, eta, "D", 5_000, seed=0)

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
