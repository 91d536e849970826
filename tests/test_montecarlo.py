import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import alignlab

from alignlab import (
    build_spectrum,
    McEstimate,
    NoiseProfile,
    ParameterError,
    Spectrum,
    State,
    block_stats,
    drift_quadratic,
    drift_verdicts,
    expected_drift,
    expected_loss_change,
    expected_next_block_energy,
    g_gap,
    loss_threshold,
    one_step_estimates,
    projected_verdicts,
    rescale_to_alignment,
    theta_star,
)
from alignlab import montecarlo
from alignlab.harness import _state_above_theta_star
from alignlab.montecarlo import (
    _block_sums,
    _estimate,
    _one_step_estimates,
    _one_step_kernel,
    _pivot,
    _projected_kernel,
)

from helpers import direct_one_step, direct_projected, random_problem, sgd_step, shared_draw_problem, stop_at_pairs

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
    """A kernel's rows of pair means over the pairs (z, -z) of one whole draw
    z (overwritten)."""
    sums = np.empty((len(kernel.forms) + 1, 2, len(z)))
    _block_sums(z, k, list(kernel.forms), kernel.q, sums)
    return kernel.finish(sums[:-1], sums[-1])


def direct_pair(reference, state, spec, noise, eta, z):
    """The mean of a direct reference's per-sample rows at z and at -z, and
    the mean of their sizes."""
    (rows_p, size_p), (rows_m, size_m) = (reference(state, spec, noise, eta, x) for x in (z, -z))
    return [0.5 * (p + m) for p, m in zip(rows_p, rows_m)], 0.5 * (size_p + size_m)


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
    """The one-step kernel works from six block-wise sums per draw; its pair
    means must equal those of the update written out on (n, d)."""

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
            (f, s_d1, s_b1, theta1), scale = direct_pair(direct_one_step, state, spec, noise, eta, z)
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
            (f, s_d1, s_b1, _), _ = direct_pair(direct_one_step, state, spec, noise, eta, z)
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
        for eta in (0.1 / spec.lambda_max, 1.0 / spec.lambda_max, 3.0 / spec.lambda_max):
            rows = kernel_rows(_projected_kernel(state, spec, noise, eta), spec.k, z.copy())
            want = direct_pair(direct_projected, state, spec, noise, eta, z)[0]
            sizes = np.maximum(*(direct_projected(state, spec, noise, eta, x)[1] for x in (z, -z)))
            for row, block, size in zip(rows, want, sizes):
                np.testing.assert_allclose(row, block, rtol=0, atol=1e-12 * np.max(size))

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
        # one-sided samples of the written-out update carry the full law of f,
        # linear part included: Var f = sum a_i^2 kappa_i^2 + 2 sum b_i^2
        # kappa_i^4, which checks the coefficients the pair variance uses
        spec, noise, state, coeffs = self.f_coefficients(d)
        rng = np.random.default_rng(200 + d)
        for eta, (a, b) in coeffs.items():
            var = np.sum(a**2 * noise.kappa2) + 2.0 * np.sum(b**2 * noise.kappa2**2)
            f = np.concatenate([
                direct_one_step(state, spec, noise, eta, rng.standard_normal((10_000, d)))[0][0]
                for _ in range(10)
            ])
            assert np.var(f, ddof=1) == pytest.approx(var, rel=0.05)


class TestPairMeanKernels:
    """Each kernel forms its antithetic pair means in closed form, reading a
    linear form only where a pair mean needs one; on random triples they must
    equal the mean of the one-sided rows at z and -z of the update written
    out, to 1e-12 relative (for f and the loss change, which cancel terms,
    relative to the size of those terms)."""

    @pytest.mark.parametrize("seed", range(12))
    def test_one_step_pair_rows_equal_mean_of_one_sided_rows(self, seed):
        rng = np.random.default_rng(4100 + seed)
        spec, noise, state = random_problem(rng)
        etas = [f / spec.lambda_max for f in rng.uniform(0.05, 1.95, 3)]
        z = rng.standard_normal((512, spec.d))
        rows = kernel_rows(_one_step_kernel(state, spec, noise, etas), spec.k, z.copy())
        for idx, eta in enumerate(etas):
            (f, s_d1, s_b1, theta1), scale = direct_pair(direct_one_step, state, spec, noise, eta, z)
            assert np.all(np.abs(rows[4 * idx] - f) <= 1e-12 * scale)
            for got, want in zip(rows[4 * idx + 1 : 4 * idx + 4], (s_d1, s_b1, theta1)):
                np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("seed", range(12))
    def test_projected_pair_rows_equal_mean_of_one_sided_rows(self, seed):
        rng = np.random.default_rng(4200 + seed)
        spec, noise, state = random_problem(rng)
        z = rng.standard_normal((512, spec.d))
        for factor in rng.uniform(0.05, 3.0, 3):
            eta = factor / spec.lambda_max
            kernel = _projected_kernel(state, spec, noise, eta)
            assert kernel.forms == ()
            rows = kernel_rows(kernel, spec.k, z.copy())
            want, size = direct_pair(direct_projected, state, spec, noise, eta, z)
            for got, block, block_size in zip(rows, want, size):
                assert np.all(np.abs(got - block) <= 1e-12 * block_size)


class TestPivot:
    """Each worker shifts its rows by the kernels' rows at lin = 0 and
    quad = E[quad]; for the rows affine in the block sums that is their
    closed-form mean, and for theta_next the alignment at the mean next block
    energies."""

    @pytest.mark.parametrize("seed", range(12))
    def test_pivot_is_the_closed_form_mean(self, seed):
        rng = np.random.default_rng(4300 + seed)
        spec, noise, state = random_problem(rng)
        stats = block_stats(state, spec, noise)
        dq = drift_quadratic(stats)
        etas = [f / spec.lambda_max for f in rng.uniform(0.05, 1.95, 3)]
        kernel = _one_step_kernel(state, spec, noise, etas)
        pivot = _pivot(kernel, np.stack(spec.split_sum(kernel.q)))
        for idx, eta in enumerate(etas):
            f, s_d1, s_b1, theta1 = pivot[4 * idx : 4 * idx + 4]
            e_d, e_b = (expected_next_block_energy(stats, eta, block) for block in ("D", "B"))
            assert f == pytest.approx(expected_drift(dq, eta), rel=0, abs=1e-12 * (stats.s_b * e_d + stats.s_d * e_b))
            assert s_d1 == pytest.approx(e_d, rel=1e-12)
            assert s_b1 == pytest.approx(e_b, rel=1e-12)
            assert theta1 == pytest.approx(e_d / (e_d + e_b), rel=1e-12)
        for eta in etas:
            kernel = _projected_kernel(state, spec, noise, eta)
            pivot = _pivot(kernel, np.stack(spec.split_sum(kernel.q)))
            for got, block in zip(pivot, ("D", "B")):
                s, tau, _, _, n_loss = stats.block(block)
                target = expected_loss_change(stats, block, eta)
                assert got == pytest.approx(target, rel=0, abs=1e-12 * (eta * s + 0.5 * eta**2 * (tau + n_loss)))


class TestSharedDraw:
    """All states of one estimate share each draw, which each worker draws in
    row blocks and finishes in chunks of pairs; every state's pair means must
    equal those computed from the whole (nb, d) draw of the batch, bit for
    bit."""

    # 20_001 samples = 10_001 pairs: batches of 1024, 1024, 2048 and 4096
    # pairs and a short one of 1809; at d = 10, 60 and 500 the last row block
    # of every batch is short as well, and the short batch ends in a short
    # finish chunk
    @pytest.mark.parametrize("d", [2, 10, 60, 500])
    def test_row_blocks_equal_whole_batch_draw(self, d, monkeypatch):
        monkeypatch.setenv("ALIGNLAB_THREADS", "1")
        spec, noise, states = shared_draw_problem(d, d)
        etas = [f / spec.lambda_max for f in (0.5, 1.5)]
        families = (
            [_one_step_kernel(state, spec, noise, etas) for state in states],
            [_projected_kernel(state, spec, noise, 0.7 / spec.lambda_max) for state in states],
        )
        seed, sizes = 28, (1024, 1024, 2048, 4096, 1809)

        def capturing(kernel, fed):
            def finish(lin, quad):
                rows = kernel.finish(lin, quad)
                fed.append(rows.copy())
                return rows

            return kernel._replace(finish=finish)

        for family in families:
            fed = [[] for _ in family]
            ests = _estimate(20_001, seed, spec, [capturing(kernel, got) for kernel, got in zip(family, fed)])
            expected = [[] for _ in family]
            for j, nb in enumerate(sizes):
                z = np.random.Generator(np.random.SFC64(np.random.SeedSequence([seed, j]))).standard_normal((nb, d))
                for want, kernel in zip(expected, family):
                    want.append(kernel_rows(kernel, spec.k, z.copy()))
            for got, want in zip(fed, expected):
                # the first call is the data-free pivot; the rest are chunks
                chunks = got[1:]
                assert [c.shape[1] for c in chunks] == [1024] * 8 + [1024, 785]
                assert np.array_equal(np.concatenate(chunks, axis=1), np.concatenate(want, axis=1))
            assert len(ests) == sum(len(want[0]) for want in expected)
            assert all(est.n == sum(sizes) for est in ests)

    def test_each_state_equals_its_own_estimate(self, monkeypatch):
        # sharing a draw changes no state's estimate at a given number of
        # pairs: each equals the estimate made for that state alone on the
        # same seed, and a sign test's rows equal those of the state alone
        # stopped at the same look
        spec, noise, states = shared_draw_problem(29, 40)
        jobs = [(state, [f / spec.lambda_max for f in (0.2 * (i + 1), 1.9)]) for i, state in enumerate(states)]
        shared = _one_step_estimates(jobs, spec, noise, 20_001, 30, 100)
        assert shared == [
            est
            for state, etas in jobs
            for rows in one_step_estimates(state, spec, noise, etas, 20_001, 30).values()
            for est in rows.values()
        ]
        # the first state steps at its dominant loss threshold: its zero-mean
        # row keeps the shared draw going past the first look
        stats = [block_stats(state, spec, noise) for state in states]
        jobs = [(state, st, (0.3 + 0.2 * i) / spec.lambda_max) for i, (state, st) in enumerate(zip(states, stats))]
        jobs[0] = (states[0], stats[0], loss_threshold(stats[0], "D"))
        shared = projected_verdicts(jobs, spec, noise, 20_001, 31)
        pairs = shared[0].estimate.n
        assert pairs > 1024 and all(row.estimate.n == pairs for row in shared)
        # a state alone settles no later than with its draw shared
        alone = [projected_verdicts([job], spec, noise, 20_001, 31) for job in jobs]
        assert all(row.estimate.n <= pairs for rows in alone for row in rows)
        assert alone[1][0].estimate.n < pairs
        stop_at_pairs(monkeypatch, pairs)
        assert shared == [row for job in jobs for row in projected_verdicts([job], spec, noise, 20_001, 31)]


class TestBoundedMemory:
    """Batches stream through the pool's bounded window and are accumulated
    as they arrive, so an estimate's memory does not grow with n."""

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_peak_does_not_grow_with_n(self, threads, monkeypatch):
        monkeypatch.setenv("ALIGNLAB_THREADS", threads)
        spec, noise, state = random_problem(np.random.default_rng(31), d=50)
        etas = [f / spec.lambda_max for f in (0.1, 1.0, 3.0)]
        peaks = []
        for n in (200_000, 2_000_000):
            tracemalloc.start()
            try:
                one_step_estimates(state, spec, noise, etas, n, seed=5)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.5 * peaks[0]

    @pytest.mark.parametrize("threads", [1, 2])
    def test_peak_within_worker_buffers_at_twelve_step_sizes(self, threads, monkeypatch):
        # a worker holds one row block of the draw, its batch's block sums
        # (two linear forms and the sum of squares, per block and pair) and
        # the temporaries of finish on one chunk of _FINISH pairs, a handful
        # of (width, chunk) arrays (the one-step kernel holds under five at
        # once: eight are allowed); the calling thread keeps two sums per row
        # and batch. The rows of a whole batch are never formed.
        monkeypatch.setenv("ALIGNLAB_THREADS", str(threads))
        spec, noise, state = random_problem(np.random.default_rng(31), d=50)
        etas = [f / spec.lambda_max for f in np.linspace(0.1, 3.0, 12)]
        n = 400_000
        width = 4 * len(etas)
        worker = montecarlo._BLOCK_VALUES + 3 * 2 * montecarlo._BATCH + 8 * width * montecarlo._FINISH
        partial = 2 * width * (len(montecarlo._batch_bounds(-(-n // 2))) - 1)
        tracemalloc.start()
        try:
            one_step_estimates(state, spec, noise, etas, n, seed=5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * (threads * worker + partial)


class TestThreadCountInvariance:
    # 20_001 samples are 10_001 antithetic pairs: four batches of 1024 to 4096
    # pairs and a short one
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
        # the sign test at its stopping look, and the fixed-n estimate of the
        # same kernel over all pairs
        spec, noise, state = random_problem(np.random.default_rng(25), d=50)
        row = "DB".index(block)
        kernels = [_projected_kernel(state, spec, noise, 0.3)]
        a, b, c = self._under_threads(
            monkeypatch,
            lambda: (projected_verdicts([(state, block_stats(state, spec, noise), 0.3)], spec, noise, self.N, 18)[row],
                     _estimate(self.N, 18, spec, kernels)[row]),
        )
        assert a == b == c
        verdict, fixed = a
        assert fixed.n == self.PAIRS
        assert verdict.estimate == _estimate(2 * verdict.estimate.n, 18, spec, kernels)[row]

    def test_multi_state_estimates(self, monkeypatch):
        spec, noise, states = shared_draw_problem(32, 50)
        etas = [f / spec.lambda_max for f in (0.1, 1.5)]

        def run():
            return (
                _one_step_estimates([(state, etas) for state in states], spec, noise, self.N, 33, 100),
                projected_verdicts([(s, block_stats(s, spec, noise), 0.3) for s in states], spec, noise, self.N, 34),
            )

        a, b, c = self._under_threads(monkeypatch, run)
        assert a == b == c
        assert len(a[0]) == 4 * len(etas) * len(states) and len(a[1]) == 2 * len(states)

    def test_multi_state_blas_thread_count(self):
        script = (
            "import numpy as np, sys\n"
            "sys.path.insert(0, 'tests')\n"
            "from helpers import shared_draw_problem\n"
            "from alignlab import block_stats\n"
            "from alignlab.montecarlo import _one_step_estimates, projected_verdicts\n"
            "spec, noise, states = shared_draw_problem(35, 500)\n"
            "print(_one_step_estimates([(s, [0.5 / spec.lambda_max]) for s in states], spec, noise, 20_001, 36, 100))\n"
            "jobs = [(s, block_stats(s, spec, noise), 0.3) for s in states]\n"
            "print(projected_verdicts(jobs, spec, noise, 20_001, 37))\n"
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
            "from alignlab import block_stats, one_step_estimates, projected_verdicts\n"
            "spec, noise, state = random_problem(np.random.default_rng(26), d=500)\n"
            "print(one_step_estimates(state, spec, noise, [0.5 / spec.lambda_max], 20_001, seed=19))\n"
            "print(projected_verdicts([(state, block_stats(state, spec, noise), 0.3)], spec, noise, 20_001, 19))\n"
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


class TestGroupSequential:
    """The sign tests look at every batch bound 1024 * 2^i and at the cap, test
    each row at the Bonferroni z_K of those K looks, and stop the shared
    draw at the first look where every row is settled."""

    def test_schedule_and_looks(self):
        bounds = montecarlo._batch_bounds(50_000)
        assert bounds[:7] == [0, 1024, 2048, 4096, 8192, 12288, 16384] and bounds[-1] == 50_000
        assert set(np.diff(bounds[3:-1])) == {montecarlo._BATCH}
        looks = [bounds[j] for j in montecarlo._looks(bounds)]
        assert looks == [1024, 2048, 4096, 8192, 16384, 32768, 50_000]
        assert [montecarlo._batch_bounds(p)[-1] for p in (1, 500, 1024, 1025)] == [1, 500, 1024, 1025]
        assert montecarlo._looks(montecarlo._batch_bounds(8192)) == [1, 2, 3, 4]

    @pytest.mark.parametrize("z_crit", [1.5, 3.0, 5.0, 9.0])
    @pytest.mark.parametrize("n", [2000, 20_001, 100_000, 10**7])
    def test_z_k_spends_the_level_evenly_over_the_looks(self, z_crit, n):
        k = len(montecarlo._looks(montecarlo._batch_bounds(-(-n // 2))))
        z = montecarlo._z_looks(z_crit, n)
        if k == 1:
            assert z == z_crit
        else:
            level = math.erfc(z_crit / math.sqrt(2.0))
            assert k * math.erfc(z / math.sqrt(2.0)) == pytest.approx(level, rel=1e-12)
            # the tail bound it starts from holds
            assert z_crit < z <= math.sqrt(z_crit**2 + 2.0 * math.log(k))

    def test_z_k_where_the_tail_underflows(self):
        # erfc(40 / sqrt(2)) underflows; the tail bound is the threshold
        assert montecarlo._z_looks(40.0, 100_000) == math.sqrt(1600.0 + 2.0 * math.log(7))

    @pytest.mark.parametrize("n", [100, 2047, 2049, 8193, 20_001, 40_000])
    def test_one_step_estimates_use_every_pair(self, fixa, n):
        # the fixed-n path never stops early, even where every estimate is
        # exact after one look
        spec, noise, state = fixa
        for silent in (False, True):
            profile = NoiseProfile(kappa2=np.zeros(2)) if silent else noise
            out = one_step_estimates(state, spec, profile, [0.1, 2.0 / 3.0], n, seed=3)
            assert {est.n for row in out.values() for est in row.values()} == {-(-n // 2)}

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_no_batch_past_the_stopping_look_is_drawn(self, fixa, threads, monkeypatch):
        monkeypatch.setenv("ALIGNLAB_THREADS", threads)
        spec, noise, state = fixa
        drawn, run_jobs = [], montecarlo.run_jobs

        def recording(fn, jobs):
            drawn.append(list(jobs))
            return run_jobs(fn, jobs)

        monkeypatch.setattr(montecarlo, "run_jobs", recording)
        # fixed n: one pass over every batch
        one_step_estimates(state, spec, noise, [0.1], 80_000, seed=1)
        assert drawn == [list(range(len(montecarlo._batch_bounds(40_000)) - 1))]
        # settled at the sixth look, 32768 pairs (z = 4.08)
        drawn.clear()
        rows = projected_verdicts([(state, block_stats(state, spec, noise), 0.806)], spec, noise, 80_000, 1)
        assert {row.estimate.n for row in rows} == {32768}
        assert drawn == [[0], [1], [2], [3], [4, 5], [6, 7, 8, 9]]

    def test_stopping_look_and_bytes_equal_across_threads(self, fixa, monkeypatch):
        # the look at 32768 pairs takes four batches, which two and three
        # threads draw side by side
        spec, noise, state = fixa
        runs = []
        for threads in ("1", "2", "3"):
            monkeypatch.setenv("ALIGNLAB_THREADS", threads)
            rows = projected_verdicts([(state, block_stats(state, spec, noise), 0.806)], spec, noise, 80_000, 1)
            runs.append((rows, repr([row.cells() for row in rows])))
        assert runs[0] == runs[1] == runs[2]
        rows = runs[0][0]
        assert [row.estimate.n for row in rows] == [32768, 32768]
        assert [row.verdict for row in rows] == ["confirmed", "confirmed"]

    def test_band_settled_row_stops_at_the_first_look(self, fixa):
        # the theta row lies inside its slack band and the f row is decided
        spec, noise, state = fixa
        job = (state, block_stats(state, spec, noise), [0.1])
        f_row, theta_row = drift_verdicts([job], spec, noise, 100_000, 5, theta_abs_slack=1.0)
        assert (f_row.verdict, theta_row.verdict) == ("confirmed", "inconclusive")
        assert f_row.settled and theta_row.settled
        assert f_row.estimate.n == theta_row.estimate.n == 1024

    def test_zero_mean_row_without_slack_runs_to_the_cap(self, fixa):
        spec, noise, state = fixa
        f_row, _ = drift_verdicts([(state, block_stats(state, spec, noise), [2.0 / 3.0])], spec, noise, 100_000, 6)
        assert (f_row.predicted, f_row.verdict, f_row.settled) == ("0", "inconclusive", False)
        assert f_row.estimate.n == 50_000

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_false_decision_rate_within_the_level(self, fixa, threads, monkeypatch):
        # error-rate gate: at z_crit = 1.5 over 2000 seeds, the dominant row
        # at its loss threshold (exact zero mean, predicted "0") may be
        # decided, always falsely, at most at the two-sided level
        # 2 (1 - Phi(1.5)) = 0.134 plus 3 binomial standard errors; K = 5
        # looks up to 16384 pairs, the last of two batches
        monkeypatch.setenv("ALIGNLAB_THREADS", threads)
        spec, noise, state = fixa
        seeds = 2000
        job = (state, block_stats(state, spec, noise), 0.8)
        rows = [projected_verdicts([job], spec, noise, 32_768, seed, z_crit=1.5)[0] for seed in range(seeds)]
        assert {row.predicted for row in rows} == {"0"}
        level = math.erfc(1.5 / math.sqrt(2.0))
        false = sum(row.verdict != "inconclusive" for row in rows) / seeds
        assert false <= level + 3.0 * math.sqrt(level * (1.0 - level) / seeds)


def drift_rows(state, spec, noise, eta, n, seed):
    """The f_drift and theta_drift rows of one state at one step size."""
    return drift_verdicts([(state, block_stats(state, spec, noise), [eta])], spec, noise, n, seed)


class TestDriftSignTest:
    def test_small_step_confirms_decrease(self, fixa):
        spec, noise, state = fixa
        f_row, _ = drift_rows(state, spec, noise, 0.1, 50_000, seed=30)
        assert f_row.predicted == "-"
        assert f_row.verdict == "confirmed"
        assert f_row.threshold == pytest.approx(2.0 / 3.0)

    def test_large_step_confirms_increase_below_g_gap(self):
        rng = np.random.default_rng(23)
        spec, noise, state = random_problem(rng, d=50, isotropic_only=True)
        low = rescale_to_alignment(state, spec, 0.5 * g_gap(spec, noise), "dominant")
        stats = block_stats(low, spec, noise)
        dq = drift_quadratic(stats)
        assert dq.p > 0
        assert stats.theta <= g_gap(spec, noise)
        f_row, _ = drift_rows(low, spec, noise, 2.0 * dq.eta_star, 50_000, seed=31)
        assert f_row.predicted == "+"
        assert f_row.verdict == "confirmed"

    def test_high_alignment_decreases_for_any_step(self):
        rng = np.random.default_rng(24)
        spec, noise, state = random_problem(rng, d=50, isotropic_only=True)
        high = _state_above_theta_star(state, spec, noise)
        stats = block_stats(high, spec, noise)
        assert drift_quadratic(stats).p <= 0
        assert stats.theta >= theta_star(stats, spec, noise).theta_star
        # one call on one seed: each step size sees the draws a call of its own would
        etas = [f / spec.lambda_max for f in (0.01, 1.0, 10.0)]
        f_rows = drift_verdicts([(high, block_stats(high, spec, noise), etas)], spec, noise, 50_000, 32)[::2]
        assert [row.eta for row in f_rows] == etas
        for row in f_rows:
            assert row.predicted == "-"
            assert row.verdict in ("confirmed", "inconclusive")

    def test_critical_step_is_inconclusive(self, fixa):
        spec, noise, state = fixa
        f_row, _ = drift_rows(state, spec, noise, 2.0 / 3.0, 50_000, seed=33)
        assert f_row.predicted == "0"
        assert f_row.verdict == "inconclusive"

    def test_sample_floor(self, fixa):
        spec, noise, state = fixa
        with pytest.raises(ParameterError):
            drift_rows(state, spec, noise, 0.1, 500, seed=0)

    @pytest.mark.parametrize("eta", [np.nan, np.inf])
    def test_non_finite_step_rejected(self, fixa, eta):
        spec, noise, state = fixa
        with pytest.raises(ParameterError, match="finite"):
            drift_rows(state, spec, noise, eta, 5_000, seed=0)
        with pytest.raises(ParameterError, match="finite"):
            one_step_estimates(state, spec, noise, [0.1, eta], 5_000, seed=0)

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_overflowing_sum_of_squares_rejected(self, fixa, threads, monkeypatch):
        # the drift ~1e200 is finite, but its squared deviations are not
        monkeypatch.setenv("ALIGNLAB_THREADS", threads)
        spec, noise, state = fixa
        with pytest.raises(ParameterError, match="sum of squares is not finite"):
            one_step_estimates(state, spec, noise, [1e100], 20_001, seed=0)

    def test_overflowing_step_rejected_before_drawing(self, fixa, monkeypatch):
        spec, noise, state = fixa
        monkeypatch.setattr(montecarlo, "_estimate", None)  # a draw would fail on a call of None
        with pytest.raises(ParameterError, match="not finite"):
            drift_rows(state, spec, noise, 1e200, 5_000, seed=0)

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_overflowing_kernel_rejected_before_drawing(self, fixa, threads, monkeypatch):
        # at eta = 1e160 the kernel's deterministic part squares past the
        # float range; the pivot shows it before the pool draws a batch
        monkeypatch.setenv("ALIGNLAB_THREADS", threads)
        monkeypatch.setattr(montecarlo, "run_jobs", None)  # a draw would fail on a call of None
        spec, noise, state = fixa
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ParameterError, match="not finite"):
                one_step_estimates(state, spec, noise, [1e160], 2001, 0)


class TestProjectedLossTest:
    @pytest.mark.parametrize("eta", [np.nan, np.inf])
    def test_non_finite_step_rejected(self, fixa, eta):
        spec, noise, state = fixa
        with pytest.raises(ParameterError, match="finite"):
            projected_verdicts([(state, block_stats(state, spec, noise), eta)], spec, noise, 5_000, 0)

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_overflowing_step_rejected_before_drawing(self, fixa, threads, monkeypatch):
        # eta^2 overflows in the closed-form loss change
        monkeypatch.setenv("ALIGNLAB_THREADS", threads)
        monkeypatch.setattr(montecarlo, "run_jobs", None)  # a draw would fail on a call of None
        spec, noise, state = fixa
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ParameterError, match="not finite"):
                projected_verdicts([(state, block_stats(state, spec, noise), 1e160)], spec, noise, 2001, 0)

    def test_boundary_step_inconclusive(self, fixa):
        spec, noise, state = fixa
        assert expected_loss_change(block_stats(state, spec, noise), "D", 0.8) == pytest.approx(0.0, abs=1e-14)
        d_row, _ = projected_verdicts([(state, block_stats(state, spec, noise), 0.8)], spec, noise, 50_000, 40)
        assert d_row.predicted == "0"
        assert d_row.verdict == "inconclusive"
        assert d_row.threshold == pytest.approx(0.8)

    def test_between_thresholds_dominant_up_bulk_down(self, fixa):
        spec, noise, state = fixa
        up, down = projected_verdicts([(state, block_stats(state, spec, noise), 0.9)], spec, noise, 100_000, 41)
        assert (up.test, down.test) == ("loss_change_D", "loss_change_B")
        assert up.predicted == "+"
        assert up.verdict == "confirmed"
        assert up.target_ok
        assert down.predicted == "-"
        assert down.verdict == "confirmed"
        assert down.target_ok

    def test_tiny_step_decreases(self, fixa):
        spec, noise, state = fixa
        d_row, _ = projected_verdicts([(state, block_stats(state, spec, noise), 0.01)], spec, noise, 50_000, 42)
        assert d_row.predicted == "-"
        assert d_row.verdict == "confirmed"

    def test_closed_form_target(self, fixa):
        spec, noise, state = fixa
        stats = block_stats(state, spec, noise)
        d_row, _ = projected_verdicts([(state, block_stats(state, spec, noise), 0.3)], spec, noise, 50_000, 43)
        expected = -0.3 * stats.s_d + 0.5 * 0.3**2 * (stats.tau_d + stats.n_loss_d)
        assert expected_loss_change(stats, "D", 0.3) == pytest.approx(expected, rel=1e-14)
        assert d_row.target_ok

    @pytest.mark.parametrize("eta", [0.3, 0.8, 0.9])
    def test_rows_test_the_closed_form_target(self, fixa, eta, monkeypatch):
        # with an exact, zero-stderr estimate target_ok holds only within
        # 1e-12 (1 + |target|) of the target the rows test, and predicted is
        # the sign of the closed form
        spec, noise, state = fixa
        stats = block_stats(state, spec, noise)
        targets = [expected_loss_change(stats, block, eta) for block in ("D", "B")]
        signs = ["0" if abs(t) <= 1e-12 else "+" if t > 0 else "-" for t in targets]
        for shift, ok in ((0.0, True), (1e-11, False)):
            estimates = [McEstimate(mean=t + shift, stderr=0.0, n=25_000) for t in targets]
            monkeypatch.setattr(montecarlo, "_estimate", lambda n, seed, spec, kernels, stop=None: estimates)
            rows = projected_verdicts([(state, block_stats(state, spec, noise), eta)], spec, noise, 50_000, 43)
            assert [row.target_ok for row in rows] == [ok, ok]
            assert [row.predicted for row in rows] == signs
            assert [row.estimate.n for row in rows] == [25_000, 25_000]
