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
    _one_step_kernel,
    _projected_kernel,
)

from helpers import (
    batch_schedule,
    direct_one_step,
    direct_projected,
    random_problem,
    sgd_step,
    shared_draw_problem,
    stop_at_pairs,
)

# E[theta_{t+1}] for the 2-d fixture at eta=0.1, frozen from two independent
# quadratures (400-node Gauss-Hermite grid and adaptive integration agree to
# 13 digits).
NEXT_THETA_FIXA = 0.753720001400620


def one_step(state, spec, noise, eta, n, seed):
    """one_step_estimates at a single step size."""
    return one_step_estimates(state, spec, noise, [eta], n, seed)[eta]


def theta_next(state, spec, noise, eta, n, seed):
    """The theta_next estimate of the theta_next-reading one-step kernel, the
    one drift_verdicts tests, at a single step size over all ceil(n/2) pairs."""
    return _estimate(n, seed, spec, [_one_step_kernel(state, block_stats(state, spec, noise), spec, noise, [eta])])[3]


class TestConditionalAlignment:
    def test_noiseless_is_deterministic(self, fixa):
        spec, _, state = fixa
        silent = NoiseProfile(kappa2=np.zeros(2))
        est = theta_next(state, spec, silent, 0.1, 500, seed=0)
        assert est.stderr == 0.0
        expected = block_stats(sgd_step(state, spec, np.zeros(2), 0.1), spec, silent).theta
        assert est.mean == pytest.approx(expected, rel=1e-15)

    def test_matches_quadrature_oracle(self, fixa):
        spec, noise, state = fixa
        est = theta_next(state, spec, noise, 0.1, 100_000, seed=11)
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
    z (overwritten): its affine rows c + w.Q, then its ratio rows."""
    sums = np.empty((len(kernel.forms) + 1, 2, len(z)))
    _block_sums(z, k, list(kernel.forms), kernel.q, sums)
    rows = kernel.c[:, None] + np.einsum("ri,in->rn", kernel.w, sums[-1])
    return np.concatenate([rows, kernel.ratio(sums[:-1], sums[-1])]) if kernel.ratio else rows


def per_eta(rows, count):
    """A one-step kernel's rows (f, sD_next and sB_next per step size, then
    theta_next per step size) regrouped per step size, shape (count, 4, ...)."""
    return np.concatenate([rows[: 3 * count].reshape(count, 3, *rows.shape[1:]), rows[3 * count :, None]], axis=1)


def pivot(kernel, spec):
    """A kernel's rows at lin = 0 and Q = E[Q], the (D, B) block sums of q:
    c + w.E[Q], the exact mean of each affine row, then the ratio rows."""
    q_mean = np.stack(spec.split_sum(kernel.q))
    rows = kernel.c + np.einsum("ri,i->r", kernel.w, q_mean)
    if kernel.ratio is None:
        return rows
    return np.concatenate([rows, kernel.ratio(np.zeros((len(kernel.forms), 2, 1)), q_mean[:, None])[:, 0]])


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
        kernel = _one_step_kernel(state, block_stats(state, spec, noise), spec, noise, etas)
        rows = per_eta(kernel_rows(kernel, spec.k, z.copy()), len(etas))
        for idx, eta in enumerate(etas):
            (f, s_d1, s_b1, theta1), scale = direct_pair(direct_one_step, state, spec, noise, eta, z)
            assert np.all(np.abs(rows[idx, 0] - f) <= 1e-9 * scale)
            np.testing.assert_allclose(rows[idx, 1], s_d1, rtol=1e-9, atol=0)
            np.testing.assert_allclose(rows[idx, 2], s_b1, rtol=1e-9, atol=0)
            np.testing.assert_allclose(rows[idx, 3], theta1, rtol=1e-9, atol=0)

    def test_single_mode_blocks_within_rounding_of_the_terms(self, fixa):
        # a one-mode block's next energy is one square (a - b)^2 that the
        # expansion a^2 - 2ab + b^2 can only resolve to the size of a^2 + b^2
        spec, noise, state = fixa
        lam = spec.lambdas
        z = np.random.default_rng(3).standard_normal((8192, 2))
        etas = [0.1, 0.5, 2.0 / 3.0, 1.0]
        kernel = _one_step_kernel(state, block_stats(state, spec, noise), spec, noise, etas)
        rows = per_eta(kernel_rows(kernel, spec.k, z.copy()), len(etas))
        for idx, eta in enumerate(etas):
            (f, s_d1, s_b1, _), _ = direct_pair(direct_one_step, state, spec, noise, eta, z)
            terms = lam**2 * (((1.0 - eta * lam) * state.c) ** 2 + (eta * z) ** 2)
            s_d0, s_b0 = lam**2 * state.c**2
            assert np.all(np.abs(rows[idx, 0] - f) <= 1e-12 * (s_b0 * terms[:, 0] + s_d0 * terms[:, 1]))
            assert np.all(np.abs(rows[idx, 1] - s_d1) <= 1e-12 * terms[:, 0])
            assert np.all(np.abs(rows[idx, 2] - s_b1) <= 1e-12 * terms[:, 1])

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
                kernel = _one_step_kernel(state, block_stats(state, spec, noise), spec, noise, [eta])
                rows = kernel_rows(kernel, spec.k, z)
                assert np.all(rows[1:3] >= 0.0)
                assert np.all((rows[3] >= 0.0) & (rows[3] <= 1.0))

    def test_projected_rows_match_direct_step(self):
        spec, noise, state = wide_blocks_problem(7, 30)
        z = np.random.default_rng(8).standard_normal((4096, 30))
        for eta in (0.1 / spec.lambda_max, 1.0 / spec.lambda_max, 3.0 / spec.lambda_max):
            rows = kernel_rows(_projected_kernel(block_stats(state, spec, noise), spec, noise, eta), spec.k, z.copy())
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
        kernel = _one_step_kernel(state, block_stats(state, spec, noise), spec, noise, etas)
        rows = per_eta(kernel_rows(kernel, spec.k, z.copy()), len(etas))
        for idx, eta in enumerate(etas):
            (f, s_d1, s_b1, theta1), scale = direct_pair(direct_one_step, state, spec, noise, eta, z)
            assert np.all(np.abs(rows[idx, 0] - f) <= 1e-12 * scale)
            for got, want in zip(rows[idx, 1:], (s_d1, s_b1, theta1)):
                np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("seed", range(12))
    def test_projected_pair_rows_equal_mean_of_one_sided_rows(self, seed):
        rng = np.random.default_rng(4200 + seed)
        spec, noise, state = random_problem(rng)
        z = rng.standard_normal((512, spec.d))
        for factor in rng.uniform(0.05, 3.0, 3):
            eta = factor / spec.lambda_max
            kernel = _projected_kernel(block_stats(state, spec, noise), spec, noise, eta)
            assert kernel.forms == () and kernel.ratio is None
            rows = kernel_rows(kernel, spec.k, z.copy())
            want, size = direct_pair(direct_projected, state, spec, noise, eta, z)
            for got, block, block_size in zip(rows, want, size):
                assert np.all(np.abs(got - block) <= 1e-12 * block_size)


class TestOracleKernel:
    """one_step_estimates estimates f, sD_next and sB_next, which are affine
    in the block sums, so its kernel reads no linear form and has no ratio
    rows; its affine rows are those of the theta_next-reading kernel of
    drift_verdicts."""

    @pytest.mark.parametrize("seed", range(6))
    def test_reads_no_linear_form_and_equals_the_theta_kernel_rows(self, seed, monkeypatch):
        rng = np.random.default_rng(4400 + seed)
        spec, noise, state = random_problem(rng)
        etas = [f / spec.lambda_max for f in rng.uniform(0.05, 1.95, 3)]
        kernels, estimate = [], montecarlo._estimate

        def capturing(n, seed, spec, family, stop=None):
            kernels.extend(family)
            return estimate(n, seed, spec, family, stop)

        monkeypatch.setattr(montecarlo, "_estimate", capturing)
        out = one_step_estimates(state, spec, noise, etas, 100, seed=0)
        assert all(list(rows) == ["f", "sD_next", "sB_next"] for rows in out.values())
        (kernel,) = kernels
        assert kernel.forms == () and kernel.ratio is None
        full = _one_step_kernel(state, block_stats(state, spec, noise), spec, noise, etas)
        assert len(full.forms) == 2 and full.ratio is not None
        assert kernel.c.shape == (3 * len(etas),) and kernel.w.shape == (3 * len(etas), 2)
        for got, want in zip(kernel[:3], full[:3]):
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("n", [100, 2047, 2049, 8193, 20_001, 100_000])
    def test_estimates_equal_the_theta_kernel_estimates(self, n):
        spec, noise, state = random_problem(np.random.default_rng(4500), d=50)
        etas = [f / spec.lambda_max for f in (0.1, 1.0, 1.9)]
        full = _estimate(n, 7, spec, [_one_step_kernel(state, block_stats(state, spec, noise), spec, noise, etas)])
        out = one_step_estimates(state, spec, noise, etas, n, seed=7)
        assert [est for rows in out.values() for est in rows.values()] == full[: 3 * len(etas)]


class TestPivot:
    """Each estimate shifts its rows by the kernels' rows at lin = 0 and
    Q = E[Q]; for an affine row c + w.Q that is c + w.E[Q], its closed-form
    mean, and for theta_next the alignment at the mean next block
    energies."""

    @pytest.mark.parametrize("seed", range(12))
    def test_pivot_is_the_closed_form_mean(self, seed):
        rng = np.random.default_rng(4300 + seed)
        spec, noise, state = random_problem(rng)
        stats = block_stats(state, spec, noise)
        dq = drift_quadratic(stats)
        etas = [f / spec.lambda_max for f in rng.uniform(0.05, 1.95, 3)]
        rows = per_eta(pivot(_one_step_kernel(state, stats, spec, noise, etas), spec), len(etas))
        for eta, (f, s_d1, s_b1, theta1) in zip(etas, rows):
            e_d, e_b = (expected_next_block_energy(stats, eta, block) for block in ("D", "B"))
            assert f == pytest.approx(expected_drift(dq, eta), rel=0, abs=1e-12 * (stats.s_b * e_d + stats.s_d * e_b))
            assert s_d1 == pytest.approx(e_d, rel=1e-12)
            assert s_b1 == pytest.approx(e_b, rel=1e-12)
            assert theta1 == pytest.approx(e_d / (e_d + e_b), rel=1e-12)
        for eta in etas:
            for got, block in zip(pivot(_projected_kernel(stats, spec, noise, eta), spec), ("D", "B")):
                s, tau, _, _, n_loss = stats.block(block)
                target = expected_loss_change(stats, block, eta)
                assert got == pytest.approx(target, rel=0, abs=1e-12 * (eta * s + 0.5 * eta**2 * (tau + n_loss)))

    @staticmethod
    def pivot_errors(spec, noise, state, etas):
        """The largest relative distances of the pivots to their closed forms
        (f, next block energies, projected loss changes) over the one-step
        kernel and the projected kernel at each step size: f relative to
        |p| eta^2 + |q| eta, and the loss change relative to
        eta s + eta^2 (tau + n_loss)/2."""
        stats = block_stats(state, spec, noise)
        dq = drift_quadratic(stats)
        errors = [0.0, 0.0, 0.0]
        rows = per_eta(pivot(_one_step_kernel(state, stats, spec, noise, etas), spec), len(etas))
        for eta, (f, s_d1, s_b1, _) in zip(etas, rows):
            e_d, e_b = (expected_next_block_energy(stats, eta, block) for block in ("D", "B"))
            size = abs(dq.p) * eta**2 + abs(dq.q) * eta
            errors[0] = max(errors[0], abs(f - expected_drift(dq, eta)) / size)
            errors[1] = max(errors[1], abs(s_d1 - e_d) / e_d, abs(s_b1 - e_b) / e_b)
        for eta in etas:
            for got, block in zip(pivot(_projected_kernel(stats, spec, noise, eta), spec), ("D", "B")):
                s, tau, _, _, n_loss = stats.block(block)
                size = eta * s + 0.5 * eta**2 * (tau + n_loss)
                errors[2] = max(errors[2], abs(got - expected_loss_change(stats, block, eta)) / size)
        return errors

    @pytest.mark.parametrize("degenerate", [False, True], ids=["ac1", "degenerate"])
    def test_pivot_equals_the_closed_forms_on_the_oracle_triples(self, degenerate):
        # AC1's 1000 triples and step-size grid, replayed without a draw (one
        # rng.integers(2**31) per triple stood for its Monte-Carlo seed), and
        # as many degenerate-block triples on the same grid rule, where f is
        # small next to the products s_B sD' and s_D sB'
        rng = np.random.default_rng(20260811 + degenerate)
        worst = np.zeros(3)
        for _ in range(1000):
            spec, noise, state = random_problem(rng, degenerate_blocks=degenerate)
            eta_star = drift_quadratic(block_stats(state, spec, noise)).eta_star
            ref = eta_star if eta_star is not None and eta_star > 0 else 2.0 * spec.gap1 / spec.spread2
            rng.integers(2**31)
            worst = np.maximum(worst, self.pivot_errors(spec, noise, state, [0.1 * ref, ref, 3.0 * ref]))
        assert np.all(worst <= 1e-12), worst

    def test_pivot_on_fixa_is_exact(self, fixa):
        spec, noise, state = fixa
        kernel = _one_step_kernel(state, block_stats(state, spec, noise), spec, noise, [0.1])
        assert pivot(kernel, spec)[:3] == pytest.approx([-0.68, 2.6, 0.82], rel=1e-12)
        kernel = _projected_kernel(block_stats(state, spec, noise), spec, noise, 0.3)
        assert pivot(kernel, spec) == pytest.approx([-0.75, -0.21], rel=1e-12)
        assert max(self.pivot_errors(spec, noise, state, [0.1, 0.3])) <= 1e-12


class TestSharedDraw:
    """All states of one estimate share each draw, which each worker draws in
    row blocks; its block sums must equal those of the whole (nb, d) draw of
    the batch, and every ratio row, formed in chunks of pairs, the row formed
    from that whole draw, bit for bit."""

    # 20_001 samples = 10_001 pairs: batches of 512, 512, 1024, 2048 and
    # 4096 pairs and a short one of 1809; at d = 10, 60 and 500 the last row block
    # of every batch is short as well, and the short batch ends in a short
    # ratio chunk
    @pytest.mark.parametrize("d", [2, 10, 60, 500])
    def test_row_blocks_equal_whole_batch_draw(self, d, monkeypatch):
        monkeypatch.setenv("ALIGNLAB_THREADS", "1")
        spec, noise, states = shared_draw_problem(d, d)
        etas = [f / spec.lambda_max for f in (0.5, 1.5)]
        families = (
            [_one_step_kernel(state, block_stats(state, spec, noise), spec, noise, etas) for state in states],
            [_projected_kernel(block_stats(s, spec, noise), spec, noise, 0.7 / spec.lambda_max) for s in states],
        )
        seed, sizes = 28, (512, 512, 1024, 2048, 4096, 1809)
        summed = []

        def recording(z, k, vectors, q, out):
            _block_sums(z, k, vectors, q, out)
            summed.append(out.copy())

        monkeypatch.setattr(montecarlo, "_block_sums", recording)

        def capturing(kernel, fed):
            def ratio(lin, quad):
                rows = kernel.ratio(lin, quad)
                fed.append(rows.copy())
                return rows

            return kernel._replace(ratio=ratio) if kernel.ratio else kernel

        for family in families:
            fed = [[] for _ in family]
            summed.clear()
            ests = _estimate(20_001, seed, spec, [capturing(kernel, got) for kernel, got in zip(family, fed)])
            vectors = [v for kernel in family for v in kernel.forms]
            whole, expected = [], [[] for _ in family]
            for j, nb in enumerate(sizes):
                z = np.random.Generator(np.random.SFC64(np.random.SeedSequence([seed, j]))).standard_normal((nb, d))
                whole.append(np.empty((len(vectors) + 1, 2, nb)))
                _block_sums(z.copy(), spec.k, vectors, family[0].q, whole[-1])
                for want, kernel in zip(expected, family):
                    want.append(kernel_rows(kernel, spec.k, z.copy())[len(kernel.c) :])
            assert np.array_equal(np.concatenate(summed, axis=2), np.concatenate(whole, axis=2))
            for got, want, kernel in zip(fed, expected, family):
                if kernel.ratio:
                    # the first call is the data-free pivot; the rest are chunks
                    chunks = got[1:]
                    assert [c.shape[1] for c in chunks] == [512] * 16 + [512, 512, 512, 273]
                    assert np.array_equal(np.concatenate(chunks, axis=1), np.concatenate(want, axis=1))
                else:
                    assert got == []
            assert len(ests) == sum(len(kernel.c) + len(want[0]) for kernel, want in zip(family, expected))
            assert all(est.n == sum(sizes) for est in ests)

    def test_each_state_equals_its_own_estimate(self, monkeypatch):
        # sharing a draw changes no state's estimate at a given number of
        # pairs: each equals the estimate made for that state alone on the
        # same seed, and a sign test's rows equal those of the state alone
        # stopped at the same look
        spec, noise, states = shared_draw_problem(29, 40)
        jobs = [(state, [f / spec.lambda_max for f in (0.2 * (i + 1), 1.9)]) for i, state in enumerate(states)]
        kernels = [_one_step_kernel(state, block_stats(state, spec, noise), spec, noise, etas) for state, etas in jobs]
        shared = _estimate(20_001, 30, spec, kernels)
        # the affine rows (f, sD_next and sB_next per step size) of every
        # kernel, then the ratio rows (theta_next per step size) of every kernel
        alone = [(_estimate(20_001, 30, spec, [kernel]), len(kernel.c)) for kernel in kernels]
        affine = [est for ests, rows in alone for est in ests[:rows]]
        assert shared == affine + [est for ests, rows in alone for est in ests[rows:]]
        # one_step_estimates' rows are the affine rows of the shared draw
        assert affine == [
            est
            for state, etas in jobs
            for rows in one_step_estimates(state, spec, noise, etas, 20_001, 30).values()
            for est in rows.values()
        ]
        # the first state steps at its dominant loss threshold: its zero-mean
        # row keeps the shared draw going past the first look
        stats = [block_stats(state, spec, noise) for state in states]
        jobs = [(st, (0.3 + 0.2 * i) / spec.lambda_max) for i, st in enumerate(stats)]
        jobs[0] = (stats[0], loss_threshold(stats[0], "D"))
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
        # (the sum of squares alone, per block and pair: the kernel of
        # one_step_estimates reads no linear form) and their shifted copy,
        # and forms no per-pair row; the bound still allows eight (width,
        # chunk) arrays per worker, width being 3 rows per step size, and two
        # sums per row and batch in the calling thread, which keeps six sums
        # per batch. The rows of a whole batch are never formed.
        monkeypatch.setenv("ALIGNLAB_THREADS", str(threads))
        spec, noise, state = random_problem(np.random.default_rng(31), d=50)
        etas = [f / spec.lambda_max for f in np.linspace(0.1, 3.0, 12)]
        n = 400_000
        width = 3 * len(etas)
        worker = montecarlo._BLOCK_VALUES + 2 * montecarlo._BATCH + 8 * width * montecarlo._FINISH
        partial = 2 * width * len(batch_schedule(-(-n // 2))[0])
        tracemalloc.start()
        try:
            one_step_estimates(state, spec, noise, etas, n, seed=5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * (threads * worker + partial)


class TestThreadCountInvariance:
    # 20_001 samples are 10_001 antithetic pairs: five batches of 512 to 4096
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
        kernels = [_projected_kernel(block_stats(state, spec, noise), spec, noise, 0.3)]
        a, b, c = self._under_threads(
            monkeypatch,
            lambda: (projected_verdicts([(block_stats(state, spec, noise), 0.3)], spec, noise, self.N, 18)[row],
                     _estimate(self.N, 18, spec, kernels)[row]),
        )
        assert a == b == c
        verdict, fixed = a
        assert fixed.n == self.PAIRS
        assert verdict.estimate == _estimate(2 * verdict.estimate.n, 18, spec, kernels)[row]

    def test_multi_state_estimates(self, monkeypatch):
        spec, noise, states = shared_draw_problem(32, 50)
        etas = [f / spec.lambda_max for f in (0.1, 1.5)]
        kernels = [_one_step_kernel(s, block_stats(s, spec, noise), spec, noise, etas) for s in states]

        def run():
            return (
                _estimate(self.N, 33, spec, kernels),
                projected_verdicts([(block_stats(s, spec, noise), 0.3) for s in states], spec, noise, self.N, 34),
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
            "from alignlab.montecarlo import _estimate, _one_step_kernel, projected_verdicts\n"
            "spec, noise, states = shared_draw_problem(35, 500)\n"
            "eta = 0.5 / spec.lambda_max\n"
            "kernels = [_one_step_kernel(s, block_stats(s, spec, noise), spec, noise, [eta]) for s in states]\n"
            "print(_estimate(20_001, 36, spec, kernels))\n"
            "jobs = [(block_stats(s, spec, noise), 0.3) for s in states]\n"
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

    def test_shared_draw_blas_and_pool_thread_counts(self):
        # the w products and the moments of Q, like the block sums, run
        # numpy's einsum loop: a shared-draw estimate over one-step and
        # theta_next kernels, and one over projected kernels, keep their bits
        # under every BLAS and pool thread count
        script = (
            "import sys\n"
            "sys.path.insert(0, 'tests')\n"
            "from helpers import shared_draw_problem\n"
            "from alignlab import block_stats\n"
            "from alignlab.montecarlo import _estimate, _one_step_kernel, _projected_kernel\n"
            "spec, noise, states = shared_draw_problem(38, 500)\n"
            "etas = [f / spec.lambda_max for f in (0.1, 0.5, 1.5)]\n"
            "kernels = [_one_step_kernel(s, block_stats(s, spec, noise), spec, noise, etas) for s in states]\n"
            "oracle = [kernel._replace(forms=(), ratio=None) for kernel in kernels]\n"
            "print(_estimate(20_001, 39, spec, oracle + kernels))\n"
            "eta = 0.7 / spec.lambda_max\n"
            "print(_estimate(20_001, 40, spec, [_projected_kernel(block_stats(s, spec, noise), spec, noise, eta)"
            " for s in states]))\n"
        )
        src = str(Path(alignlab.__file__).resolve().parent.parent)
        outputs = set()
        for blas in ("1", "2"):
            for pool in ("1", "2"):
                env = dict(os.environ, OPENBLAS_NUM_THREADS=blas, OMP_NUM_THREADS=blas, ALIGNLAB_THREADS=pool,
                           PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
                run = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True,
                                     cwd=Path(__file__).resolve().parent.parent, check=True)
                outputs.add(run.stdout)
        assert len(outputs) == 1 and "McEstimate" in outputs.pop()

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
            "print(projected_verdicts([(block_stats(state, spec, noise), 0.3)], spec, noise, 20_001, 19))\n"
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
    """The sign tests look at every batch bound 512 * 2^i and at the cap, test
    each row at the Bonferroni z_K of those K looks, and stop the shared
    draw at the first look where every row is settled."""

    def test_schedule_and_looks(self, fixa, monkeypatch):
        # the schedule listed in full: batches of 512, 512, 1024, 2048 and
        # then 4096 pairs, whose ends pass through every 512 * 2^i below the
        # total
        batches, looks = batch_schedule(50_000)
        bounds = [0] + [end for _, _, end in batches]
        assert bounds[:8] == [0, 512, 1024, 2048, 4096, 8192, 12288, 16384] and bounds[-1] == 50_000
        assert set(np.diff(bounds[4:-1])) == {montecarlo._BATCH}
        assert looks == [512, 1024, 2048, 4096, 8192, 16384, 32768, 50_000]
        # the looks read off the cap are those of the listed schedule
        caps = [*range(1, 20_000), *range(20_000, 400_000, 37), *(2**k + e for k in range(25) for e in (0, 1))]
        assert all(montecarlo._looks(pairs) == batch_schedule(pairs)[1] for pairs in caps)
        assert montecarlo._looks(8192) == [512, 1024, 2048, 4096, 8192]
        assert [montecarlo._looks(p)[-1] for p in (1, 500, 512, 513)] == [1, 500, 512, 513]
        # an estimate draws exactly the listed batches: the fixed-n path in one
        # pass, and a sign test stopped at its cap look by look
        spec, noise, state = fixa
        drawn, run_jobs = [], montecarlo.run_jobs

        def recording(fn, jobs):
            drawn.append(list(jobs))
            return run_jobs(fn, jobs)

        monkeypatch.setattr(montecarlo, "run_jobs", recording)
        for pairs in (500, 512, 513, 50_000):
            batches, looks = batch_schedule(pairs)
            drawn.clear()
            one_step_estimates(state, spec, noise, [0.1], 2 * pairs, seed=2)
            assert drawn == [batches]
            drawn.clear()
            with monkeypatch.context() as patch:
                stop_at_pairs(patch, pairs)
                rows = drift_verdicts([(state, block_stats(state, spec, noise), [0.1])], spec, noise, 2 * pairs, 2)
            assert {row.estimate.n for row in rows} == {pairs}
            assert [look[-1][2] for look in drawn] == looks
            assert [batch for look in drawn for batch in look] == batches

    def test_first_look_is_the_least_power_of_two_at_the_floor(self):
        # the first look's 2 x _FINISH samples reach the sample floor, and
        # half as many pairs would not
        first = montecarlo._FINISH
        assert first & (first - 1) == 0
        assert first < montecarlo._VERDICT_MIN_N <= 2 * first

    @pytest.mark.parametrize("z_crit", [1.5, 3.0, 5.0, 9.0])
    @pytest.mark.parametrize("n", [2000, 20_001, 100_000, 10**7])
    def test_z_k_spends_the_level_evenly_over_the_looks(self, z_crit, n):
        k = len(montecarlo._looks(-(-n // 2)))
        assert k == len(batch_schedule(-(-n // 2))[1])
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
        assert montecarlo._z_looks(40.0, 100_000) == math.sqrt(1600.0 + 2.0 * math.log(8))

    def test_z_k_is_the_last_float_whose_tail_is_within_the_level(self):
        # bisected down to adjacent floats: z_K's tail is within the level,
        # and the tail of the float just below z_K is not
        for z_crit in np.linspace(0.1, 38.0, 40):
            for n in (1000, 2001, 20_001, 10**7, 10**12, 10**18):
                k = len(montecarlo._looks(-(-n // 2)))
                level = math.erfc(z_crit / math.sqrt(2.0)) / k
                z = montecarlo._z_looks(float(z_crit), n)
                if k > 1 and level > 0.0:
                    assert math.erfc(z / math.sqrt(2.0)) <= level
                    assert math.erfc(math.nextafter(z, 0.0) / math.sqrt(2.0)) > level

    def test_set_up_does_not_grow_with_the_cap(self):
        # z_K at a cap of 5e9 pairs reads its 25 looks off the cap; listing
        # the schedule's 1.2 million batches would take tens of MB
        tracemalloc.start()
        try:
            z = montecarlo._z_looks(3.0, 10**10)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(montecarlo._looks(5 * 10**9)) == 25 and z > 3.0
        assert peak < 1_000_000

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
        # fixed n: one pass over every batch (j, begin, end)
        one_step_estimates(state, spec, noise, [0.1], 80_000, seed=1)
        assert drawn == [batch_schedule(40_000)[0]]
        assert drawn[0][:5] == [(0, 0, 512), (1, 512, 1024), (2, 1024, 2048), (3, 2048, 4096), (4, 4096, 8192)]
        assert drawn[0][-2:] == [(11, 32768, 36864), (12, 36864, 40_000)]
        # settled at the seventh look, 32768 pairs (z = 4.20)
        drawn.clear()
        rows = projected_verdicts([(block_stats(state, spec, noise), 0.806)], spec, noise, 80_000, 1)
        assert {row.estimate.n for row in rows} == {32768}
        assert drawn == [
            [(0, 0, 512)],
            [(1, 512, 1024)],
            [(2, 1024, 2048)],
            [(3, 2048, 4096)],
            [(4, 4096, 8192)],
            [(5, 8192, 12288), (6, 12288, 16384)],
            [(7, 16384, 20480), (8, 20480, 24576), (9, 24576, 28672), (10, 28672, 32768)],
        ]

    def test_stopping_look_and_bytes_equal_across_threads(self, fixa, monkeypatch):
        # the look at 32768 pairs takes four batches, which two and three
        # threads draw side by side
        spec, noise, state = fixa
        runs = []
        for threads in ("1", "2", "3"):
            monkeypatch.setenv("ALIGNLAB_THREADS", threads)
            rows = projected_verdicts([(block_stats(state, spec, noise), 0.806)], spec, noise, 80_000, 1)
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
        assert f_row.estimate.n == theta_row.estimate.n == 512

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
        # 2 (1 - Phi(1.5)) = 0.134 plus 3 binomial standard errors; K = 6
        # looks up to 16384 pairs, the last of two batches
        monkeypatch.setenv("ALIGNLAB_THREADS", threads)
        spec, noise, state = fixa
        seeds = 2000
        job = (block_stats(state, spec, noise), 0.8)
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
        low = rescale_to_alignment(state, spec, 0.5 * g_gap(spec, noise))
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

    @pytest.mark.parametrize("seed", [5, 6, 7, 11, 14])
    def test_zero_step_f_row_is_exactly_zero(self, seed):
        # at eta = 0 the step moves nothing, so f is 0 on every draw: the row
        # reads mean 0 with stderr 0 and predicts "0", never a contradiction
        spec, noise, state = random_problem(np.random.default_rng(seed))
        f_row, _ = drift_rows(state, spec, noise, 0.0, 2000, seed=0)
        assert f_row.verdict != "contradicted"
        assert (f_row.estimate.mean, f_row.estimate.stderr) == (0.0, 0.0)
        assert one_step(state, spec, noise, 0.0, 2000, seed=0)["f"].mean == 0.0

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

    def test_underflowing_sum_of_squares_rejected(self):
        # f is about 1e-300: its squared deviations round to 0 while their sum
        # does not, which would read as a zero stderr
        spec = Spectrum(lambdas=np.array([2e-75, 1e-75]), k=1)
        noise = NoiseProfile(kappa2=np.array([1.0, 1.0]))
        with pytest.raises(ParameterError, match="sum of squares underflows"):
            one_step_estimates(State(c=np.array([1.0, 1.0])), spec, noise, [0.1], 2001, seed=0)

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
            projected_verdicts([(block_stats(state, spec, noise), eta)], spec, noise, 5_000, 0)

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_overflowing_step_rejected_before_drawing(self, fixa, threads, monkeypatch):
        # eta^2 overflows in the closed-form loss change
        monkeypatch.setenv("ALIGNLAB_THREADS", threads)
        monkeypatch.setattr(montecarlo, "run_jobs", None)  # a draw would fail on a call of None
        spec, noise, state = fixa
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ParameterError, match="not finite"):
                projected_verdicts([(block_stats(state, spec, noise), 1e160)], spec, noise, 2001, 0)

    def test_boundary_step_inconclusive(self, fixa):
        spec, noise, state = fixa
        assert expected_loss_change(block_stats(state, spec, noise), "D", 0.8) == pytest.approx(0.0, abs=1e-14)
        d_row, _ = projected_verdicts([(block_stats(state, spec, noise), 0.8)], spec, noise, 50_000, 40)
        assert d_row.predicted == "0"
        assert d_row.verdict == "inconclusive"
        assert d_row.threshold == pytest.approx(0.8)

    def test_between_thresholds_dominant_up_bulk_down(self, fixa):
        spec, noise, state = fixa
        up, down = projected_verdicts([(block_stats(state, spec, noise), 0.9)], spec, noise, 100_000, 41)
        assert (up.test, down.test) == ("loss_change_D", "loss_change_B")
        assert up.predicted == "+"
        assert up.verdict == "confirmed"
        assert up.target_ok
        assert down.predicted == "-"
        assert down.verdict == "confirmed"
        assert down.target_ok

    def test_tiny_step_decreases(self, fixa):
        spec, noise, state = fixa
        d_row, _ = projected_verdicts([(block_stats(state, spec, noise), 0.01)], spec, noise, 50_000, 42)
        assert d_row.predicted == "-"
        assert d_row.verdict == "confirmed"

    def test_closed_form_target(self, fixa):
        spec, noise, state = fixa
        stats = block_stats(state, spec, noise)
        d_row, _ = projected_verdicts([(block_stats(state, spec, noise), 0.3)], spec, noise, 50_000, 43)
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
            rows = projected_verdicts([(block_stats(state, spec, noise), eta)], spec, noise, 50_000, 43)
            assert [row.target_ok for row in rows] == [ok, ok]
            assert [row.predicted for row in rows] == signs
            assert [row.estimate.n for row in rows] == [25_000, 25_000]
