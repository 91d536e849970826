import warnings

import numpy as np
import pytest

from alignlab import (
    DivergenceError,
    NoiseProfile,
    ParameterError,
    Spectrum,
    State,
    build_spectrum,
    csgd_plan,
    late_phase_statistic,
    projected_step,
    random_init,
    run_trajectory,
    sample_noise,
    sgd_step,
)
from alignlab.dynamics import _DIVERGENCE_LIMIT, _chunk_rows, write_trajectory_csv


class TestSteps:
    def test_noiseless_recursion(self, fixa):
        spec, _, state = fixa
        out = sgd_step(state, spec, np.zeros(2), 0.1)
        assert np.allclose(out.c, [0.8, 0.9])
        assert out.t == 1

    def test_zero_step_only_advances_time(self, fixa):
        spec, _, state = fixa
        out = sgd_step(state, spec, np.zeros(2), 0.0)
        assert np.array_equal(out.c, state.c)
        assert out.t == state.t + 1

    def test_single_mode_with_noise(self):
        spec = Spectrum(lambdas=np.array([2.0, 1.0]), k=1)
        state = State(c=np.array([1.0, 0.0]))
        out = sgd_step(state, spec, np.array([1.0, 0.0]), 0.5)
        assert out.c[0] == pytest.approx((1 - 0.5 * 2) * 1 - 0.5 * 1)  # -0.5

    def test_projected_updates_touch_one_block(self, fixa):
        spec, _, state = fixa
        dom = projected_step(state, spec, np.zeros(2), 0.1, "D")
        assert np.allclose(dom.c, [0.8, 1.0])
        blk = projected_step(state, spec, np.zeros(2), 0.1, "B")
        assert np.allclose(blk.c, [1.0, 0.9])

    def test_projector_decomposition(self):
        rng = np.random.default_rng(21)
        spec = Spectrum(lambdas=np.array([5.0, 3.0, 1.0, 0.5]), k=2)
        for _ in range(25):
            state = State(c=rng.standard_normal(4))
            zeta = rng.standard_normal(4)
            eta = float(rng.uniform(0.01, 0.5))
            split = projected_step(projected_step(state, spec, zeta, eta, "D"), spec, zeta, eta, "B")
            full = sgd_step(state, spec, zeta, eta)
            assert np.array_equal(split.c, full.c)

    def test_dimension_mismatch(self, fixa):
        spec, _, state = fixa
        with pytest.raises(ParameterError):
            sgd_step(state, spec, np.zeros(3), 0.1)
        with pytest.raises(ParameterError):
            projected_step(State(c=np.ones(3)), spec, np.zeros(2), 0.1, "D")

    def test_noiseless_per_coordinate_contraction(self):
        spec = Spectrum(lambdas=np.array([4.0, 2.0, 1.0]), k=1)
        state = State(c=np.array([1.0, -2.0, 3.0]))
        eta = 0.3  # below 2/lambda_1
        out = sgd_step(state, spec, np.zeros(3), eta)
        for i in range(3):
            assert abs(out.c[i]) == pytest.approx(abs(1 - eta * spec.lambdas[i]) * abs(state.c[i]))


class TestSampleNoise:
    def test_zero_profile(self):
        noise = NoiseProfile(kappa2=np.zeros(2))
        rng = np.random.default_rng(0)
        assert np.array_equal(sample_noise(noise, rng), np.zeros(2))

    def test_empirical_variance(self):
        noise = NoiseProfile(kappa2=np.array([1.0, 4.0]))
        rng = np.random.default_rng(42)
        draws = np.array([sample_noise(noise, rng) for _ in range(200)])
        # heavier check on a vectorized stream of the first coordinate
        rng = np.random.default_rng(42)
        big = rng.standard_normal(100_000)
        assert 0.99 <= np.var(big) <= 1.01
        assert np.var(draws[:, 1]) == pytest.approx(4.0, rel=0.2)

    def test_identical_streams_identical_samples(self):
        noise = NoiseProfile(kappa2=np.array([1.0, 2.0]))
        a = sample_noise(noise, np.random.default_rng(7))
        b = sample_noise(noise, np.random.default_rng(7))
        assert np.array_equal(a, b)


class TestRunTrajectory:
    def test_noiseless_losses_strictly_decreasing(self, fixa):
        spec, _, state = fixa
        silent = NoiseProfile(kappa2=np.zeros(2))
        traj = run_trajectory(spec, silent, state, 0.1, 200, 10, algo="sgd", seed=0)
        assert np.all(np.diff(traj.losses) < 0)

    def test_recording_grid(self, fixa):
        spec, noise, state = fixa
        traj = run_trajectory(spec, noise, state, 0.1, 25, 10, algo="sgd", seed=0)
        assert list(traj.times) == [0, 10, 20, 25]
        assert np.all((traj.thetas >= 0) & (traj.thetas <= 1))
        assert np.all(traj.losses >= 0)

    def test_block_energy_recording(self, fixa):
        spec, noise, state = fixa
        traj = run_trajectory(spec, noise, state, 0.1, 20, 5, seed=1, record_blocks=True)
        assert traj.s_d is not None and len(traj.s_d) == len(traj.times)
        total = traj.s_d + traj.s_b
        assert np.allclose(traj.thetas, traj.s_d / total)

    def test_long_run_settles_at_stationary_alignment(self, fixa):
        # At stationarity each coordinate is exactly N(0, beta_i), so the true
        # stationary E[theta] at d=2 is the two-dimensional Gaussian integral
        # E[4 b1 z1^2 / (4 b1 z1^2 + b2 z2^2)] = 0.59233..., frozen here from
        # adaptive quadrature. The ratio-of-expectations formula theta_inf
        # (0.67857...) only matches in the large-d concentration limit; the
        # acceptance suite checks that form at d=200.
        spec, noise, state = fixa
        plan = csgd_plan(spec, noise, state, 0.1)
        assert plan.theta_inf == pytest.approx(0.6785714285714285, rel=1e-12)
        traj = run_trajectory(spec, noise, state, 0.1, 100_000, 10, seed=3)
        mean, _ = late_phase_statistic(traj, 50_000)
        assert mean == pytest.approx(0.5923303169377979, abs=0.02)

    def test_unstable_step_diverges_with_step_index(self, fixa):
        spec, noise, state = fixa
        with pytest.raises(DivergenceError) as err:
            run_trajectory(spec, noise, state, 1.5, 3000, 10, seed=0)  # 3/lambda_1
        assert err.value.step > 0

    def test_one_step_energy_means_match_closed_form(self, fixa):
        # averaging the next block energy over fresh draws from a fixed state
        # reproduces the exact conditional expectation
        from alignlab import block_stats, estimate_next_block_energy, expected_next_block_energy

        spec, noise, state = fixa
        stats = block_stats(state, spec, noise)
        for block in ("D", "B"):
            est = estimate_next_block_energy(state, spec, noise, 0.1, block, 100_000, seed=8)
            target = expected_next_block_energy(stats, 0.1, block)
            assert abs(est.mean - target) <= 4.0 * est.stderr

    def test_determinism_and_csv_bytes(self, tmp_path, fixa):
        spec, noise, state = fixa
        a = run_trajectory(spec, noise, state, 0.1, 100, 10, seed=5)
        b = run_trajectory(spec, noise, state, 0.1, 100, 10, seed=5)
        assert np.array_equal(a.thetas, b.thetas)
        pa, pb = tmp_path / "a.csv", tmp_path / "b.csv"
        write_trajectory_csv(pa, a)
        write_trajectory_csv(pb, b)
        assert pa.read_bytes() == pb.read_bytes()
        header = pa.read_text().splitlines()[0]
        assert header == "step,theta,loss"

    def test_parameter_validation(self, fixa):
        spec, noise, state = fixa
        with pytest.raises(ParameterError):
            run_trajectory(spec, noise, state, 0.1, 0, 10)
        with pytest.raises(ParameterError):
            run_trajectory(spec, noise, state, 0.1, 10, 0)
        with pytest.raises(ParameterError):
            run_trajectory(spec, noise, state, 0.1, 10, 1, algo="adam")


def reference_trajectory(spec, noise, init, eta, T, record_every, algo, seed):
    """Step-by-step reference for run_trajectory: one sample_noise draw and one
    sgd_step/projected_step per step, with the divergence check after every
    step. Returns (times, thetas, losses, s_d, s_b) arrays."""
    rng = np.random.default_rng(seed)
    lam, k = spec.lambdas, spec.k
    rows = []

    def record(t, c):
        w = lam**2 * c**2
        s_d, s_b = float(np.sum(w[:k])), float(np.sum(w[k:]))
        s = s_d + s_b
        rows.append((t, s_d / s if s > 0 else 0.0, float(0.5 * np.sum(lam * c**2)), s_d, s_b))

    state = init
    with np.errstate(over="ignore", invalid="ignore"):
        record(0, state.c)
        for t in range(1, T + 1):
            zeta = sample_noise(noise, rng)
            if algo == "sgd":
                state = sgd_step(state, spec, zeta, eta)
            else:
                state = projected_step(state, spec, zeta, eta, "D" if algo == "dsgd" else "B")
            peak = float(np.max(np.abs(state.c)))
            if not np.isfinite(peak) or peak > _DIVERGENCE_LIMIT:
                raise DivergenceError(t, f"max |c_i| = {peak}")
            if t % record_every == 0 or t == T:
                record(t, state.c)
    return tuple(np.array(col) for col in zip(*rows))


class TestChunkedKernel:
    """run_trajectory draws noise a chunk of steps at a time; its records must
    equal the step-by-step reference bit for bit."""

    D = 500
    ROWS = _chunk_rows(D)

    @pytest.fixture(scope="class")
    def problem(self):
        spec = build_spectrum(self.D, 50, 20.0, (0.5, 1.0), 0.2, seed=11)
        noise = NoiseProfile(kappa2=np.exp(np.random.default_rng(12).normal(0.0, 1.0, self.D)))
        return spec, noise, random_init(self.D, 1.0, seed=13)

    @pytest.mark.parametrize("algo", ["sgd", "dsgd", "bsgd"])
    @pytest.mark.parametrize("T", [1, ROWS - 1, ROWS, ROWS + 1, 4 * ROWS + 1])
    @pytest.mark.parametrize("record_every", [1, 7, ROWS + 3])
    def test_bit_equal_to_step_by_step(self, problem, algo, T, record_every):
        spec, noise, init = problem
        traj = run_trajectory(spec, noise, init, 0.003, T, record_every, algo=algo, seed=9, record_blocks=True)
        ref = reference_trajectory(spec, noise, init, 0.003, T, record_every, algo, 9)
        for name, want in zip(("times", "thetas", "losses", "s_d", "s_b"), ref):
            assert np.array_equal(getattr(traj, name), want), name

    def test_divergence_between_checks_matches_reference(self, fixa):
        # 2/lambda_1 < eta: |c_1| doubles each step, passes the limit near step
        # 500 and overflows near step 1025, all inside one chunk
        spec, noise, state = fixa
        assert _chunk_rows(2) > 3000
        with pytest.raises(DivergenceError) as ref:
            reference_trajectory(spec, noise, state, 1.5, 3000, 1000, "sgd", 0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DivergenceError) as err:
                run_trajectory(spec, noise, state, 1.5, 3000, 1000, seed=0)
        assert 0 < err.value.step < 1000
        assert err.value.step == ref.value.step
        assert str(err.value) == str(ref.value)

    def test_limit_crossed_and_recrossed_inside_a_chunk(self):
        # a coordinate starting far past the limit shrinks 10x per step and is
        # back inside long before the chunk ends; the first step still raises
        spec = Spectrum(lambdas=np.array([2.0, 1.0]), k=1)
        noise = NoiseProfile(kappa2=np.array([1.0, 1.0]))
        state = State(c=np.array([1e200, 1.0]))
        with pytest.raises(DivergenceError) as ref:
            reference_trajectory(spec, noise, state, 0.45, 200, 100, "sgd", 4)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DivergenceError) as err:
                run_trajectory(spec, noise, state, 0.45, 200, 100, seed=4)
        assert err.value.step == ref.value.step == 1
        assert str(err.value) == str(ref.value)
