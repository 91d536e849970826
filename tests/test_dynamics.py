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
    expected_second_moment,
    late_phase_statistic,
    random_init,
    run_trajectory,
)
from alignlab.dynamics import _DIVERGENCE_LIMIT, _chunk_rows, _jump_coefficients, write_trajectory_csv

from helpers import projected_step, sample_noise, sgd_step


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
        traj = run_trajectory(spec, noise, state, 0.1, 20, 5, seed=1)
        assert len(traj.s_d) == len(traj.s_b) == len(traj.times)
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
        from alignlab import block_stats, expected_next_block_energy, one_step_estimates

        spec, noise, state = fixa
        stats = block_stats(state, spec, noise)
        ests = one_step_estimates(state, spec, noise, [0.1], 100_000, seed=8)[0.1]
        for block in ("D", "B"):
            est = ests[f"s{block}_next"]
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


def reference_trajectory(spec, noise, init, eta, T, record_every, algo, seed, step_by_step=False):
    """Jump-by-jump reference for run_trajectory: one sample_noise draw per
    jump and the divergence check after every jump. It jumps R steps by the
    kernel's rule (R = min(record_every, T) when every updated mode contracts
    and the start lies inside the limit, else 1; `step_by_step` forces 1). A
    one-step jump is one sgd_step/projected_step; a longer one applies the
    kernel's jump coefficients, which TestJumpCoefficients checks on their
    own. Returns (times, thetas, losses, s_d, s_b) arrays."""
    rng = np.random.default_rng(seed)
    lam, k = spec.lambdas, spec.k
    sl = {"sgd": slice(None), "dsgd": slice(None, k), "bsgd": slice(k, None)}[algo]
    a = 1.0 - eta * lam[sl]
    jump = np.all(np.abs(a) < 1.0) and np.max(np.abs(init.c)) <= _DIVERGENCE_LIMIT and not step_by_step
    R = min(record_every, T) if jump else 1
    rows = []

    def record(t, c):
        w = lam**2 * c**2
        s_d, s_b = float(np.sum(w[:k])), float(np.sum(w[k:]))
        s = s_d + s_b
        rows.append((t, s_d / s if s > 0 else 0.0, float(0.5 * np.sum(lam * c**2)), s_d, s_b))

    state = init
    t = 0
    with np.errstate(over="ignore", invalid="ignore"):
        record(0, state.c)
        while t < T:
            n = min(R, T - t)
            t += n
            zeta = sample_noise(noise, rng)
            if n > 1:
                decay, scale = _jump_coefficients(a, n)
                c = state.c.copy()
                c[sl] = decay * c[sl] - (eta * zeta[sl]) * scale
                state = State(c=c, t=t)
            elif algo == "sgd":
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
    """run_trajectory draws noise a chunk of jumps at a time; its records must
    equal the jump-by-jump reference bit for bit. With record_every = 1 (and
    T = 1) that reference is step by step; otherwise it jumps record_every
    steps at a time, and T mod record_every != 0 ends on a shorter jump."""

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
        traj = run_trajectory(spec, noise, init, 0.003, T, record_every, algo=algo, seed=9)
        ref = reference_trajectory(spec, noise, init, 0.003, T, record_every, algo, 9)
        for name, want in zip(("times", "thetas", "losses", "s_d", "s_b"), ref):
            assert np.array_equal(getattr(traj, name), want), name

    @pytest.mark.parametrize("record_every", [7, ROWS + 3])
    def test_growing_mode_steps_one_at_a_time(self, problem, record_every):
        # |a_1| = 1.05: the run cannot jump, stays finite over 4 chunks, and
        # some chunks hold no record
        spec, noise, init = problem
        eta = 2.05 / spec.lambda_max
        traj = run_trajectory(spec, noise, init, eta, 4 * self.ROWS + 1, record_every, seed=9)
        ref = reference_trajectory(spec, noise, init, eta, 4 * self.ROWS + 1, record_every, "sgd", 9, step_by_step=True)
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

    @pytest.mark.parametrize("seed, step", [(4, 10), (0, 20)])
    def test_divergence_of_a_jumping_run_matches_reference(self, seed, step):
        # every mode contracts, so the run jumps 10 steps at a time; the huge
        # dominant noise carries a record past the limit (for seed 0 the
        # second one, not the first)
        spec = Spectrum(lambdas=np.array([2.0, 1.0]), k=1)
        noise = NoiseProfile(kappa2=np.array([1e302, 1.0]))
        state = State(c=np.array([1.0, 1.0]))
        with pytest.raises(DivergenceError) as ref:
            reference_trajectory(spec, noise, state, 0.45, 200, 10, "sgd", seed)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DivergenceError) as err:
                run_trajectory(spec, noise, state, 0.45, 200, 10, seed=seed)
        assert err.value.step == ref.value.step == step
        assert str(err.value) == str(ref.value)


class TestJumpCoefficients:
    A = np.array([0.999999, 0.5, 0.0, -0.4, -0.95])

    def test_one_step_is_the_plain_step(self):
        decay, scale = _jump_coefficients(self.A, 1)
        assert np.array_equal(decay, self.A)
        assert np.array_equal(scale, np.ones_like(self.A))

    @pytest.mark.parametrize("n", [2, 7, 10, 33])
    def test_match_n_composed_steps(self, n):
        # n steps c <- a*c - e_j compose to a^n * c - sum_j a^(n-1-j) e_j, whose
        # noise variance is sum_j a^(2j) = (1 - a^(2n)) / (1 - a^2)
        decay, scale = _jump_coefficients(self.A, n)
        assert np.allclose(decay, np.prod(np.tile(self.A, (n, 1)), axis=0), rtol=1e-13, atol=0)
        closed = (1.0 - self.A ** (2 * n)) / (1.0 - self.A**2)
        assert np.allclose(scale**2, closed, rtol=1e-9, atol=0)
        # a negative a makes a^n alternate in sign
        assert np.all(np.sign(decay[3:]) == (-1) ** n)


def law_problem(d, eta_top):
    """A (spectrum, noise, init, eta) with eta * lambda_1 = eta_top: the init
    sits well above the stationary level, so the records are transient."""
    spec = build_spectrum(d, max(1, d // 8), 20.0, (0.5, 1.0), 0.2, seed=d)
    noise = NoiseProfile(kappa2=np.exp(np.random.default_rng(d).normal(0.0, 1.0, d)))
    return spec, noise, random_init(d, 3.0, seed=d + 1), eta_top / spec.lambda_max


def assert_records_match_closed_form(runs, spec, noise, init, eta, algo="sgd"):
    """At every record time t > 0 the seed means of s_D, s_B and the loss lie
    within 5 stderr of their closed forms: per mode E[c_i(t)^2] from
    expected_second_moment for updated modes, c_i(0)^2 for the others. t = 0
    is left out, since every seed starts from the same state."""
    k, lam = spec.k, spec.lambdas
    updated = {"sgd": np.ones(spec.d, bool), "dsgd": np.arange(spec.d) < k, "bsgd": np.arange(spec.d) >= k}[algo]
    times = runs[0].times
    for name, weight in (("s_d", np.where(np.arange(spec.d) < k, lam**2, 0.0)),
                         ("s_b", np.where(np.arange(spec.d) >= k, lam**2, 0.0)),
                         ("losses", 0.5 * lam)):
        vals = np.array([getattr(run, name) for run in runs])
        for i, t in enumerate(times[1:], 1):
            second = [
                expected_second_moment(c0, l, k2, eta, int(t)) if up else c0**2
                for c0, l, k2, up in zip(init.c, lam, noise.kappa2, updated)
            ]
            target = float(np.sum(weight * second))
            stderr = vals[:, i].std(ddof=1) / np.sqrt(len(runs))
            assert abs(vals[:, i].mean() - target) <= 5.0 * stderr + 1e-12 * abs(target), (name, t)


class TestJumpLaw:
    """The jump kernel's records have the law of a step-by-step run."""

    SEEDS = 1500

    @pytest.mark.parametrize("eta_top", [0.5, 1.4])  # 1.4: a_1 = -0.4, a^R alternates
    @pytest.mark.parametrize("R", [1, 7, 10])
    @pytest.mark.parametrize("d", [2, 24, 500])
    def test_record_means_match_closed_form(self, d, R, eta_top):
        spec, noise, init, eta = law_problem(d, eta_top)
        T = 66  # neither 7 nor 10 divides it: the run ends on a shorter jump
        runs = [run_trajectory(spec, noise, init, eta, T, R, seed=s) for s in range(self.SEEDS)]
        assert runs[0].times[-1] == T
        assert list(runs[0].times[:-1]) == list(range(0, T, R))
        assert_records_match_closed_form(runs, spec, noise, init, eta)

    @pytest.mark.parametrize("d", [2, 24, 500])
    def test_late_phase_matches_step_by_step(self, d):
        # seed mean and spread of theta over the late records: jumps of R
        # against one record per step (R = 1) read on the same grid
        spec, noise, init, eta = law_problem(d, 0.5)
        T, t_late, seeds = 300, 150, 400
        steps = [run_trajectory(spec, noise, init, eta, T, 1, seed=s) for s in range(seeds)]
        for R in (7, 10):
            jumps = [run_trajectory(spec, noise, init, eta, T, R, seed=seeds + s) for s in range(seeds)]
            grid = jumps[0].times
            late = grid >= t_late
            x_step = np.array([run.thetas[grid[late]] for run in steps])
            x_jump = np.array([run.thetas[late] for run in jumps])
            m_step, m_jump = x_step.mean(axis=1), x_jump.mean(axis=1)
            se = np.sqrt((m_step.var(ddof=1) + m_jump.var(ddof=1)) / seeds)
            assert abs(m_step.mean() - m_jump.mean()) <= 5.0 * se
            # variance over seeds at t = T, with the distribution-free stderr
            # of a sample variance
            v = []
            for x in (x_step[:, -1], x_jump[:, -1]):
                dev2 = (x - x.mean()) ** 2
                v.append((dev2.mean(), np.sqrt((np.mean(dev2**2) - dev2.mean() ** 2) / seeds)))
            assert abs(v[0][0] - v[1][0]) <= 5.0 * np.hypot(v[0][1], v[1][1])


class TestJumpEdges:
    def test_record_every_beyond_T_is_one_jump(self):
        spec, noise, init, eta = law_problem(24, 0.5)
        runs = [run_trajectory(spec, noise, init, eta, 30, 50, seed=s) for s in range(2000)]
        assert list(runs[0].times) == [0, 30]
        assert_records_match_closed_form(runs, spec, noise, init, eta)

    @pytest.mark.parametrize("algo", ["dsgd", "bsgd"])
    def test_projected_jumps_leave_the_other_block(self, algo):
        spec, noise, init, eta = law_problem(24, 0.5)
        runs = [run_trajectory(spec, noise, init, eta, 66, 7, algo=algo, seed=s) for s in range(1500)]
        for run in runs:
            fixed = run.s_b if algo == "dsgd" else run.s_d
            assert np.all(fixed == fixed[0])
        assert_records_match_closed_form(runs, spec, noise, init, eta, algo)

    def test_start_beyond_limit_steps_one_at_a_time(self):
        # the first step brings the start back inside the limit, so the run
        # finishes, but it was never allowed to jump
        spec = Spectrum(lambdas=np.array([2.0, 1.0]), k=1)
        noise = NoiseProfile(kappa2=np.array([1.0, 1.0]))
        state = State(c=np.array([2e150, 1.0]))
        traj = run_trajectory(spec, noise, state, 0.45, 200, 100, seed=4)
        ref = reference_trajectory(spec, noise, state, 0.45, 200, 100, "sgd", 4, step_by_step=True)
        for name, want in zip(("times", "thetas", "losses", "s_d", "s_b"), ref):
            assert np.array_equal(getattr(traj, name), want), name
