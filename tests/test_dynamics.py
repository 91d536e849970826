import threading
import tracemalloc
import warnings

import numpy as np
import pytest

from alignlab import (
    DivergenceError,
    NoiseProfile,
    ParameterError,
    Spectrum,
    State,
    TrajectoryRecord,
    build_spectrum,
    csgd_plan,
    expected_second_moment,
    late_phase_statistic,
    mode_law,
    one_step_estimates,
    random_init,
    run_trajectory,
)
from alignlab import dynamics
from alignlab.dynamics import _DIVERGENCE_LIMIT, _chunk_rows, run_trajectories

from helpers import sample_noise, sgd_step


class TestSteps:
    def test_noiseless_recursion(self, fixa):
        spec, _, state = fixa
        out = sgd_step(state, spec, np.zeros(2), 0.1)
        assert np.allclose(out.c, [0.8, 0.9])

    def test_zero_step_only_advances_time(self, fixa):
        spec, _, state = fixa
        out = sgd_step(state, spec, np.zeros(2), 0.0)
        assert np.array_equal(out.c, state.c)

    def test_single_mode_with_noise(self):
        spec = Spectrum(lambdas=np.array([2.0, 1.0]), k=1)
        state = State(c=np.array([1.0, 0.0]))
        out = sgd_step(state, spec, np.array([1.0, 0.0]), 0.5)
        assert out.c[0] == pytest.approx((1 - 0.5 * 2) * 1 - 0.5 * 1)  # -0.5

    def test_dimension_mismatch(self, fixa):
        spec, _, state = fixa
        with pytest.raises(ParameterError):
            sgd_step(state, spec, np.zeros(3), 0.1)

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
        traj = run_trajectory(spec, silent, state, 0.1, 200, 10, seed=0)
        assert np.all(np.diff(traj.losses) < 0)

    def test_recording_grid(self, fixa):
        spec, noise, state = fixa
        traj = run_trajectory(spec, noise, state, 0.1, 25, 10, seed=0)
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

    def test_determinism(self, fixa):
        # the trajectory CSV's bytes are checked over cmd_simulate's output,
        # in test_harness's TestSimulate::test_trajectory_csv_bytes
        spec, noise, state = fixa
        a = run_trajectory(spec, noise, state, 0.1, 100, 10, seed=5)
        b = run_trajectory(spec, noise, state, 0.1, 100, 10, seed=5)
        for name in ("times", "thetas", "losses", "s_d", "s_b"):
            assert np.array_equal(getattr(a, name), getattr(b, name))

    def test_parameter_validation(self, fixa):
        spec, noise, state = fixa
        with pytest.raises(ParameterError):
            run_trajectory(spec, noise, state, 0.1, 0, 10)
        with pytest.raises(ParameterError):
            run_trajectory(spec, noise, state, 0.1, 10, 0)


def reference_trajectory(spec, noise, init, eta, T, record_every, seed, step_by_step=False):
    """Jump-by-jump reference for run_trajectory: one normal per coordinate per
    jump and the divergence check after every jump. It jumps R steps by the
    kernel's rule (R = min(record_every, T) when every mode contracts with
    eta < 2/lambda and the start lies inside the limit, else 1; `step_by_step`
    forces 1). A one-step jump is one sgd_step; a longer one of n steps takes
    its decay and noise standard deviation from mode_law at t = n. Returns
    (times, thetas, losses, s_d, s_b) arrays."""
    rng = np.random.Generator(np.random.SFC64(seed))
    lam, k = spec.lambdas, spec.k
    jump = np.all(np.abs(1.0 - eta * lam) < 1.0) and np.all(eta < 2.0 / lam)
    jump = jump and np.max(np.abs(init.c)) <= _DIVERGENCE_LIMIT and not step_by_step
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
            z = rng.standard_normal(spec.d)
            if n > 1:
                decay, var = mode_law(1.0, lam, noise.kappa2, eta, n)
                state = State(c=decay * state.c - z * np.sqrt(var))
            else:
                state = sgd_step(state, spec, z * np.sqrt(noise.kappa2), eta)
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

    # 71 = 10 * 7 + 1 = 2 * 35 + 1: a jumping run that ends on a one-step jump.
    # ROWS - 1, ROWS, ROWS + 1 and 4 * ROWS + 1 sit on a chunk edge; 31, 32,
    # 33, 129 and 35 (the edges of a 32-row chunk) now end inside a chunk
    TS = sorted({1, 31, 32, 33, 71, 129, ROWS - 1, ROWS, ROWS + 1, 4 * ROWS + 1})
    EVERY = sorted({1, 7, 35, ROWS + 3})

    @pytest.mark.parametrize("T", TS)
    @pytest.mark.parametrize("record_every", EVERY)
    def test_bit_equal_to_step_by_step(self, problem, T, record_every):
        spec, noise, init = problem
        traj = run_trajectory(spec, noise, init, 0.003, T, record_every, seed=9)
        ref = reference_trajectory(spec, noise, init, 0.003, T, record_every, 9)
        for name, want in zip(("times", "thetas", "losses", "s_d", "s_b"), ref):
            assert np.array_equal(getattr(traj, name), want), name

    @pytest.mark.parametrize("record_every", EVERY[1:])
    def test_growing_mode_steps_one_at_a_time(self, problem, record_every):
        # |a_1| = 1.05: the run cannot jump, stays finite over 4 chunks, and
        # some chunks hold no record
        spec, noise, init = problem
        eta = 2.05 / spec.lambda_max
        traj = run_trajectory(spec, noise, init, eta, 4 * self.ROWS + 1, record_every, seed=9)
        ref = reference_trajectory(spec, noise, init, eta, 4 * self.ROWS + 1, record_every, 9, step_by_step=True)
        for name, want in zip(("times", "thetas", "losses", "s_d", "s_b"), ref):
            assert np.array_equal(getattr(traj, name), want), name

    def test_memory_stays_within_a_chunk(self, problem):
        # 20000 single steps at d = 500 would hold 80 MB of states; the run
        # keeps a chunk of them and the 20001 records (0.8 MB) and peaks near
        # 2.6 MB
        spec, noise, init = problem
        tracemalloc.start()
        try:
            run_trajectory(spec, noise, init, 0.003, 20_000, 1, seed=9)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4e6

    def test_divergence_between_checks_matches_reference(self, fixa):
        # 2/lambda_1 < eta: |c_1| doubles each step, passes the limit near step
        # 500 and overflows near step 1025, all inside one chunk
        spec, noise, state = fixa
        assert _chunk_rows(2) > 3000
        with pytest.raises(DivergenceError) as ref:
            reference_trajectory(spec, noise, state, 1.5, 3000, 1000, 0)
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
            reference_trajectory(spec, noise, state, 0.45, 200, 100, 4)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DivergenceError) as err:
                run_trajectory(spec, noise, state, 0.45, 200, 100, seed=4)
        assert err.value.step == ref.value.step == 1
        assert str(err.value) == str(ref.value)

    def test_set_up_overflow_is_divergence_not_a_warning(self):
        # lambda^2 and a^2 overflow before the first step; the run still ends
        # in DivergenceError at step 1 and warns of nothing
        spec = Spectrum(lambdas=np.array([1e308, 1.0]), k=1)
        noise = NoiseProfile(kappa2=np.array([1.0, 1.0]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DivergenceError) as err:
                run_trajectory(spec, noise, State(c=np.array([1.0, 1.0])), 0.02, 50, 10, seed=1)
        assert err.value.step == 1

    def test_records_past_the_float_range_are_parameter_error(self):
        # the run stays far inside the divergence limit, but lambda^2 c^2
        # passes the float range in every record
        spec = Spectrum(lambdas=np.array([1e200, 1.0]), k=1)
        noise = NoiseProfile(kappa2=np.array([1.0, 1.0]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ParameterError, match="float range"):
                run_trajectory(spec, noise, State(c=np.array([1.0, 1.0])), 1e-210, 50, 10, seed=1)

    @pytest.mark.parametrize(
        "seed, step, T", [(4, 10, 200), (3, 20, 200), (3, 15, 15)], ids=["4-10", "3-20", "3-15-last"]
    )
    def test_divergence_of_a_jumping_run_matches_reference(self, seed, step, T):
        # every mode contracts, so the run jumps 10 steps at a time; the huge
        # dominant noise carries a record past the limit (for seed 3 the
        # second one, not the first; at T = 15 on the shorter last jump)
        spec = Spectrum(lambdas=np.array([2.0, 1.0]), k=1)
        noise = NoiseProfile(kappa2=np.array([1e302, 1.0]))
        state = State(c=np.array([1.0, 1.0]))
        if step > 10:
            # the premise: every record before `step` is finite and inside the
            # limit (the reference raises DivergenceError past it)
            times, *records = reference_trajectory(spec, noise, state, 0.45, 10, 10, seed)
            assert times[-1] == 10
            assert all(np.all(np.isfinite(r)) for r in records)
        with pytest.raises(DivergenceError) as ref:
            reference_trajectory(spec, noise, state, 0.45, T, 10, seed)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DivergenceError) as err:
                run_trajectory(spec, noise, state, 0.45, T, 10, seed=seed)
        assert err.value.step == ref.value.step == step
        assert str(err.value) == str(ref.value)


FIELDS = ("times", "thetas", "losses", "s_d", "s_b")


def assert_same_outcome(got, want):
    """A grouped job's record or error equals its one-job run's, bit for bit."""
    assert type(got) is type(want)
    if isinstance(want, TrajectoryRecord):
        for name in FIELDS:
            assert np.array_equal(getattr(got, name), getattr(want, name)), name
    else:
        assert str(got) == str(want)
        assert getattr(got, "step", None) == getattr(want, "step", None)


def one_job(job, eta, T, record_every):
    """The record of one job run alone, or the error it raises."""
    spec, noise, init, seed = job
    try:
        return run_trajectory(spec, noise, init, eta, T, record_every, seed=seed)
    except (DivergenceError, ParameterError) as exc:
        return exc


class TestGroupedKernel:
    """run_trajectories steps a group of jobs together, jump j of every job in
    one row of a chunk; each job's records, or its error, must equal those of
    its one-job run_trajectory bit for bit, whatever the group."""

    D = 200
    ETA = 0.003

    @pytest.fixture(scope="class")
    def jobs(self):
        rng = np.random.default_rng(21)
        out = []
        for i, m in enumerate((5.0, 20.0, 50.0, 200.0, 8.0)):
            spec = build_spectrum(self.D, 20, m, (0.5, 1.0), 0.2, seed=30 + i)
            noise = NoiseProfile(kappa2=np.exp(rng.normal(0.0, 1.0, self.D)))
            out.append((spec, noise, random_init(self.D, 1.0, seed=40 + i), 50 + i))
        return out

    @pytest.fixture(scope="class")
    def step_job(self, jobs):
        # |a_1| = 1.02: this job cannot jump, but stays finite over T = 1003
        spec, noise, init, _ = jobs[1]
        lambdas = spec.lambdas * (2.02 / (self.ETA * spec.lambda_max))
        return Spectrum(lambdas=lambdas, k=spec.k), noise, init, 99

    # T = 3003 with record_every = 10: 301 jumps over several chunks, the last
    # one ragged (3 steps); record_every = 1: every job steps one at a time
    @pytest.mark.parametrize("record_every", [10, 1])
    @pytest.mark.parametrize("size", [1, 2, 3, 4, 5])
    def test_group_equals_one_job_runs(self, jobs, size, record_every):
        T = 3003
        group = jobs[:size]
        assert -(-T // record_every) > _chunk_rows(self.D, size)
        got = run_trajectories(group, self.ETA, T, record_every)
        for job, result in zip(group, got):
            assert_same_outcome(result, one_job(job, self.ETA, T, record_every))

    def test_jump_and_step_jobs_in_one_call(self, jobs, step_job):
        group = [jobs[0], step_job, jobs[2], jobs[3]]
        got = run_trajectories(group, self.ETA, 1003, 10)
        assert list(got[1].times[:3]) == [0, 10, 20]
        for job, result in zip(group, got):
            assert_same_outcome(result, one_job(job, self.ETA, 1003, 10))

    @pytest.mark.parametrize("record_every, T", [(10, 60_000), (1, 6_000)])
    def test_diverged_job_fails_alone(self, record_every, T):
        # job 1's huge dominant noise carries its state past the limit in the
        # first chunk (at the jump to step 10 when jumping, at a step when
        # stepping); the others run on through a second chunk
        spec = Spectrum(lambdas=np.array([2.0, 1.0]), k=1)
        calm = NoiseProfile(kappa2=np.array([1.0, 1.0]))
        loud = NoiseProfile(kappa2=np.array([1e302, 1.0]))
        state = State(c=np.array([1.0, 1.0]))
        group = [(spec, calm, state, 3), (spec, loud, state, 4), (spec, calm, state, 5)]
        assert _chunk_rows(2, 3) < T // record_every
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = run_trajectories(group, 0.45, T, record_every)
        assert isinstance(got[1], DivergenceError) and got[1].step <= 10
        assert isinstance(got[0], TrajectoryRecord) and isinstance(got[2], TrajectoryRecord)
        for job, result in zip(group, got):
            assert_same_outcome(result, one_job(job, 0.45, T, record_every))

    def test_growing_job_diverges_alone_in_a_step_group(self, fixa):
        # eta = 1.5 > 2/lambda_1 doubles job 0's dominant coordinate each
        # step; job 1's modes contract at this eta
        spec, noise, state = fixa
        calm = Spectrum(lambdas=np.array([1.2, 1.0]), k=1)
        group = [(spec, noise, state, 0), (calm, noise, state, 1)]
        got = run_trajectories(group, 1.5, 3000, 1)
        assert isinstance(got[0], DivergenceError) and 0 < got[0].step < 1000
        for job, result in zip(group, got):
            assert_same_outcome(result, one_job(job, 1.5, 3000, 1))

    def test_records_past_the_float_range_fail_alone(self, fixa):
        spec, noise, state = fixa
        huge = Spectrum(lambdas=np.array([1e200, 1.0]), k=1)
        group = [(spec, noise, state, 1), (huge, noise, state, 1)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = run_trajectories(group, 1e-210, 50, 10)
        assert isinstance(got[0], TrajectoryRecord)
        assert isinstance(got[1], ParameterError) and "float range" in str(got[1])
        for job, result in zip(group, got):
            assert_same_outcome(result, one_job(job, 1e-210, 50, 10))

    def test_jobs_must_share_d_and_k(self, fixa):
        spec, noise, state = fixa
        other = Spectrum(lambdas=np.array([2.0, 1.0]), k=1)
        wide = Spectrum(lambdas=np.array([3.0, 2.0, 1.0]), k=1)
        with pytest.raises(ParameterError, match="share d and k"):
            run_trajectories(
                [(spec, noise, state, 0), (wide, NoiseProfile(kappa2=np.ones(3)), State(c=np.ones(3)), 1)],
                0.1, 10, 1,
            )
        assert len(run_trajectories([(spec, noise, state, 0), (other, noise, state, 1)], 0.1, 10, 1)) == 2

    # at eta = 0.5 and d = 2, interleaved: two jumping jobs, one that jumps
    # past the limit (its dominant noise sd is 1e151), one that steps and
    # stays finite (a_1 = -1.1), one that steps past the limit near step 850
    # (a_1 = -1.5), and one that steps from a start outside the limit, which
    # a_1 = 0 clears at once but whose first record passes the float range
    MIXED = [
        ((2.0, 1.0), (1.0, 1.0), (1.0, 1.0)),
        ((4.2, 1.0), (1.0, 1.0), (1.0, 1.0)),
        ((1.5, 1.0), (1e302, 1.0), (1.0, 1.0)),
        ((5.0, 1.0), (1.0, 1.0), (1.0, 1.0)),
        ((2.0, 1.0), (1.0, 1.0), (1e200, 1.0)),
        ((1.5, 1.0), (2.0, 0.5), (-1.0, 3.0)),
    ]

    @pytest.mark.parametrize("threads", ["1", "2", "3"])
    @pytest.mark.parametrize("group", [1, 4])
    def test_pool_and_group_size_leave_every_outcome_alone(self, threads, group, monkeypatch):
        jobs = [
            (Spectrum(lambdas=np.array(lam), k=1), NoiseProfile(kappa2=np.array(kappa2)), State(c=np.array(c)), seed)
            for seed, (lam, kappa2, c) in enumerate(self.MIXED)
        ]
        monkeypatch.setenv("ALIGNLAB_THREADS", "1")
        want = [one_job(job, 0.5, 1003, 10) for job in jobs]
        assert [type(w).__name__ for w in want] == [
            "TrajectoryRecord", "TrajectoryRecord", "DivergenceError", "DivergenceError", "ParameterError",
            "TrajectoryRecord",
        ]
        assert want[2].step == 10 and 800 < want[3].step < 900 and "float range" in str(want[4])
        monkeypatch.setenv("ALIGNLAB_THREADS", threads)
        monkeypatch.setattr(dynamics, "_GROUP_JOBS", group)
        for result, expected in zip(run_trajectories(jobs, 0.5, 1003, 10), want, strict=True):
            assert_same_outcome(result, expected)

    def test_one_job_runs_in_the_calling_thread(self, fixa, monkeypatch):
        monkeypatch.setenv("ALIGNLAB_THREADS", "4")
        threads, run_group = [], dynamics._run_group

        def recording(*args):
            threads.append(threading.get_ident())
            return run_group(*args)

        monkeypatch.setattr(dynamics, "_run_group", recording)
        spec, noise, state = fixa
        run_trajectory(spec, noise, state, 0.1, 100, 10, seed=1)
        assert threads == [threading.get_ident()]

    @pytest.mark.parametrize("threads", ["abc", "0"])
    def test_bad_thread_count_is_the_pools_error(self, threads, fixa, monkeypatch):
        monkeypatch.setenv("ALIGNLAB_THREADS", threads)
        spec, noise, state = fixa
        with pytest.raises(ParameterError, match="ALIGNLAB_THREADS") as pool_error:
            one_step_estimates(state, spec, noise, [0.1], 1000, seed=1)
        with pytest.raises(ParameterError, match="ALIGNLAB_THREADS") as err:
            run_trajectory(spec, noise, state, 0.1, 100, 10, seed=1)
        assert str(err.value) == str(pool_error.value)

    def test_memory_stays_within_a_group_chunk(self):
        # 4 x 20000 single steps at d = 500 would hold 320 MB of states; the
        # group keeps one chunk of them (0.5 MB, draws and states) and the
        # 4 x 20001 records with their outputs, and peaks near 8.6 MB
        spec = build_spectrum(500, 50, 20.0, (0.5, 1.0), 0.2, seed=11)
        noise = NoiseProfile(kappa2=np.exp(np.random.default_rng(12).normal(0.0, 1.0, 500)))
        group = [(spec, noise, random_init(500, 1.0, seed=13), seed) for seed in range(4)]
        tracemalloc.start()
        try:
            run_trajectories(group, 0.003, 20_000, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 12e6


class TestJumpCoefficients:
    """An n-step jump takes its decay and noise standard deviation from
    mode_law(1, lam, kappa2, eta, n); here that law is held against the
    composed steps term by term, at eta = kappa2 = 1 and a = 1 - lam."""

    A = np.array([0.999999, 0.5, 0.0, -0.4, -0.95])

    def test_one_step_is_the_plain_step(self):
        # a one-step jump is the plain SGD step, mean a*c0 and variance
        # eta^2 kappa2; mode_law at t = 1 states the same law
        lam, kappa2, eta = 1.0 - self.A, np.full(len(self.A), 2.5), 0.3
        decay, var = mode_law(1.0, lam, kappa2, eta, 1)
        plain = eta**2 * kappa2
        assert np.all(np.abs(decay - (1.0 - eta * lam)) <= np.finfo(float).eps)
        assert np.all(np.abs(var - plain) <= 4 * np.finfo(float).eps * plain)

    @pytest.mark.parametrize("n", [2, 7, 10, 33])
    def test_match_n_composed_steps(self, n):
        # n steps c <- a*c - e_j compose to a^n * c - sum_j a^(n-1-j) e_j, whose
        # noise variance is sum_j a^(2j) = (1 - a^(2n)) / (1 - a^2)
        decay, var = mode_law(1.0, 1.0 - self.A, 1.0, 1.0, n)
        assert np.allclose(decay, np.prod(np.tile(self.A, (n, 1)), axis=0), rtol=1e-13, atol=0)
        closed = (1.0 - self.A ** (2 * n)) / (1.0 - self.A**2)
        assert np.allclose(var, closed, rtol=1e-9, atol=0)
        # a negative a makes a^n alternate in sign
        assert np.all(np.sign(decay[3:]) == (-1) ** n)

    @pytest.mark.parametrize("n", [1, 2, 10, 64])
    def test_agree_with_the_mode_law(self, n):
        # G_n = sum_{j<n} a^(2j) summed term by term, and a^n, against
        # mode_law's variance and mean at eta = kappa2 = 1
        lam = 1.0 - self.A
        a = 1.0 - lam
        g, term = np.zeros_like(a), np.ones_like(a)
        for _ in range(n):
            g += term
            term *= a * a
        decay, var = mode_law(1.0, lam, 1.0, 1.0, n)
        bound = 4 * n * np.finfo(float).eps
        assert np.all(np.abs(decay - a**n) <= bound * np.abs(a**n))
        assert np.all(np.abs(var - g) <= bound * g)


def law_problem(d, eta_top):
    """A (spectrum, noise, init, eta) with eta * lambda_1 = eta_top: the init
    sits well above the stationary level, so the records are transient."""
    spec = build_spectrum(d, max(1, d // 8), 20.0, (0.5, 1.0), 0.2, seed=d)
    noise = NoiseProfile(kappa2=np.exp(np.random.default_rng(d).normal(0.0, 1.0, d)))
    return spec, noise, random_init(d, 3.0, seed=d + 1), eta_top / spec.lambda_max


def assert_records_match_closed_form(runs, spec, noise, init, eta):
    """At every record time t > 0 the seed means of s_D, s_B and the loss lie
    within 5 stderr of their closed forms: per mode E[c_i(t)^2] from
    expected_second_moment. t = 0 is left out, since every seed starts from
    the same state."""
    k, lam = spec.k, spec.lambdas
    times = runs[0].times
    for name, weight in (("s_d", np.where(np.arange(spec.d) < k, lam**2, 0.0)),
                         ("s_b", np.where(np.arange(spec.d) >= k, lam**2, 0.0)),
                         ("losses", 0.5 * lam)):
        vals = np.array([getattr(run, name) for run in runs])
        for i, t in enumerate(times[1:], 1):
            second = [expected_second_moment(c0, l, k2, eta, int(t)) for c0, l, k2 in zip(init.c, lam, noise.kappa2)]
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

    def test_eta_at_two_over_lambda_steps_one_at_a_time(self):
        # eta = fl(2/lambda_1) leaves |a_1| = 1 - 2e-16 < 1, yet eta is not
        # below 2/lambda_1, the range of mode_law: the run must not jump
        lam = 1.4442534981735462
        spec = Spectrum(lambdas=np.array([lam, 0.25]), k=1)
        noise = NoiseProfile(kappa2=np.array([1.0, 1.0]))
        state = State(c=np.array([1.0, 1.0]))
        eta = 2.0 / lam
        assert abs(1.0 - eta * lam) < 1.0 and not eta < 2.0 / lam
        traj = run_trajectory(spec, noise, state, eta, 100, 10, seed=1)
        ref = reference_trajectory(spec, noise, state, eta, 100, 10, 1, step_by_step=True)
        for name, want in zip(("times", "thetas", "losses", "s_d", "s_b"), ref):
            assert np.array_equal(getattr(traj, name), want), name

    def test_start_beyond_limit_steps_one_at_a_time(self):
        # the first step brings the start back inside the limit, so the run
        # finishes, but it was never allowed to jump
        spec = Spectrum(lambdas=np.array([2.0, 1.0]), k=1)
        noise = NoiseProfile(kappa2=np.array([1.0, 1.0]))
        state = State(c=np.array([2e150, 1.0]))
        traj = run_trajectory(spec, noise, state, 0.45, 200, 100, seed=4)
        ref = reference_trajectory(spec, noise, state, 0.45, 200, 100, 4, step_by_step=True)
        for name, want in zip(("times", "thetas", "losses", "s_d", "s_b"), ref):
            assert np.array_equal(getattr(traj, name), want), name


class TestTrajectoryStatistics:
    def test_constant_series(self):
        traj = TrajectoryRecord(
            times=np.arange(0, 110, 10),
            thetas=np.full(11, 0.7),
            losses=np.ones(11),
            s_d=np.full(11, 0.7),
            s_b=np.full(11, 0.3),
        )
        mean, std = late_phase_statistic(traj, 50)
        assert mean == pytest.approx(0.7, rel=1e-15)
        assert std <= 1e-15

    @pytest.mark.parametrize("short", FIELDS)
    def test_every_series_has_the_same_length(self, short):
        series = {name: np.zeros(3) for name in FIELDS}
        series[short] = np.zeros(2)
        with pytest.raises(ParameterError, match="equal length"):
            TrajectoryRecord(**series)

    def test_window_bounds(self):
        traj = TrajectoryRecord(
            times=np.array([0, 10]),
            thetas=np.array([0.5, 0.6]),
            losses=np.ones(2),
            s_d=np.array([0.5, 0.6]),
            s_b=np.array([0.5, 0.4]),
        )
        with pytest.raises(ParameterError):
            late_phase_statistic(traj, 10)
