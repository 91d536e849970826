import json

import numpy as np
import pytest

from alignlab import (
    ConstructionError,
    ParameterError,
    State,
    alignment,
    block_stats,
    loss,
    random_init,
    rescale_to_alignment,
    run_trajectory,
)
from alignlab.harness import _read_input

from helpers import random_problem


class TestAlignment:
    def test_two_dim_fixture(self, fixa):
        spec, _, state = fixa
        assert alignment(state, spec) == pytest.approx(0.8)

    def test_fully_dominant(self, fixa):
        spec, _, _ = fixa
        assert alignment(State(c=np.array([1.0, 0.0])), spec) == 1.0

    def test_zero_state_convention(self, fixa):
        spec, _, _ = fixa
        assert alignment(State(c=np.zeros(2)), spec) == 0.0

    def test_scalar_callers_return_python_floats(self, fixa):
        # a numpy scalar would print as np.float64(...) in a verdict table's theta cell
        spec, noise, _ = fixa
        for c in ([1.0, 1.0], [0.0, 0.0]):
            state = State(c=np.array(c))
            assert type(alignment(state, spec)) is float
            assert type(block_stats(state, spec, noise).theta) is float

    def test_dimension_mismatch(self, fixa):
        spec, _, _ = fixa
        with pytest.raises(ParameterError):
            alignment(State(c=np.ones(3)), spec)

    def test_scale_invariance(self, fixa):
        spec, _, _ = fixa
        rng = np.random.default_rng(0)
        for _ in range(20):
            state = State(c=rng.standard_normal(2))
            base = alignment(state, spec)
            for a in (0.5, 3.0, 10.0):
                assert alignment(State(c=a * state.c), spec) == pytest.approx(base, rel=1e-12)


    def test_agrees_with_block_stats_and_trajectory_exactly(self):
        # alignment, block_stats and the trajectory record form theta from the
        # same block split and ratio, so the three values are equal, not close
        rng = np.random.default_rng(20)
        for _ in range(300):
            spec, noise, state = random_problem(rng)
            theta = alignment(state, spec)
            assert block_stats(state, spec, noise).theta == theta
            assert run_trajectory(spec, noise, state, 1e-3, 1, 1).thetas[0] == theta


class TestBlockStats:
    def test_two_dim_fixture_all_fields(self, fixa):
        spec, noise, state = fixa
        st = block_stats(state, spec, noise)
        assert (st.s_d, st.s_b, st.s) == (4.0, 1.0, 5.0)
        assert (st.tau_d, st.tau_b) == (8.0, 1.0)
        assert (st.u_d, st.u_b) == (16.0, 1.0)
        assert (st.e_d, st.e_b) == (4.0, 1.0)
        assert (st.n_loss_d, st.n_loss_b) == (2.0, 1.0)
        assert st.theta == pytest.approx(0.8)
        assert st.theta == pytest.approx(alignment(state, spec))

    def test_zero_state(self, fixa):
        spec, noise, _ = fixa
        st = block_stats(State(c=np.zeros(2)), spec, noise)
        assert st.s == st.s_d == st.s_b == 0.0
        assert st.theta == 0.0
        assert st.e_d == 4.0 and st.e_b == 1.0  # noise energies ignore c

    def test_quadratic_homogeneity(self, fixa):
        spec, noise, state = fixa
        st1 = block_stats(state, spec, noise)
        st2 = block_stats(State(c=2.0 * state.c), spec, noise)
        for a, b in [(st1.s_d, st2.s_d), (st1.s_b, st2.s_b), (st1.tau_d, st2.tau_d),
                     (st1.u_b, st2.u_b)]:
            assert b == pytest.approx(4.0 * a)
        assert st2.theta == pytest.approx(st1.theta)

    def test_convexity_bounds_on_tau(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            spec, noise, state = random_problem(rng, d=20)
            st = block_stats(state, spec, noise)
            lam = spec.lambdas
            tol = 1 + 1e-12
            assert lam[spec.k - 1] * st.s_d <= st.tau_d * tol
            assert st.tau_d <= lam[0] * st.s_d * tol
            assert lam[-1] * st.s_b <= st.tau_b * tol
            assert st.tau_b <= lam[spec.k] * st.s_b * tol

    def test_energy_sandwich_and_projection_bound(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            spec, noise, state = random_problem(rng, d=20)
            st = block_stats(state, spec, noise)
            n2 = state.norm2
            tol = 1 + 1e-12
            assert spec.lambda_min**2 * n2 <= st.s * tol
            assert st.s <= spec.lambda_max**2 * n2 * tol
            proj2 = float(np.sum(state.c[: spec.k] ** 2))
            if proj2 > 0:
                lower = spec.lambdas[spec.k - 1] ** 2 * proj2 / (spec.lambda_max**2 * n2)
                assert st.theta > lower * (1 - 1e-12)


class TestLoss:
    def test_examples(self, fixa):
        spec, _, state = fixa
        assert loss(state, spec) == pytest.approx(1.5)
        assert loss(State(c=np.zeros(2)), spec) == 0.0
        assert loss(State(c=np.array([0.0, 1.0])), spec) == pytest.approx(0.5)


class TestRandomInit:
    def test_concentration(self):
        state = random_init(500, 1.0, seed=42)
        assert 0.8 <= np.mean(state.c**2) <= 1.2

    def test_scale_rejected(self):
        with pytest.raises(ParameterError):
            random_init(10, 0.0, seed=0)

    def test_deterministic(self):
        a = random_init(50, 2.0, seed=7)
        b = random_init(50, 2.0, seed=7)
        assert np.array_equal(a.c, b.c)


class TestRescale:
    def test_hits_target_exactly(self):
        rng = np.random.default_rng(5)
        spec, _, state = random_problem(rng, d=30)
        for target in (0.05, 0.5, 0.97):
            out = rescale_to_alignment(state, spec, target)
            assert alignment(out, spec) == pytest.approx(target, abs=1e-12)

    def test_rejects_bad_targets(self, fixa):
        spec, _, state = fixa
        with pytest.raises(ConstructionError):
            rescale_to_alignment(state, spec, 0.0)
        with pytest.raises(ConstructionError):
            rescale_to_alignment(State(c=np.array([1.0, 0.0])), spec, 0.5)


class TestStateSerialization:
    def test_json_round_trip(self, tmp_path):
        # a "t" key, once the time index, is still read and ignored
        doc = {"c": [1.5, -2.0], "t": 3}
        path = tmp_path / "state.json"
        path.write_text(json.dumps(doc))
        state = _read_input(path, "state")
        assert state.c.tolist() == doc["c"]

    def test_rejects_nonfinite(self):
        with pytest.raises(ParameterError):
            State(c=np.array([1.0, np.nan]))
        with pytest.raises(ParameterError):
            State(c=np.array([np.inf, 0.0]))
