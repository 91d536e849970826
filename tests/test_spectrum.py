import json

import numpy as np
import pytest

from alignlab import (
    NoiseProfile,
    ParameterError,
    Spectrum,
    block_stats,
    build_spectrum,
    isotropic_noise,
)
from alignlab.harness import _read_input

from helpers import random_problem


class TestBuildSpectrum:
    def test_degenerate_ranges_force_values(self):
        spec = build_spectrum(2, 1, 2.0, (1.0, 1.0), 0.0, seed=0)
        assert np.allclose(spec.lambdas, [2.0, 1.0])
        spec = build_spectrum(4, 2, 5.0, (1.0, 1.0), 0.0, seed=123)
        assert np.allclose(spec.lambdas, [5.0, 5.0, 1.0, 1.0])

    def test_full_scale_gap_ratio_exact(self):
        spec = build_spectrum(500, 50, 100.0, (0.5, 1.0), 0.5, seed=42)
        assert spec.d == 500 and spec.k == 50
        assert spec.gap_ratio == pytest.approx(100.0, rel=1e-15)

    def test_deterministic_given_seed(self):
        a = build_spectrum(64, 8, 7.0, (0.5, 1.0), 0.3, seed=9)
        b = build_spectrum(64, 8, 7.0, (0.5, 1.0), 0.3, seed=9)
        assert np.array_equal(a.lambdas, b.lambdas)

    def test_invariants_random_sweep(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            d = int(rng.integers(3, 40))
            k = int(rng.integers(1, d))
            m = float(np.exp(rng.uniform(np.log(1.1), np.log(500))))
            spec = build_spectrum(d, k, m, (0.3, 1.2), 0.7, seed=int(rng.integers(2**31)))
            lam = spec.lambdas
            assert np.all(np.diff(lam) <= 0) and lam[-1] > 0
            assert lam[k - 1] > lam[k]
            assert spec.gap1 > 0 and spec.gap2 > 0
            assert spec.gap_ratio == pytest.approx(m, rel=5e-16)

    def test_rebuild_is_idempotent(self):
        spec = build_spectrum(30, 5, 12.0, (0.5, 1.0), 0.4, seed=3)
        again = Spectrum(lambdas=spec.lambdas, k=spec.k)
        assert np.array_equal(spec.lambdas, again.lambdas)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(d=1, k=1, m=2.0, bulk_range=(1, 1)),
            dict(d=5, k=0, m=2.0, bulk_range=(1, 1)),
            dict(d=5, k=5, m=2.0, bulk_range=(1, 1)),
            dict(d=5, k=2, m=1.0, bulk_range=(1, 1)),
            dict(d=5, k=2, m=0.5, bulk_range=(1, 1)),
            dict(d=5, k=2, m=2.0, bulk_range=(0.0, 1.0)),
            dict(d=5, k=2, m=2.0, bulk_range=(2.0, 1.0)),
            dict(d=5, k=2, m=2.0, bulk_range=(1, 1), top_spread=-0.1),
        ],
    )
    def test_parameter_errors(self, kwargs):
        with pytest.raises(ParameterError):
            build_spectrum(seed=0, **kwargs)

    @pytest.mark.parametrize("m, bulk_range, top_spread", [(1e308, (2.0, 2.0), 0.0), (1.6e308, (1.0, 1.0), 0.2)])
    def test_eigenvalues_past_the_float_range(self, m, bulk_range, top_spread):
        # lambda_k = m * max(bulk), or the top of its spread, overflows: a
        # ParameterError, where numpy's uniform raised an OverflowError
        with pytest.raises(ParameterError, match="past the float range"):
            build_spectrum(24, 4, m, bulk_range, top_spread, seed=0)

    def test_spectrum_rejects_bad_arrays(self):
        with pytest.raises(ParameterError):
            Spectrum(lambdas=np.array([1.0, 2.0]), k=1)  # increasing
        with pytest.raises(ParameterError):
            Spectrum(lambdas=np.array([2.0, 0.0]), k=1)  # nonpositive
        with pytest.raises(ParameterError):
            Spectrum(lambdas=np.array([2.0, 2.0]), k=1)  # no gap at split


class TestSplitSum:
    def test_rows_sum_like_each_block_alone(self):
        # one split serves 1-d weights and stacked (rows, d) weights alike, so
        # each row's block sums must carry the bits of the 1-d slice sums
        rng = np.random.default_rng(4)
        for d in (2, 9, 130, 500, 1100):
            k = int(rng.integers(1, d))
            spec = build_spectrum(d, k, 5.0, (0.5, 1.0), 0.2, seed=d)
            w = rng.standard_normal((5, d)) ** 2
            for row, dom, bulk in zip(w, *spec.split_sum(w)):
                assert (dom, bulk) == (np.sum(row[:k]), np.sum(row[k:]))
                assert spec.split_sum(row) == (dom, bulk)


class TestNoise:
    def test_isotropic_examples(self):
        n = isotropic_noise(2, 1.0)
        assert np.allclose(n.kappa2, [1.0, 1.0])
        assert n.s_min == n.s_max == 1.0
        assert n.trace == 2.0
        assert isotropic_noise(500, 1.0).trace == 500.0
        assert np.allclose(isotropic_noise(3, 0.25).kappa2, [0.25, 0.25, 0.25])

    def test_isotropic_rejects_nonpositive(self):
        with pytest.raises(ParameterError):
            isotropic_noise(3, 0.0)
        with pytest.raises(ParameterError):
            isotropic_noise(3, -1.0)

    def test_custom_bounds_validated(self):
        NoiseProfile(kappa2=np.array([1.0, 2.0]), s_min=0.5, s_max=3.0)
        with pytest.raises(ParameterError):
            NoiseProfile(kappa2=np.array([1.0, 2.0]), s_min=1.5)
        with pytest.raises(ParameterError):
            NoiseProfile(kappa2=np.array([1.0, 2.0]), s_max=1.5)
        with pytest.raises(ParameterError):
            NoiseProfile(kappa2=np.array([-1.0, 2.0]))

    def test_block_energy_bounds(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            spec, noise, state = random_problem(rng, d=20)
            stats = block_stats(state, spec, noise)
            e_d, e_b = stats.e_d, stats.e_b
            tol = 1e-12
            assert noise.s_min * spec.psi_dominant <= e_d * (1 + tol) + tol
            assert e_d <= noise.s_max * spec.psi_dominant * (1 + tol)
            assert noise.s_min * spec.psi_bulk <= e_b * (1 + tol) + tol
            assert e_b <= noise.s_max * spec.psi_bulk * (1 + tol)


class TestSerialization:
    def test_json_keeps_custom_bounds(self, tmp_path):
        path = tmp_path / "noise.json"
        path.write_text(json.dumps({"kappa2": [1.0, 2.0], "s_min": 0.5, "s_max": 4.0}))
        noise = _read_input(path, "noise")
        assert noise.s_min == 0.5 and noise.s_max == 4.0
