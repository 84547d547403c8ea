"""Tests for the software Wallace GRNG and the Hadamard transform (§4.2.1)."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.grng.wallace import (
    HADAMARD_4,
    SoftwareWallaceGrng,
    hadamard_transform,
)


class TestHadamardMatrix:
    def test_scaled_matrix_is_orthogonal(self):
        a = HADAMARD_4 / 2.0
        assert np.allclose(a @ a.T, np.eye(4))

    def test_transform_matches_matrix_product(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal(4)
        assert np.allclose(hadamard_transform(x), (HADAMARD_4 / 2.0) @ x)

    def test_eq13_form(self):
        x = np.array([1.0, 2.0, 3.0, 4.0])
        t = x.sum() / 2.0
        expected = [t - x[0], t - x[1], x[2] - t, x[3] - t]
        assert np.allclose(hadamard_transform(x), expected)

    def test_norm_preserved(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((100, 4))
        y = hadamard_transform(x)
        assert np.allclose((y**2).sum(axis=1), (x**2).sum(axis=1))

    def test_batch_shape(self):
        x = np.zeros((5, 7, 4))
        assert hadamard_transform(x).shape == (5, 7, 4)

    def test_rejects_non_quadruple(self):
        with pytest.raises(ConfigurationError):
            hadamard_transform(np.zeros(5))

    @given(st.lists(st.floats(-100, 100), min_size=4, max_size=4))
    def test_energy_conservation_property(self, values):
        x = np.array(values)
        y = hadamard_transform(x)
        assert np.isclose((y**2).sum(), (x**2).sum(), rtol=1e-9, atol=1e-6)


class TestSoftwareWallace:
    def test_pool_size_validation(self):
        with pytest.raises(ConfigurationError):
            SoftwareWallaceGrng(pool_size=10)
        with pytest.raises(ConfigurationError):
            SoftwareWallaceGrng(pool_size=4)

    def test_transform_passes_validation(self):
        with pytest.raises(ConfigurationError):
            SoftwareWallaceGrng(transform_passes=0)

    def test_pool_norm_invariant_under_refresh(self):
        # The orthogonal transform freezes the pool's second moment: the
        # stability error is inherited from the initial pool draw.
        grng = SoftwareWallaceGrng(pool_size=256, seed=0)
        norm_before = float((grng.pool**2).sum())
        for _ in range(10):
            grng.refresh()
        assert float((grng.pool**2).sum()) == pytest.approx(norm_before, rel=1e-9)

    def test_generate_count(self):
        grng = SoftwareWallaceGrng(pool_size=64, seed=1)
        assert grng.generate(100).shape == (100,)
        assert grng.generate(0).shape == (0,)

    def test_moments_reasonable(self):
        samples = SoftwareWallaceGrng(pool_size=4096, seed=2).generate(50_000)
        assert abs(samples.mean()) < 0.05
        assert abs(samples.std() - 1.0) < 0.05

    def test_deterministic_given_seed(self):
        a = SoftwareWallaceGrng(pool_size=64, seed=3).generate(50)
        b = SoftwareWallaceGrng(pool_size=64, seed=3).generate(50)
        assert (a == b).all()

    def test_stability_improves_with_pool_size_on_average(self):
        # Table 1 shape: sigma error decreases with pool size.  Average over
        # seeds since a single draw is noisy.
        def mean_sigma_error(pool_size):
            errors = []
            for seed in range(10):
                samples = SoftwareWallaceGrng(pool_size=pool_size, seed=seed).generate(4096)
                errors.append(abs(samples.std() - 1.0))
            return np.mean(errors)

        assert mean_sigma_error(64) > mean_sigma_error(4096)
