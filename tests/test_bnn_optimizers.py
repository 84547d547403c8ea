"""Tests for the Adam optimizer."""

import numpy as np
import pytest

from repro.bnn.optimizers import Adam
from repro.errors import ConfigurationError


def _quadratic_descent(optimizer, steps=200):
    """Minimise ||x - 3||^2 from x=0; returns the final x."""
    x = np.zeros(4)
    params = [x]
    for _ in range(steps):
        grads = [2.0 * (x - 3.0)]
        optimizer.update(params, grads)
    return x


class TestAdam:
    def test_converges_on_quadratic(self):
        x = _quadratic_descent(Adam(learning_rate=0.1), steps=500)
        assert np.allclose(x, 3.0, atol=1e-2)

    def test_bias_correction_first_step(self):
        # First Adam step should move by ~learning_rate regardless of
        # gradient magnitude.
        x = np.zeros(1)
        Adam(learning_rate=0.1).update([x], [np.array([1e-4])])
        assert abs(x[0] + 0.1) < 0.02

    def test_state_tracks_parameters(self):
        opt = Adam(learning_rate=0.01)
        a, b = np.zeros(2), np.zeros(3)
        opt.update([a, b], [np.ones(2), np.ones(3)])
        opt.update([a, b], [np.ones(2), np.ones(3)])
        assert (a != 0).all() and (b != 0).all()

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            Adam(learning_rate=-1)
        with pytest.raises(ConfigurationError):
            Adam(beta1=1.0)
        with pytest.raises(ConfigurationError):
            Adam(epsilon=0)
