"""Tests for loss functions, including numerical gradient checks."""

import numpy as np
import pytest

from repro.bnn.losses import cross_entropy_loss
from repro.errors import ConfigurationError


class TestCrossEntropy:
    def test_perfect_prediction_low_loss(self):
        logits = np.array([[100.0, 0.0], [0.0, 100.0]])
        loss, _ = cross_entropy_loss(logits, np.array([0, 1]))
        assert loss == pytest.approx(0.0, abs=1e-6)

    def test_uniform_prediction_log_k(self):
        logits = np.zeros((3, 10))
        loss, _ = cross_entropy_loss(logits, np.array([0, 5, 9]))
        assert loss == pytest.approx(np.log(10))

    def test_gradient_matches_numerical(self):
        rng = np.random.default_rng(0)
        logits = rng.standard_normal((4, 5))
        labels = np.array([0, 1, 2, 3])
        _, grad = cross_entropy_loss(logits, labels)
        eps = 1e-6
        for i in range(4):
            for j in range(5):
                bumped = logits.copy()
                bumped[i, j] += eps
                up, _ = cross_entropy_loss(bumped, labels)
                bumped[i, j] -= 2 * eps
                down, _ = cross_entropy_loss(bumped, labels)
                numeric = (up - down) / (2 * eps)
                assert grad[i, j] == pytest.approx(numeric, abs=1e-5)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            cross_entropy_loss(np.zeros(5), np.zeros(5, dtype=int))
        with pytest.raises(ConfigurationError):
            cross_entropy_loss(np.zeros((2, 3)), np.array([0]))
        with pytest.raises(ConfigurationError):
            cross_entropy_loss(np.zeros((2, 3)), np.array([0, 3]))
