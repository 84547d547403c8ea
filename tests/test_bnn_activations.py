"""Tests for activation functions."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.bnn.activations import (
    inverse_softplus,
    relu,
    relu_grad,
    sigmoid,
    softmax,
    softplus,
)


class TestRelu:
    def test_values(self):
        x = np.array([-2.0, 0.0, 3.0])
        assert relu(x).tolist() == [0.0, 0.0, 3.0]

    def test_grad(self):
        x = np.array([-2.0, 0.0, 3.0])
        assert relu_grad(x).tolist() == [0.0, 0.0, 1.0]

    @given(st.floats(-100, 100))
    def test_nonnegative(self, value):
        assert relu(np.array([value]))[0] >= 0


class TestSoftmax:
    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(0)
        probs = softmax(rng.standard_normal((5, 7)))
        assert np.allclose(probs.sum(axis=1), 1.0)

    def test_invariant_to_shift(self):
        logits = np.array([[1.0, 2.0, 3.0]])
        assert np.allclose(softmax(logits), softmax(logits + 100.0))

    def test_no_overflow_with_large_logits(self):
        probs = softmax(np.array([[1000.0, 0.0]]))
        assert np.isfinite(probs).all()
        assert probs[0, 0] == pytest.approx(1.0)

    def test_known_value(self):
        probs = softmax(np.array([[0.0, 0.0]]))
        assert np.allclose(probs, 0.5)


class TestSigmoid:
    def test_symmetry(self):
        x = np.linspace(-5, 5, 11)
        assert np.allclose(sigmoid(x) + sigmoid(-x), 1.0)

    def test_extremes_stable(self):
        out = sigmoid(np.array([-1000.0, 1000.0]))
        assert out[0] == pytest.approx(0.0)
        assert out[1] == pytest.approx(1.0)
        assert np.isfinite(out).all()

    def test_derivative_of_softplus(self):
        # d softplus / dx = sigmoid, checked numerically.
        x = np.linspace(-4, 4, 41)
        h = 1e-6
        numeric = (softplus(x + h) - softplus(x - h)) / (2 * h)
        assert np.allclose(numeric, sigmoid(x), atol=1e-5)


class TestSoftplus:
    def test_positive(self):
        assert (softplus(np.linspace(-50, 50, 101)) > 0).all()

    def test_matches_naive_formula_in_safe_range(self):
        x = np.linspace(-20, 20, 41)
        assert np.allclose(softplus(x), np.log1p(np.exp(-np.abs(x))) + np.maximum(x, 0))
        assert np.allclose(softplus(np.array([0.0])), np.log(2.0))

    def test_no_overflow(self):
        assert np.isfinite(softplus(np.array([10_000.0]))).all()

    def test_bits_equal_the_expression_form(self):
        # The in-place evaluation must not move a single bit.
        x = np.random.default_rng(0).normal(scale=10.0, size=(64, 33))
        expected = np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x)))
        before = x.copy()
        assert softplus(x).tobytes() == expected.tobytes()
        assert x.tobytes() == before.tobytes()  # the input is not overwritten
        assert softplus(x[:, ::2]).tobytes() == expected[:, ::2].tobytes()
        assert softplus(0.0) == np.log(2.0)

    @given(st.floats(min_value=1e-6, max_value=50.0))
    def test_inverse_roundtrip(self, sigma):
        rho = inverse_softplus(np.array([sigma]))
        assert softplus(rho)[0] == pytest.approx(sigma, rel=1e-6)
