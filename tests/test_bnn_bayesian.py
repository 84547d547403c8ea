"""Tests for Bayes-by-Backprop layers and networks.

Includes numerical gradient checks of the full ELBO objective — the
correctness core of the training stack.
"""

import numpy as np
import pytest

from repro.bnn.bayesian import BayesianDenseLayer, BayesianNetwork
from repro.bnn.losses import cross_entropy_loss
from repro.bnn.priors import GaussianPrior, ScaleMixturePrior
from repro.errors import ConfigurationError


class TestBayesianDenseLayer:
    def test_sigma_parameterisation(self):
        layer = BayesianDenseLayer(4, 3, initial_sigma=0.07)
        assert np.allclose(layer.sigma_weights(), 0.07)
        assert np.allclose(layer.sigma_bias(), 0.07)

    def test_forward_is_the_mean_pass(self):
        layer = BayesianDenseLayer(3, 2, seed=0)
        x = np.array([[1.0, 2.0, 3.0]])
        out = layer.forward(x)
        assert np.allclose(out, x @ layer.mu_weights + layer.mu_bias)

    def test_forward_validates_input_shape(self):
        # A mis-shaped input must not broadcast into wrong activations.
        layer = BayesianDenseLayer(3, 2, seed=2)
        for x in (np.zeros(3), np.zeros((1, 2)), np.zeros((1, 4))):
            with pytest.raises(ConfigurationError, match="expected input shape"):
                layer.forward(x)

    def test_weight_count(self):
        assert BayesianDenseLayer(3, 2).weight_count() == 3 * 2 + 2

    def test_kl_closed_form_zero_at_prior(self):
        prior = GaussianPrior(sigma=0.05)
        layer = BayesianDenseLayer(4, 3, seed=3, initial_sigma=0.05)
        layer.mu_weights[:] = 0.0
        layer.mu_bias[:] = 0.0
        assert layer.kl_divergence(prior) == pytest.approx(0.0, abs=1e-9)

    def test_sampled_kl_at_zero_epsilons(self):
        # At eps == 0 the sampled weights are the means, so the estimate
        # is log q(mu) - log p(mu) = sum(-log(2 pi)/2 - log sigma) - log p(mu).
        prior = ScaleMixturePrior()
        layer = BayesianDenseLayer(3, 2, seed=4, initial_sigma=0.1)
        zeros_w, zeros_b = np.zeros((3, 2)), np.zeros(2)
        expected = (
            -8 * (0.5 * np.log(2 * np.pi) + np.log(0.1))
            - prior.log_prob(layer.mu_weights)
            - prior.log_prob(layer.mu_bias)
        )
        assert layer.kl_divergence(prior, zeros_w, zeros_b) == pytest.approx(expected, rel=1e-9)

    def test_backward_requires_train_forward(self):
        layer = BayesianDenseLayer(3, 2, seed=4)
        with pytest.raises(ConfigurationError):
            layer.backward(np.zeros((1, 2)), 0.0, GaussianPrior())


def _elbo_loss(network, x, labels, kl_scale):
    """Deterministic ELBO at eps == 0 for numerical gradient checks."""
    logits = network.forward(x)
    nll, _ = cross_entropy_loss(logits, labels)
    return nll + kl_scale * network.kl_divergence()


class TestGradientCheck:
    """Backprop must match numerical gradients of the ELBO (eps frozen at 0)."""

    @pytest.fixture()
    def setup(self):
        rng = np.random.default_rng(0)
        network = BayesianNetwork((5, 4, 3), prior=GaussianPrior(0.8), seed=5)
        x = rng.standard_normal((6, 5))
        labels = np.array([0, 1, 2, 0, 1, 2])
        return network, x, labels

    def test_mu_gradients(self, setup):
        network, x, labels = setup
        kl_scale = 0.01

        class _NullOpt:
            def update(self, params, grads):
                self.grads = [g.copy() for g in grads]

        opt = _NullOpt()
        # Force a deterministic train_step by zeroing the eps rng draw: the
        # mean pass's semantics via monkeypatched epsilons.
        for layer in network.layers:
            layer._eps_rng = _ZeroRng()
        network.train_step(x, labels, opt, kl_scale)
        eps = 1e-6
        layer = network.layers[0]
        for index in [(0, 0), (2, 1), (4, 2)]:
            layer.mu_weights[index] += eps
            up = _elbo_loss(network, x, labels, kl_scale)
            layer.mu_weights[index] -= 2 * eps
            down = _elbo_loss(network, x, labels, kl_scale)
            layer.mu_weights[index] += eps
            numeric = (up - down) / (2 * eps)
            assert opt.grads[0][index] == pytest.approx(numeric, abs=1e-4)

    def test_rho_gradients_kl_part(self, setup):
        # With eps == 0 the data term does not touch rho, so the rho
        # gradient must equal the closed-form KL gradient.
        network, x, labels = setup
        kl_scale = 0.1

        class _NullOpt:
            def update(self, params, grads):
                self.grads = [g.copy() for g in grads]

        opt = _NullOpt()
        for layer in network.layers:
            layer._eps_rng = _ZeroRng()
        network.train_step(x, labels, opt, kl_scale)
        layer = network.layers[0]
        eps = 1e-6
        index = (1, 1)
        layer.rho_weights[index] += eps
        up = _elbo_loss(network, x, labels, kl_scale)
        layer.rho_weights[index] -= 2 * eps
        down = _elbo_loss(network, x, labels, kl_scale)
        layer.rho_weights[index] += eps
        numeric = (up - down) / (2 * eps)
        assert opt.grads[1][index] == pytest.approx(numeric, abs=1e-4)


class _ZeroRng:
    """Stub epsilon stream that always returns zeros (deterministic pass)."""

    def standard_normal(self, shape):
        return np.zeros(shape)


class TestBayesianNetwork:
    def test_training_reduces_loss(self):
        rng = np.random.default_rng(1)
        n = 80
        labels = rng.integers(0, 2, n)
        x = rng.normal(0, 0.4, (n, 6)) + labels[:, None]
        network = BayesianNetwork((6, 8, 2), seed=6, initial_sigma=0.03)
        from repro.bnn import Adam

        opt = Adam(5e-3)
        first_nll, _ = network.train_step(x, labels, opt, kl_scale=1.0 / n)
        for _ in range(60):
            last_nll, _ = network.train_step(x, labels, opt, kl_scale=1.0 / n)
        assert last_nll < first_nll

    def test_learns_separable_task(self):
        rng = np.random.default_rng(2)
        n = 120
        labels = rng.integers(0, 2, n)
        x = rng.normal(0, 0.3, (n, 8)) + labels[:, None] * 1.5
        network = BayesianNetwork((8, 8, 2), seed=7, initial_sigma=0.02)
        from repro.bnn import Adam, Trainer

        Trainer(network, Adam(5e-3), batch_size=20, epochs=25, seed=0).fit(x, labels)
        assert (network.predict(x, n_samples=10) == labels).mean() > 0.9

    def test_predict_proba_normalised(self):
        network = BayesianNetwork((4, 5, 3), seed=8)
        probs = network.predict_proba(np.zeros((2, 4)), n_samples=4)
        assert np.allclose(probs.sum(axis=1), 1.0)

    def test_posterior_parameters_export(self):
        network = BayesianNetwork((4, 5, 3), seed=9, initial_sigma=0.04)
        posterior = network.posterior_parameters()
        assert len(posterior) == 2
        assert posterior[0]["mu_weights"].shape == (4, 5)
        assert np.allclose(posterior[0]["sigma_weights"], 0.04)
        # Exported copies must be decoupled from the live network.
        posterior[0]["mu_weights"][:] = 99.0
        assert not np.allclose(network.layers[0].mu_weights, 99.0)

    def test_weight_count(self):
        network = BayesianNetwork((4, 5, 3))
        assert network.weight_count() == (4 * 5 + 5) + (5 * 3 + 3)

    def test_forward_is_the_mean_pass(self):
        # Every weight at its mean; no epsilon stream is read.
        network, twin = BayesianNetwork((4, 5, 3), seed=3), BayesianNetwork((4, 5, 3), seed=3)
        x = np.random.default_rng(0).random((2, 4))
        hidden = x
        for index, layer in enumerate(network.layers):
            hidden = hidden @ layer.mu_weights + layer.mu_bias
            if index == 0:
                hidden = np.maximum(hidden, 0.0)
        assert np.allclose(network.forward(x), hidden)
        assert network.predict_mean_weights(x).tolist() == hidden.argmax(axis=1).tolist()
        for layer, twin_layer in zip(network.layers, twin.layers):
            assert (
                layer._eps_rng.standard_normal(3).tobytes()
                == twin_layer._eps_rng.standard_normal(3).tobytes()
            )

    def test_kl_scale_validation(self):
        network = BayesianNetwork((3, 2))
        from repro.bnn import Adam

        with pytest.raises(ConfigurationError):
            network.train_step(np.zeros((1, 3)), np.array([0]), Adam(), -1.0)

    def test_mixture_prior_training_runs(self):
        rng = np.random.default_rng(3)
        n = 40
        labels = rng.integers(0, 2, n)
        x = rng.normal(0, 0.3, (n, 5)) + labels[:, None]
        network = BayesianNetwork(
            (5, 6, 2), prior=ScaleMixturePrior(0.5, 1.0, 0.0025), seed=10
        )
        from repro.bnn import Adam

        opt = Adam(3e-3)
        for _ in range(30):
            nll, kl = network.train_step(x, labels, opt, kl_scale=1.0 / n)
        assert np.isfinite(nll) and np.isfinite(kl)

    def test_layer_sizes_validation(self):
        with pytest.raises(ConfigurationError):
            BayesianNetwork((4,))
