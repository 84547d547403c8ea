"""Tests for the dense BNN training layer: eq. (6) evaluation between
training steps, the ``(nll, kl)`` a train step reports, the buffers a
train step reuses, and the Trainer's up-front checks.

The evaluation contract is *bit-for-bit* equality with the kept
per-pass reference, and evaluating must leave training unchanged.
"""

import numpy as np
import pytest

from repro.bnn import Adam, Trainer
from repro.bnn.bayesian import BayesianNetwork
from repro.bnn.inference import local_reparam_logits_loop, stacked_softmax_average
from repro.bnn.priors import GaussianPrior, ScaleMixturePrior
from repro.errors import ConfigurationError


def _twin_dense(seed=3, sizes=(20, 12, 4)):
    return BayesianNetwork(sizes, seed=seed), BayesianNetwork(sizes, seed=seed)


def _parameter_bytes(network):
    return [param.tobytes() for layer in network.layers for param in layer.parameters()]


class TestEvaluation:
    def test_dense_predict_proba_equals_loop(self):
        fast, reference = _twin_dense()
        x = np.random.default_rng(0).random((17, 20))
        logits = local_reparam_logits_loop(reference.layers, x, 7, reference._predict_grng)
        assert fast.predict_proba(x, n_samples=7).tobytes() == (
            stacked_softmax_average(logits).tobytes()
        )

    def test_evaluating_between_steps_leaves_training_unchanged(self):
        # predict_proba(grng=None) draws from the network's own stream,
        # not from the layer streams train_step samples from.
        evaluated, plain = _twin_dense(sizes=(20, 8, 3))
        rng = np.random.default_rng(4)
        x, labels = rng.random((12, 20)), rng.integers(0, 3, 12)
        evaluated_opt, plain_opt = Adam(1e-2), Adam(1e-2)
        for _ in range(3):
            evaluated.predict_proba(x, n_samples=5)
            evaluated.train_step(x, labels, evaluated_opt, 0.1)
            plain.train_step(x, labels, plain_opt, 0.1)
        assert _parameter_bytes(evaluated) == _parameter_bytes(plain)

    def test_per_epoch_test_sweeps_leave_training_unchanged(self):
        # Trainer.fit's test-set sweeps do not move the trained posterior.
        with_test, without_test = _twin_dense(sizes=(20, 8, 3))
        rng = np.random.default_rng(5)
        x, labels = rng.random((40, 20)), rng.integers(0, 3, 40)
        for network, test in ((with_test, (x[:10], labels[:10])), (without_test, (None, None))):
            Trainer(network, Adam(1e-2), batch_size=16, epochs=3, seed=0).fit(
                x, labels, *test, eval_samples=4
            )
        assert _parameter_bytes(with_test) == _parameter_bytes(without_test)


class TestTrainStep:
    def test_train_step_returns_nll_and_kl(self):
        # The reported KL is the pre-update posterior's: a twin network
        # run to the same point (its training pass advances the same eps
        # streams) must report the same value.
        network, twin = _twin_dense()
        rng = np.random.default_rng(6)
        x = rng.random((6, 20))
        labels = rng.integers(0, 4, 6)
        nll, kl = network.train_step(x, labels, Adam(1e-3), 0.1)
        assert np.isfinite(nll) and np.isfinite(kl)
        hidden = x
        for layer in twin.layers:
            hidden = np.maximum(layer.train_forward(hidden), 0.0)
        assert kl == pytest.approx(twin.kl_divergence(), rel=1e-12)

    def test_layer_zero_skips_its_input_gradient(self, monkeypatch):
        # train_step discards layer 0's input gradient, so it is not computed.
        network = BayesianNetwork((20, 12, 8, 4), seed=1)
        asked = {}
        for index, layer in enumerate(network.layers):
            def backward(*args, _index=index, _original=layer.backward, **kwargs):
                asked[_index] = kwargs["input_grad"]
                return _original(*args, **kwargs)

            monkeypatch.setattr(layer, "backward", backward)
        rng = np.random.default_rng(2)
        network.train_step(rng.random((5, 20)), rng.integers(0, 4, 5), Adam(1e-3), 0.1)
        assert asked == {0: False, 1: True, 2: True}


GRAD_SLOTS = ("grad_mu_weights", "grad_rho_weights", "grad_mu_bias", "grad_rho_bias")


def _buffers(network):
    """Every layer's gradient slots and training workspace arrays, by name."""
    buffers = {}
    for index, layer in enumerate(network.layers):
        for name in GRAD_SLOTS:
            buffers[index, name] = getattr(layer, name)
        for name, array in layer._workspace.items():
            buffers[index, name] = array
    return buffers


class TestTrainStepBuffers:
    """After one warm step, training rewrites the same arrays in place."""

    @pytest.mark.parametrize(
        "prior", [GaussianPrior(1.0), ScaleMixturePrior(0.5, 1.0, 0.1)], ids=["gaussian", "mixture"]
    )
    def test_buffers_reused_with_fresh_bytes(self, prior):
        # 120 rows in minibatches of 64 leave a ragged 56-row batch (as the
        # serving fixture's 3,000 rows do).  Between steps every reused
        # buffer is filled with NaN, so a value carried over from an
        # earlier step would poison the result; the reference network
        # drops its buffers before every step and allocates them anew.
        network = BayesianNetwork((20, 12, 4), prior=prior, seed=3)
        reference = BayesianNetwork((20, 12, 4), prior=prior, seed=3)
        rng = np.random.default_rng(8)
        x = rng.random((120, 20))
        labels = rng.integers(0, 4, 120)
        batches = [slice(0, 64), slice(64, 120), slice(0, 64), slice(64, 120)]
        optimizer, reference_optimizer = Adam(1e-3), Adam(1e-3)
        warm = None
        for batch in batches:
            if warm is not None:
                for array in warm.values():
                    array.fill(np.nan)
            for layer in reference.layers:
                layer._workspace = {}
                for name in GRAD_SLOTS:
                    setattr(layer, name, np.full_like(getattr(layer, name), np.nan))
            result = network.train_step(x[batch], labels[batch], optimizer, 0.1)
            expected = reference.train_step(x[batch], labels[batch], reference_optimizer, 0.1)
            assert result == expected
            buffers = _buffers(network)
            if warm is None:
                warm = buffers
            assert buffers.keys() == warm.keys()
            assert all(buffers[key] is warm[key] for key in warm)
        for layer, twin in zip(network.layers, reference.layers):
            for param, twin_param in zip(layer.parameters(), twin.parameters()):
                assert param.tobytes() == twin_param.tobytes()


class TestTrainerValidation:
    def test_trainer_validates_eval_samples_before_training(self):
        # The bad value must surface immediately, not after an epoch of
        # training has already been burned inside predict().
        network = BayesianNetwork((6, 4, 2), seed=0)
        trainer = Trainer(network, epochs=50)
        with pytest.raises(ConfigurationError, match="eval_samples"):
            trainer.fit(np.zeros((10, 6)), np.zeros(10, dtype=int), eval_samples=0)
