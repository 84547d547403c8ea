"""Tests for the dense BNN training layer: stacked eq.(6) evaluation,
the ``(nll, kl)`` a train step reports, and the Trainer's and regressor's
up-front checks.

The evaluation contract is *bit-for-bit* equality with the kept
per-sample reference — the same recipe the inference and hardware layers
follow.
"""

import numpy as np
import pytest

from repro.bnn import Adam, Trainer
from repro.bnn.bayesian import BayesianNetwork
from repro.errors import ConfigurationError, TrainingError


def _twin_dense(seed=3, sizes=(20, 12, 4)):
    return BayesianNetwork(sizes, seed=seed), BayesianNetwork(sizes, seed=seed)


class TestStackedPredictProba:
    def test_dense_stacked_equals_loop(self):
        fast, reference = _twin_dense()
        x = np.random.default_rng(0).random((17, 20))
        assert np.array_equal(
            fast.predict_proba(x, n_samples=7),
            reference.predict_proba_loop(x, n_samples=7),
        )

    def test_dense_stream_state_preserved(self):
        # After one stacked call the layers' epsilon streams must sit at
        # the same position as after the loop, so subsequent calls agree.
        fast, reference = _twin_dense()
        x = np.random.default_rng(1).random((9, 20))
        fast.predict_proba(x, n_samples=3)
        reference.predict_proba_loop(x, n_samples=3)
        assert np.array_equal(
            fast.predict_proba(x, n_samples=2),
            reference.predict_proba_loop(x, n_samples=2),
        )


class TestTrainStep:
    def test_train_step_returns_nll_and_kl(self):
        # The reported KL is the pre-update posterior's: a twin network
        # run to the same point (forward advances the same eps streams)
        # must report the identical value.
        network, twin = _twin_dense()
        rng = np.random.default_rng(6)
        x = rng.random((6, 20))
        labels = rng.integers(0, 4, 6)
        nll, kl = network.train_step(x, labels, Adam(1e-3), 0.1)
        assert np.isfinite(nll) and np.isfinite(kl)
        twin.forward(x, sample=True)
        assert kl == twin.kl_divergence()


class TestTrainerValidation:
    def test_trainer_validates_eval_samples_before_training(self):
        # The bad value must surface immediately, not after an epoch of
        # training has already been burned inside predict().
        network = BayesianNetwork((6, 4, 2), seed=0)
        trainer = Trainer(network, epochs=50)
        with pytest.raises(ConfigurationError, match="eval_samples"):
            trainer.fit(np.zeros((10, 6)), np.zeros(10, dtype=int), eval_samples=0)


class TestRegressorDivergenceCheck:
    # Driving the loss to infinity necessarily trips numpy's inf/nan
    # arithmetic warnings on the way down; they are the point, not a bug.
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_loss_raises(self):
        from repro.bnn.regression import BayesianRegressor

        x = np.linspace(0, 1, 16)[:, None]
        targets = np.full((16, 1), np.inf)
        regressor = BayesianRegressor((1, 4, 1), seed=0)
        with pytest.raises(TrainingError, match="diverged"):
            regressor.fit(x, targets, Adam(1e-3), epochs=3)

    def test_healthy_run_unaffected(self):
        from repro.bnn.regression import BayesianRegressor

        rng = np.random.default_rng(8)
        x = rng.random((32, 1))
        targets = 2.0 * x + rng.normal(0, 0.05, (32, 1))
        history = BayesianRegressor((1, 8, 1), seed=0).fit(
            x, targets, Adam(1e-3), epochs=2
        )
        assert len(history) == 2
        assert all(np.isfinite(v) for v in history)
