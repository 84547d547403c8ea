"""Tests for the FNN, trainer, metrics and MC inference."""

import numpy as np
import pytest

from repro.bnn import (
    Adam,
    BayesianNetwork,
    FeedForwardNetwork,
    Trainer,
    accuracy,
)
from repro.bnn.metrics import expected_calibration_error, predictive_entropy
from repro.errors import ConfigurationError, TrainingError
from repro.grng import NumpyGrng, ParallelRlfGrng


def _toy_task(seed=0, n=100, features=6, classes=2):
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, classes, n)
    x = rng.normal(0, 0.4, (n, features)) + labels[:, None] * 1.3
    return x, labels


class TestFeedForwardNetwork:
    def test_learns_separable_task(self):
        x, y = _toy_task()
        fnn = FeedForwardNetwork((6, 8, 2), seed=0)
        Trainer(fnn, Adam(5e-3), batch_size=20, epochs=20, seed=0).fit(x, y)
        assert accuracy(fnn.predict(x), y) > 0.9

    def test_dropout_only_in_training(self):
        fnn = FeedForwardNetwork((6, 8, 2), dropout=0.5, seed=1)
        x = np.random.default_rng(0).standard_normal((4, 6))
        a = fnn.forward(x, training=False)
        b = fnn.forward(x, training=False)
        assert np.allclose(a, b)

    def test_predict_proba_normalised(self):
        fnn = FeedForwardNetwork((6, 4, 3), seed=2)
        probs = fnn.predict_proba(np.zeros((3, 6)))
        assert np.allclose(probs.sum(axis=1), 1.0)

    def test_layer_sizes_validation(self):
        with pytest.raises(ConfigurationError):
            FeedForwardNetwork((4,))


class TestTrainer:
    def test_history_lengths(self):
        x, y = _toy_task(seed=1)
        fnn = FeedForwardNetwork((6, 4, 2), seed=3)
        history = Trainer(fnn, Adam(1e-3), batch_size=32, epochs=5, seed=0).fit(
            x, y, x, y
        )
        assert history.epochs == 5
        assert len(history.test_accuracy) == 5
        assert history.final_test_accuracy() == history.test_accuracy[-1]

    def test_bayesian_records_kl(self):
        x, y = _toy_task(seed=2)
        bnn = BayesianNetwork((6, 4, 2), seed=4)
        history = Trainer(bnn, Adam(1e-3), batch_size=32, epochs=3, seed=0).fit(x, y)
        assert all(np.isfinite(history.kl))
        assert history.kl[0] != 0.0

    def test_no_test_set_no_test_accuracy(self):
        x, y = _toy_task(seed=3)
        fnn = FeedForwardNetwork((6, 4, 2), seed=5)
        history = Trainer(fnn, Adam(1e-3), epochs=2).fit(x, y)
        assert history.test_accuracy == []

    def test_validation(self):
        fnn = FeedForwardNetwork((6, 4, 2))
        with pytest.raises(ConfigurationError):
            Trainer(fnn, batch_size=0)
        with pytest.raises(ConfigurationError):
            Trainer(fnn, epochs=0)
        with pytest.raises(ConfigurationError):
            Trainer(fnn).fit(np.zeros((0, 6)), np.zeros(0, dtype=int))
        with pytest.raises(ConfigurationError):
            Trainer(fnn).fit(np.zeros((3, 6)), np.zeros(2, dtype=int))

    def test_final_test_accuracy_requires_epochs(self):
        from repro.bnn.trainer import TrainingHistory

        with pytest.raises(TrainingError):
            TrainingHistory().final_test_accuracy()


class TestMetrics:
    def test_accuracy(self):
        assert accuracy(np.array([0, 1, 1]), np.array([0, 1, 0])) == pytest.approx(2 / 3)

    def test_accuracy_validation(self):
        with pytest.raises(ConfigurationError):
            accuracy(np.array([0]), np.array([0, 1]))
        with pytest.raises(ConfigurationError):
            accuracy(np.array([]), np.array([]))

    def test_ece_perfectly_calibrated(self):
        # Confidence 1.0 and always correct -> ECE 0.
        probs = np.array([[1.0, 0.0]] * 10)
        labels = np.zeros(10, dtype=int)
        assert expected_calibration_error(probs, labels) == pytest.approx(0.0)

    def test_ece_overconfident(self):
        # Confidence 1.0 but 50% correct -> ECE 0.5.
        probs = np.array([[1.0, 0.0]] * 10)
        labels = np.array([0, 1] * 5)
        assert expected_calibration_error(probs, labels) == pytest.approx(0.5)

    def test_ece_validation(self):
        with pytest.raises(ConfigurationError):
            expected_calibration_error(np.zeros((2, 2)), np.zeros(2, dtype=int), bins=0)

    def test_predictive_entropy_bounds(self):
        # One-hot rows carry no uncertainty; uniform rows the most, log(k).
        probs = np.array([[1.0, 0.0, 0.0], [1 / 3, 1 / 3, 1 / 3]])
        assert predictive_entropy(probs) == pytest.approx([0.0, np.log(3)])


class TestPredictProba:
    def test_internal_stream_matches_network_predict_distribution(self):
        x, y = _toy_task(seed=4)
        bnn = BayesianNetwork((6, 6, 2), seed=6, initial_sigma=0.02)
        Trainer(bnn, Adam(5e-3), batch_size=20, epochs=15, seed=0).fit(x, y)
        assert accuracy(bnn.predict_proba(x, 10).argmax(axis=1), y) > 0.85

    def test_plugged_hardware_grng(self):
        x, y = _toy_task(seed=5)
        bnn = BayesianNetwork((6, 6, 2), seed=7, initial_sigma=0.02)
        Trainer(bnn, Adam(5e-3), batch_size=20, epochs=15, seed=0).fit(x, y)
        for grng in (ParallelRlfGrng(lanes=8, seed=0), NumpyGrng(0)):
            probs = bnn.predict_proba(x, 10, grng=grng)
            assert accuracy(probs.argmax(axis=1), y) > 0.85

    def test_predictive_entropy_higher_off_manifold(self):
        x, y = _toy_task(seed=6)
        bnn = BayesianNetwork((6, 6, 2), seed=8, initial_sigma=0.05)
        Trainer(bnn, Adam(5e-3), batch_size=20, epochs=15, seed=0).fit(x, y)
        on_manifold = predictive_entropy(bnn.predict_proba(x[:20], 20)).mean()
        off_manifold = predictive_entropy(
            bnn.predict_proba(
                np.random.default_rng(9).standard_normal((20, 6)) * 0.5 + 0.65, 20
            )
        ).mean()
        assert off_manifold > on_manifold - 0.2  # uncertainty does not collapse

    @pytest.mark.parametrize("n_samples", [0, -1])
    def test_n_samples_validation(self, n_samples):
        with pytest.raises(ConfigurationError):
            BayesianNetwork((4, 2)).predict_proba(np.zeros((1, 4)), n_samples)


class TestTrainerDivergence:
    class _DivergingModel:
        """Train step goes non-finite immediately; predict must not run."""

        def __init__(self):
            self.predict_calls = 0

        def train_step(self, xb, yb, optimizer):
            return float("nan")

        def predict(self, x):
            self.predict_calls += 1
            return np.zeros(x.shape[0], dtype=int)

    def test_divergence_detected_before_evaluation(self):
        # The non-finite loss must abort the epoch BEFORE paying the full
        # train/test accuracy evaluation on garbage parameters.
        x, y = _toy_task(seed=4)
        model = self._DivergingModel()
        with pytest.raises(TrainingError, match="diverged at epoch 1"):
            Trainer(model, Adam(1e-3), epochs=3).fit(x, y, x, y)
        assert model.predict_calls == 0

    def test_diverged_loss_recorded_in_history_error(self):
        x, y = _toy_task(seed=5)
        with pytest.raises(TrainingError, match="loss=nan"):
            Trainer(self._DivergingModel(), Adam(1e-3), epochs=1).fit(x, y)

    def test_final_test_accuracy_messages(self):
        from repro.bnn.trainer import TrainingHistory

        # Epochs ran, but no test set was supplied: the error must say so
        # instead of claiming no epochs were recorded.
        x, y = _toy_task(seed=6)
        fnn = FeedForwardNetwork((6, 4, 2), seed=8)
        history = Trainer(fnn, Adam(1e-3), epochs=2).fit(x, y)
        with pytest.raises(TrainingError, match="without a test set"):
            history.final_test_accuracy()
        with pytest.raises(TrainingError, match="no epochs recorded"):
            TrainingHistory().final_test_accuracy()
