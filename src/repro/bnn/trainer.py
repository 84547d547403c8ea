"""Minibatch training loop shared by the FNN and BNN experiments.

Records per-epoch train/test accuracy so the convergence curves of Fig. 17
can be regenerated directly from the history.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.bnn.bayesian import BayesianNetwork
from repro.bnn.metrics import accuracy
from repro.bnn.optimizers import Adam
from repro.errors import ConfigurationError, TrainingError
from repro.obs import profile as _profile
from repro.utils.seeding import spawn_generator


@dataclass
class TrainingHistory:
    """Per-epoch trace of a training run (Fig. 17's raw material)."""

    train_loss: list[float] = field(default_factory=list)
    train_accuracy: list[float] = field(default_factory=list)
    test_accuracy: list[float] = field(default_factory=list)
    kl: list[float] = field(default_factory=list)

    @property
    def epochs(self) -> int:
        return len(self.train_loss)

    def final_test_accuracy(self) -> float:
        if not self.test_accuracy:
            if self.train_loss:
                raise TrainingError(
                    f"{self.epochs} epoch(s) ran without a test set; pass "
                    "x_test/y_test to Trainer.fit to record test accuracy"
                )
            raise TrainingError("no epochs recorded")
        return self.test_accuracy[-1]


class Trainer:
    """Generic minibatch trainer for FNN and BNN models.

    Parameters
    ----------
    model:
        A :class:`~repro.bnn.network.FeedForwardNetwork` or
        :class:`~repro.bnn.bayesian.BayesianNetwork`.
    optimizer:
        Any object with ``update(params, grads)``; defaults to Adam(1e-3).
    batch_size, epochs, seed:
        Standard loop controls; the seed drives shuffling only.
    """

    def __init__(
        self,
        model,
        optimizer=None,
        batch_size: int = 64,
        epochs: int = 10,
        seed: int = 0,
    ) -> None:
        if batch_size < 1:
            raise ConfigurationError(f"batch_size must be >= 1, got {batch_size}")
        if epochs < 1:
            raise ConfigurationError(f"epochs must be >= 1, got {epochs}")
        self.model = model
        self.optimizer = optimizer if optimizer is not None else Adam(1e-3)
        self.batch_size = batch_size
        self.epochs = epochs
        self._rng = spawn_generator(seed, "trainer-shuffle")

    def fit(
        self,
        x_train: np.ndarray,
        y_train: np.ndarray,
        x_test: np.ndarray | None = None,
        y_test: np.ndarray | None = None,
        *,
        eval_samples: int = 5,
    ) -> TrainingHistory:
        """Train and return the per-epoch history.

        For Bayesian models the per-batch KL weight is
        ``batch_size / n_train`` so one epoch sums to one full ELBO.
        """
        # Validate the evaluation sample count BEFORE training: a bad
        # value used to surface only inside predict() after a full epoch
        # of training had already been spent.
        if eval_samples < 1:
            raise ConfigurationError(
                f"eval_samples must be >= 1, got {eval_samples}"
            )
        x_train = np.asarray(x_train, dtype=np.float64)
        y_train = np.asarray(y_train)
        if x_train.shape[0] != y_train.shape[0]:
            raise ConfigurationError("x_train/y_train length mismatch")
        if x_train.shape[0] == 0:
            raise ConfigurationError("empty training set")
        n_train = x_train.shape[0]
        is_bayesian = isinstance(self.model, BayesianNetwork)
        kl_scale = 1.0 / n_train
        history = TrainingHistory()
        for _ in range(self.epochs):
            _prof = _profile.ACTIVE
            _t0 = time.perf_counter() if _prof is not None else 0.0
            order = self._rng.permutation(n_train)
            epoch_loss = 0.0
            epoch_kl = 0.0
            batches = 0
            for start in range(0, n_train, self.batch_size):
                batch_idx = order[start : start + self.batch_size]
                xb, yb = x_train[batch_idx], y_train[batch_idx]
                if is_bayesian:
                    nll, kl = self.model.train_step(xb, yb, self.optimizer, kl_scale)
                    epoch_loss += nll
                    epoch_kl += kl
                else:
                    epoch_loss += self.model.train_step(xb, yb, self.optimizer)
                batches += 1
            if _prof is not None:
                _prof.record("train.epoch", time.perf_counter() - _t0, ops=n_train)
            history.train_loss.append(epoch_loss / batches)
            history.kl.append(epoch_kl / batches if is_bayesian else 0.0)
            # Divergence check BEFORE the (expensive) train/test accuracy
            # evaluation: a non-finite loss means the parameters are
            # already garbage, so evaluating the diverged epoch would
            # burn a full train+test MC sweep for nothing.
            if not np.isfinite(history.train_loss[-1]):
                raise TrainingError(
                    f"training diverged at epoch {history.epochs} "
                    f"(loss={history.train_loss[-1]})"
                )
            history.train_accuracy.append(
                self._evaluate(x_train, y_train, eval_samples)
            )
            if x_test is not None and y_test is not None:
                history.test_accuracy.append(
                    self._evaluate(x_test, y_test, eval_samples)
                )
        return history

    def _evaluate(self, x: np.ndarray, y: np.ndarray, eval_samples: int) -> float:
        """Accuracy sweep over ``x``.

        For Bayesian models ``predict`` averages ``eval_samples`` passes by
        local reparameterization
        (:meth:`~repro.bnn.bayesian.BayesianNetwork.predict_proba`), drawn
        from the network's own prediction stream, so the sweeps leave
        training's epsilon streams untouched.
        """
        if isinstance(self.model, BayesianNetwork):
            predictions = self.model.predict(x, n_samples=eval_samples)
        else:
            predictions = self.model.predict(x)
        return accuracy(predictions, y)
