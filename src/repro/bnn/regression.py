"""Bayesian regression with predictive uncertainty.

Blundell et al. (the paper's ref. [9]) demonstrate Bayes-by-Backprop on
regression, where the BNN's value proposition is clearest: the predictive
distribution widens away from the training data.  This module adds a
Gaussian-likelihood regression head on top of the same Bayesian layers:

* training objective: ``0.5 * ||y - f(x)||^2 / noise^2`` per point plus the
  scaled KL (homoscedastic known-noise likelihood);
* prediction: Monte-Carlo mean and *total* predictive standard deviation
  (epistemic spread of the MC means + the aleatoric noise term).

Used by the uncertainty example and the extension tests; the quantized /
accelerator path works on these networks unchanged (a regression head is
just a linear output layer).
"""

from __future__ import annotations

import numpy as np

from repro.bnn.activations import relu, relu_grad
from repro.bnn.bayesian import BayesianDenseLayer
from repro.bnn.priors import GaussianPrior
from repro.errors import ConfigurationError, TrainingError
from repro.utils.seeding import generator_from_seed
from repro.utils.validation import check_positive


class BayesianRegressor:
    """Feed-forward Bayesian regression network (1-D or multi-output).

    Parameters
    ----------
    layer_sizes:
        E.g. ``(1, 32, 32, 1)``.
    noise_sigma:
        Known observation noise of the Gaussian likelihood.
    prior, seed, initial_sigma:
        As in :class:`~repro.bnn.bayesian.BayesianNetwork`.
    """

    def __init__(
        self,
        layer_sizes: tuple[int, ...],
        noise_sigma: float = 0.1,
        prior=None,
        seed: int = 0,
        initial_sigma: float = 0.05,
    ) -> None:
        if len(layer_sizes) < 2:
            raise ConfigurationError("need at least input and output sizes")
        check_positive("noise_sigma", noise_sigma)
        self.layer_sizes = tuple(int(s) for s in layer_sizes)
        self.noise_sigma = float(noise_sigma)
        self.prior = prior if prior is not None else GaussianPrior(1.0)
        self.layers = [
            BayesianDenseLayer(
                self.layer_sizes[i],
                self.layer_sizes[i + 1],
                seed=seed + i,
                initial_sigma=initial_sigma,
            )
            for i in range(len(self.layer_sizes) - 1)
        ]
        self._pre_activations: list[np.ndarray] = []

    def forward(self, x: np.ndarray, *, sample: bool = True) -> np.ndarray:
        """One stochastic forward pass returning raw outputs."""
        self._pre_activations = []
        hidden = np.asarray(x, dtype=np.float64)
        for layer in self.layers[:-1]:
            pre = layer.forward(hidden, sample=sample)
            self._pre_activations.append(pre)
            hidden = relu(pre)
        return self.layers[-1].forward(hidden, sample=sample)

    def train_step(
        self, x: np.ndarray, targets: np.ndarray, optimizer, kl_scale: float
    ) -> float:
        """One ELBO step under the Gaussian likelihood; returns the NLL."""
        if kl_scale < 0:
            raise ConfigurationError(f"kl_scale must be >= 0, got {kl_scale}")
        targets = np.asarray(targets, dtype=np.float64)
        outputs = self.forward(x, sample=True)
        if outputs.shape != targets.shape:
            raise ConfigurationError(
                f"target shape {targets.shape} does not match output {outputs.shape}"
            )
        residual = outputs - targets
        var = self.noise_sigma**2
        nll = float(0.5 * (residual**2).mean() / var)
        grad = residual / (var * residual.shape[0])
        grad = self.layers[-1].backward(grad, kl_scale, self.prior)
        for index in range(len(self.layers) - 2, -1, -1):
            grad = grad * relu_grad(self._pre_activations[index])
            grad = self.layers[index].backward(grad, kl_scale, self.prior)
        params, grads = [], []
        for layer in self.layers:
            params.extend(layer.parameters())
            grads.extend(layer.gradients())
        optimizer.update(params, grads)
        return nll

    def fit(
        self,
        x: np.ndarray,
        targets: np.ndarray,
        optimizer,
        epochs: int = 200,
        batch_size: int = 32,
        seed: int = 0,
    ) -> list[float]:
        """Simple full-data training loop; returns per-epoch NLL.

        Raises :class:`~repro.errors.TrainingError` as soon as an epoch
        loss goes non-finite — the same divergence check
        :meth:`~repro.bnn.trainer.Trainer.fit` applies, so a diverged
        regression run fails loudly instead of silently recording a
        garbage history.
        """
        if epochs < 1:
            raise ConfigurationError(f"epochs must be >= 1, got {epochs}")
        x = np.asarray(x, dtype=np.float64)
        targets = np.asarray(targets, dtype=np.float64)
        n = x.shape[0]
        rng = generator_from_seed(seed)
        kl_scale = 1.0 / n
        history = []
        for _ in range(epochs):
            order = rng.permutation(n)
            epoch_nll = 0.0
            batches = 0
            for start in range(0, n, batch_size):
                idx = order[start : start + batch_size]
                epoch_nll += self.train_step(x[idx], targets[idx], optimizer, kl_scale)
                batches += 1
            history.append(epoch_nll / batches)
            if not np.isfinite(history[-1]):
                raise TrainingError(
                    f"regression training diverged at epoch {len(history)} "
                    f"(loss={history[-1]})"
                )
        return history

    def predict(
        self,
        x: np.ndarray,
        n_samples: int = 50,
        *,
        grng=None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Predictive mean and total standard deviation (eq. 6 analogue).

        The returned std combines the epistemic spread of the MC forward
        passes with the aleatoric ``noise_sigma``.  The
        ``n_samples`` passes stream one at a time through one pass-sized
        buffer (:func:`~repro.bnn.inference.streamed_logits`, optionally
        drawing from ``grng`` through the
        :meth:`~repro.grng.base.Grng.fill` seam); :meth:`predict_loop` is
        the per-sample reference the streamed path is tested against bit
        for bit.
        """
        check_positive("n_samples", n_samples)
        from repro.bnn.inference import streamed_logits

        draws = streamed_logits(self.layers, x, n_samples, grng)
        mean = draws.mean(axis=0)
        epistemic_var = draws.var(axis=0)
        std = np.sqrt(epistemic_var + self.noise_sigma**2)
        return mean, std

    def predict_loop(
        self, x: np.ndarray, n_samples: int = 50
    ) -> tuple[np.ndarray, np.ndarray]:
        """Reference implementation: one forward pass per MC sample."""
        check_positive("n_samples", n_samples)
        x = np.asarray(x, dtype=np.float64)
        draws = np.stack([self.forward(x, sample=True) for _ in range(n_samples)])
        mean = draws.mean(axis=0)
        epistemic_var = draws.var(axis=0)
        std = np.sqrt(epistemic_var + self.noise_sigma**2)
        return mean, std
