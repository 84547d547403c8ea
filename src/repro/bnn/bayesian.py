"""Bayes-by-Backprop Bayesian layers and networks (§2.1-2.2, ref. [9]).

Each weight has a Gaussian variational posterior ``N(mu, sigma^2)`` with
``sigma = softplus(rho) = ln(1 + exp(rho))`` (eq. 2).  A forward pass draws
``w = mu + sigma * eps`` with ``eps ~ N(0, I)`` (the reparameterisation
trick), so gradients flow to ``(mu, rho)`` through the sample:

* ``dL/dmu  = dL/dw``
* ``dL/drho = dL/dw * eps * sigmoid(rho)``

The training objective is the (minibatch-scaled) negative ELBO

    ``loss = NLL(batch) + kl_scale * KL(q(w|theta) || p(w))``

with the KL term exact for :class:`~repro.bnn.priors.GaussianPrior` and
estimated at the sampled ``w`` for
:class:`~repro.bnn.priors.ScaleMixturePrior` (whose ``log q`` mu-terms
cancel analytically; see the gradient derivation in the layer docstring).
"""

from __future__ import annotations

import math

import numpy as np

from repro.bnn.activations import relu, relu_grad, sigmoid, softmax, softplus
from repro.bnn.activations import inverse_softplus
from repro.bnn.losses import cross_entropy_loss
from repro.bnn.priors import GaussianPrior
from repro.errors import ConfigurationError
from repro.grng.base import Grng
from repro.utils.seeding import spawn_generator
from repro.utils.validation import check_positive


class BayesianDenseLayer:
    """Fully connected layer with factorised Gaussian weight posteriors.

    Gradient notes for the sampled-KL (mixture prior) path: writing
    ``f = log q(w|theta) - log p(w)``, the reparameterised gradients are

    * w.r.t. ``mu``:  ``df/dw`` + direct ``d log q/d mu``; the ``log q``
      contributions cancel exactly, leaving ``-d log p/d w``.
    * w.r.t. ``rho``: the ``log q`` terms collapse to ``-sigmoid(rho)/sigma``
      and the prior contributes ``-d log p/d w * eps * sigmoid(rho)``.

    For the closed-form Gaussian prior the exact KL gradients are used
    instead (lower variance).
    """

    def __init__(
        self,
        in_features: int,
        out_features: int,
        seed: int = 0,
        initial_sigma: float = 0.05,
    ) -> None:
        check_positive("in_features", in_features)
        check_positive("out_features", out_features)
        check_positive("initial_sigma", initial_sigma)
        rng = spawn_generator(seed, "bayes-dense", in_features, out_features)
        scale = np.sqrt(2.0 / in_features)
        self.mu_weights = rng.standard_normal((in_features, out_features)) * scale
        self.mu_bias = np.zeros(out_features)
        rho_init = float(inverse_softplus(np.array(initial_sigma)))
        self.rho_weights = np.full((in_features, out_features), rho_init)
        self.rho_bias = np.full(out_features, rho_init)
        self._eps_rng = spawn_generator(seed, "bayes-eps", in_features, out_features)
        # Caches for backward.
        self._input: np.ndarray | None = None
        self._eps_w: np.ndarray | None = None
        self._eps_b: np.ndarray | None = None
        self._sampled_w: np.ndarray | None = None
        self._sampled_b: np.ndarray | None = None
        self._sigma_w: np.ndarray | None = None
        self._sigma_b: np.ndarray | None = None
        # Gradient slots.
        self.grad_mu_weights = np.zeros_like(self.mu_weights)
        self.grad_rho_weights = np.zeros_like(self.rho_weights)
        self.grad_mu_bias = np.zeros_like(self.mu_bias)
        self.grad_rho_bias = np.zeros_like(self.rho_bias)

    # ------------------------------------------------------------------
    @property
    def in_features(self) -> int:
        return self.mu_weights.shape[0]

    @property
    def out_features(self) -> int:
        return self.mu_weights.shape[1]

    def sigma_weights(self) -> np.ndarray:
        """Current posterior standard deviations of the weights."""
        return softplus(self.rho_weights)

    def sigma_bias(self) -> np.ndarray:
        """Current posterior standard deviations of the biases."""
        return softplus(self.rho_bias)

    def weight_count(self) -> int:
        """Total number of stochastic parameters (weights + biases)."""
        return self.mu_weights.size + self.mu_bias.size

    # ------------------------------------------------------------------
    def forward(
        self,
        x: np.ndarray,
        *,
        sample: bool = True,
        eps_w: np.ndarray | None = None,
        eps_b: np.ndarray | None = None,
    ) -> np.ndarray:
        """Affine pass with freshly sampled weights (or the means).

        Supplied ``eps_w``/``eps_b`` (a plugged GRNG's draw) replace the
        layer's own stream and must match the weight and bias shapes.
        """
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2 or x.shape[1] != self.in_features:
            raise ConfigurationError(
                f"expected input shape (batch, {self.in_features}), got {x.shape}"
            )
        self._input = x
        if sample:
            if eps_w is None:
                eps_w = self._eps_rng.standard_normal(self.mu_weights.shape)
            elif eps_w.shape != self.mu_weights.shape:
                raise ConfigurationError("epsilon shape mismatch")
            if eps_b is None:
                eps_b = self._eps_rng.standard_normal(self.mu_bias.shape)
            elif eps_b.shape != self.mu_bias.shape:
                raise ConfigurationError("epsilon shape mismatch")
        else:
            eps_w = np.zeros_like(self.mu_weights)
            eps_b = np.zeros_like(self.mu_bias)
        self._eps_w, self._eps_b = eps_w, eps_b
        # softplus(rho) is unchanged until the optimizer step, so the
        # backward pass reuses these sigmas instead of recomputing the
        # (comparatively expensive) softplus.
        self._sigma_w = self.sigma_weights()
        self._sigma_b = self.sigma_bias()
        self._sampled_w = self.mu_weights + self._sigma_w * eps_w
        self._sampled_b = self.mu_bias + self._sigma_b * eps_b
        return x @ self._sampled_w + self._sampled_b

    def backward(self, grad_output: np.ndarray, kl_scale: float, prior) -> np.ndarray:
        """Backprop through the sampled weights; add the KL/prior gradients.

        Returns the gradient w.r.t. the layer input.
        """
        if self._input is None or self._sampled_w is None:
            raise ConfigurationError("backward called before forward")
        grad_w = self._input.T @ grad_output
        grad_b = grad_output.sum(axis=0)
        sig_rho_w = sigmoid(self.rho_weights)
        sig_rho_b = sigmoid(self.rho_bias)

        self.grad_mu_weights = grad_w.copy()
        self.grad_rho_weights = grad_w * self._eps_w * sig_rho_w
        self.grad_mu_bias = grad_b.copy()
        self.grad_rho_bias = grad_b * self._eps_b * sig_rho_b

        if kl_scale > 0.0:
            if prior.closed_form:
                sigma_w = self._sigma_w
                sigma_b = self._sigma_b
                kl_mu_w, kl_sig_w = prior.kl_grad(self.mu_weights, sigma_w)
                kl_mu_b, kl_sig_b = prior.kl_grad(self.mu_bias, sigma_b)
                self.grad_mu_weights += kl_scale * kl_mu_w
                self.grad_rho_weights += kl_scale * kl_sig_w * sig_rho_w
                self.grad_mu_bias += kl_scale * kl_mu_b
                self.grad_rho_bias += kl_scale * kl_sig_b * sig_rho_b
            else:
                sigma_w = self._sigma_w
                sigma_b = self._sigma_b
                neg_dlogp_w = -prior.grad_log_prob(self._sampled_w)
                neg_dlogp_b = -prior.grad_log_prob(self._sampled_b)
                self.grad_mu_weights += kl_scale * neg_dlogp_w
                self.grad_rho_weights += kl_scale * (
                    neg_dlogp_w * self._eps_w * sig_rho_w - sig_rho_w / sigma_w
                )
                self.grad_mu_bias += kl_scale * neg_dlogp_b
                self.grad_rho_bias += kl_scale * (
                    neg_dlogp_b * self._eps_b * sig_rho_b - sig_rho_b / sigma_b
                )
        return grad_output @ self._sampled_w.T

    # ------------------------------------------------------------------
    def kl_divergence(self, prior, *, use_cache: bool = False) -> float:
        """KL of the layer posterior from the prior.

        Exact for closed-form priors; otherwise the sampled estimate at the
        most recent forward pass's weights.  ``use_cache=True`` reuses the
        sigmas computed by the most recent forward pass instead of
        re-running softplus — only valid when ``rho`` has not changed
        since (``train_step`` calls it between forward and the optimizer
        step, where that holds by construction).
        """
        if use_cache and self._sigma_w is not None:
            sigma_w, sigma_b = self._sigma_w, self._sigma_b
        else:
            sigma_w, sigma_b = self.sigma_weights(), self.sigma_bias()
        if prior.closed_form:
            return prior.kl_divergence(self.mu_weights, sigma_w) + prior.kl_divergence(
                self.mu_bias, sigma_b
            )
        if self._sampled_w is None:
            raise ConfigurationError("sampled KL requires a forward pass first")
        return (
            self._log_q(self._sampled_w, self.mu_weights, sigma_w)
            + self._log_q(self._sampled_b, self.mu_bias, sigma_b)
            - prior.log_prob(self._sampled_w)
            - prior.log_prob(self._sampled_b)
        )

    @staticmethod
    def _log_q(w: np.ndarray, mu: np.ndarray, sigma: np.ndarray) -> float:
        return float(
            (
                -0.5 * math.log(2.0 * math.pi)
                - np.log(sigma)
                - (w - mu) ** 2 / (2.0 * sigma**2)
            ).sum()
        )

    def parameters(self) -> list[np.ndarray]:
        return [self.mu_weights, self.rho_weights, self.mu_bias, self.rho_bias]

    def gradients(self) -> list[np.ndarray]:
        return [
            self.grad_mu_weights,
            self.grad_rho_weights,
            self.grad_mu_bias,
            self.grad_rho_bias,
        ]


class BayesianNetwork:
    """Feed-forward BNN with ReLU hidden layers, trained by Bayes-by-Backprop.

    Parameters
    ----------
    layer_sizes:
        E.g. ``(784, 200, 200, 10)``, the paper's MNIST topology.
    prior:
        A prior from :mod:`repro.bnn.priors`; default ``GaussianPrior(1.0)``.
    seed:
        Seeds initialisation and the epsilon streams.
    initial_sigma:
        Initial posterior standard deviation for every weight.
    """

    def __init__(
        self,
        layer_sizes: tuple[int, ...],
        prior=None,
        seed: int = 0,
        initial_sigma: float = 0.05,
    ) -> None:
        if len(layer_sizes) < 2:
            raise ConfigurationError("need at least input and output sizes")
        self.layer_sizes = tuple(int(s) for s in layer_sizes)
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

    # ------------------------------------------------------------------
    def forward(self, x: np.ndarray, *, sample: bool = True, epsilons=None) -> np.ndarray:
        """One stochastic forward pass returning logits.

        ``epsilons`` is one pass's per-layer ``(eps_w, eps_b)`` list (a
        plugged GRNG's draw); ``None`` draws from each layer's own stream.
        """
        if epsilons is None:
            epsilons = [(None, None)] * len(self.layers)
        elif len(epsilons) != len(self.layers):
            raise ConfigurationError(
                f"expected {len(self.layers)} (eps_w, eps_b) pairs, got {len(epsilons)}"
            )
        self._pre_activations = []
        hidden = np.asarray(x, dtype=np.float64)
        for layer, (eps_w, eps_b) in zip(self.layers[:-1], epsilons):
            pre = layer.forward(hidden, sample=sample, eps_w=eps_w, eps_b=eps_b)
            self._pre_activations.append(pre)
            hidden = relu(pre)
        eps_w, eps_b = epsilons[-1]
        return self.layers[-1].forward(hidden, sample=sample, eps_w=eps_w, eps_b=eps_b)

    def kl_divergence(self, *, use_cache: bool = False) -> float:
        """Total KL of the network posterior from the prior.

        ``use_cache=True`` reuses each layer's forward-pass sigmas (valid
        between a forward pass and the next optimizer step).
        """
        return sum(
            layer.kl_divergence(self.prior, use_cache=use_cache)
            for layer in self.layers
        )

    def train_step(
        self, x: np.ndarray, labels: np.ndarray, optimizer, kl_scale: float
    ) -> tuple[float, float]:
        """One ELBO descent step; returns ``(nll, kl)`` for the batch.

        ``kl_scale`` is the minibatch KL weight — typically
        ``1 / n_train_samples`` so the summed per-batch objectives equal
        one full ELBO per epoch.
        """
        if kl_scale < 0:
            raise ConfigurationError(f"kl_scale must be >= 0, got {kl_scale}")
        logits = self.forward(x, sample=True)
        nll, grad = cross_entropy_loss(logits, labels)
        kl = self.kl_divergence(use_cache=True)
        grad = self.layers[-1].backward(grad, kl_scale, self.prior)
        for index in range(len(self.layers) - 2, -1, -1):
            grad = grad * relu_grad(self._pre_activations[index])
            grad = self.layers[index].backward(grad, kl_scale, self.prior)
        params: list[np.ndarray] = []
        grads: list[np.ndarray] = []
        for layer in self.layers:
            params.extend(layer.parameters())
            grads.extend(layer.gradients())
        optimizer.update(params, grads)
        return nll, kl

    # ------------------------------------------------------------------
    def predict_proba(
        self, x: np.ndarray, n_samples: int = 10, grng: Grng | None = None
    ) -> np.ndarray:
        """Monte-Carlo averaged class probabilities (eq. 6), streamed.

        The passes stream one at a time through one pass-sized buffer
        (:func:`repro.bnn.inference.streamed_logits`), bit-for-bit equal
        to :meth:`predict_proba_loop`.  ``grng`` is the epsilon source,
        the seam where the hardware generators
        (:class:`~repro.grng.rlf.ParallelRlfGrng`,
        :class:`~repro.grng.bnnwallace.BnnWallaceGrng`, optionally behind
        a :class:`~repro.grng.stream.GrngStream`) plug in; ``None`` draws
        from each layer's internal stream in the loop's per-sample order
        and leaves every layer's stream in the same state.  The ``None``
        path is what :meth:`~repro.bnn.trainer.Trainer._evaluate` rides
        for the per-epoch train/test accuracy sweeps.
        """
        from repro.bnn.inference import stacked_softmax_average, streamed_logits

        check_positive("n_samples", n_samples)
        return stacked_softmax_average(streamed_logits(self.layers, x, n_samples, grng))

    def predict_proba_loop(
        self, x: np.ndarray, n_samples: int = 10, grng: Grng | None = None
    ) -> np.ndarray:
        """Eq. (6) as one forward pass per MC sample — the kept reference.

        Each pass draws ``weight_count()`` epsilons from ``grng`` and
        splits them layer by layer, weights before biases.
        """
        from repro.bnn.inference import split_epsilon_block

        check_positive("n_samples", n_samples)
        x = np.asarray(x, dtype=np.float64)
        total = np.zeros((x.shape[0], self.layer_sizes[-1]))
        for _ in range(n_samples):
            epsilons = None
            if grng is not None:
                block = grng.generate(self.weight_count())[None, :]
                epsilons = [(w[0], b[0]) for w, b in split_epsilon_block(self.layers, block)]
            total += softmax(self.forward(x, sample=True, epsilons=epsilons))
        return total / n_samples

    def predict(self, x: np.ndarray, n_samples: int = 10) -> np.ndarray:
        """MC-averaged hard predictions."""
        return self.predict_proba(x, n_samples).argmax(axis=1)

    def predict_mean_weights(self, x: np.ndarray) -> np.ndarray:
        """Deterministic prediction using the posterior means only."""
        return softmax(self.forward(x, sample=False)).argmax(axis=1)

    def weight_count(self) -> int:
        """Total stochastic parameters across layers."""
        return sum(layer.weight_count() for layer in self.layers)

    def posterior_parameters(self) -> list[dict[str, np.ndarray]]:
        """Export ``(mu, sigma)`` per layer — what ships to the FPGA (§2.2)."""
        return [
            {
                "mu_weights": layer.mu_weights.copy(),
                "sigma_weights": layer.sigma_weights(),
                "mu_bias": layer.mu_bias.copy(),
                "sigma_bias": layer.sigma_bias(),
            }
            for layer in self.layers
        ]
