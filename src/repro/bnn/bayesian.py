"""Bayes-by-Backprop Bayesian layers and networks (§2.1-2.2, ref. [9]).

Each weight has a Gaussian variational posterior ``N(mu, sigma^2)`` with
``sigma = softplus(rho) = ln(1 + exp(rho))`` (eq. 2).

**Training samples pre-activations, not weights** (local
reparameterization; Kingma, Salimans & Welling 2015).  For a layer input
``x`` of shape ``(batch, in)``::

    m = x·mu + mu_b,   v = x²·sigma² + sigma_b²,   a = m + sqrt(v)·eps

with ``eps`` of shape ``(batch, out)``: per row exactly the output
distribution of sampling ``w = mu + sigma * eps_w``, for ``batch · out``
Gaussians instead of one per weight.  With ``delta = dL/da`` and
``g = delta·eps / (2 sqrt(v))`` (that is ``dL/dv``):

* ``dL/dmu     = xᵀ·delta``
* ``dL/dsigma² = (x²)ᵀ·g``, so ``dL/drho = 2 sigma · dL/dsigma² ·
  sigmoid(rho)``, with ``sigmoid(rho) = exp(rho - sigma)``
* ``dL/dx      = delta·muᵀ + 2x·(g·(sigma²)ᵀ)``

and the bias terms likewise, with ``x = 1``.  The objective is the
(minibatch-scaled) negative ELBO

    ``loss = NLL(batch) + kl_scale * KL(q(w|theta) || p(w))``

with the KL exact for :class:`~repro.bnn.priors.GaussianPrior` and, for
:class:`~repro.bnn.priors.ScaleMixturePrior`, estimated at one separate
per-weight draw ``w = mu + sigma * eps_kl`` (see
:class:`BayesianDenseLayer`); only that prior pays for a weight-sized draw.

**Inference** (:meth:`BayesianNetwork.predict_proba`) samples the
pre-activations the same way
(:func:`~repro.bnn.inference.local_reparam_logits`), from a stream of its
own; :meth:`BayesianNetwork.forward` is the posterior-mean pass.
"""

from __future__ import annotations

import math

import numpy as np

from repro.bnn.activations import inverse_softplus, relu, relu_grad, softmax, softplus
from repro.bnn.losses import cross_entropy_loss
from repro.bnn.priors import GaussianPrior
from repro.errors import ConfigurationError
from repro.grng.base import Grng, NumpyGrng
from repro.utils.seeding import derive_seed, spawn_generator
from repro.utils.validation import check_positive

#: Names the gradient estimator ``train_step`` implements.  Trained
#: posteriors depend on it, so the experiment artifact cache keys on it.
TRAINING_ESTIMATOR = "local-reparameterization"
#: Names the eq. (6) estimator ``predict_proba`` implements.  Training
#: histories record its accuracies, so the artifact cache keys on it too.
EVALUATION_ESTIMATOR = "local-reparameterization"

_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)


def _softplus_into(x: np.ndarray, out: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """:func:`~repro.bnn.activations.softplus` of ``x`` written into ``out``.

    The same operations in the same order, so the same bits; ``scratch``
    holds ``max(x, 0)``.
    """
    np.abs(x, out=out)
    np.negative(out, out=out)
    np.exp(out, out=out)
    np.log1p(out, out=out)
    np.maximum(x, 0.0, out=scratch)
    out += scratch
    return out


class BayesianDenseLayer:
    """Fully connected layer with factorised Gaussian weight posteriors.

    :meth:`train_forward` and :meth:`backward` are the training pass (the
    module docstring gives the formulas); :meth:`forward` is the
    posterior-mean pass.

    The KL term.  For the Gaussian prior it is closed-form, value and
    gradient.  Otherwise :meth:`backward` draws ``eps_kl`` per weight
    and uses the sampled ``f = log q(w|theta) - log p(w)`` at
    ``w = mu + sigma * eps_kl``, whose reparameterised gradients are

    * w.r.t. ``mu``:  ``df/dw`` + direct ``d log q/d mu``; the ``log q``
      contributions cancel exactly, leaving ``-d log p/d w``.
    * w.r.t. ``rho``: the ``log q`` terms collapse to ``-sigmoid(rho)/sigma``
      and the prior contributes ``-d log p/d w * eps_kl * sigmoid(rho)``.

    Every parameter-shaped array a training step writes — sigma, sigma²,
    the scratch and KL-draw arrays (``_workspace``) and the four
    ``grad_*`` slots — is allocated once and rewritten in place.
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
        # Gradient slots.
        self.grad_mu_weights = np.zeros_like(self.mu_weights)
        self.grad_rho_weights = np.zeros_like(self.rho_weights)
        self.grad_mu_bias = np.zeros_like(self.mu_bias)
        self.grad_rho_bias = np.zeros_like(self.rho_bias)
        # Parameter-shaped training arrays, by name (see _buffer).
        self._workspace: dict[str, np.ndarray] = {}
        # (x, x², eps, sqrt(v)) of the last train_forward, for backward.
        self._saved: tuple[np.ndarray, ...] | None = None

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

    def _check_input(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2 or x.shape[1] != self.in_features:
            raise ConfigurationError(
                f"expected input shape (batch, {self.in_features}), got {x.shape}"
            )
        return x

    # ------------------------------------------------------------------
    def forward(self, x: np.ndarray) -> np.ndarray:
        """Posterior-mean pass ``x·mu + mu_b``."""
        return self._check_input(x) @ self.mu_weights + self.mu_bias

    # ------------------------------------------------------------------
    def _buffer(self, name: str, like: np.ndarray) -> np.ndarray:
        """The workspace array ``name``, allocated shaped like ``like`` once."""
        buffer = self._workspace.get(name)
        if buffer is None:
            buffer = self._workspace[name] = np.empty_like(like)
        return buffer

    def _variance(self, tag: str, rho: np.ndarray) -> np.ndarray:
        """Fill the ``sigma_<tag>`` and ``var_<tag>`` buffers from ``rho``."""
        sigma = _softplus_into(
            rho, self._buffer("sigma_" + tag, rho), self._buffer("scratch_" + tag, rho)
        )
        return np.square(sigma, out=self._buffer("var_" + tag, rho))

    def train_forward(self, x: np.ndarray) -> np.ndarray:
        """Training pass: pre-activations ``a = m + sqrt(v)·eps`` (module docstring).

        Draws ``eps`` of shape ``(batch, out)`` from the layer's stream
        and keeps what :meth:`backward` reads.
        """
        x = self._check_input(x)
        var_w = self._variance("w", self.rho_weights)
        var_b = self._variance("b", self.rho_bias)
        x_sq = x * x
        std = x_sq @ var_w
        std += var_b
        np.sqrt(std, out=std)
        eps = self._eps_rng.standard_normal(std.shape)
        out = x @ self.mu_weights
        out += self.mu_bias
        out += eps * std
        self._saved = (x, x_sq, eps, std)
        return out

    def backward(
        self, grad_output: np.ndarray, kl_scale: float, prior, *, input_grad: bool = True
    ) -> tuple[np.ndarray | None, float]:
        """Gradients of ``<grad_output, a> + kl_scale * KL`` at the last :meth:`train_forward`.

        Writes the four ``grad_*`` slots and returns ``(d/dx, KL)``: the
        input gradient (``None`` when ``input_grad`` is false) and this
        layer's KL value at the pre-update posterior.
        """
        if self._saved is None:
            raise ConfigurationError("backward called before train_forward")
        x, x_sq, eps, std = self._saved
        grad_var = grad_output * eps
        grad_var /= std
        grad_var *= 0.5
        np.matmul(x.T, grad_output, out=self.grad_mu_weights)
        np.sum(grad_output, axis=0, out=self.grad_mu_bias)
        np.matmul(x_sq.T, grad_var, out=self.grad_rho_weights)
        np.sum(grad_var, axis=0, out=self.grad_rho_bias)
        kl = self._finish(
            "w", self.mu_weights, self.rho_weights,
            self.grad_mu_weights, self.grad_rho_weights, kl_scale, prior,
        ) + self._finish(
            "b", self.mu_bias, self.rho_bias,
            self.grad_mu_bias, self.grad_rho_bias, kl_scale, prior,
        )
        if not input_grad:
            return None, kl
        grad_input = grad_output @ self.mu_weights.T
        spread = grad_var @ self._workspace["var_w"].T
        spread *= x
        spread *= 2.0
        grad_input += spread
        return grad_input, kl

    def _finish(self, tag, mu, rho, grad_mu, grad_rho, kl_scale, prior) -> float:
        """Add the KL terms to one parameter group; return its KL value.

        On entry ``grad_rho`` holds the data term's ``dL/dsigma²``; on
        exit it holds the full ``dL/drho``.
        """
        sigma = self._workspace["sigma_" + tag]
        scratch = self._workspace["scratch_" + tag]
        np.log(sigma, out=scratch)
        kl = -float(scratch.sum())
        grad_rho *= 2.0
        if prior.closed_form:
            var_p = prior.sigma**2
            kl += mu.size * (math.log(prior.sigma) - 0.5) + float(
                np.vdot(sigma, sigma) + np.vdot(mu, mu)
            ) / (2.0 * var_p)
            if kl_scale > 0.0:
                np.multiply(mu, kl_scale / var_p, out=scratch)
                grad_mu += scratch
                grad_rho += kl_scale / var_p
            grad_rho *= sigma
        else:
            eps_kl = self._buffer("eps_kl_" + tag, mu)
            self._eps_rng.standard_normal(out=eps_kl)
            weights = np.multiply(sigma, eps_kl, out=self._buffer("w_" + tag, mu))
            weights += mu
            kl -= mu.size * _HALF_LOG_2PI + 0.5 * float(np.vdot(eps_kl, eps_kl))
            kl -= prior.log_prob(weights)
            grad_rho *= sigma
            if kl_scale > 0.0:
                grad_log_p = prior.grad_log_prob(weights)
                grad_log_p *= kl_scale
                grad_mu -= grad_log_p
                grad_log_p *= eps_kl
                grad_rho -= grad_log_p
        if kl_scale > 0.0:
            np.divide(kl_scale, sigma, out=scratch)
            grad_rho -= scratch
        # d sigma / d rho = sigmoid(rho) = exp(rho - sigma).
        np.subtract(rho, sigma, out=scratch)
        np.exp(scratch, out=scratch)
        grad_rho *= scratch
        return kl

    # ------------------------------------------------------------------
    def kl_divergence(
        self,
        prior,
        eps_w: np.ndarray | None = None,
        eps_b: np.ndarray | None = None,
    ) -> float:
        """KL of the layer posterior from the prior.

        Exact for closed-form priors.  Otherwise the sampled estimate
        ``log q(w) - log p(w)`` at ``w = mu + sigma * eps`` that training
        uses, with ``eps_w``/``eps_b`` drawn from the layer's stream
        (weights first) when not supplied.
        """
        sigma_w, sigma_b = self.sigma_weights(), self.sigma_bias()
        if prior.closed_form:
            return prior.kl_divergence(self.mu_weights, sigma_w) + prior.kl_divergence(
                self.mu_bias, sigma_b
            )
        if eps_w is None:
            eps_w = self._eps_rng.standard_normal(self.mu_weights.shape)
        if eps_b is None:
            eps_b = self._eps_rng.standard_normal(self.mu_bias.shape)
        total = 0.0
        for mu, sigma, eps in ((self.mu_weights, sigma_w, eps_w), (self.mu_bias, sigma_b, eps_b)):
            weights = mu + sigma * eps
            total += self._log_q(weights, mu, sigma) - prior.log_prob(weights)
        return total

    @staticmethod
    def _log_q(w: np.ndarray, mu: np.ndarray, sigma: np.ndarray) -> float:
        return float(
            (
                -_HALF_LOG_2PI
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
        Seeds initialisation, each layer's training epsilon stream and the
        network's own prediction stream (``predict_proba(grng=None)``).
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
        self._predict_grng = NumpyGrng(derive_seed(seed, "bayes-predict"))

    # ------------------------------------------------------------------
    def forward(self, x: np.ndarray) -> np.ndarray:
        """Posterior-mean pass returning logits (every weight at its mean)."""
        hidden = np.asarray(x, dtype=np.float64)
        for layer in self.layers[:-1]:
            hidden = relu(layer.forward(hidden))
        return self.layers[-1].forward(hidden)

    def kl_divergence(self) -> float:
        """Total KL of the network posterior from the prior.

        Sampled priors draw their estimate from each layer's stream
        (:meth:`BayesianDenseLayer.kl_divergence`).
        """
        return sum(layer.kl_divergence(self.prior) for layer in self.layers)

    def train_step(
        self, x: np.ndarray, labels: np.ndarray, optimizer, kl_scale: float
    ) -> tuple[float, float]:
        """One ELBO descent step; returns ``(nll, kl)`` for the batch.

        Pre-activations are sampled by local reparameterization (module
        docstring); ``kl`` is the pre-update posterior's.  ``kl_scale``
        is the minibatch KL weight — typically ``1 / n_train_samples`` so
        the summed per-batch objectives equal one full ELBO per epoch.
        """
        if kl_scale < 0:
            raise ConfigurationError(f"kl_scale must be >= 0, got {kl_scale}")
        pre_activations = []
        hidden = np.asarray(x, dtype=np.float64)
        for layer in self.layers[:-1]:
            pre = layer.train_forward(hidden)
            pre_activations.append(pre)
            hidden = relu(pre)
        nll, grad = cross_entropy_loss(self.layers[-1].train_forward(hidden), labels)
        kls = []
        for index in range(len(self.layers) - 1, -1, -1):
            # Layer 0's input gradient would be discarded: skip its GEMMs.
            grad, kl = self.layers[index].backward(
                grad, kl_scale, self.prior, input_grad=index > 0
            )
            kls.append(kl)
            if index > 0:
                grad *= relu_grad(pre_activations[index - 1])
        params: list[np.ndarray] = []
        grads: list[np.ndarray] = []
        for layer in self.layers:
            params.extend(layer.parameters())
            grads.extend(layer.gradients())
        optimizer.update(params, grads)
        return nll, sum(reversed(kls))

    # ------------------------------------------------------------------
    def predict_proba(
        self, x: np.ndarray, n_samples: int = 10, grng: Grng | None = None
    ) -> np.ndarray:
        """Monte-Carlo averaged class probabilities (eq. 6).

        The ``n_samples`` passes sample pre-activations by local
        reparameterization (:func:`repro.bnn.inference.local_reparam_logits`,
        bit-for-bit equal to its per-pass reference
        :func:`~repro.bnn.inference.local_reparam_logits_loop`).  ``grng``
        is the epsilon source, the seam where the hardware generators
        (:class:`~repro.grng.rlf.ParallelRlfGrng`,
        :class:`~repro.grng.bnnwallace.BnnWallaceGrng`, optionally behind
        a :class:`~repro.grng.stream.GrngStream`) plug in; ``None`` draws
        from the network's own NumPy stream, never from the layers'
        training streams, so evaluating between training steps leaves
        training unchanged.
        """
        from repro.bnn.inference import local_reparam_logits, stacked_softmax_average

        check_positive("n_samples", n_samples)
        grng = self._predict_grng if grng is None else grng
        return stacked_softmax_average(local_reparam_logits(self.layers, x, n_samples, grng))

    def predict(self, x: np.ndarray, n_samples: int = 10) -> np.ndarray:
        """MC-averaged hard predictions."""
        return self.predict_proba(x, n_samples).argmax(axis=1)

    def predict_mean_weights(self, x: np.ndarray) -> np.ndarray:
        """Deterministic prediction using the posterior means only."""
        return softmax(self.forward(x)).argmax(axis=1)

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
