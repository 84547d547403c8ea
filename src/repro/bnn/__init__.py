"""Neural-network substrate and Bayesian training (systems S10-S13 + extensions).

Pure-NumPy implementations of everything the paper's software side needs:

* :mod:`~repro.bnn.network` — deterministic feed-forward networks (FNN)
  with dropout, the paper's software baseline;
* :mod:`~repro.bnn.bayesian` — Bayes-by-Backprop BNNs (Blundell et al.,
  the paper's ref. [9]): Gaussian variational posteriors ``N(mu, sigma^2)``
  with ``sigma = softplus(rho)``, trained by ELBO descent on locally
  reparameterised (pre-activation) samples;
* :mod:`~repro.bnn.inference` — the Monte-Carlo kernels (eq. 6):
  local reparameterization (pre-activation sampling) under
  :meth:`BayesianNetwork.predict_proba` and every fresh float ensemble
  (``grng=`` plugs a GRNG in as the epsilon source), and whole-ensemble
  weight sampling for the shared serving stacks;
* :mod:`~repro.bnn.quantized` — the fixed-point inference path that models
  what the FPGA computes (Tables 6-7's "VIBNN (Hardware)" rows, Fig. 18).
"""

from repro.bnn.activations import relu, relu_grad, sigmoid, softmax, softplus
from repro.bnn.bayesian import BayesianDenseLayer, BayesianNetwork
from repro.bnn.inference import (
    LocalReparamPredictor,
    build_weight_stacks,
    split_epsilon_block,
    stacked_epsilons,
    stacked_forward_stacks,
    local_reparam_logits,
)
from repro.bnn.losses import cross_entropy_loss
from repro.bnn.metrics import accuracy
from repro.bnn.network import FeedForwardNetwork
from repro.bnn.optimizers import Adam
from repro.bnn.priors import GaussianPrior, ScaleMixturePrior
from repro.bnn.quantized import QuantizedBayesianNetwork
from repro.bnn.serialization import export_memory_image, load_posterior, save_posterior
from repro.bnn.trainer import Trainer, TrainingHistory

__all__ = [
    "relu",
    "relu_grad",
    "sigmoid",
    "softmax",
    "softplus",
    "BayesianDenseLayer",
    "BayesianNetwork",
    "export_memory_image",
    "load_posterior",
    "save_posterior",
    "LocalReparamPredictor",
    "build_weight_stacks",
    "split_epsilon_block",
    "stacked_epsilons",
    "stacked_forward_stacks",
    "local_reparam_logits",
    "cross_entropy_loss",
    "accuracy",
    "FeedForwardNetwork",
    "Adam",
    "GaussianPrior",
    "ScaleMixturePrior",
    "QuantizedBayesianNetwork",
    "Trainer",
    "TrainingHistory",
]
