"""Weight priors for Bayes-by-Backprop training.

Two priors, as in Blundell et al. (the paper's ref. [9]):

* :class:`GaussianPrior` — a single zero-mean Gaussian.  The KL divergence
  from the Gaussian variational posterior has a closed form, giving exact
  low-variance gradients (computed in place by
  :meth:`~repro.bnn.bayesian.BayesianDenseLayer.backward`); this is the
  default prior of :class:`~repro.bnn.bayesian.BayesianNetwork`.
* :class:`ScaleMixturePrior` — the two-component scale mixture
  ``pi N(0, s1^2) + (1-pi) N(0, s2^2)``.  No closed-form KL; the sampled-KL
  estimator (``log q(w|theta) - log p(w)`` at one per-weight draw ``w``) is
  used, and the prior contributes ``-d log p / d w`` to the reparameterised
  gradient.
"""

from __future__ import annotations

import math

import numpy as np

from repro.utils.validation import check_positive, check_probability


class GaussianPrior:
    """Zero-mean Gaussian prior ``N(0, sigma**2)`` with closed-form KL."""

    closed_form = True

    def __init__(self, sigma: float = 1.0) -> None:
        check_positive("sigma", sigma)
        self.sigma = float(sigma)

    def kl_divergence(self, mu: np.ndarray, sigma_q: np.ndarray) -> float:
        """``KL(N(mu, sigma_q^2) || N(0, sigma^2))`` summed over weights."""
        var_p = self.sigma**2
        terms = (
            np.log(self.sigma / sigma_q)
            + (sigma_q**2 + mu**2) / (2.0 * var_p)
            - 0.5
        )
        return float(terms.sum())

    def log_prob(self, weights: np.ndarray) -> float:
        """Summed log density (used by the sampled-KL diagnostics)."""
        var = self.sigma**2
        return float(
            (-0.5 * math.log(2.0 * math.pi * var) - weights**2 / (2.0 * var)).sum()
        )

    def grad_log_prob(self, weights: np.ndarray) -> np.ndarray:
        """``d log p / d w`` elementwise."""
        return -weights / self.sigma**2


class ScaleMixturePrior:
    """Blundell et al.'s two-Gaussian scale mixture prior.

    ``p(w) = pi N(w; 0, sigma1^2) + (1 - pi) N(w; 0, sigma2^2)`` with
    ``sigma1 > sigma2``: a heavy component for large weights plus a narrow
    spike that pushes most weights toward zero.
    """

    closed_form = False

    def __init__(self, pi: float = 0.5, sigma1: float = 1.0, sigma2: float = 0.1) -> None:
        check_probability("pi", pi)
        check_positive("sigma1", sigma1)
        check_positive("sigma2", sigma2)
        self.pi = float(pi)
        self.sigma1 = float(sigma1)
        self.sigma2 = float(sigma2)

    def _component_densities(self, weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        norm1 = math.sqrt(2.0 * math.pi) * self.sigma1
        norm2 = math.sqrt(2.0 * math.pi) * self.sigma2
        dens1 = np.exp(-(weights**2) / (2.0 * self.sigma1**2)) / norm1
        dens2 = np.exp(-(weights**2) / (2.0 * self.sigma2**2)) / norm2
        return dens1, dens2

    def log_prob(self, weights: np.ndarray) -> float:
        """Summed mixture log density."""
        dens1, dens2 = self._component_densities(weights)
        mix = self.pi * dens1 + (1.0 - self.pi) * dens2
        return float(np.log(np.clip(mix, 1e-300, None)).sum())

    def grad_log_prob(self, weights: np.ndarray) -> np.ndarray:
        """``d log p / d w`` elementwise (responsibility-weighted)."""
        dens1, dens2 = self._component_densities(weights)
        mix = np.clip(self.pi * dens1 + (1.0 - self.pi) * dens2, 1e-300, None)
        grad_num = (
            self.pi * dens1 * (-weights / self.sigma1**2)
            + (1.0 - self.pi) * dens2 * (-weights / self.sigma2**2)
        )
        return grad_num / mix
