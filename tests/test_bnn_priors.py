"""Tests for the weight priors (closed-form and mixture)."""

import numpy as np
import pytest
from scipy import stats

from repro.bnn.priors import GaussianPrior, ScaleMixturePrior
from repro.errors import ConfigurationError


class TestGaussianPrior:
    def test_kl_zero_at_prior(self):
        prior = GaussianPrior(sigma=0.7)
        mu = np.zeros(10)
        sigma_q = np.full(10, 0.7)
        assert prior.kl_divergence(mu, sigma_q) == pytest.approx(0.0, abs=1e-12)

    def test_kl_positive_elsewhere(self):
        prior = GaussianPrior(sigma=1.0)
        assert prior.kl_divergence(np.array([1.0]), np.array([0.5])) > 0
        assert prior.kl_divergence(np.array([0.0]), np.array([2.0])) > 0

    def test_kl_matches_monte_carlo(self):
        prior = GaussianPrior(sigma=1.0)
        mu, sigma_q = np.array([0.8]), np.array([0.4])
        exact = prior.kl_divergence(mu, sigma_q)
        rng = np.random.default_rng(0)
        w = mu + sigma_q * rng.standard_normal(200_000)
        log_q = stats.norm.logpdf(w, mu, sigma_q)
        log_p = stats.norm.logpdf(w, 0.0, 1.0)
        assert exact == pytest.approx((log_q - log_p).mean(), abs=0.01)

    def test_log_prob_matches_scipy(self):
        prior = GaussianPrior(sigma=2.0)
        w = np.array([-1.0, 0.5, 3.0])
        assert prior.log_prob(w) == pytest.approx(
            stats.norm.logpdf(w, 0, 2.0).sum()
        )

    def test_grad_log_prob(self):
        prior = GaussianPrior(sigma=2.0)
        w = np.array([1.0])
        assert prior.grad_log_prob(w)[0] == pytest.approx(-0.25)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            GaussianPrior(sigma=0)


class TestScaleMixturePrior:
    def test_log_prob_matches_direct_mixture(self):
        prior = ScaleMixturePrior(pi=0.5, sigma1=1.0, sigma2=0.1)
        w = np.array([-0.5, 0.0, 1.5])
        direct = np.log(
            0.5 * stats.norm.pdf(w, 0, 1.0) + 0.5 * stats.norm.pdf(w, 0, 0.1)
        ).sum()
        assert prior.log_prob(w) == pytest.approx(direct)

    def test_grad_log_prob_matches_numerical(self):
        prior = ScaleMixturePrior(pi=0.3, sigma1=1.0, sigma2=0.05)
        w = np.array([0.02, 0.4, -1.1])
        grad = prior.grad_log_prob(w)
        eps = 1e-7
        for i in range(3):
            bumped = w.copy()
            bumped[i] += eps
            up = prior.log_prob(bumped)
            bumped[i] -= 2 * eps
            down = prior.log_prob(bumped)
            assert grad[i] == pytest.approx((up - down) / (2 * eps), rel=1e-3)

    def test_spike_pulls_small_weights_harder(self):
        # Near zero, the narrow component dominates the shrinkage force.
        prior = ScaleMixturePrior(pi=0.5, sigma1=1.0, sigma2=0.01)
        near = abs(prior.grad_log_prob(np.array([0.005]))[0])
        far = abs(prior.grad_log_prob(np.array([2.0]))[0])
        assert near > far

    def test_not_closed_form(self):
        assert not ScaleMixturePrior(0.5, 1.0, 0.1).closed_form
        assert GaussianPrior(1.0).closed_form

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            ScaleMixturePrior(pi=0.0)
        with pytest.raises(ConfigurationError):
            ScaleMixturePrior(sigma1=0)
        with pytest.raises(ConfigurationError):
            ScaleMixturePrior(sigma2=-1)
