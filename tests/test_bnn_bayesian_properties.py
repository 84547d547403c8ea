"""Property tests for the dense Bayes-by-Backprop layer and network.

Every gradient the layer hands the optimiser is checked against central
differences of the sampled negative ELBO with the epsilons held fixed, for
both priors.  That covers the sampled-KL (scale-mixture) path, whose
``log q`` terms cancel analytically, as closely as the closed-form one; the
eps == 0 checks in ``test_bnn_bayesian.py`` reach neither the data term's
``rho`` gradient nor that path.  The stacked eq. (6) evaluation is checked
bit for bit against the per-sample loop over a grid of shapes and seeds.
"""

import numpy as np
import pytest

from repro.bnn.bayesian import BayesianDenseLayer, BayesianNetwork
from repro.bnn.losses import cross_entropy_loss
from repro.bnn.priors import GaussianPrior, ScaleMixturePrior

_STEP = 1e-6

# (case id, prior, kl_scale): the data term alone, then each KL path.
KL_CASES = [
    ("data-only", GaussianPrior(0.8), 0.0),
    ("gaussian", GaussianPrior(0.8), 0.3),
    ("mixture", ScaleMixturePrior(0.5, 1.0, 0.1), 0.3),
]
PARAMETERS = ["mu_weights", "rho_weights", "mu_bias", "rho_bias"]


def _central_difference(objective, array, index):
    original = array[index]
    array[index] = original + _STEP
    up = objective()
    array[index] = original - _STEP
    down = objective()
    array[index] = original
    return (up - down) / (2 * _STEP)


def _layer_setup(seed=0, shape=(4, 3), batch=5):
    rng = np.random.default_rng(seed)
    layer = BayesianDenseLayer(*shape, seed=seed, initial_sigma=0.2)
    layer.mu_bias[:] = rng.normal(0.0, 0.3, shape[1])
    x = rng.standard_normal((batch, shape[0]))
    upstream = rng.standard_normal((batch, shape[1]))
    eps_w = rng.standard_normal(shape)
    eps_b = rng.standard_normal(shape[1])
    return layer, x, upstream, eps_w, eps_b


class TestLayerGradients:
    """``backward`` returns d/d(theta) of ``<upstream, out> + s * KL``."""

    @pytest.mark.parametrize("name", PARAMETERS)
    @pytest.mark.parametrize(
        "prior,kl_scale", [c[1:] for c in KL_CASES], ids=[c[0] for c in KL_CASES]
    )
    def test_parameter_gradient(self, prior, kl_scale, name):
        layer, x, upstream, eps_w, eps_b = _layer_setup()

        def objective():
            out = layer.forward(x, eps_w=eps_w, eps_b=eps_b)
            return float((upstream * out).sum()) + kl_scale * layer.kl_divergence(prior)

        layer.forward(x, eps_w=eps_w, eps_b=eps_b)
        layer.backward(upstream, kl_scale, prior)
        analytic = getattr(layer, "grad_" + name).copy()
        array = getattr(layer, name)
        numeric = np.array(
            [_central_difference(objective, array, index) for index in np.ndindex(array.shape)]
        ).reshape(array.shape)
        assert np.allclose(analytic, numeric, rtol=1e-5, atol=1e-6)

    @pytest.mark.parametrize("shape,batch", [((4, 3), 5), ((1, 6), 2), ((7, 1), 3)])
    def test_input_gradient(self, shape, batch):
        layer, x, upstream, eps_w, eps_b = _layer_setup(seed=1, shape=shape, batch=batch)
        layer.forward(x, eps_w=eps_w, eps_b=eps_b)
        analytic = layer.backward(upstream, 0.0, GaussianPrior(1.0))

        def objective():
            return float((upstream * layer.forward(x, eps_w=eps_w, eps_b=eps_b)).sum())

        numeric = np.array(
            [_central_difference(objective, x, index) for index in np.ndindex(x.shape)]
        ).reshape(x.shape)
        assert np.allclose(analytic, numeric, rtol=1e-5, atol=1e-6)


class _ReplayRng:
    """Epsilon stream that replays one fixed ``(eps_w, eps_b)`` per pass."""

    def __init__(self, layer, rng):
        self._draws = [
            rng.standard_normal(layer.mu_weights.shape),
            rng.standard_normal(layer.mu_bias.shape),
        ]
        self._next = 0

    def standard_normal(self, shape):
        draw = self._draws[self._next % 2]
        assert draw.shape == tuple(shape)
        self._next += 1
        return draw.copy()


class _CaptureOptimizer:
    def update(self, params, grads):
        self.grads = [g.copy() for g in grads]


class TestNetworkGradients:
    """``train_step`` hands the optimiser the sampled-ELBO gradient."""

    @pytest.mark.parametrize("layer_index", [0, 1, 2])
    @pytest.mark.parametrize(
        "prior",
        [GaussianPrior(0.8), ScaleMixturePrior(0.5, 1.0, 0.1)],
        ids=["gaussian", "mixture"],
    )
    def test_elbo_gradient(self, prior, layer_index):
        rng = np.random.default_rng(4)
        network = BayesianNetwork((5, 6, 4, 3), prior=prior, seed=2, initial_sigma=0.2)
        for layer in network.layers:
            layer._eps_rng = _ReplayRng(layer, rng)
        x = rng.standard_normal((8, 5))
        labels = rng.integers(0, 3, 8)
        kl_scale = 0.05

        def objective():
            nll, _ = cross_entropy_loss(network.forward(x, sample=True), labels)
            return nll + kl_scale * network.kl_divergence()

        optimizer = _CaptureOptimizer()
        network.train_step(x, labels, optimizer, kl_scale)
        layer = network.layers[layer_index]
        for offset, name in enumerate(PARAMETERS):
            analytic = optimizer.grads[4 * layer_index + offset]
            array = getattr(layer, name)
            for index in list(np.ndindex(array.shape))[::3]:
                numeric = _central_difference(objective, array, index)
                assert analytic[index] == pytest.approx(numeric, rel=1e-4, abs=1e-6), (
                    name,
                    index,
                )


class _SampledGaussianPrior(GaussianPrior):
    """A Gaussian prior routed through the layer's sampled-KL estimator."""

    closed_form = False


class TestKlDivergence:
    @pytest.mark.parametrize(
        "prior", [GaussianPrior(0.8), ScaleMixturePrior(0.5, 1.0, 0.1)], ids=["gaussian", "mixture"]
    )
    def test_cached_sigmas_give_the_same_kl(self, prior):
        network = BayesianNetwork((6, 5, 3), prior=prior, seed=4, initial_sigma=0.1)
        network.forward(np.random.default_rng(2).random((3, 6)), sample=True)
        assert network.kl_divergence(use_cache=True) == network.kl_divergence()

    @pytest.mark.parametrize("prior_sigma,initial_sigma", [(1.0, 0.05), (0.5, 0.3), (2.0, 0.8)])
    def test_sampled_estimator_is_unbiased_for_gaussian_prior(self, prior_sigma, initial_sigma):
        # The mean of log q(w) - log p(w) over the layer's own draws must
        # land on the closed form the Gaussian prior computes exactly.
        layer = BayesianDenseLayer(4, 3, seed=5, initial_sigma=initial_sigma)
        x = np.zeros((1, 4))
        sampled = _SampledGaussianPrior(prior_sigma)
        draws = 5000
        total = 0.0
        for _ in range(draws):
            layer.forward(x, sample=True)
            total += layer.kl_divergence(sampled)
        exact = layer.kl_divergence(GaussianPrior(prior_sigma))
        assert total / draws == pytest.approx(exact, abs=0.25)


STACKED_CASES = [
    ((8, 3), 5, 1),
    ((6, 10, 10, 3), 4, 5),
    ((12, 7, 2), 1, 9),
    ((3, 16, 5), 11, 2),
]


class TestStackedPredictProbaProperties:
    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("sizes,batch,n_samples", STACKED_CASES)
    def test_stacked_equals_loop(self, sizes, batch, n_samples, seed):
        fast = BayesianNetwork(sizes, seed=seed, initial_sigma=0.1)
        reference = BayesianNetwork(sizes, seed=seed, initial_sigma=0.1)
        x = np.random.default_rng(seed + 10).standard_normal((batch, sizes[0]))
        assert np.array_equal(
            fast.predict_proba(x, n_samples=n_samples),
            reference.predict_proba_loop(x, n_samples=n_samples),
        )

    @pytest.mark.parametrize("sizes,batch,n_samples", STACKED_CASES)
    def test_stream_state_preserved(self, sizes, batch, n_samples):
        fast = BayesianNetwork(sizes, seed=7)
        reference = BayesianNetwork(sizes, seed=7)
        x = np.random.default_rng(3).standard_normal((batch, sizes[0]))
        fast.predict_proba(x, n_samples=n_samples)
        reference.predict_proba_loop(x, n_samples=n_samples)
        for fast_layer, reference_layer in zip(fast.layers, reference.layers):
            assert np.array_equal(
                fast_layer._eps_rng.standard_normal(4),
                reference_layer._eps_rng.standard_normal(4),
            )
