"""Property tests for the dense Bayes-by-Backprop layer and network.

Every gradient the training pass hands the optimiser is checked against
central differences of the sampled negative ELBO, for the data term alone
and both priors.  The objective is written out from its definition —
pre-activations ``x·mu + mu_b + sqrt(x²·sigma² + sigma_b²)·eps`` (local
reparameterization) plus the KL — with the activation epsilons and the
mixture prior's KL epsilons held fixed.  That covers the sampled-KL
(scale-mixture) path, whose ``log q`` terms cancel analytically, as
closely as the closed-form one.  The pre-activations' moments are checked
against weight sampling's, and the eq. (6) evaluation bit for bit against
its per-pass reference over a grid of shapes and seeds.
"""

import numpy as np
import pytest

from repro.bnn.bayesian import BayesianDenseLayer, BayesianNetwork
from repro.bnn.inference import local_reparam_logits_loop, stacked_softmax_average
from repro.bnn.losses import cross_entropy_loss
from repro.bnn.priors import GaussianPrior, ScaleMixturePrior

_STEP = 1e-6

# (case id, prior, kl_scale): the data term alone, then each KL path.
KL_CASES = [
    ("data-only", GaussianPrior(0.8), 0.0),
    ("gaussian", GaussianPrior(0.8), 0.3),
    ("mixture", ScaleMixturePrior(0.5, 1.0, 0.1), 0.3),
]
KL_PARAMS = dict(
    argnames="prior,kl_scale",
    argvalues=[c[1:] for c in KL_CASES],
    ids=[c[0] for c in KL_CASES],
)
PARAMETERS = ["mu_weights", "rho_weights", "mu_bias", "rho_bias"]


def _central_difference(objective, array, index):
    original = array[index]
    array[index] = original + _STEP
    up = objective()
    array[index] = original - _STEP
    down = objective()
    array[index] = original
    return (up - down) / (2 * _STEP)


def _pre_activations(layer, x, eps):
    """``x·mu + mu_b + sqrt(x²·sigma² + sigma_b²)·eps``, from the definition."""
    var_w, var_b = layer.sigma_weights() ** 2, layer.sigma_bias() ** 2
    return x @ layer.mu_weights + layer.mu_bias + np.sqrt((x * x) @ var_w + var_b) * eps


class _ReplayRng:
    """Epsilon stream that replays fixed draws in turn, by shape or into ``out``."""

    def __init__(self, *draws):
        self._draws = draws
        self._next = 0

    def standard_normal(self, size=None, out=None):
        draw = self._draws[self._next % len(self._draws)]
        self._next += 1
        if out is None:
            assert draw.shape == tuple(size)
            return draw.copy()
        assert draw.shape == out.shape
        out[...] = draw
        return out


def _replay(layer, prior, eps, kl_eps):
    """One training step's draws: the activation eps, then (sampled KL) eps_kl."""
    draws = (eps,) if prior.closed_form else (eps, *kl_eps)
    layer._eps_rng = _ReplayRng(*draws)


def _layer_setup(seed=0, shape=(4, 3), batch=5):
    rng = np.random.default_rng(seed)
    layer = BayesianDenseLayer(*shape, seed=seed, initial_sigma=0.2)
    layer.mu_bias[:] = rng.normal(0.0, 0.3, shape[1])
    x = rng.standard_normal((batch, shape[0]))
    upstream = rng.standard_normal((batch, shape[1]))
    eps = rng.standard_normal((batch, shape[1]))
    kl_eps = (rng.standard_normal(shape), rng.standard_normal(shape[1]))
    return layer, x, upstream, eps, kl_eps


class TestLayerGradients:
    """``backward`` writes d/d(theta) of ``<upstream, a> + s * KL``."""

    @pytest.mark.parametrize("name", PARAMETERS)
    @pytest.mark.parametrize(**KL_PARAMS)
    def test_parameter_gradient(self, prior, kl_scale, name):
        layer, x, upstream, eps, kl_eps = _layer_setup()

        def objective():
            data = float((upstream * _pre_activations(layer, x, eps)).sum())
            return data + kl_scale * layer.kl_divergence(prior, *kl_eps)

        _replay(layer, prior, eps, kl_eps)
        layer.train_forward(x)
        layer.backward(upstream, kl_scale, prior)
        analytic = getattr(layer, "grad_" + name).copy()
        array = getattr(layer, name)
        numeric = np.array(
            [_central_difference(objective, array, index) for index in np.ndindex(array.shape)]
        ).reshape(array.shape)
        assert np.allclose(analytic, numeric, rtol=1e-5, atol=1e-6)

    @pytest.mark.parametrize(**KL_PARAMS)
    @pytest.mark.parametrize("shape,batch", [((4, 3), 5), ((1, 6), 2), ((7, 1), 3)])
    def test_input_gradient(self, shape, batch, prior, kl_scale):
        layer, x, upstream, eps, kl_eps = _layer_setup(seed=1, shape=shape, batch=batch)
        _replay(layer, prior, eps, kl_eps)
        layer.train_forward(x)
        analytic, _ = layer.backward(upstream, kl_scale, prior)

        def objective():
            return float((upstream * _pre_activations(layer, x, eps)).sum())

        numeric = np.array(
            [_central_difference(objective, x, index) for index in np.ndindex(x.shape)]
        ).reshape(x.shape)
        assert np.allclose(analytic, numeric, rtol=1e-5, atol=1e-6)

    @pytest.mark.parametrize(**KL_PARAMS)
    def test_pass_values_match_the_definition(self, prior, kl_scale):
        # The objective the gradients are checked against is the one the
        # training pass computes: its pre-activations and its KL value.
        layer, x, upstream, eps, kl_eps = _layer_setup(seed=2)
        _replay(layer, prior, eps, kl_eps)
        assert np.allclose(layer.train_forward(x), _pre_activations(layer, x, eps))
        grad_input, kl = layer.backward(upstream, kl_scale, prior, input_grad=False)
        assert grad_input is None
        assert kl == pytest.approx(layer.kl_divergence(prior, *kl_eps), rel=1e-12)


class TestPreActivationMoments:
    def test_weight_sampling_moments(self):
        # Per row, a = m + sqrt(v)·eps must have weight sampling's mean
        # x·mu + mu_b and variance x²·sigma² + sigma_b².  The bound is five
        # standard errors of a DRAWS-sample mean (sqrt(v / n)) and variance
        # (v·sqrt(2 / (n - 1))), over the 12 (row, output) entries.
        draws = 20_000
        rng = np.random.default_rng(11)
        layer = BayesianDenseLayer(6, 4, seed=3, initial_sigma=0.3)
        layer.rho_weights += rng.normal(0.0, 0.5, layer.rho_weights.shape)
        layer.mu_bias[:] = rng.normal(0.0, 0.5, 4)
        rows = rng.standard_normal((3, 6))
        sampled = layer.train_forward(np.repeat(rows, draws, axis=0)).reshape(3, draws, 4)
        mean = rows @ layer.mu_weights + layer.mu_bias
        var = (rows * rows) @ layer.sigma_weights() ** 2 + layer.sigma_bias() ** 2
        assert np.all(np.abs(sampled.mean(axis=1) - mean) < 5 * np.sqrt(var / draws))
        assert np.all(
            np.abs(sampled.var(axis=1, ddof=1) - var) < 5 * var * np.sqrt(2 / (draws - 1))
        )


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
        x = rng.standard_normal((8, 5))
        labels = rng.integers(0, 3, 8)
        eps = [rng.standard_normal((8, layer.out_features)) for layer in network.layers]
        kl_eps = [
            (rng.standard_normal(layer.mu_weights.shape), rng.standard_normal(layer.out_features))
            for layer in network.layers
        ]
        for layer, layer_eps, layer_kl_eps in zip(network.layers, eps, kl_eps):
            _replay(layer, prior, layer_eps, layer_kl_eps)
        kl_scale = 0.05

        def objective():
            hidden = x
            for depth, (layer, layer_eps) in enumerate(zip(network.layers, eps)):
                pre = _pre_activations(layer, hidden, layer_eps)
                hidden = np.maximum(pre, 0.0) if depth < 2 else pre
            nll, _ = cross_entropy_loss(hidden, labels)
            kl = sum(
                layer.kl_divergence(prior, *layer_kl_eps)
                for layer, layer_kl_eps in zip(network.layers, kl_eps)
            )
            return nll + kl_scale * kl

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
    def test_sampled_kl_draws_weights_then_bias(self):
        # Without supplied epsilons the estimate draws them from the
        # layer's stream, weights first: the order training draws eps_kl.
        layer = BayesianDenseLayer(4, 3, seed=6, initial_sigma=0.1)
        twin = BayesianDenseLayer(4, 3, seed=6, initial_sigma=0.1)
        prior = ScaleMixturePrior(0.5, 1.0, 0.1)
        eps_w = twin._eps_rng.standard_normal((4, 3))
        eps_b = twin._eps_rng.standard_normal(3)
        assert layer.kl_divergence(prior) == layer.kl_divergence(prior, eps_w, eps_b)

    @pytest.mark.parametrize("prior_sigma,initial_sigma", [(1.0, 0.05), (0.5, 0.3), (2.0, 0.8)])
    def test_sampled_estimator_is_unbiased_for_gaussian_prior(self, prior_sigma, initial_sigma):
        # The mean of log q(w) - log p(w) over the layer's own draws must
        # land on the closed form the Gaussian prior computes exactly.
        layer = BayesianDenseLayer(4, 3, seed=5, initial_sigma=initial_sigma)
        sampled = _SampledGaussianPrior(prior_sigma)
        draws = 5000
        total = 0.0
        for _ in range(draws):
            total += layer.kl_divergence(sampled)
        exact = layer.kl_divergence(GaussianPrior(prior_sigma))
        assert total / draws == pytest.approx(exact, abs=0.25)


STACKED_CASES = [
    ((8, 3), 5, 1),
    ((6, 10, 10, 3), 4, 5),
    ((12, 7, 2), 1, 9),
    ((3, 16, 5), 11, 2),
]


class TestPredictProbaProperties:
    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("sizes,batch,n_samples", STACKED_CASES)
    def test_kernel_equals_loop(self, sizes, batch, n_samples, seed):
        fast = BayesianNetwork(sizes, seed=seed, initial_sigma=0.1)
        reference = BayesianNetwork(sizes, seed=seed, initial_sigma=0.1)
        x = np.random.default_rng(seed + 10).standard_normal((batch, sizes[0]))
        logits = local_reparam_logits_loop(
            reference.layers, x, n_samples, reference._predict_grng
        )
        assert np.array_equal(
            fast.predict_proba(x, n_samples=n_samples), stacked_softmax_average(logits)
        )

    @pytest.mark.parametrize("sizes,batch,n_samples", STACKED_CASES)
    def test_training_streams_untouched(self, sizes, batch, n_samples):
        evaluated = BayesianNetwork(sizes, seed=7)
        untouched = BayesianNetwork(sizes, seed=7)
        x = np.random.default_rng(3).standard_normal((batch, sizes[0]))
        evaluated.predict_proba(x, n_samples=n_samples)
        for evaluated_layer, untouched_layer in zip(evaluated.layers, untouched.layers):
            assert np.array_equal(
                evaluated_layer._eps_rng.standard_normal(4),
                untouched_layer._eps_rng.standard_normal(4),
            )
