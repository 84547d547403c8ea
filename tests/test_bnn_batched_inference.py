"""Equivalence tests for the float Monte-Carlo inference surface.

``BayesianNetwork.predict_proba`` runs eq. (6) by local
reparameterization.  Under a fixed seed it must reproduce its per-pass
reference (``local_reparam_logits_loop``, averaged pass by pass) bit for
bit — on the network's own prediction stream, on a plugged software GRNG
and (behind a :class:`~repro.grng.stream.GrngStream`) on every registered
generator — and it must never advance the layers' training streams.  The
whole-ensemble weight-sampling kernels the shared serving stacks use
(every pass's epsilons drawn as one block, every weight built, then run)
must equal a per-pass weight-sampling reference bit for bit.
"""

import numpy as np
import pytest

from repro.bnn.activations import relu
from repro.bnn.bayesian import BayesianDenseLayer, BayesianNetwork
from repro.bnn.inference import (
    build_weight_stacks,
    local_reparam_logits,
    local_reparam_logits_loop,
    split_epsilon_block,
    stacked_epsilons,
    stacked_forward_stacks,
    stacked_softmax_average,
)
from repro.bnn.metrics import predictive_entropy
from repro.errors import ConfigurationError
from repro.grng import GrngStream, NumpyGrng
from repro.grng.factory import available_grngs, make_grng
from repro.utils.seeding import derive_seed


def _net(seed=3):
    return BayesianNetwork((6, 9, 4), seed=seed, initial_sigma=0.05)


X = np.random.default_rng(0).random((23, 6))


def _reference_logits(network, x, n_samples, source):
    """The per-pass reference on ``source`` (``None``: the network's own stream)."""
    source = network._predict_grng if source is None else source
    return local_reparam_logits_loop(network.layers, x, n_samples, source)


def _weight_sampling_loop(layers, x, n_samples, grng):
    """Per-pass weight-sampling reference: each pass draws its
    ``weight_count()`` epsilons with ``generate``, samples every weight
    as ``mu + sigma * eps`` and runs the pass."""
    width = sum(layer.weight_count() for layer in layers)
    last = len(layers) - 1
    logits = []
    for _ in range(n_samples):
        block = grng.generate(width)[None, :]
        hidden = x
        for depth, (layer, (eps_w, eps_b)) in enumerate(
            zip(layers, split_epsilon_block(layers, block))
        ):
            weights = layer.mu_weights + layer.sigma_weights() * eps_w[0]
            bias = layer.mu_bias + layer.sigma_bias() * eps_b[0]
            pre = hidden @ weights + bias
            hidden = relu(pre) if depth < last else pre
        logits.append(hidden)
    return np.stack(logits)


def _whole_ensemble_logits(layers, x, n_samples, grng):
    epsilons = stacked_epsilons(layers, n_samples, grng)
    return stacked_forward_stacks(build_weight_stacks(layers, epsilons), x)


#: (generator, stream block size) sources; ``None`` is the network's own
#: prediction stream.  The blocks refill inside one row's pass, once per
#: local-reparameterization pass (23 rows x 13 outputs) and inside a call.
SOURCES = [
    (name, block)
    for name in ("bnnwallace", "rlf", "numpy")
    for block in (7, X.shape[0] * 13, 1000)
] + [None]


def _setup(spec):
    """A fresh network and its epsilon source (``None``: its own stream)."""
    if spec is None:
        return _net(), None
    name, block_size = spec
    return _net(), GrngStream(make_grng(name, seed=5), block_size=block_size)


def _next_draws(network, source):
    """The next numbers the epsilon source would serve."""
    source = network._predict_grng if source is None else source
    return source.generate(3).tobytes()


def _training_draws(network):
    """The next numbers every layer's training stream would serve."""
    return b"".join(layer._eps_rng.standard_normal(3).tobytes() for layer in network.layers)


@pytest.mark.parametrize("spec", SOURCES, ids=str)
class TestPredictProbaBitExact:
    def test_equals_the_loop_reference(self, spec):
        (network, source), (reference, reference_src) = _setup(spec), _setup(spec)
        probs = network.predict_proba(X, 7, grng=source)
        expected = stacked_softmax_average(_reference_logits(reference, X, 7, reference_src))
        assert probs.tobytes() == expected.tobytes()
        # Both leave the source in step.
        assert _next_draws(network, source) == _next_draws(reference, reference_src)

    def test_second_call_continues_the_stream(self, spec):
        network, source = _setup(spec)
        first = network.predict_proba(X, 5, grng=source)
        second = network.predict_proba(X, 5, grng=source)
        reference, reference_src = _setup(spec)
        logits = _reference_logits(reference, X, 10, reference_src)
        assert first.tobytes() == stacked_softmax_average(logits[:5]).tobytes()
        assert second.tobytes() == stacked_softmax_average(logits[5:]).tobytes()

    def test_leaves_the_training_streams_untouched(self, spec):
        network, source = _setup(spec)
        untouched = _net()
        network.predict_proba(X, 4, grng=source)
        assert _training_draws(network) == _training_draws(untouched)


@pytest.mark.parametrize("spec", SOURCES[:-1], ids=str)
class TestWholeEnsembleBitExact:
    def test_equals_the_per_pass_reference(self, spec):
        (network, source), (_, reference_src) = _setup(spec), _setup(spec)
        fast = _whole_ensemble_logits(network.layers, X, 7, source)
        loop = _weight_sampling_loop(network.layers, X, 7, reference_src)
        assert fast.tobytes() == loop.tobytes()
        assert source.generate(3).tobytes() == reference_src.generate(3).tobytes()

    def test_in_place_build_equals_the_per_pass_reference(self, spec):
        # out=epsilons turns the epsilon block itself into the weights.
        (network, source), (_, reference_src) = _setup(spec), _setup(spec)
        epsilons = stacked_epsilons(network.layers, 5, source)
        stacks = build_weight_stacks(network.layers, epsilons, out=epsilons)
        fast = stacked_forward_stacks(stacks, X)
        loop = _weight_sampling_loop(network.layers, X, 5, reference_src)
        assert fast.tobytes() == loop.tobytes()


class TestPredictProba:
    def test_default_stream_is_the_networks_own(self):
        # grng=None draws from NumPy seeded by derive_seed(seed, "bayes-predict").
        expected = _reference_logits(_net(), X, 13, NumpyGrng(derive_seed(3, "bayes-predict")))
        assert _net().predict_proba(X, 13).tobytes() == stacked_softmax_average(expected).tobytes()

    def test_numpy_grng_bit_for_bit(self):
        assert np.array_equal(
            _net().predict_proba(X, 13, grng=NumpyGrng(7)),
            stacked_softmax_average(_reference_logits(_net(), X, 13, NumpyGrng(7))),
        )

    @pytest.mark.parametrize("name", available_grngs())
    def test_every_generator_bit_for_bit_behind_stream(self, name):
        # GrngStream makes the epsilon stream call-pattern invariant, so
        # kernel and loop consume identical values for ANY generator.
        def source():
            return GrngStream(make_grng(name, 5), block_size=4096)

        assert np.array_equal(
            _net().predict_proba(X, 9, grng=source()),
            stacked_softmax_average(_reference_logits(_net(), X, 9, source())),
        )

    def test_runs_the_local_reparameterization_kernel(self, monkeypatch):
        # predict_proba never samples weights or runs the mean pass.
        network = _net()
        monkeypatch.setattr(
            BayesianDenseLayer, "forward", lambda *a, **k: pytest.fail("mean pass taken")
        )
        probs = network.predict_proba(X, 5, grng=NumpyGrng(1))
        expected = stacked_softmax_average(local_reparam_logits(_net().layers, X, 5, NumpyGrng(1)))
        assert probs.tobytes() == expected.tobytes()

    def test_predict_and_entropy_ride_predict_proba(self):
        probs = _net().predict_proba(X, 8)
        assert np.array_equal(_net().predict(X, 8), probs.argmax(axis=1))
        expected = -(probs * np.log(np.clip(probs, 1e-300, None))).sum(axis=1)
        assert np.array_equal(predictive_entropy(probs), expected)

    def test_probabilities_normalised(self):
        probs = _net().predict_proba(X, 6, grng=NumpyGrng(3))
        assert np.allclose(probs.sum(axis=1), 1.0)
        assert (probs >= 0).all()

    def test_validates_input_shape(self):
        # Malformed input must be rejected, not broadcast into silently
        # wrong probabilities.
        network = _net()
        with pytest.raises(ConfigurationError, match="expected input shape"):
            network.predict_proba(np.zeros(X.shape[1]), 2)  # 1-D input
        with pytest.raises(ConfigurationError, match="expected input shape"):
            network.predict_proba(np.zeros((3, X.shape[1] + 1)), 2)


class TestEpsilonBlockHelpers:
    def test_split_epsilon_block_shapes(self):
        net = _net()
        block = np.arange(3 * net.weight_count(), dtype=np.float64).reshape(3, -1)
        parts = split_epsilon_block(net.layers, block)
        assert len(parts) == len(net.layers)
        for layer, (eps_w, eps_b) in zip(net.layers, parts):
            assert eps_w.shape == (3,) + layer.mu_weights.shape
            assert eps_b.shape == (3,) + layer.mu_bias.shape

    def test_split_epsilon_block_rejects_wrong_width(self):
        net = _net()
        with pytest.raises(ConfigurationError):
            split_epsilon_block(net.layers, np.zeros((3, net.weight_count() + 1)))
        with pytest.raises(ConfigurationError):
            split_epsilon_block(net.layers, np.zeros((3, net.weight_count() - 1)))

    def test_stacked_forward_zero_eps_matches_mean_forward(self):
        net = _net()
        eps = [
            (np.zeros((2,) + l.mu_weights.shape), np.zeros((2,) + l.mu_bias.shape))
            for l in net.layers
        ]
        stacked = stacked_forward_stacks(build_weight_stacks(net.layers, eps), X)
        mean_logits = net.forward(X)
        assert np.allclose(stacked[0], mean_logits)
        assert np.allclose(stacked[1], mean_logits)

    def test_build_weight_stacks_matches_expression_form(self):
        net = _net()
        block = np.random.default_rng(4).standard_normal((3, net.weight_count()))
        epsilons = split_epsilon_block(net.layers, block)
        built = build_weight_stacks(net.layers, epsilons)
        for layer, (eps_w, eps_b), (w, b) in zip(net.layers, epsilons, built):
            expected_w = layer.mu_weights + layer.sigma_weights() * eps_w
            expected_b = layer.mu_bias + layer.sigma_bias() * eps_b
            assert w.tobytes() == expected_w.tobytes()
            assert b.tobytes() == expected_b.tobytes()

    def test_build_weight_stacks_in_place(self):
        # out=epsilons turns the epsilon buffer itself into the weights.
        net = _net()
        block = np.random.default_rng(4).standard_normal((1, net.weight_count()))
        expected = build_weight_stacks(net.layers, split_epsilon_block(net.layers, block))
        epsilons = split_epsilon_block(net.layers, block)
        built = build_weight_stacks(net.layers, epsilons, out=epsilons)
        for (w, b), (eps_w, eps_b), (exp_w, exp_b) in zip(built, epsilons, expected):
            assert w is eps_w and b is eps_b
            assert w.tobytes() == exp_w.tobytes() and b.tobytes() == exp_b.tobytes()
        assert np.shares_memory(built[0][0], block)
