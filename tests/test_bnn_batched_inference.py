"""Streamed-vs-loop equivalence tests for the Monte-Carlo inference stack.

The streamed path (one MC pass at a time through one pass-sized buffer)
must be a pure reformulation: under a fixed seed it has to reproduce the
reference per-sample loop bit for bit — same epsilons, same matmuls, same
accumulation — for the internal per-layer streams, for a plugged software
GRNG, and (behind a :class:`~repro.grng.stream.GrngStream`) for every
registered generator.  It must also equal the whole-ensemble composition
(every pass's epsilons drawn as one block, every weight built, then run)
that the shared serving stacks use.
"""

import tracemalloc

import numpy as np
import pytest

from repro.bnn.bayesian import BayesianDenseLayer, BayesianNetwork
from repro.bnn.inference import (
    build_weight_stacks,
    split_epsilon_block,
    stacked_forward_stacks,
    stacked_softmax_average,
    streamed_logits,
)
from repro.bnn.metrics import predictive_entropy
from repro.errors import ConfigurationError
from repro.grng import BnnWallaceGrng, GrngStream, NumpyGrng
from repro.grng.factory import available_grngs, make_grng
from repro.grng.stream import VARIANCE_REDUCTIONS, make_stream
from repro.hw.weight_generator import WeightGenerator


def _net(seed=3):
    return BayesianNetwork((6, 9, 4), seed=seed, initial_sigma=0.05)


X = np.random.default_rng(0).random((23, 6))


def _oracle_logits(layers, x, n_samples, grng):
    """Whole-ensemble reference: every pass's epsilons drawn as one block
    (``grng``) or per layer with allocating draws (``grng=None``), every
    sampled weight built, then every pass run."""
    if grng is None:
        epsilons = []
        for layer in layers:
            eps_w = np.empty((n_samples,) + layer.mu_weights.shape)
            eps_b = np.empty((n_samples,) + layer.mu_bias.shape)
            for index in range(n_samples):
                eps_w[index] = layer._eps_rng.standard_normal(layer.mu_weights.shape)
                eps_b[index] = layer._eps_rng.standard_normal(layer.mu_bias.shape)
            epsilons.append((eps_w, eps_b))
    else:
        width = sum(layer.weight_count() for layer in layers)
        epsilons = split_epsilon_block(layers, grng.generate_block((n_samples, width)))
    return stacked_forward_stacks(build_weight_stacks(layers, epsilons), x)


#: (generator, variance reduction) sources; ``None`` is the per-layer
#: NumPy fallback.
SOURCES = [
    (name, mode) for name in ("bnnwallace", "rlf", "numpy") for mode in VARIANCE_REDUCTIONS
] + [None]


def _source(spec, network):
    if spec is None:
        return None
    name, mode = spec
    return make_stream(
        make_grng(name, seed=5),
        variance_reduction=mode,
        period=network.weight_count(),
        seed=5,
        block_size=1000,
    )


def _setup(spec):
    """A fresh network and its epsilon source (``None``: layer streams)."""
    network = _net()
    return network, _source(spec, network)


def _next_draws(network, source):
    """The next numbers the epsilon source would serve."""
    if source is None:
        return b"".join(layer._eps_rng.standard_normal(3).tobytes() for layer in network.layers)
    return source.generate(3).tobytes()


@pytest.mark.parametrize("spec", SOURCES, ids=str)
class TestStreamedBitExact:
    def test_streamed_equals_loop(self, spec):
        (streamed_net, streamed_src), (loop_net, loop_src) = _setup(spec), _setup(spec)
        streamed = streamed_net.predict_proba(X, 7, grng=streamed_src)
        loop = loop_net.predict_proba_loop(X, 7, grng=loop_src)
        assert streamed.tobytes() == loop.tobytes()
        # Both paths leave the source in step (grng=None: every layer stream).
        assert _next_draws(streamed_net, streamed_src) == _next_draws(loop_net, loop_src)

    def test_streamed_equals_whole_ensemble_oracle(self, spec):
        network, source = _setup(spec)
        streamed = network.predict_proba(X, 7, grng=source)
        reference, reference_src = _setup(spec)
        logits = _oracle_logits(reference.layers, X, 7, reference_src)
        assert streamed.tobytes() == stacked_softmax_average(logits).tobytes()

    def test_second_call_continues_the_stream(self, spec):
        network, source = _setup(spec)
        first = network.predict_proba(X, 5, grng=source)
        second = network.predict_proba(X, 5, grng=source)
        reference, reference_src = _setup(spec)
        logits = _oracle_logits(reference.layers, X, 10, reference_src)
        assert first.tobytes() == stacked_softmax_average(logits[:5]).tobytes()
        assert second.tobytes() == stacked_softmax_average(logits[5:]).tobytes()

    def test_loop_second_call_continues_the_stream(self, spec):
        network, source = _setup(spec)
        first = network.predict_proba_loop(X, 5, grng=source)
        second = network.predict_proba_loop(X, 5, grng=source)
        reference, reference_src = _setup(spec)
        logits = _oracle_logits(reference.layers, X, 10, reference_src)
        assert first.tobytes() == stacked_softmax_average(logits[:5]).tobytes()
        assert second.tobytes() == stacked_softmax_average(logits[5:]).tobytes()


class TestBatchedEquivalence:
    def test_internal_streams_bit_for_bit(self):
        assert np.array_equal(
            _net().predict_proba(X, 13), _net().predict_proba_loop(X, 13)
        )

    def test_numpy_grng_bit_for_bit(self):
        assert np.array_equal(
            _net().predict_proba(X, 13, grng=NumpyGrng(7)),
            _net().predict_proba_loop(X, 13, grng=NumpyGrng(7)),
        )

    @pytest.mark.parametrize("name", available_grngs())
    def test_every_generator_bit_for_bit_behind_stream(self, name):
        # GrngStream makes the epsilon stream call-pattern invariant, so
        # loop and batched consume identical values for ANY generator.
        def source():
            return GrngStream(make_grng(name, 5), block_size=4096)

        assert np.array_equal(
            _net().predict_proba(X, 9, grng=source()),
            _net().predict_proba_loop(X, 9, grng=source()),
        )

    def test_default_path_is_batched(self, monkeypatch):
        # predict_proba runs the streamed kernel, never the per-layer
        # forward the loop reference goes through.
        network = _net()
        monkeypatch.setattr(
            BayesianDenseLayer, "forward", lambda *a, **k: pytest.fail("loop path taken")
        )
        probs = network.predict_proba(X, 5, grng=NumpyGrng(1))
        expected = stacked_softmax_average(streamed_logits(_net().layers, X, 5, NumpyGrng(1)))
        assert probs.tobytes() == expected.tobytes()

    def test_predict_and_entropy_ride_the_batched_path(self):
        probs = _net().predict_proba(X, 8, grng=NumpyGrng(2))
        assert _net().predict(X, 8).shape == (X.shape[0],)
        expected = -(probs * np.log(np.clip(probs, 1e-300, None))).sum(axis=1)
        assert np.array_equal(predictive_entropy(probs), expected)

    def test_probabilities_normalised(self):
        probs = _net().predict_proba(X, 6, grng=NumpyGrng(3))
        assert np.allclose(probs.sum(axis=1), 1.0)
        assert (probs >= 0).all()

    def test_batched_path_validates_input_shape(self):
        # The batched default must reject malformed input like the loop
        # path does, not broadcast it into silently wrong probabilities.
        network = _net()
        with pytest.raises(ConfigurationError, match="expected input shape"):
            network.predict_proba(np.zeros(X.shape[1]), 2)  # 1-D input
        with pytest.raises(ConfigurationError, match="expected input shape"):
            network.predict_proba(np.zeros((3, X.shape[1] + 1)), 2)

    def test_loop_path_validates_input_shape(self):
        network = _net()
        with pytest.raises(ConfigurationError, match="expected input shape"):
            network.predict_proba_loop(np.zeros(X.shape[1]), 2, grng=NumpyGrng(0))
        with pytest.raises(ConfigurationError, match="expected input shape"):
            network.predict_proba_loop(np.zeros((3, X.shape[1] + 1)), 2)


class TestNetworkStreamed:
    def test_predict_proba_matches_loop_and_leaves_streams_in_step(self):
        streamed, loop = _net(), _net()
        assert (
            streamed.predict_proba(X, n_samples=6).tobytes()
            == loop.predict_proba_loop(X, n_samples=6).tobytes()
        )
        for a, b in zip(streamed.layers, loop.layers):
            next_a, next_b = a._eps_rng.standard_normal(3), b._eps_rng.standard_normal(3)
            assert next_a.tobytes() == next_b.tobytes()

    @pytest.mark.parametrize("method", ["predict_proba", "predict_proba_loop"])
    def test_plugged_source_leaves_layer_streams_untouched(self, method):
        # A plugged GRNG replaces the layer streams; it does not advance them.
        network, untouched = _net(), _net()
        getattr(network, method)(X, 4, grng=NumpyGrng(2))
        assert _next_draws(network, None) == _next_draws(untouched, None)


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
        mean_logits = net.forward(X, sample=False)
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


class TestStreamedMemory:
    def test_peak_transient_is_pass_sized(self):
        # One N=16 call keeps at most the softplus sigmas, one pass-sized
        # epsilon/weight buffer and small per-pass activations alive; the
        # whole-ensemble path held ~48 P-sized arrays at its peak.  The
        # stream's own refill buffers scale with its block size (a
        # documented memory knob), so a small block keeps them out of
        # this measurement of the inference path.
        network = BayesianNetwork((784, 100, 10), seed=0)
        eps_per_pass = network.weight_count()
        grng = GrngStream(BnnWallaceGrng(seed=1), block_size=4096)
        x = np.random.default_rng(0).random((1, 784))
        network.predict_proba(x, 16, grng=grng)  # warm the generator's schedule cache
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            network.predict_proba(x, 16, grng=grng)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        logits_bytes = 16 * x.shape[0] * 10 * 8
        assert peak < 3 * eps_per_pass * 8 + logits_bytes


class TestWeightGeneratorBlock:
    def test_first_row_matches_single_sample(self):
        # With a streamed source the block consumes the same stream slices
        # as sequential sample() calls, so row 0 must agree exactly.
        mu = np.arange(-10, 10, dtype=np.int64)
        sigma = np.full(20, 12, dtype=np.int64)
        block_gen = WeightGenerator(
            GrngStream(BnnWallaceGrng(seed=6), block_size=64), bit_length=8
        )
        single_gen = WeightGenerator(
            GrngStream(BnnWallaceGrng(seed=6), block_size=64), bit_length=8
        )
        block = block_gen.sample_block(mu, sigma, 3)
        assert block.shape == (3, 20)
        assert np.array_equal(block[0], single_gen.sample(mu, sigma))

    def test_sequential_samples_match_block_rows(self):
        mu = np.zeros(16, dtype=np.int64)
        sigma = np.full(16, 20, dtype=np.int64)
        block_gen = WeightGenerator(GrngStream(NumpyGrng(8)), bit_length=8)
        seq_gen = WeightGenerator(GrngStream(NumpyGrng(8)), bit_length=8)
        block = block_gen.sample_block(mu, sigma, 4)
        rows = np.stack([seq_gen.sample(mu, sigma) for _ in range(4)])
        assert np.array_equal(block, rows)

    def test_counter_and_validation(self):
        gen = WeightGenerator(NumpyGrng(0), bit_length=8)
        gen.sample_block(np.zeros((3, 2), dtype=np.int64), np.zeros((3, 2), dtype=np.int64), 5)
        assert gen.samples_generated == 30
        with pytest.raises(ConfigurationError):
            gen.sample_block(np.zeros(4, dtype=np.int64), np.zeros(4, dtype=np.int64), 0)
