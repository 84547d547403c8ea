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

from repro.bnn.bayesian import BayesianNetwork
from repro.bnn.inference import (
    MonteCarloPredictor,
    build_weight_stacks,
    split_epsilon_block,
    stacked_forward_stacks,
    stacked_softmax_average,
)
from repro.bnn.regression import BayesianRegressor
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


def _predictor(spec, n_samples):
    network = _net()
    return MonteCarloPredictor(network, grng=_source(spec, network), n_samples=n_samples)


@pytest.mark.parametrize("spec", SOURCES, ids=str)
class TestStreamedBitExact:
    def test_streamed_equals_loop(self, spec):
        streamed = _predictor(spec, 7).predict_proba_batched(X)
        loop = _predictor(spec, 7).predict_proba_loop(X)
        assert streamed.tobytes() == loop.tobytes()

    def test_streamed_equals_whole_ensemble_oracle(self, spec):
        streamed = _predictor(spec, 7).predict_proba_batched(X)
        reference = _predictor(spec, 7)
        logits = _oracle_logits(reference.network.layers, X, 7, reference.grng)
        assert streamed.tobytes() == stacked_softmax_average(logits).tobytes()

    def test_second_call_continues_the_stream(self, spec):
        predictor = _predictor(spec, 5)
        first = predictor.predict_proba_batched(X)
        second = predictor.predict_proba_batched(X)
        reference = _predictor(spec, 5)
        logits = _oracle_logits(reference.network.layers, X, 10, reference.grng)
        assert first.tobytes() == stacked_softmax_average(logits[:5]).tobytes()
        assert second.tobytes() == stacked_softmax_average(logits[5:]).tobytes()


class TestBatchedEquivalence:
    def test_internal_streams_bit_for_bit(self):
        batched = MonteCarloPredictor(_net(), grng=None, n_samples=13)
        loop = MonteCarloPredictor(_net(), grng=None, n_samples=13)
        assert np.array_equal(
            batched.predict_proba_batched(X), loop.predict_proba_loop(X)
        )

    def test_numpy_grng_bit_for_bit(self):
        batched = MonteCarloPredictor(_net(), grng=NumpyGrng(7), n_samples=13)
        loop = MonteCarloPredictor(_net(), grng=NumpyGrng(7), n_samples=13)
        assert np.array_equal(
            batched.predict_proba_batched(X), loop.predict_proba_loop(X)
        )

    @pytest.mark.parametrize("name", available_grngs())
    def test_every_generator_bit_for_bit_behind_stream(self, name):
        # GrngStream makes the epsilon stream call-pattern invariant, so
        # loop and batched consume identical values for ANY generator.
        batched = MonteCarloPredictor(
            _net(), grng=GrngStream(make_grng(name, 5), block_size=4096), n_samples=9
        )
        loop = MonteCarloPredictor(
            _net(), grng=GrngStream(make_grng(name, 5), block_size=4096), n_samples=9
        )
        assert np.array_equal(
            batched.predict_proba_batched(X), loop.predict_proba_loop(X)
        )

    def test_default_path_is_batched(self):
        predictor = MonteCarloPredictor(_net(), grng=NumpyGrng(1), n_samples=5)
        reference = MonteCarloPredictor(_net(), grng=NumpyGrng(1), n_samples=5)
        assert np.array_equal(
            predictor.predict_proba(X), reference.predict_proba_batched(X)
        )

    def test_predict_and_entropy_ride_the_batched_path(self):
        predictor = MonteCarloPredictor(_net(), grng=NumpyGrng(2), n_samples=8)
        probs = predictor.predict_proba(X)
        assert predictor.predict(X).shape == (X.shape[0],)
        entropy = MonteCarloPredictor(
            _net(), grng=NumpyGrng(2), n_samples=8
        ).predictive_entropy(X)
        expected = -(probs * np.log(np.clip(probs, 1e-300, None))).sum(axis=1)
        assert np.array_equal(entropy, expected)

    def test_probabilities_normalised(self):
        probs = MonteCarloPredictor(_net(), grng=NumpyGrng(3), n_samples=6).predict_proba(X)
        assert np.allclose(probs.sum(axis=1), 1.0)
        assert (probs >= 0).all()

    def test_batched_path_validates_input_shape(self):
        # The batched default must reject malformed input like the loop
        # path does, not broadcast it into silently wrong probabilities.
        predictor = MonteCarloPredictor(_net(), n_samples=2)
        with pytest.raises(ConfigurationError, match="expected input shape"):
            predictor.predict_proba(np.zeros(X.shape[1]))  # 1-D input
        with pytest.raises(ConfigurationError, match="expected input shape"):
            predictor.predict_proba(np.zeros((3, X.shape[1] + 1)))


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
        predictor = MonteCarloPredictor(
            network, grng=GrngStream(BnnWallaceGrng(seed=1), block_size=4096), n_samples=16
        )
        x = np.random.default_rng(0).random((1, 784))
        predictor.predict_proba_batched(x)  # warm the generator's schedule cache
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            predictor.predict_proba_batched(x)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        logits_bytes = 16 * x.shape[0] * 10 * 8
        assert peak < 3 * eps_per_pass * 8 + logits_bytes


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


class TestRegressorBatched:
    def test_batched_matches_loop_bit_for_bit(self):
        x = np.random.default_rng(1).random((17, 2))
        mean_a, std_a = BayesianRegressor((2, 8, 1), seed=4).predict(x, n_samples=21)
        mean_b, std_b = BayesianRegressor((2, 8, 1), seed=4).predict_loop(
            x, n_samples=21
        )
        assert np.array_equal(mean_a, mean_b)
        assert np.array_equal(std_a, std_b)

    def test_grng_seam(self):
        x = np.random.default_rng(2).random((9, 2))
        mean, std = BayesianRegressor((2, 8, 1), seed=4).predict(
            x, n_samples=5, grng=GrngStream(BnnWallaceGrng(seed=2))
        )
        assert mean.shape == (9, 1) and std.shape == (9, 1)
        assert (std >= 0.1 - 1e-12).all()  # noise floor = noise_sigma

    def test_grng_streamed_matches_oracle(self):
        x = np.random.default_rng(2).random((9, 2))
        model = BayesianRegressor((2, 8, 1), seed=4)
        mean, std = model.predict(x, n_samples=6, grng=GrngStream(BnnWallaceGrng(seed=2)))
        draws = _oracle_logits(model.layers, x, 6, GrngStream(BnnWallaceGrng(seed=2)))
        assert mean.tobytes() == draws.mean(axis=0).tobytes()
        expected_std = np.sqrt(draws.var(axis=0) + model.noise_sigma**2)
        assert std.tobytes() == expected_std.tobytes()


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
