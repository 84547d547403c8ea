"""Property tests for adaptive Monte-Carlo inference (`repro.bnn.adaptive`).

Three properties carry the subsystem's correctness story:

1. **Bit-exact fallback** — with the exit bound disabled the adaptive
   chunked path performs the identical float operations in the identical
   order as the fixed-``N`` batched path, so the results are *equal*, not
   merely close, for any chunk size and any call-pattern-invariant
   epsilon stream.
2. **Monotone pass counts** — the Hoeffding bound ``t(n) =
   sqrt(2 ln(2/delta)/n)`` is strictly decreasing in ``delta``, so for a
   fixed epsilon stream every row's exit pass count is monotone
   non-increasing as ``delta`` grows (stricter confidence can only delay
   exits).
3. **Antithetic cancellation** — the paired stream emits ``[z, -z]``
   units, so each consecutive pass pair's epsilons sum to exactly zero
   and the pair's sampled weights ``mu + sigma * eps`` average to ``mu``
   bit-exactly.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bnn.adaptive import AdaptiveConfig, concentration_bound, run_adaptive
from repro.bnn.bayesian import BayesianNetwork
from repro.bnn.inference import LocalReparamPredictor, stacked_epsilons
from repro.bnn.quantized import QuantizedBayesianNetwork
from repro.errors import ConfigurationError
from repro.grng import AntitheticGrngStream, GrngStream, NumpyGrng, make_grng

IN, OUT = 6, 3


def make_network(seed=0):
    return BayesianNetwork((IN, 5, OUT), seed=seed, initial_sigma=0.05)


def images(rows, seed=1):
    return np.random.default_rng(seed).normal(size=(rows, IN))


def confident_network(seed=0):
    """A network whose posterior strongly prefers class 0 (rows exit early)."""
    network = make_network(seed)
    network.layers[-1].mu_bias[0] += 6.0
    return network


class TestExitDisabledBitExact:
    """Property 1: exit_delta=None reproduces predict_proba bit for bit."""

    @settings(max_examples=20, deadline=None)
    @given(
        chunk=st.integers(1, 17),
        n_samples=st.integers(1, 24),
        grng_name=st.sampled_from(["bnnwallace", "rlf", "numpy"]),
    )
    def test_equals_fixed_batched_path(self, chunk, n_samples, grng_name):
        x = images(4)
        fixed = LocalReparamPredictor(
            make_network(), GrngStream(make_grng(grng_name, seed=9)), n_samples
        )
        reference = fixed.predict_proba(x)
        chunked = LocalReparamPredictor(
            make_network(), GrngStream(make_grng(grng_name, seed=9)), n_samples
        )
        result = run_adaptive(
            x, n_samples, chunked.chunk_probs, AdaptiveConfig(chunk=chunk, exit_delta=None)
        ).probs
        assert result.shape == reference.shape
        assert (result == reference).all()

    def test_equals_fixed_path_with_an_unbuffered_numpy_source(self):
        """A bare NumPy generator (no GrngStream) is also call-pattern invariant."""
        x = images(5)
        reference = LocalReparamPredictor(make_network(), NumpyGrng(3), 12).predict_proba(x)
        outcome = run_adaptive(
            x,
            12,
            LocalReparamPredictor(make_network(), NumpyGrng(3), 12).chunk_probs,
            AdaptiveConfig(chunk=5, exit_delta=None),
        )
        assert (outcome.probs == reference).all()

    @settings(max_examples=10, deadline=None)
    @given(chunk=st.integers(1, 9), n_samples=st.integers(1, 16))
    def test_quantized_path_bit_exact(self, chunk, n_samples):
        x = images(3)
        posterior = make_network().posterior_parameters()
        fixed = QuantizedBayesianNetwork(
            posterior, grng=GrngStream(make_grng("rlf", seed=4)), seed=4
        )
        reference = fixed.predict_proba(x, n_samples=n_samples)
        chunked = QuantizedBayesianNetwork(
            posterior, grng=GrngStream(make_grng("rlf", seed=4)), seed=4
        )
        outcome = run_adaptive(
            x, n_samples, chunked.chunk_probs, AdaptiveConfig(chunk=chunk, exit_delta=None)
        )
        assert (outcome.probs == reference).all()

    def test_exit_disabled_runs_every_pass(self):
        outcome = run_adaptive(
            images(4),
            16,
            LocalReparamPredictor(
                confident_network(), GrngStream(make_grng("numpy", seed=2)), 16
            ).chunk_probs,
            AdaptiveConfig(chunk=4, exit_delta=None),
        )
        assert (outcome.passes == 16).all()


class TestPassCountMonotonicity:
    """Property 2: pass counts are monotone non-increasing in exit_delta."""

    @settings(max_examples=15, deadline=None)
    @given(
        deltas=st.lists(
            st.floats(1e-4, 0.5, allow_nan=False), min_size=2, max_size=4
        ),
        seed=st.integers(0, 5),
    )
    def test_monotone_in_delta(self, deltas, seed):
        x = images(6, seed=seed)
        counts = []
        for delta in sorted(deltas):
            predictor = LocalReparamPredictor(
                confident_network(), GrngStream(make_grng("bnnwallace", seed=2)), 32
            )
            outcome = run_adaptive(
                x, 32, predictor.chunk_probs, AdaptiveConfig(chunk=4, exit_delta=delta)
            )
            counts.append(outcome.passes)
        # Larger delta = laxer bound: exits can only come earlier.
        for stricter, laxer in zip(counts, counts[1:]):
            assert (laxer <= stricter).all()

    def test_bound_is_strictly_decreasing(self):
        for delta in (0.001, 0.05, 0.3):
            values = [concentration_bound(n, delta) for n in (1, 2, 8, 64)]
            assert all(a > b for a, b in zip(values, values[1:]))
        for n in (1, 8, 64):
            values = [concentration_bound(n, d) for d in (0.001, 0.05, 0.3)]
            assert all(a > b for a, b in zip(values, values[1:]))

    def test_confident_rows_exit_early(self):
        predictor = LocalReparamPredictor(
            confident_network(), GrngStream(make_grng("bnnwallace", seed=2)), 64
        )
        outcome = run_adaptive(
            images(6), 64, predictor.chunk_probs, AdaptiveConfig(chunk=8, exit_delta=0.05)
        )
        assert (outcome.passes < 64).all()
        assert outcome.mean_passes() < 64

    def test_min_passes_floor_is_respected(self):
        predictor = LocalReparamPredictor(
            confident_network(), GrngStream(make_grng("bnnwallace", seed=2)), 64
        )
        outcome = run_adaptive(
            images(4),
            64,
            predictor.chunk_probs,
            AdaptiveConfig(chunk=8, exit_delta=0.3, min_passes=24),
        )
        assert (outcome.passes >= 24).all()


class TestAntitheticCancellation:
    """Property 3: antithetic pass pairs cancel exactly."""

    @settings(max_examples=15, deadline=None)
    @given(
        period=st.integers(1, 40),
        pairs=st.integers(1, 6),
        seed=st.integers(0, 100),
    )
    def test_pair_epsilons_sum_to_zero(self, period, pairs, seed):
        stream = AntitheticGrngStream(NumpyGrng(seed), period)
        block = stream.generate_block((2 * pairs, period))
        assert (block[0::2] + block[1::2] == 0.0).all()

    def test_pair_mean_epsilon_recovers_mu_exactly(self):
        """The pair-mean epsilon is exactly zero, so ``mu + sigma * mean(eps)
        == mu`` bit for bit (IEEE sign symmetry makes ``sigma * (-z)`` the
        exact negative of ``sigma * z``)."""
        network = make_network()
        stream = AntitheticGrngStream(
            NumpyGrng(3), sum(layer.weight_count() for layer in network.layers)
        )
        epsilons = stacked_epsilons(network.layers, 2, stream)
        for layer, (eps_w, eps_b) in zip(network.layers, epsilons):
            assert (eps_w[0] + eps_w[1] == 0.0).all()
            assert (eps_b[0] + eps_b[1] == 0.0).all()
            scaled = layer.sigma_weights() * eps_w
            assert (scaled[0] == -scaled[1]).all()
            mean_w = layer.mu_weights + layer.sigma_weights() * (
                (eps_w[0] + eps_w[1]) / 2.0
            )
            mean_b = layer.mu_bias + layer.sigma_bias() * ((eps_b[0] + eps_b[1]) / 2.0)
            assert (mean_w == layer.mu_weights).all()
            assert (mean_b == layer.mu_bias).all()

    def test_chunked_draws_match_one_block(self):
        """The antithetic stream is call-pattern invariant like GrngStream."""
        one = AntitheticGrngStream(NumpyGrng(5), 7).generate(70)
        stream = AntitheticGrngStream(NumpyGrng(5), 7)
        parts = np.concatenate([stream.generate(k) for k in (3, 11, 20, 36)])
        assert (one == parts).all()


class TestConfigValidation:
    def test_rejects_bad_chunk(self):
        with pytest.raises(ConfigurationError):
            AdaptiveConfig(chunk=0)

    @pytest.mark.parametrize("delta", [0.0, 1.0, -0.1, 2.0])
    def test_rejects_out_of_range_delta(self, delta):
        with pytest.raises(ConfigurationError):
            AdaptiveConfig(exit_delta=delta)

    def test_rejects_negative_min_passes(self):
        with pytest.raises(ConfigurationError):
            AdaptiveConfig(min_passes=-1)


class TestRunAdaptiveEdgeCases:
    def test_single_class_head_exits_at_first_boundary(self):
        """A 1-class output is decided by construction; rows exit ASAP."""

        def chunk_probs(x, start, size):
            return np.full((size, x.shape[0], 1), 1.0)

        outcome = run_adaptive(
            images(3), 12, chunk_probs, AdaptiveConfig(chunk=4, exit_delta=0.05)
        )
        assert (outcome.passes == 4).all()
        assert (outcome.probs == 1.0).all()

    def test_result_rows_freeze_at_exit(self):
        """An exited row's probabilities average only its own passes."""
        calls = []

        def chunk_probs(x, start, size):
            calls.append(size)
            probs = np.zeros((size, x.shape[0], 2))
            # Row 0 is instantly decided; row 1 stays ambivalent forever.
            probs[:, 0, 0] = 1.0
            probs[:, 1, :] = 0.5
            return probs

        outcome = run_adaptive(
            images(2), 32, chunk_probs, AdaptiveConfig(chunk=8, exit_delta=0.2)
        )
        assert outcome.passes[0] == 8
        assert outcome.passes[1] == 32
        assert (outcome.probs[0] == [1.0, 0.0]).all()
        assert (outcome.probs[1] == [0.5, 0.5]).all()
