"""Tests for variance-reduced epsilon streams (`repro.grng.stream`).

Covers the `make_stream` factory, call-pattern invariance of the
period-remap streams, the float-only code datapath contract (and the
quantized fallback it triggers), exact-marginal / strata-coverage
properties of the stratified stream, exact pair cancellation of the
antithetic stream, and the statistical regression the
subsystem exists for: with a fixed set of seeds, antithetic and
stratified epsilon streams must not increase the predictive-mean MSE of
``N``-pass Monte-Carlo inference relative to the plain stream.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bnn.activations import softmax
from repro.bnn.bayesian import BayesianNetwork
from repro.bnn.inference import (
    build_weight_stacks,
    stacked_epsilons,
    stacked_forward_stacks,
)
from repro.bnn.quantized import QuantizedBayesianNetwork
from repro.errors import ConfigurationError
from repro.grng import (
    VARIANCE_REDUCTIONS,
    AntitheticGrngStream,
    GrngStream,
    NumpyGrng,
    StratifiedGrngStream,
    make_grng,
    make_stream,
)

IN, OUT = 6, 3


def make_network(seed=0):
    return BayesianNetwork((IN, 5, OUT), seed=seed, initial_sigma=0.08)


def eps_per_pass(network):
    return sum(layer.weight_count() for layer in network.layers)


class TestMakeStream:
    def test_plain_is_a_default_grng_stream(self):
        stream = make_stream(NumpyGrng(0))
        assert type(stream) is GrngStream
        assert stream.block_size == 65536

    def test_named_variants(self):
        assert VARIANCE_REDUCTIONS == ("plain", "antithetic", "stratified")
        anti = make_stream(NumpyGrng(0), variance_reduction="antithetic", period=10)
        assert isinstance(anti, AntitheticGrngStream) and anti.period == 10
        strat = make_stream(
            NumpyGrng(0), variance_reduction="stratified", period=10, seed=7
        )
        assert isinstance(strat, StratifiedGrngStream) and strat.period == 10

    def test_unknown_name_rejected(self):
        with pytest.raises(ConfigurationError):
            make_stream(NumpyGrng(0), variance_reduction="latin")

    def test_bad_period_rejected(self):
        for variance_reduction in ("antithetic", "stratified"):
            with pytest.raises(ConfigurationError):
                make_stream(
                    NumpyGrng(0), variance_reduction=variance_reduction, period=0
                )

    def test_bad_strata_rejected(self):
        with pytest.raises(ConfigurationError):
            StratifiedGrngStream(NumpyGrng(0), period=4, strata=0)


class TestCallPatternInvariance:
    @pytest.mark.parametrize("variance_reduction", ["antithetic", "stratified"])
    def test_chunked_equals_one_block(self, variance_reduction):
        def build():
            return make_stream(
                NumpyGrng(3),
                variance_reduction=variance_reduction,
                period=7,
                seed=5,
            )

        one = build().generate(84)
        stream = build()
        parts = np.concatenate([stream.generate(k) for k in (1, 5, 16, 27, 35)])
        assert (one == parts).all()

    @pytest.mark.parametrize("variance_reduction", ["antithetic", "stratified"])
    def test_fill_matches_generate(self, variance_reduction):
        def build():
            return make_stream(
                NumpyGrng(3),
                variance_reduction=variance_reduction,
                period=5,
                seed=5,
            )

        reference = build().generate(40)
        out = np.empty((8, 5))
        build().fill(out)
        assert (out.reshape(-1) == reference).all()


class TestCodeDatapath:
    """The remap is float-only: every code request raises, including the
    zero-count capability probe, which routes quantized consumers onto
    their quantized-float epsilon path."""

    @pytest.mark.parametrize("variance_reduction", ["antithetic", "stratified"])
    def test_generate_codes_raises_even_for_probe(self, variance_reduction):
        stream = make_stream(
            make_grng("rlf", seed=0), variance_reduction=variance_reduction, period=4
        )
        for count in (0, 1, 16):
            with pytest.raises(ConfigurationError):
                stream.generate_codes(count)

    @pytest.mark.parametrize("variance_reduction", ["antithetic", "stratified"])
    def test_quantized_network_falls_back_to_float_path(self, variance_reduction):
        """A code-capable source behind a remap stream must still serve
        fixed-point inference (via quantized-float epsilons), not crash."""
        network = make_network()
        stream = make_stream(
            make_grng("rlf", seed=2),
            variance_reduction=variance_reduction,
            period=eps_per_pass(network),
        )
        quantized = QuantizedBayesianNetwork(
            network.posterior_parameters(), grng=stream, seed=2
        )
        x = np.random.default_rng(0).random((4, IN))
        probs = quantized.predict_proba(x, n_samples=6)
        assert probs.shape == (4, OUT)
        assert np.allclose(probs.sum(axis=1), 1.0)


class TestStratifiedProperties:
    def test_cycle_covers_every_stratum_once_per_component(self):
        from scipy.special import ndtr

        strata, period = 8, 11
        stream = StratifiedGrngStream(NumpyGrng(0), period, strata=strata, seed=1)
        block = stream.generate(strata * period).reshape(strata, period)
        indices = np.floor(ndtr(block) * strata).astype(int)
        for component in range(period):
            assert sorted(indices[:, component]) == list(range(strata))

    def test_permutations_are_redrawn_per_cycle(self):
        from scipy.special import ndtr

        strata, period = 4, 16
        stream = StratifiedGrngStream(NumpyGrng(0), period, strata=strata, seed=1)
        block = stream.generate(2 * strata * period).reshape(2, strata, period)
        schedules = np.floor(ndtr(block) * strata).astype(int)
        assert (schedules[0] != schedules[1]).any()

    def test_marginals_stay_standard_normal(self):
        stream = StratifiedGrngStream(NumpyGrng(7), period=64, strata=8, seed=3)
        samples = stream.generate(64 * 512)
        assert abs(samples.mean()) < 0.02
        assert abs(samples.std() - 1.0) < 0.02

    def test_antithetic_halves_source_consumption(self):
        source = NumpyGrng(0)
        stream = AntitheticGrngStream(source, period=16, block_size=16)
        stream.generate(32 * 16)  # 32 passes
        # 16 passes worth of fresh draws = 16 refills of 16 samples each.
        assert stream.refills == 16


class TestAntitheticCancellation:
    """The paired stream emits ``[z, -z]`` units, so each consecutive pass
    pair's epsilons sum to exactly zero and the pair's sampled weights
    ``mu + sigma * eps`` average to ``mu`` bit-exactly."""

    @settings(max_examples=15, deadline=None)
    @given(
        period=st.integers(1, 40),
        pairs=st.integers(1, 6),
        seed=st.integers(0, 100),
    )
    def test_pair_epsilons_sum_to_zero(self, period, pairs, seed):
        stream = AntitheticGrngStream(NumpyGrng(seed), period)
        block = stream.generate(2 * pairs * period).reshape(2 * pairs, period)
        assert (block[0::2] + block[1::2] == 0.0).all()

    def test_pair_mean_epsilon_recovers_mu_exactly(self):
        """The pair-mean epsilon is exactly zero, so ``mu + sigma * mean(eps)
        == mu`` bit for bit (IEEE sign symmetry makes ``sigma * (-z)`` the
        exact negative of ``sigma * z``)."""
        network = make_network()
        stream = AntitheticGrngStream(NumpyGrng(3), eps_per_pass(network))
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


def predictive_mean(network, x, n_samples, stream):
    epsilons = stacked_epsilons(network.layers, n_samples, stream)
    stacks = build_weight_stacks(network.layers, epsilons)
    probs = softmax(stacked_forward_stacks(stacks, x))
    return probs.mean(axis=0)


class TestPredictiveMeanMSERegression:
    """The statistical gate: across a fixed seed battery, antithetic and
    stratified N-pass predictive means are no farther (in MSE) from the
    converged predictive mean than the plain stream's."""

    N_PASSES = 16
    SEEDS = range(24)

    @pytest.fixture(scope="class")
    def setup(self):
        network = make_network()
        x = np.random.default_rng(1).normal(size=(8, IN))
        reference = predictive_mean(
            network, x, 8192, GrngStream(NumpyGrng(10_000))
        )
        return network, x, reference

    def mse(self, setup, variance_reduction):
        network, x, reference = setup
        period = eps_per_pass(network)
        errors = []
        for seed in self.SEEDS:
            stream = make_stream(
                NumpyGrng(seed),
                variance_reduction=variance_reduction,
                period=period,
                seed=seed,
            )
            estimate = predictive_mean(network, x, self.N_PASSES, stream)
            errors.append(np.mean((estimate - reference) ** 2))
        return float(np.mean(errors))

    def test_antithetic_does_not_increase_mse(self, setup):
        assert self.mse(setup, "antithetic") <= self.mse(setup, "plain")

    def test_stratified_does_not_increase_mse(self, setup):
        assert self.mse(setup, "stratified") <= self.mse(setup, "plain")
