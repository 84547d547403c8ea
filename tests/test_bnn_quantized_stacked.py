"""Stacked-vs-loop equivalence and epsilon-dispatch tests (fixed point).

Two load-bearing properties of the fixed-point inference stack:

* the stacked path (:meth:`QuantizedBayesianNetwork.predict_proba`) is a
  pure reformulation of the per-pass reference loop — bit for bit, for
  every registered generator behind a :class:`GrngStream`;
* the epsilon dispatch is capability-probed once at construction and
  NEVER falls back silently: a code-datapath generator whose
  ``generate_codes`` fails mid-run surfaces the error instead of
  switching the run onto the float-quantized path with different
  numerics (the regression the seed's blanket ``except
  ConfigurationError`` allowed).
"""

import itertools

import numpy as np
import pytest

from repro.bnn.bayesian import BayesianNetwork
from repro.bnn.quantized import (
    RLF_CODE_OFFSET,
    RLF_SIGMA_SHIFT,
    EpsilonSource,
    QuantizedBayesianNetwork,
    epsilon_format,
)
from repro.errors import ConfigurationError
from repro.fixedpoint import requantize
from repro.grng import BnnWallaceGrng, GrngStream, NumpyGrng, ParallelRlfGrng
from repro.grng.base import Grng
from repro.grng.factory import available_grngs, make_grng
from repro.utils.seeding import derive_seed, spawn_generator


def _posterior(seed=0, sizes=(10, 8, 4)):
    return BayesianNetwork(sizes, seed=seed, initial_sigma=0.05).posterior_parameters()


X = np.random.default_rng(0).random((12, 10))


class FlakyCodesGrng(Grng):
    """Passes the zero-count capability probe, fails every real code draw.

    Models the bug class the shared dispatch exists to catch: a
    count-validation error or any mid-call failure inside a code-datapath
    generator.  The seed's per-call ``except ConfigurationError`` silently
    rerouted this onto the float path.
    """

    def __init__(self, fail_after: int = 0) -> None:
        self._calls_left = fail_after

    def generate(self, count: int) -> np.ndarray:
        count = self._check_count(count)
        return np.zeros(count)

    def generate_codes(self, count: int) -> np.ndarray:
        count = self._check_count(count)
        if count == 0:
            return np.empty(0, dtype=np.int64)
        if self._calls_left <= 0:
            raise ConfigurationError("injected mid-run generate_codes failure")
        self._calls_left -= 1
        return np.full(count, 128, dtype=np.int64)


class TestStackedEquivalence:
    @pytest.mark.parametrize("name", available_grngs())
    def test_every_generator_bit_for_bit_behind_stream(self, name):
        # GrngStream makes the epsilon stream call-pattern invariant, so
        # the stacked path consumes exactly the values the loop does.
        posterior = _posterior()
        stacked = QuantizedBayesianNetwork(
            posterior, bit_length=8, grng=GrngStream(make_grng(name, 5), block_size=4096)
        )
        loop = QuantizedBayesianNetwork(
            posterior, bit_length=8, grng=GrngStream(make_grng(name, 5), block_size=4096)
        )
        assert np.array_equal(
            stacked.predict_proba(X, n_samples=7),
            loop.predict_proba_loop(X, n_samples=7),
        )

    def test_numpy_fallback_bit_for_bit(self):
        posterior = _posterior(seed=1)
        stacked = QuantizedBayesianNetwork(posterior, bit_length=8, seed=9)
        loop = QuantizedBayesianNetwork(posterior, bit_length=8, seed=9)
        assert np.array_equal(
            stacked.predict_proba(X, n_samples=6),
            loop.predict_proba_loop(X, n_samples=6),
        )

    @pytest.mark.parametrize("bits", [4, 12, 16, 32])
    def test_bit_lengths_including_non_blas_widths(self, bits):
        # 32-bit operands exceed the float64-exactness bound, exercising
        # the int64-matmul fallback inside the stacked MAC.
        posterior = _posterior(seed=2)
        stacked = QuantizedBayesianNetwork(
            posterior, bit_length=bits, grng=GrngStream(make_grng("rlf", 2))
        )
        loop = QuantizedBayesianNetwork(
            posterior, bit_length=bits, grng=GrngStream(make_grng("rlf", 2))
        )
        assert np.array_equal(
            stacked.predict_proba(X, n_samples=5),
            loop.predict_proba_loop(X, n_samples=5),
        )

    def test_forward_stacked_codes_shape_and_validation(self):
        quantized = QuantizedBayesianNetwork(_posterior(seed=3), bit_length=8, seed=0)
        codes = quantized.act_fmt.quantize(X)
        logits = quantized.forward_stacked_codes(codes, 4)
        assert logits.shape == (4, X.shape[0], 4)
        assert logits.max() <= quantized.act_fmt.max_int
        assert logits.min() >= quantized.act_fmt.min_int
        with pytest.raises(ConfigurationError, match="expected codes"):
            quantized.forward_stacked_codes(np.zeros((3, 99), dtype=np.int64), 2)

    def test_eps_per_pass_counts_weights_and_biases(self):
        quantized = QuantizedBayesianNetwork(_posterior(), bit_length=8, seed=0)
        assert quantized.eps_per_pass == 10 * 8 + 8 + 8 * 4 + 4

    def test_n_samples_validation(self):
        quantized = QuantizedBayesianNetwork(_posterior(), bit_length=8, seed=0)
        with pytest.raises(ConfigurationError):
            quantized.predict_proba(X, n_samples=0)
        with pytest.raises(ConfigurationError):
            quantized.predict_proba_loop(X, n_samples=-1)


class PatternGrng(Grng):
    """A stream cycling through a fixed pattern: codes, or floats."""

    def __init__(self, pattern, *, codes: bool) -> None:
        self.pattern = np.asarray(pattern)
        self.codes = codes
        self._pos = 0

    def _take(self, count: int) -> np.ndarray:
        index = (self._pos + np.arange(count)) % self.pattern.size
        self._pos += count
        return self.pattern[index]

    def generate(self, count: int) -> np.ndarray:
        return self._take(self._check_count(count)).astype(np.float64)

    def generate_codes(self, count: int) -> np.ndarray:
        count = self._check_count(count)
        if not self.codes:
            raise ConfigurationError("float-only pattern")
        return self._take(count).astype(np.int64)


class TestUpdaterRangeLimits:
    """The int16 eq.-(2) updater (B <= 8) equals the int64 reference at the extremes."""

    @pytest.mark.parametrize("source", ["codes", "wide-codes", "float"])
    @pytest.mark.parametrize("bits", [4, 5, 6, 7, 8, 12, 16])
    def test_extreme_operands_match_per_pass_reference(self, bits, source):
        weight_fmt = QuantizedBayesianNetwork(_posterior(), bit_length=bits).weight_fmt
        if source == "codes":
            # RLF popcounts 0..255 become epsilons -128..127 (frac 3).
            eps_pattern = [0, 127, 128, 129, 255]
        elif source == "wide-codes":
            # A code above eight bits keeps the whole block on int64.
            eps_pattern = [0, 127, 128, 129, 511]
        else:
            fmt = epsilon_format(bits)
            eps_pattern = [
                fmt.min_value, -fmt.resolution, 0.0, fmt.resolution, fmt.max_value
            ]
        grid = list(itertools.product(
            [0.0, weight_fmt.max_value], [-1.0, weight_fmt.max_value], eps_pattern
        ))
        sigma, mu, eps = (np.array(column) for column in zip(*grid))
        # One weight per (sigma, mu, eps) corner; the bias takes eps max.
        posterior = [{
            "mu_weights": mu[:, None],
            "sigma_weights": sigma[:, None],
            "mu_bias": np.array([0.5]),
            "sigma_bias": np.array([weight_fmt.max_value]),
        }]
        stream = list(eps) + [eps_pattern[-1]]
        codes = source != "float"
        stacked = QuantizedBayesianNetwork(
            posterior, bit_length=bits, grng=PatternGrng(stream, codes=codes)
        )
        reference = QuantizedBayesianNetwork(
            posterior, bit_length=bits, grng=PatternGrng(stream, codes=codes)
        )
        assert stacked._eps.uses_codes == codes
        (w_stack, b_stack), = stacked.sample_weight_stacks(3)
        # B <= 8 on 8-bit epsilons runs the narrow updater; the rest stays int64.
        narrow = bits <= 8 and source != "wide-codes"
        assert w_stack.dtype == (np.int16 if narrow else np.int64)
        for sample in range(3):
            w, b = reference._sample_layer_weights(reference.layers[0])
            assert np.array_equal(w_stack[sample], w), (bits, source, sample)
            assert np.array_equal(b_stack[sample], b)
        # The grid reaches both saturation rails of the weight format.
        assert w_stack.min() == weight_fmt.min_int
        assert w_stack.max() == weight_fmt.max_int


class TestEpsilonSource:
    def test_probes_capability_once_at_construction(self):
        assert EpsilonSource(ParallelRlfGrng(lanes=8, seed=0), 8).uses_codes
        assert not EpsilonSource(BnnWallaceGrng(units=2, pool_size=64, seed=0), 8).uses_codes

    def test_streamed_float_source_routes_float(self):
        # A GrngStream over a float-only source must be detected as
        # float-capable (the stream forwards the zero-count probe), not
        # misdetected as code-capable and then fail at the first draw.
        source = EpsilonSource(GrngStream(BnnWallaceGrng(units=2, pool_size=64, seed=0)), 8)
        assert not source.uses_codes
        assert source.draw((5,)).shape == (5,)

    def test_frac_bits_fixed_by_capability(self):
        assert EpsilonSource(ParallelRlfGrng(lanes=8, seed=0), 8).frac_bits == RLF_SIGMA_SHIFT
        assert EpsilonSource(NumpyGrng(0), 8).frac_bits == epsilon_format(8).frac_bits

    def test_draw_and_block_consume_identical_stream(self):
        a = EpsilonSource(GrngStream(ParallelRlfGrng(lanes=8, seed=4)), 8)
        b = EpsilonSource(GrngStream(ParallelRlfGrng(lanes=8, seed=4)), 8)
        block = a.draw((3, 5))
        chopped = np.concatenate([b.draw((5,)) for _ in range(3)])
        assert np.array_equal(block.reshape(-1), chopped)


class TestNoSilentFloatFallback:
    def test_quantized_network_raises_on_mid_run_code_failure(self):
        quantized = QuantizedBayesianNetwork(
            _posterior(), bit_length=8, grng=FlakyCodesGrng(), seed=0
        )
        assert quantized._eps.uses_codes  # probe succeeded
        with pytest.raises(ConfigurationError, match="injected mid-run"):
            quantized.predict_proba(X, n_samples=2)
        with pytest.raises(ConfigurationError, match="injected mid-run"):
            quantized.predict_proba_loop(X, n_samples=2)

    def test_failure_after_first_successful_draw_still_raises(self):
        # The first layer's draw succeeds, the second fails — the run
        # must abort rather than continue with float numerics.
        quantized = QuantizedBayesianNetwork(
            _posterior(), bit_length=8, grng=FlakyCodesGrng(fail_after=1), seed=0
        )
        with pytest.raises(ConfigurationError, match="injected mid-run"):
            quantized.predict_proba_loop(X, n_samples=2)

    def test_weight_stacks_raise_on_mid_run_code_failure(self):
        # sample_weight_stacks is what the accelerator models consume
        # directly, without going through predict_proba.
        quantized = QuantizedBayesianNetwork(
            _posterior(), bit_length=8, grng=FlakyCodesGrng(), seed=0
        )
        with pytest.raises(ConfigurationError, match="injected mid-run"):
            quantized.sample_weight_stacks(3)

    def test_failing_path_does_not_change_numerics_silently(self):
        # The regression scenario end to end: the flaky generator's float
        # path would happily produce (different) numbers — assert we
        # never get numbers at all.
        flaky = FlakyCodesGrng()
        quantized = QuantizedBayesianNetwork(_posterior(), bit_length=8, grng=flaky)
        with pytest.raises(ConfigurationError):
            quantized.predict(X, n_samples=1)

    def test_float_generators_still_serve_the_quantized_path(self):
        # Capability-probed float routing is not an error: BNNWallace
        # (and any float GRNG) still feeds the datapath via Q2.(B-3).
        quantized = QuantizedBayesianNetwork(
            _posterior(), bit_length=8, grng=BnnWallaceGrng(units=2, pool_size=64, seed=0)
        )
        probs = quantized.predict_proba(X, n_samples=3)
        assert np.allclose(probs.sum(axis=1), 1.0)


def _single_layer(mu, sigma, sigma_bias):
    """One-layer posterior: ``mu``/``sigma`` weights, zero-mean biases."""
    return [{
        "mu_weights": mu,
        "sigma_weights": sigma,
        "mu_bias": np.zeros(mu.shape[1]),
        "sigma_bias": sigma_bias,
    }]


class TestWeightGenerator:
    """sample_weight_stacks is the Fig. 12 weight generator: GRNG -> eq. (2)."""

    def test_rlf_shift_standardisation(self):
        # With sigma = 0.5 the weight deltas are sigma_code * (pc - 128),
        # requantized from frac_w + 3 bits; the bias deltas are shifted up
        # to the accumulator precision.  Check both by hand.
        posterior = _single_layer(
            np.zeros((4, 4)), np.full((4, 4), 0.5), np.full(4, 0.25)
        )
        quantized = QuantizedBayesianNetwork(
            posterior, bit_length=8, grng=ParallelRlfGrng(lanes=16, seed=1)
        )
        (w, b), = quantized.sample_weight_stacks(3)
        codes = ParallelRlfGrng(lanes=16, seed=1).generate_codes(3 * 20).reshape(3, 20)
        eps = codes - RLF_CODE_OFFSET
        fmt = quantized.weight_fmt
        sigma_code = fmt.quantize(0.5)
        expected_w = requantize(
            sigma_code * eps[:, :16], fmt.frac_bits + RLF_SIGMA_SHIFT, fmt
        )
        assert np.array_equal(w, expected_w.reshape(3, 4, 4))
        shift = quantized.acc_frac_bits - (fmt.frac_bits + RLF_SIGMA_SHIFT)
        assert np.array_equal(b, (fmt.quantize(0.25) * eps[:, 16:]) << shift)

    def test_zero_sigma_returns_mu(self):
        mu = np.linspace(-0.9, 0.9, 12).reshape(3, 4)
        quantized = QuantizedBayesianNetwork(
            _single_layer(mu, np.zeros((3, 4)), np.zeros(4)),
            bit_length=8,
            grng=ParallelRlfGrng(lanes=16, seed=0),
        )
        (w, b), = quantized.sample_weight_stacks(2)
        assert (w == quantized.weight_fmt.quantize(mu)[None]).all()
        assert (b == 0).all()

    def test_float_grng_quantized_path(self):
        quantized = QuantizedBayesianNetwork(
            _single_layer(np.zeros((40, 50)), np.full((40, 50), 0.25), np.zeros(50)),
            bit_length=8,
            grng=NumpyGrng(seed=2),
        )
        (w, _), = quantized.sample_weight_stacks(1)
        # w = 0 + 0.25 * eps: sample std should be near 0.25.
        assert abs(quantized.weight_fmt.dequantize(w).std() - 0.25) < 0.04


    @pytest.mark.parametrize("name", available_grngs())
    def test_stack_rows_are_sequential_passes(self, name):
        # Row s of every layer's stack is pass s of the per-pass updater
        # on an identically seeded stream: the stacked (int16 or int64)
        # and per-pass (int64) updaters give the same codes, and the
        # block consumes the stream in the loop's order.
        posterior = _posterior(seed=4)

        def build():
            return QuantizedBayesianNetwork(
                posterior, bit_length=8, grng=GrngStream(make_grng(name, 6), block_size=256)
            )

        stacks = build().sample_weight_stacks(3)
        reference = build()
        for sample in range(3):
            for (w_stack, b_stack), layer in zip(stacks, reference.layers):
                w, b = reference._sample_layer_weights(layer)
                assert np.array_equal(w_stack[sample], w), (name, sample)
                assert np.array_equal(b_stack[sample], b), (name, sample)

    def test_n_samples_validation_consumes_nothing(self):
        quantized = QuantizedBayesianNetwork(
            _posterior(), bit_length=8, grng=GrngStream(make_grng("rlf", 3))
        )
        for bad in (0, -2):
            with pytest.raises(ConfigurationError):
                quantized.sample_weight_stacks(bad)
        fresh = QuantizedBayesianNetwork(
            _posterior(), bit_length=8, grng=GrngStream(make_grng("rlf", 3))
        )
        for (w_a, b_a), (w_b, b_b) in zip(
            quantized.sample_weight_stacks(2), fresh.sample_weight_stacks(2)
        ):
            assert np.array_equal(w_a, w_b) and np.array_equal(b_a, b_b)


class TestDefaultEpsilonStream:
    """``grng=None`` is NumpyGrng(derive_seed(seed, "quantized-eps"))."""

    @pytest.mark.parametrize("bits", [4, 8, 16])
    def test_default_equals_explicit_numpy_grng(self, bits):
        posterior = _posterior(seed=5)
        for seed in (0, 3, 7):
            def build(explicit):
                grng = NumpyGrng(derive_seed(seed, "quantized-eps")) if explicit else None
                return QuantizedBayesianNetwork(
                    posterior, bit_length=bits, grng=grng, seed=seed
                )

            for method in ("predict_proba", "predict_proba_loop"):
                assert np.array_equal(
                    getattr(build(False), method)(X, 3),
                    getattr(build(True), method)(X, 3),
                ), (bits, seed, method)
            default = build(False).sample_weight_stacks(2)
            explicit = build(True).sample_weight_stacks(2)
            for (w_a, b_a), (w_b, b_b) in zip(default, explicit):
                assert w_a.dtype == w_b.dtype
                assert np.array_equal(w_a, w_b) and np.array_equal(b_a, b_b)
            # The epsilons are the quantized standard normals of the
            # network seed's "quantized-eps" child generator.
            want = epsilon_format(bits).quantize(
                spawn_generator(seed, "quantized-eps").standard_normal((4, 50))
            )
            assert np.array_equal(build(False)._eps.draw((4, 50)), want)
