"""Tests for the baseline GRNGs: Box–Muller, ziggurat, CDF inversion, CLT."""

import numpy as np
import pytest
from scipy import stats

from repro.errors import ConfigurationError
from repro.grng import (
    BinomialLfsrGrng,
    BoxMullerGrng,
    CdfInversionGrng,
    CentralLimitGrng,
    ZigguratGrng,
)


def _check_standard_normal(samples, *, ks_alpha=1e-4):
    """Loose distributional check: moments + KS at a forgiving alpha."""
    assert abs(samples.mean()) < 0.05
    assert abs(samples.std() - 1.0) < 0.05
    _, p = stats.kstest(samples, "norm")
    assert p > ks_alpha


class TestBoxMuller:
    def test_distribution(self):
        _check_standard_normal(BoxMullerGrng(seed=0).generate(20_000))

    def test_odd_count(self):
        assert BoxMullerGrng(seed=1).generate(7).shape == (7,)

    def test_deterministic(self):
        assert (BoxMullerGrng(seed=2).generate(10) == BoxMullerGrng(seed=2).generate(10)).all()

    def test_pairs_structure(self):
        # Pairs share a radius: samples 0 and 1 satisfy x0^2 + x1^2 = r^2
        # with r from the exponential; just check finiteness and variety.
        samples = BoxMullerGrng(seed=3).generate(1000)
        assert np.isfinite(samples).all()
        assert np.unique(samples).size > 990


class TestZiggurat:
    def test_distribution(self):
        _check_standard_normal(ZigguratGrng(seed=0).generate(20_000))

    def test_layers_validation(self):
        with pytest.raises(ConfigurationError):
            ZigguratGrng(layers=100)
        with pytest.raises(ConfigurationError):
            ZigguratGrng(layers=4)

    def test_fast_path_dominates(self):
        # The point of the ziggurat: the vast majority of draws take the
        # rectangle fast path.
        grng = ZigguratGrng(seed=1)
        grng.generate(5000)
        assert grng.fast_path_hits / grng.total_draws > 0.95

    def test_tail_samples_occur_and_are_finite(self):
        samples = ZigguratGrng(seed=2).generate(100_000)
        assert np.abs(samples).max() > 3.5  # tails are reachable
        assert np.isfinite(samples).all()

    def test_symmetry(self):
        samples = ZigguratGrng(seed=3).generate(50_000)
        assert abs((samples > 0).mean() - 0.5) < 0.02


class TestCdfInversion:
    def test_distribution(self):
        _check_standard_normal(CdfInversionGrng(seed=0).generate(20_000))

    def test_finite(self):
        assert np.isfinite(CdfInversionGrng(seed=1).generate(10_000)).all()


class TestCentralLimit:
    def test_distribution(self):
        _check_standard_normal(CentralLimitGrng(seed=0, terms=12).generate(20_000))

    def test_terms_validation(self):
        with pytest.raises(ConfigurationError):
            CentralLimitGrng(terms=1)

    def test_support_is_bounded(self):
        # Irwin-Hall with k terms cannot exceed +-sqrt(3k): the known tail
        # deficiency of CLT generators.
        samples = CentralLimitGrng(seed=1, terms=12).generate(50_000)
        assert np.abs(samples).max() <= np.sqrt(3 * 12) + 1e-9

    def test_more_terms_better_tails(self):
        small = CentralLimitGrng(seed=2, terms=4).generate(50_000)
        large = CentralLimitGrng(seed=2, terms=48).generate(50_000)
        # Compare fraction beyond 2.5 sigma with the true value ~0.0124.
        true_frac = 2 * stats.norm.sf(2.5)
        err_small = abs((np.abs(small) > 2.5).mean() - true_frac)
        err_large = abs((np.abs(large) > 2.5).mean() - true_frac)
        assert err_large < err_small


class TestBinomialLfsr:
    def test_codes_range(self):
        codes = BinomialLfsrGrng(seed=0).generate_codes(2000)
        assert codes.min() >= 0 and codes.max() <= 255

    def test_moments(self):
        samples = BinomialLfsrGrng(seed=0).generate(5000)
        assert abs(samples.mean()) < 0.35  # popcount walk mixes slowly
        assert abs(samples.std() - 1.0) < 0.2

    def test_steps_validation(self):
        with pytest.raises(ConfigurationError):
            BinomialLfsrGrng(steps_per_sample=0)

    def test_cost_model_attached(self):
        # The motivating cost: a full-width PC for the naive design.
        grng = BinomialLfsrGrng(seed=0)
        assert grng.parallel_counter.full_adders == 255 - 8

    def test_vectorised_path_matches_shift_lfsr_loop(self):
        # The block kernel must reproduce, bit for bit, what the seed
        # did: step the eq.-(9) shifting LFSR twice per sample and emit
        # its popcount.
        from repro.rng.lfsr import ShiftHeadLfsr
        from repro.utils.bitops import bits_to_int
        from repro.utils.seeding import spawn_generator

        rng = spawn_generator(7, "binomial-lfsr")
        bits = rng.integers(0, 2, size=255, dtype=np.uint8)
        if not bits.any():
            bits[0] = 1
        lfsr = ShiftHeadLfsr(
            width=255, inject_taps=(250, 252, 253), seed=int(bits_to_int(bits))
        )
        reference = np.empty(300, dtype=np.int64)
        for i in range(300):
            lfsr.step()
            lfsr.step()
            reference[i] = lfsr.popcount()
        grng = BinomialLfsrGrng(seed=7)
        assert np.array_equal(grng.generate_codes(300), reference)
        assert grng.state_register() == lfsr.state

    def test_chopped_requests_compose(self):
        chopped = BinomialLfsrGrng(seed=1)
        whole = BinomialLfsrGrng(seed=1)
        parts = np.concatenate([chopped.generate_codes(n) for n in (3, 0, 17, 80)])
        assert np.array_equal(parts, whole.generate_codes(100))

    def test_custom_width_and_steps(self):
        grng = BinomialLfsrGrng(seed=2, width=64, inject_taps=(40, 50, 60), steps_per_sample=3)
        codes = grng.generate_codes(50)
        assert codes.shape == (50,)
        assert codes.min() >= 0 and codes.max() <= 64

    def test_invalid_tap_rejected(self):
        with pytest.raises(ConfigurationError):
            BinomialLfsrGrng(width=64, inject_taps=(64,))
