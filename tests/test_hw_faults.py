"""Tests for fault injection into the hardware GRNG models."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.grng.quality import stability_error
from repro.hw.faults import (
    FaultyBnnWallaceGrng,
    FaultyRlfGrng,
    StuckAtFault,
    random_seu_faults,
)


class TestFaultyRlf:
    def test_no_faults_matches_clean(self):
        clean = FaultyRlfGrng([], lanes=16, seed=0).generate_codes(160)
        from repro.grng.rlf import ParallelRlfGrng

        reference = ParallelRlfGrng(lanes=16, seed=0).generate_codes(160)
        assert (clean == reference).all()

    def test_location_validation(self):
        with pytest.raises(ConfigurationError):
            FaultyRlfGrng([StuckAtFault(255, 1)], lanes=16)
        with pytest.raises(ConfigurationError):
            FaultyRlfGrng([StuckAtFault(0, 0.5)], lanes=16)

    def test_many_stuck_ones_bias_mean_up(self):
        faults = [StuckAtFault(location, 1) for location in range(40)]
        samples = FaultyRlfGrng(faults, lanes=16, seed=1).generate(20_000)
        # 40 of 255 bits pinned to 1: mean popcount rises by ~ (40 - 20)/8.
        assert samples.mean() > 1.0

    def test_quality_suite_detects_faults(self):
        faults = [StuckAtFault(location, 1) for location in range(30)]
        faulty = stability_error(FaultyRlfGrng(faults, lanes=16, seed=2).generate(20_000))
        clean = stability_error(FaultyRlfGrng([], lanes=16, seed=2).generate(20_000))
        assert faulty.mu_error > clean.mu_error + 0.5

    def test_incremental_count_stays_consistent_under_faults(self):
        # The injector fixes up the incremental counts; the codes must
        # still equal the true popcounts.
        faults = random_seu_faults(10, depth=255, seed=3)
        grng = FaultyRlfGrng(faults, lanes=8, seed=3)
        grng.generate_codes(80)
        assert (grng._grng.counts == grng._grng.state.sum(axis=0)).all()

    @pytest.mark.parametrize("n_faults", [0, 1, 4])
    def test_windowed_matches_per_cycle_reference(self, n_faults):
        faults = random_seu_faults(n_faults, depth=255, seed=11)
        windowed = FaultyRlfGrng(faults, lanes=16, seed=4)
        loop = FaultyRlfGrng(faults, lanes=16, seed=4)
        # Several draw sizes, including sub-lane and multi-window ones, so
        # cross-call state carry-over is covered too.
        for count in (160, 7, 2000, 1):
            assert (
                windowed.generate_codes(count) == loop.generate_codes_loop(count)
            ).all()
        assert (windowed._grng.state == loop._grng.state).all()
        assert (windowed._grng.counts == loop._grng.counts).all()
        assert windowed._grng.head == loop._grng.head
        assert windowed._grng.cycle == loop._grng.cycle


class TestFaultyWallace:
    def test_location_validation(self):
        with pytest.raises(ConfigurationError):
            FaultyBnnWallaceGrng([StuckAtFault(256, 0.0)], pool_size=256)

    def test_large_stuck_value_inflates_variance(self):
        faults = [StuckAtFault(0, 25.0)]
        samples = FaultyBnnWallaceGrng(faults, units=4, pool_size=64, seed=0).generate(20_000)
        assert samples.std() > 1.5

    def test_zero_faults_match_clean(self):
        from repro.grng.bnnwallace import BnnWallaceGrng

        faulty = FaultyBnnWallaceGrng([], units=4, pool_size=64, seed=1).generate(256)
        clean = BnnWallaceGrng(units=4, pool_size=64, seed=1).generate(256)
        assert np.allclose(faulty, clean)

    def test_non_finite_pin_values_rejected(self):
        for bad in (float("nan"), float("inf"), float("-inf")):
            with pytest.raises(ConfigurationError):
                FaultyBnnWallaceGrng([StuckAtFault(0, bad)], pool_size=64)

    @pytest.mark.parametrize("n_faults", [0, 1, 4])
    def test_windowed_matches_per_cycle_reference(self, n_faults):
        faults = random_seu_faults(n_faults, depth=64, seed=13, binary=False)
        windowed = FaultyBnnWallaceGrng(faults, units=4, pool_size=64, seed=5)
        loop = FaultyBnnWallaceGrng(faults, units=4, pool_size=64, seed=5)
        for count in (256, 9, 3000, 1):
            assert np.array_equal(
                windowed.generate(count), loop.generate_loop(count)
            )
        assert np.array_equal(windowed._grng.pools, loop._grng.pools)
        assert windowed._grng._addr == loop._grng._addr
        assert windowed._grng._phase == loop._grng._phase

    def test_stuck_slot_in_period_edge_window(self):
        # With 8x256 the last window of each schedule period is the single
        # cycle 255, which touches slots 251-254; pin one of them and run
        # calls that stop inside, end on and cross the period edge.
        faults = [StuckAtFault(253, 9.0)]
        windowed = FaultyBnnWallaceGrng(faults, units=8, pool_size=256, seed=2)
        loop = FaultyBnnWallaceGrng(faults, units=8, pool_size=256, seed=2)
        for count in (32 * 255, 32, 40, 32 * 300):
            assert windowed.generate(count).tobytes() == loop.generate_loop(count).tobytes()
            assert windowed._grng.pools.tobytes() == loop._grng.pools.tobytes()
            assert windowed._grng._phase == loop._grng._phase


class TestRandomSeuFaults:
    def test_counts_and_bounds(self):
        faults = random_seu_faults(20, depth=255, seed=0)
        assert len(faults) == 20
        assert all(0 <= f.location < 255 for f in faults)
        assert all(f.value in (0.0, 1.0) for f in faults)

    def test_unique_locations(self):
        faults = random_seu_faults(50, depth=64, seed=1)
        locations = [f.location for f in faults]
        assert len(set(locations)) == len(locations)

    def test_analog_faults(self):
        faults = random_seu_faults(5, depth=64, seed=2, binary=False)
        assert any(f.value not in (0.0, 1.0) for f in faults)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            random_seu_faults(-1, depth=10)
        with pytest.raises(ConfigurationError):
            random_seu_faults(1, depth=0)

    def test_count_beyond_depth_rejected(self):
        # Locations are distinct; a request for more faults than rows
        # must raise instead of silently capping the fault load.
        with pytest.raises(ConfigurationError):
            random_seu_faults(11, depth=10)
        assert len(random_seu_faults(10, depth=10)) == 10
