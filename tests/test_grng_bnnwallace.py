"""Tests for the BNNWallace-GRNG and Wallace-NSS ablation (§4.2.2)."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.grng.bnnwallace import BnnWallaceGrng, WallaceNssGrng, _schedule
from repro.grng.quality import runs_test, stability_error


class TestBnnWallaceConstruction:
    def test_defaults_match_paper(self):
        grng = BnnWallaceGrng()
        assert grng.units == 8
        assert grng.pool_size == 256
        assert grng.total_pool_size == 2048

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            BnnWallaceGrng(units=0)
        with pytest.raises(ConfigurationError):
            BnnWallaceGrng(pool_size=10)


class TestSharingAndShifting:
    def test_step_output_size(self):
        grng = BnnWallaceGrng(units=8, pool_size=64, seed=0)
        assert grng.step().shape == (32,)

    def test_writeback_shifted_by_one_number(self):
        grng = BnnWallaceGrng(units=4, pool_size=16, seed=0)
        slots = grng._slots()
        before = grng.pools.copy()
        generated = grng.step()
        # The flattened output stream, rotated by one number, is what lands
        # back in the pools — each unit keeps 3 of its own outputs and
        # receives 1 from its neighbour.
        expected = np.roll(generated, 1).reshape(4, 4)
        assert np.allclose(grng.pools[:, slots], expected)
        # Untouched slots unchanged.
        untouched = np.setdiff1d(np.arange(16), slots)
        assert np.allclose(grng.pools[:, untouched], before[:, untouched])

    def test_total_energy_preserved_by_cycle(self):
        # Each unit applies an orthogonal map and the shift only permutes
        # rows, so the total pool energy is invariant.
        grng = BnnWallaceGrng(units=8, pool_size=64, seed=1)
        energy_before = float((grng.pools**2).sum())
        for _ in range(200):
            grng.step()
        assert float((grng.pools**2).sum()) == pytest.approx(energy_before, rel=1e-9)

    def test_phase_advances_every_cycle(self):
        # The per-cycle phase is what decorrelates consecutive pool passes
        # (see the class docstring).
        grng = BnnWallaceGrng(units=2, pool_size=16, seed=2)
        for expected_phase in range(1, 6):
            grng.step()
            assert grng._phase == expected_phase

    def test_numbers_flow_through_all_units(self):
        # Tag unit 0's pool with huge values; after enough cycles every
        # unit's pool variance must be contaminated (values propagated).
        grng = BnnWallaceGrng(units=4, pool_size=16, seed=3)
        grng.pools[0, :] = 1000.0
        for _ in range(64):
            grng.step()
        for unit in range(4):
            assert np.abs(grng.pools[unit]).max() > 10.0


class TestBnnWallaceQuality:
    def test_moments(self):
        samples = BnnWallaceGrng(units=8, pool_size=256, seed=4).generate(50_000)
        result = stability_error(samples)
        assert result.mu_error < 0.05
        assert result.sigma_error < 0.05

    def test_passes_runs_test_typically(self):
        passes = 0
        for seed in range(5):
            samples = BnnWallaceGrng(units=8, pool_size=256, seed=seed).generate(20_000)
            if runs_test(samples).passed():
                passes += 1
        assert passes >= 4

    def test_generate_exact_count(self):
        grng = BnnWallaceGrng(units=8, pool_size=64, seed=5)
        assert grng.generate(77).shape == (77,)


def assert_same_state(fast, loop):
    assert fast.pools.tobytes() == loop.pools.tobytes()
    assert fast._addr == loop._addr
    assert fast._phase == loop._phase


CONFIGS = [(1, 8), (4, 64), (8, 256), (16, 256), (3, 1024)]


class TestScheduledKernel:
    """``generate`` (per-period gather/scatter schedule) vs the step loop."""

    @pytest.mark.parametrize("units,pool_size", CONFIGS)
    def test_block_equals_step_loop_bytes(self, units, pool_size):
        fast = BnnWallaceGrng(units=units, pool_size=pool_size, seed=11)
        loop = BnnWallaceGrng(units=units, pool_size=pool_size, seed=11)
        count = 3 * units * 4 * pool_size + 5  # three periods and a partial cycle
        assert fast.generate(count).tobytes() == loop.generate_loop(count).tobytes()
        assert_same_state(fast, loop)

    @pytest.mark.parametrize("units,pool_size", CONFIGS)
    def test_split_calls_across_period_boundaries(self, units, pool_size):
        fast = BnnWallaceGrng(units=units, pool_size=pool_size, seed=4)
        loop = BnnWallaceGrng(units=units, pool_size=pool_size, seed=4)
        per_cycle = units * 4
        period = per_cycle * pool_size
        counts = [1, per_cycle * (pool_size - 2), 3 * per_cycle + 1, period, 7, period + 13]
        for count in counts:
            assert fast.generate(count).tobytes() == loop.generate_loop(count).tobytes()
            assert_same_state(fast, loop)

    def test_zero_count_leaves_state_untouched(self):
        grng = BnnWallaceGrng(units=4, pool_size=64, seed=0)
        grng.generate(100)
        before = (grng.pools.tobytes(), grng._addr, grng._phase)
        assert grng.generate(0).shape == (0,)
        assert (grng.pools.tobytes(), grng._addr, grng._phase) == before

    def test_paper_config_period_has_six_windows(self):
        ends, gather, scatter = _schedule(8, 256)
        assert ends == (51, 102, 153, 204, 255, 256)
        assert gather.shape == (4, 256 * 8)
        assert scatter.shape == (256 * 8, 4)
        assert not gather.flags.writeable and not scatter.flags.writeable
        assert _schedule(8, 256) is _schedule(8, 256)  # shared across generators

    @pytest.mark.parametrize("units,pool_size", CONFIGS)
    def test_windows_never_read_their_own_writes(self, units, pool_size):
        ends = _schedule(units, pool_size)[0]
        starts = (0,) + ends[:-1]
        for start, stop in zip(starts, ends):
            slots = (5 * np.arange(start, stop)[:, None] + np.arange(4)) % pool_size
            assert len(np.unique(slots)) == slots.size


class TestWallaceNss:
    @pytest.mark.parametrize("pool_size", [8, 16, 256])
    def test_block_equals_step_loop_bytes(self, pool_size):
        fast = WallaceNssGrng(pool_size=pool_size, seed=2)
        loop = WallaceNssGrng(pool_size=pool_size, seed=2)
        for count in (1, 3, pool_size + 5, 4 * pool_size, 2, 10_000):
            assert fast.generate(count).tobytes() == loop.generate_loop(count).tobytes()
            assert fast.pool.tobytes() == loop.pool.tobytes()
            assert fast._addr == loop._addr

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            WallaceNssGrng(pool_size=6)

    def test_outputs_are_eventually_periodic(self):
        # A^4 = I, so each fixed slot group orbits with period 4: after
        # 4 full pool passes the stream repeats exactly.
        grng = WallaceNssGrng(pool_size=16, seed=0)
        stream = grng.generate(16 * 8)
        period = 16 * 4
        assert np.allclose(stream[:period], stream[period : 2 * period])

    def test_fails_runs_test_more_often_than_bnnwallace(self):
        # Fig. 15: Wallace-NSS fails randomness tests; the proposed design
        # passes.  Compare pass counts over several seeds.
        nss_passes = sum(
            runs_test(WallaceNssGrng(pool_size=256, seed=s).generate(50_000)).passed()
            for s in range(6)
        )
        good_passes = sum(
            runs_test(BnnWallaceGrng(units=8, pool_size=256, seed=s).generate(50_000)).passed()
            for s in range(6)
        )
        assert nss_passes < good_passes

    def test_moments_still_fine(self):
        # NSS fails on *randomness*, not on marginal moments: the orbit is
        # norm-preserving, so mu/sigma stay near (0, 1).
        samples = WallaceNssGrng(pool_size=256, seed=1).generate(20_000)
        result = stability_error(samples)
        assert result.mu_error < 0.1
        assert result.sigma_error < 0.1
