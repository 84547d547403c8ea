"""Tests for the RLF-GRNG (§4.1): equivalence proofs and invariants.

The load-bearing properties:

* the RAM-based update (eq. 10) is bit-exact against the shifting LFSR of
  eq. (9) under the head-relative index mapping;
* the combined double-step cycle (eqs. 12a-e) equals two single steps;
* the incrementally maintained popcount always equals the true popcount
  (the Fig. 7 subtractor/accumulator datapath is exact);
* the steady-state RAM schedule fits 3 two-port blocks (Fig. 6);
* the output delta per cycle is bounded by +-3 (single) / +-5 (double).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError, MemoryPortConflictError
from repro.grng.clt import BinomialLfsrGrng
from repro.grng.rlf import (
    DOUBLE_STEP_OPS,
    RLF_INJECT_TAPS,
    ParallelRlfGrng,
    RamTrace,
    RlfGrng,
    RlfLogic,
    double_step_ops,
    standardize_codes,
)
from repro.rng.lfsr import ShiftHeadLfsr
from repro.utils.bitops import bits_to_int, int_to_bits


def _random_bits(width: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    bits = rng.integers(0, 2, size=width, dtype=np.uint8)
    if not bits.any():
        bits[0] = 1
    return bits


class TestEquivalenceWithShiftLfsr:
    """RLF logic == the paper's eq.-(9) LFSR, bit for bit."""

    @pytest.mark.parametrize("width,taps", [(8, (4, 5, 6)), (16, (9, 12, 13)), (255, RLF_INJECT_TAPS)])
    def test_single_step_matches_shift_lfsr(self, width, taps):
        bits = _random_bits(width, seed=width)
        rlf = RlfLogic(width=width, inject_taps=taps, seed_bits=bits.copy())
        lfsr = ShiftHeadLfsr(width=width, inject_taps=taps, seed=bits_to_int(bits))
        for step in range(min(3 * width, 600)):
            rlf.single_step()
            lfsr.step()
            # Mapping: register i (1-based) of the shifting LFSR lives at
            # RAM position (head + i - 1) mod width.
            reconstructed = np.array(
                [rlf.state[(rlf.head + i) % width] for i in range(width)],
                dtype=np.uint8,
            )
            assert bits_to_int(reconstructed) == lfsr.state, f"diverged at step {step}"

    def test_popcount_matches_shift_lfsr(self):
        bits = _random_bits(255, seed=9)
        rlf = RlfLogic(seed_bits=bits.copy())
        lfsr = ShiftHeadLfsr(255, RLF_INJECT_TAPS, seed=bits_to_int(bits))
        for _ in range(400):
            count = rlf.single_step()
            lfsr.step()
            assert count == lfsr.popcount()


class TestDoubleStep:
    def test_double_step_ops_match_paper_equations(self):
        # eqs. (12a)-(12e) written as (tap, head) pairs, offset 253 twice.
        assert double_step_ops(255, RLF_INJECT_TAPS) == DOUBLE_STEP_OPS
        assert sorted(DOUBLE_STEP_OPS) == sorted(
            [(250, 0), (251, 1), (252, 0), (253, 0), (253, 1), (254, 1)]
        )

    @pytest.mark.parametrize("seed", [0, 1, 7])
    def test_equals_two_single_steps(self, seed):
        bits = _random_bits(255, seed)
        combined = RlfLogic(seed_bits=bits.copy())
        stepwise = RlfLogic(seed_bits=bits.copy())
        for _ in range(200):
            combined.step()
            stepwise.single_step()
            stepwise.single_step()
            assert (combined.state == stepwise.state).all()
            assert combined.head == stepwise.head
            assert combined.count == stepwise.count

    def test_invalid_tap_for_double_step(self):
        with pytest.raises(ConfigurationError, match="double-step"):
            double_step_ops(255, (254,))
        with pytest.raises(ConfigurationError, match="double-step"):
            double_step_ops(255, (1,))


class TestPopcountInvariant:
    def test_incremental_count_always_exact(self):
        logic = RlfLogic.from_seed(3)
        for _ in range(300):
            logic.step()
            assert logic.count == logic.popcount()

    def test_single_step_count_exact(self):
        logic = RlfLogic.from_seed(4)
        for _ in range(300):
            logic.single_step()
            assert logic.count == logic.popcount()

    def test_delta_bounds(self):
        # §4.1.2: single update delta <= 3 (tap count); combined <= 5.
        single = RlfLogic.from_seed(5)
        prev = single.count
        for _ in range(500):
            current = single.single_step()
            assert abs(current - prev) <= 3
            prev = current
        double = RlfLogic.from_seed(5)
        prev = double.count
        for _ in range(500):
            current = double.step()
            assert abs(current - prev) <= 5
            prev = current

    def test_double_step_widens_delta_support(self):
        # The whole point of eqs. (12): deltas of magnitude 4 and 5 occur.
        logic = RlfLogic.from_seed(6)
        prev = logic.count
        deltas = set()
        for _ in range(3000):
            current = logic.step()
            deltas.add(current - prev)
            prev = current
        assert max(abs(d) for d in deltas) > 3


class TestRamSchedule:
    def test_three_block_two_port_budget_never_violated(self):
        logic = RlfLogic.from_seed(11, track_ram=True)
        for _ in range(1000):
            logic.step()  # RamTrace.end_cycle raises on violation
        trace = logic.ram_trace
        assert trace.cycles == 1000

    def test_bandwidth_within_paper_claim(self):
        # Paper claims 3 reads + 2 writes/cycle; the buffered schedule here
        # needs only 2 + 2.
        logic = RlfLogic.from_seed(12, track_ram=True)
        for _ in range(100):
            logic.step()
        assert logic.ram_trace.reads_per_cycle <= 3
        assert logic.ram_trace.writes_per_cycle <= 2

    def test_ram_trace_detects_conflicts(self):
        trace = RamTrace()
        trace.begin_cycle()
        trace.read(0)
        trace.read(3)
        trace.write(6)  # three accesses to block 0
        with pytest.raises(MemoryPortConflictError):
            trace.end_cycle()


class TestConstruction:
    def test_rejects_zero_seed(self):
        with pytest.raises(ConfigurationError, match="non-zero"):
            RlfLogic(seed_bits=np.zeros(255, dtype=np.uint8))

    def test_rejects_bad_shape(self):
        with pytest.raises(ConfigurationError, match="shape"):
            RlfLogic(seed_bits=np.ones(10, dtype=np.uint8))

    def test_rejects_small_width(self):
        with pytest.raises(ConfigurationError):
            RlfLogic(width=4, inject_taps=(2,))

    def test_rejects_tap_out_of_range(self):
        with pytest.raises(ConfigurationError):
            RlfLogic(width=16, inject_taps=(16,), seed_bits=1)

    def test_integer_seed(self):
        logic = RlfLogic(width=8, inject_taps=(4, 5, 6), seed_bits=0b1010)
        assert (logic.state == int_to_bits(0b1010, 8)).all()


class TestRlfGrng:
    def test_codes_in_8bit_range(self):
        codes = RlfGrng(seed=0).generate_codes(500)
        assert codes.min() >= 0 and codes.max() <= 255

    def test_standardized_moments(self):
        samples = RlfGrng(seed=0).generate(20000)
        assert abs(samples.mean()) < 0.3  # single lane: slow-mixing walk
        assert abs(samples.std() - 1.0) < 0.15

    def test_standardize_codes_formula(self):
        out = standardize_codes(np.array([127.5]), 255)
        assert out[0] == pytest.approx(0.0)
        one_sigma = standardize_codes(np.array([127.5 + np.sqrt(255 / 4)]), 255)
        assert one_sigma[0] == pytest.approx(1.0)

    def test_negative_count_rejected(self):
        with pytest.raises(ConfigurationError):
            RlfGrng(seed=0).generate(-1)


class TestParallelRlfGrng:
    def test_lane_count_validation(self):
        with pytest.raises(ConfigurationError):
            ParallelRlfGrng(lanes=6)
        with pytest.raises(ConfigurationError):
            ParallelRlfGrng(lanes=0)

    def test_step_emits_one_code_per_lane(self):
        grng = ParallelRlfGrng(lanes=16, seed=0)
        codes = grng.step()
        assert codes.shape == (16,)
        assert (codes >= 0).all() and (codes <= 255).all()

    def test_counts_match_state_popcounts(self):
        grng = ParallelRlfGrng(lanes=8, seed=1, multiplex_outputs=False)
        for _ in range(100):
            codes = grng.step()
            assert (codes == grng.state.sum(axis=0)).all()

    def test_lanes_evolve_independently(self):
        grng = ParallelRlfGrng(lanes=8, seed=2, multiplex_outputs=False)
        codes = np.array([grng.step() for _ in range(64)])
        # Different lanes should not produce identical code streams.
        for i in range(8):
            for j in range(i + 1, 8):
                assert not (codes[:, i] == codes[:, j]).all()

    def test_multiplexer_rotates_within_groups_of_four(self):
        plain = ParallelRlfGrng(lanes=8, seed=3, multiplex_outputs=False)
        muxed = ParallelRlfGrng(lanes=8, seed=3, multiplex_outputs=True)
        for cycle in range(8):
            raw = plain.step()
            rotated = muxed.step()
            expected = np.roll(raw.reshape(-1, 4), cycle % 4, axis=1).reshape(-1)
            assert (rotated == expected).all()

    def test_generate_exact_count(self):
        grng = ParallelRlfGrng(lanes=16, seed=4)
        assert grng.generate(50).shape == (50,)
        assert grng.generate(0).shape == (0,)

    def test_marginal_distribution_near_standard_normal(self):
        samples = ParallelRlfGrng(lanes=64, seed=5).generate(100_000)
        assert abs(samples.mean()) < 0.08
        assert abs(samples.std() - 1.0) < 0.05

    def test_dead_lane_resurrected(self):
        # Even if the seed RNG produced an all-zero lane it must be fixed up.
        grng = ParallelRlfGrng(lanes=4, seed=6)
        assert (grng.state.sum(axis=0) > 0).all()

    def test_single_step_mode(self):
        grng = ParallelRlfGrng(lanes=4, seed=7, double_step=False, multiplex_outputs=False)
        before = grng.counts.copy()
        after = grng.step()
        assert (np.abs(after - before) <= 3).all()


class TestRlfProperty:
    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_count_stays_in_code_range(self, seed):
        logic = RlfLogic.from_seed(seed)
        for _ in range(20):
            count = logic.step()
            assert 0 <= count <= 255


class TestWindowKernel:
    """The head-bit recurrence kernel must match per-step advancement."""

    @pytest.mark.parametrize("double_step", [True, False])
    @pytest.mark.parametrize("multiplex", [True, False])
    def test_generate_codes_matches_step_sequence(self, double_step, multiplex):
        kwargs = dict(lanes=16, seed=3, double_step=double_step, multiplex_outputs=multiplex)
        block_gen = ParallelRlfGrng(**kwargs)
        step_gen = ParallelRlfGrng(**kwargs)
        # Crosses several 250-step recurrence chunks.
        count = 16 * 300 + 5
        cycles = -(-count // 16)
        block = block_gen.generate_codes(count)
        reference = np.concatenate([step_gen.step() for _ in range(cycles)])[:count]
        assert np.array_equal(block, reference)
        assert block_gen.head == step_gen.head
        assert np.array_equal(block_gen.counts, step_gen.counts)
        assert np.array_equal(block_gen.state, step_gen.state)

    def test_chopped_requests_compose(self):
        chopped = ParallelRlfGrng(lanes=8, seed=4)
        whole = ParallelRlfGrng(lanes=8, seed=4)
        parts = [chopped.generate_codes(n) for n in (8, 128, 8 * 130)]
        # Each request rounds up to whole cycles; all are lane multiples
        # here, so the concatenation equals one big draw.
        assert np.array_equal(np.concatenate(parts), whole.generate_codes(8 * 147))

    @pytest.mark.parametrize("width,taps", [(16, (9, 12, 13)), (8, (4, 5, 6)), (32, (20, 27, 29))])
    def test_custom_widths_and_taps(self, width, taps):
        for double_step in (True, False):
            block_gen = ParallelRlfGrng(
                lanes=8, seed=1, width=width, inject_taps=taps, double_step=double_step
            )
            step_gen = ParallelRlfGrng(
                lanes=8, seed=1, width=width, inject_taps=taps, double_step=double_step
            )
            block = block_gen.generate_codes(8 * 50)
            reference = np.concatenate([step_gen.step() for _ in range(50)])
            assert np.array_equal(block, reference), (width, taps, double_step)
            assert np.array_equal(block_gen.state, step_gen.state)

    @pytest.mark.parametrize("double_step,cadence", [(True, 126), (False, 252)])
    def test_stuck_row_write_cadence_for_paper_design(self, double_step, cadence):
        # The fault injector re-pins at the first tap write onto a stuck
        # row.  Brute force over step()'s own written positions: every row
        # is written within 126 double-step (252 single-step) cycles.
        grng = ParallelRlfGrng(lanes=4, seed=0, double_step=double_step)
        stride = 2 if double_step else 1
        for head in (0, 1, 254):
            first_write = {}
            for cycle in range(300):
                for row in (head + cycle * stride + grng._cycle_taps) % 255:
                    first_write.setdefault(int(row), cycle + 1)
            assert len(first_write) == 255
            for row, expected in first_write.items():
                assert grng._kernel.cycles_until_write(head, np.array([row]), 400) == expected
            assert max(first_write.values()) == cadence
        assert grng._kernel.cycles_until_write(0, np.array([], dtype=np.int64), 7) == 7

    def test_counts_still_match_full_popcounts_after_block(self):
        grng = ParallelRlfGrng(lanes=8, seed=6, multiplex_outputs=False)
        grng.generate_codes(8 * 400)
        assert np.array_equal(grng.counts, grng.state.sum(axis=0))


DESIGNS = [(255, RLF_INJECT_TAPS), (16, (9, 12, 13)), (8, (4, 5, 6)), (32, (20, 27, 29))]


class TestKernelProperty:
    """``generate_codes`` equals the per-cycle ``step()`` loop, bit for bit."""

    @settings(max_examples=30, deadline=None)
    @given(
        lanes=st.sampled_from([4, 8, 64, 128]),
        design=st.sampled_from(DESIGNS),
        double_step=st.booleans(),
        multiplex=st.booleans(),
        seed=st.integers(min_value=0, max_value=2**16),
        requests=st.lists(
            st.tuples(st.integers(0, 300), st.integers(0, 127)), max_size=4
        ),
    )
    def test_generate_codes_matches_generate_codes_loop(
        self, lanes, design, double_step, multiplex, seed, requests
    ):
        width, taps = design
        kwargs = dict(
            lanes=lanes, seed=seed, width=width, inject_taps=taps,
            double_step=double_step, multiplex_outputs=multiplex,
        )
        fast = ParallelRlfGrng(**kwargs)
        loop = ParallelRlfGrng(**kwargs)
        for cycles, trim in requests:
            # Chopped requests: zero, and sizes that are not lane multiples.
            count = max(0, cycles * lanes - trim % lanes)
            codes = fast.generate_codes(count)
            assert codes.dtype == np.int64
            assert np.array_equal(codes, loop.generate_codes_loop(count))
            assert fast.head == loop.head and fast.cycle == loop.cycle
            assert np.array_equal(fast.counts, loop.counts)
            assert np.array_equal(fast.state, loop.state)

    @settings(max_examples=20, deadline=None)
    @given(
        design=st.sampled_from(DESIGNS),
        steps=st.integers(1, 3),
        seed=st.integers(min_value=0, max_value=2**16),
        requests=st.lists(st.integers(0, 400), max_size=4),
    )
    def test_binomial_lfsr_lane_matches_single_steps(self, design, steps, seed, requests):
        width, taps = design
        grng = BinomialLfsrGrng(
            seed=seed, width=width, inject_taps=taps, steps_per_sample=steps
        )
        logic = RlfLogic(width=width, inject_taps=taps, seed_bits=grng._state[:, 0].copy())
        for count in requests:
            reference = []
            for _ in range(count):
                for _ in range(steps):
                    logic.single_step()
                reference.append(logic.count)
            assert np.array_equal(grng.generate_codes(count), np.array(reference, dtype=np.int64))
            assert grng._head == logic.head
            assert np.array_equal(grng._state[:, 0], logic.state)
