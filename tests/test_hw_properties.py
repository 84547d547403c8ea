"""Property-based tests on the hardware models (hypothesis).

Invariants that must hold across the whole configuration space, not just
the paper's design point: schedule monotonicity, resource-model
monotonicity, and weight-generator output bounds.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hw.config import ArchitectureConfig
from repro.hw.controller import schedule_network
from repro.hw.resources import full_design_resources, grng_resources, system_power_mw

pe_inputs = st.sampled_from([4, 8, 16])
pe_sets = st.integers(min_value=1, max_value=12)
bit_lengths = st.sampled_from([6, 8, 12])


def _config(t, n, b, kind="rlf"):
    return ArchitectureConfig(
        pe_sets=t, pes_per_set=n, pe_inputs=n, bit_length=b,
        max_word_size=4096, grng_kind=kind,
    )


class TestScheduleProperties:
    @settings(max_examples=40, deadline=None)
    @given(pe_sets, pe_inputs, st.integers(min_value=32, max_value=512))
    def test_cycles_positive_and_bounded(self, t, n, hidden):
        config = _config(t, n, 8)
        sizes = (784, hidden, 10)
        if not config.writeback_feasible(min(sizes[:-1])):
            return
        schedule = schedule_network(config, sizes)
        assert schedule.cycles_per_sample > 0
        # Lower bound: total MACs / array MACs.
        macs = sum(a * b for a, b in zip(sizes[:-1], sizes[1:]))
        assert schedule.cycles_per_sample >= macs / (config.total_pes * n)

    @settings(max_examples=30, deadline=None)
    @given(pe_inputs, st.integers(min_value=64, max_value=400))
    def test_more_pe_sets_never_more_compute(self, n, hidden):
        # Compute cycles are monotone in array size; *total* cycles can tick
        # up slightly because the drain constant grows with T, so the
        # monotonicity claim is on the compute portion.
        sizes = (784, hidden, 10)
        previous = None
        for t in (1, 2, 4, 8):
            config = _config(t, n, 8)
            if not config.writeback_feasible(min(sizes[:-1])):
                continue
            schedule = schedule_network(config, sizes)
            compute = sum(layer.compute_cycles for layer in schedule.layers)
            if previous is not None:
                assert compute <= previous
            previous = compute

    @settings(max_examples=30, deadline=None)
    @given(pe_sets, pe_inputs)
    def test_gaussian_demand_independent_of_array(self, t, n):
        config = _config(t, n, 8)
        sizes = (784, 100, 10)
        if not config.writeback_feasible(100):
            return
        schedule = schedule_network(config, sizes)
        expected = 784 * 100 + 100 + 100 * 10 + 10
        assert schedule.gaussian_samples_per_image == expected


class TestResourceProperties:
    @settings(max_examples=25, deadline=None)
    @given(st.sampled_from(["rlf", "bnnwallace"]), st.integers(min_value=2, max_value=64))
    def test_grng_resources_monotone_in_lanes(self, kind, quarter_lanes):
        lanes = quarter_lanes * 4
        small = grng_resources(kind, lanes)
        large = grng_resources(kind, lanes * 2)
        assert large.alms >= small.alms
        assert large.registers >= small.registers
        assert large.memory_bits >= small.memory_bits
        assert large.power_mw >= small.power_mw

    @settings(max_examples=25, deadline=None)
    @given(pe_sets, pe_inputs, bit_lengths)
    def test_full_design_reports_positive(self, t, n, b):
        config = _config(t, n, b)
        report = full_design_resources(config, (784, 100, 10))
        assert report.alms > 0
        assert report.memory_bits > 0
        assert 0 < report.dsps <= 342
        assert system_power_mw(config) > 0

    @settings(max_examples=20, deadline=None)
    @given(pe_sets, pe_inputs)
    def test_rlf_design_always_more_efficient(self, t, n):
        # Table 5's conclusion must hold across the design space, not just
        # at the paper point.
        rlf = system_power_mw(_config(t, n, 8, "rlf"))
        wal = system_power_mw(_config(t, n, 8, "bnnwallace"))
        assert rlf < wal


class TestWeightGeneratorProperties:
    @settings(max_examples=20, deadline=None)
    @given(
        st.sampled_from([4, 5, 6, 7, 8, 10, 12, 16]),
        st.sampled_from(["numpy", "rlf"]),
        st.integers(min_value=0, max_value=2**31),
    )
    def test_outputs_always_in_weight_format(self, bits, grng_name, seed):
        # Extreme mu/sigma codes through the weight generator
        # (sample_weight_stacks): the int16 updater for B <= 8, the int64
        # one above, both saturating into the weight format.
        from repro.bnn.quantized import QuantizedBayesianNetwork, weight_format
        from repro.grng.factory import make_grng

        fmt = weight_format(bits)
        rng = np.random.default_rng(seed)
        extremes = np.array([fmt.min_value, 0.0, fmt.max_value])
        posterior = [{
            "mu_weights": rng.choice(extremes, size=(8, 4)),
            "sigma_weights": rng.choice(extremes[1:], size=(8, 4)),
            "mu_bias": np.zeros(4),
            "sigma_bias": rng.choice(extremes[1:], size=4),
        }]
        quantized = QuantizedBayesianNetwork(
            posterior, bit_length=bits, grng=make_grng(grng_name, seed=seed % 1000)
        )
        (w, _), = quantized.sample_weight_stacks(3)
        assert w.dtype == (np.int16 if bits <= 8 else np.int64)
        assert w.max() <= fmt.max_int
        assert w.min() >= fmt.min_int
