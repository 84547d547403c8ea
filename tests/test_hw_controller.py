"""Tests for layer scheduling and cycle accounting."""

import pytest

from repro.errors import SchedulingError
from repro.hw.config import ArchitectureConfig
from repro.hw.controller import WEIGHT_GENERATOR_PIPELINE_STAGES, schedule_network
from repro.hw.pe import PE_PIPELINE_STAGES


class TestLayerSchedule:
    def test_paper_network_compute_cycles(self):
        cfg = ArchitectureConfig.paper()
        schedule = schedule_network(cfg, (784, 200, 200, 10))
        layers = schedule.layers
        # Layer 1: ceil(784/8)=98 iterations x ceil(200/128)=2 groups.
        assert layers[0].iterations == 98
        assert layers[0].groups == 2
        assert layers[0].compute_cycles == 196
        # Layer 2: 25 x 2.
        assert layers[1].compute_cycles == 50
        # Layer 3: 25 x 1.
        assert layers[2].compute_cycles == 25

    def test_paper_throughput_within_one_percent(self):
        # Table 5: 321,543.4 images/s.
        cfg = ArchitectureConfig.paper()
        schedule = schedule_network(cfg, (784, 200, 200, 10))
        ips = schedule.images_per_second()
        assert ips == pytest.approx(321_543.4, rel=0.01)

    def test_mc_samples_divide_throughput(self):
        cfg = ArchitectureConfig.paper()
        schedule = schedule_network(cfg, (784, 200, 200, 10))
        single = schedule.images_per_second(n_samples=1)
        ten = schedule.images_per_second(n_samples=10)
        assert ten == pytest.approx(single / 10)

    def test_gaussian_samples_per_image(self):
        cfg = ArchitectureConfig.paper()
        schedule = schedule_network(cfg, (784, 200, 200, 10))
        expected = 784 * 200 + 200 + 200 * 200 + 200 + 200 * 10 + 10
        assert schedule.gaussian_samples_per_image == expected

    def test_mac_utilization_bounds(self):
        cfg = ArchitectureConfig.paper()
        schedule = schedule_network(cfg, (784, 200, 200, 10))
        for layer in schedule.layers:
            assert 0.0 < layer.mac_utilization <= 1.0

    def test_pipeline_fill_includes_weight_generator_stages(self):
        # §5.5: two DFF stages (GRNG -> updater -> PE) ahead of the PE's three.
        assert WEIGHT_GENERATOR_PIPELINE_STAGES == 2
        schedule = schedule_network(ArchitectureConfig.paper(), (784, 200, 10))
        for layer in schedule.layers:
            assert layer.fill_cycles == PE_PIPELINE_STAGES + WEIGHT_GENERATOR_PIPELINE_STAGES

    def test_small_layer_underutilises(self):
        # The 200->10 output layer uses 10 of 128 PEs.
        cfg = ArchitectureConfig.paper()
        schedule = schedule_network(cfg, (784, 200, 200, 10))
        assert schedule.layers[2].mac_utilization < 0.1


class TestSchedulingErrors:
    def test_too_few_layers(self):
        with pytest.raises(SchedulingError):
            schedule_network(ArchitectureConfig.paper(), (784,))

    def test_zero_layer_size(self):
        with pytest.raises(SchedulingError):
            schedule_network(ArchitectureConfig.paper(), (784, 0, 10))

    def test_writeback_infeasible(self):
        cfg = ArchitectureConfig(pe_sets=32, pes_per_set=8, pe_inputs=8)
        with pytest.raises(SchedulingError, match="write-back"):
            schedule_network(cfg, (784, 64, 10))

    def test_bad_sample_count(self):
        schedule = schedule_network(ArchitectureConfig.paper(), (784, 200, 10))
        with pytest.raises(SchedulingError):
            schedule.cycles_per_image(0)
