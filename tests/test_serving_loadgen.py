"""Tests for the load generators' accounting (window/drain split)."""

import numpy as np
import pytest

from repro.bnn.bayesian import BayesianNetwork
from repro.errors import ConfigurationError
from repro.serving.loadgen import LoadStats, run_closed_loop, run_open_loop
from repro.serving.metrics import percentile_dict
from repro.serving.resilience import FaultPlan, ResilienceConfig
from repro.serving.service import BnnService, ServiceConfig


def _service(**overrides):
    config = ServiceConfig(
        workers=0, cache_capacity=0, max_batch=8, max_wait_ms=0.0, **overrides
    )
    service = BnnService(config=config)
    network = BayesianNetwork((6, 5, 3), seed=0, initial_sigma=0.05)
    service.register_network("m", network, n_samples=2, grng="numpy", seed=0)
    return service


X = np.random.default_rng(0).random((4, 6))


class TestOpenLoopAccounting:
    def test_window_and_drain_measured_separately(self):
        with _service() as service:
            stats = run_open_loop(
                service, "m", X, rate_rps=400.0, duration_s=0.2, seed=1
            )
        assert stats.window_s > 0
        assert stats.drain_s >= 0
        assert stats.duration_s >= stats.window_s
        # duration is exactly window + drain (measured once each).
        assert stats.duration_s == stats.window_s + stats.drain_s

    def test_throughput_divides_by_arrival_window(self):
        with _service() as service:
            stats = run_open_loop(
                service, "m", X, rate_rps=400.0, duration_s=0.2, seed=2
            )
        assert stats.completed > 0
        assert stats.throughput_rps == stats.completed / stats.window_s
        # The seed bug: dividing by the full duration (window + drain)
        # understates the rate whenever any drain happened.
        if stats.drain_s > 0:
            assert stats.throughput_rps > stats.completed / stats.duration_s

    def test_render_reports_both_intervals(self):
        with _service() as service:
            stats = run_open_loop(
                service, "m", X, rate_rps=200.0, duration_s=0.1, seed=3
            )
        text = stats.render()
        assert "arrival window" in text
        assert "drain" in text


class TestClosedLoopAccounting:
    def test_closed_loop_keeps_wall_clock_basis(self):
        with _service() as service:
            stats = run_closed_loop(service, "m", X, total_requests=20, window=8)
        assert stats.window_s == 0.0
        assert stats.drain_s == 0.0
        assert stats.throughput_rps == stats.completed / stats.duration_s
        assert "arrival window" not in stats.render()

    def test_zero_duration_safe(self):
        stats = LoadStats(pattern="x", offered=0, completed=0)
        assert stats.throughput_rps == 0.0


class TestSampleExportSatellite:
    def test_submit_ts_aligned_with_latencies(self):
        with _service() as service:
            stats = run_closed_loop(service, "m", X, total_requests=20, window=8)
        assert len(stats.submit_ts) == len(stats.latencies_s) == stats.completed
        # perf_counter stamps: monotone non-negative, and all inside the run.
        assert all(ts > 0 for ts in stats.submit_ts)

    def test_mean_max_and_summary(self):
        stats = LoadStats(
            pattern="closed", offered=3, completed=3,
            latencies_s=[0.010, 0.020, 0.060], submit_ts=[1.0, 2.0, 3.0],
        )
        assert stats.latency_mean() == (0.010 + 0.020 + 0.060) / 3
        assert stats.latency_max() == 0.060
        summary = stats.summary()
        assert summary["mean"] == stats.latency_mean()
        assert summary["max"] == 0.060
        assert "p99" in summary
        assert "mean=" in stats.render() and "max=" in stats.render()

    def test_export_samples_jsonl(self, tmp_path):
        import json

        with _service() as service:
            stats = run_closed_loop(service, "m", X, total_requests=12, window=4)
        path = tmp_path / "nested" / "samples.jsonl"
        written = stats.export_samples(path)
        assert written == path
        rows = [json.loads(line) for line in path.read_text().splitlines()]
        assert len(rows) == stats.completed
        assert all(set(r) == {"submit_ts", "latency_s"} for r in rows)
        assert [r["latency_s"] for r in rows] == stats.latencies_s



class TestLoadgenValidation:
    @pytest.mark.parametrize(
        "images", [np.zeros(6), np.zeros((0, 6))], ids=["one-dimensional", "empty"]
    )
    def test_closed_loop_rejects_malformed_images(self, images):
        with _service() as service:
            with pytest.raises(ConfigurationError, match="images"):
                run_closed_loop(service, "m", images, total_requests=4)

    @pytest.mark.parametrize(
        "kwargs", [{"total_requests": 0}, {"total_requests": 4, "window": 0}]
    )
    def test_closed_loop_rejects_non_positive_counts(self, kwargs):
        with _service() as service:
            with pytest.raises(ConfigurationError, match="must be positive"):
                run_closed_loop(service, "m", X, **kwargs)

    @pytest.mark.parametrize(
        "kwargs",
        [{"rate_rps": 0.0, "duration_s": 0.1}, {"rate_rps": 100.0, "duration_s": 0.0}],
        ids=["rate", "duration"],
    )
    def test_open_loop_rejects_non_positive_rate_and_duration(self, kwargs):
        with _service() as service:
            with pytest.raises(ConfigurationError, match="must be positive"):
                run_open_loop(service, "m", X, **kwargs)

    def test_open_loop_rejects_malformed_images(self):
        with _service() as service:
            with pytest.raises(ConfigurationError, match="images"):
                run_open_loop(service, "m", np.zeros(6), rate_rps=100.0, duration_s=0.1)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"slo": "batch", "slo_weights": {"batch": 1.0}},
            {"slo_weights": {}},
            {"slo_weights": {"gold": 1.0}},
            {"slo_weights": {"batch": -1.0, "interactive": 2.0}},
            {"slo_weights": {"batch": 0.0}},
        ],
        ids=["with-fixed-slo", "empty", "unknown-class", "negative", "zero-sum"],
    )
    def test_open_loop_rejects_bad_slo_weights(self, kwargs, monkeypatch):
        with _service() as service:
            submitted = []
            monkeypatch.setattr(service, "submit", lambda *a, **k: submitted.append(a))
            with pytest.raises(ConfigurationError):
                run_open_loop(service, "m", X, rate_rps=100.0, duration_s=0.05, **kwargs)
        assert submitted == []  # rejected before the first arrival


class TestOpenLoopArrivals:
    def test_same_seed_offers_the_same_arrivals(self):
        # The arrival count depends only on the seeded exponential draws
        # and the window, never on how fast the service answers.
        offered = []
        for _ in range(2):
            with _service() as service:
                stats = run_open_loop(
                    service, "m", X, rate_rps=300.0, duration_s=0.1, seed=7
                )
            assert stats.completed + stats.dropped + stats.failed == stats.offered
            offered.append(stats.offered)
        assert offered[0] == offered[1] > 0

    def test_burst_window_multiplies_the_arrival_rate(self):
        plan = FaultPlan(bursts=[(0.0, 1.0, 4.0)])
        with _service() as service:
            calm = run_open_loop(service, "m", X, rate_rps=200.0, duration_s=0.1, seed=4)
        with _service() as service:
            burst = run_open_loop(
                service, "m", X, rate_rps=200.0, duration_s=0.1, seed=4, fault_plan=plan
            )
        # Same draw sequence with every gap divided by 4: four times the
        # arrivals of the calm twin, to within the last partial gap.
        assert burst.offered >= 3 * calm.offered > 0

    def test_slo_weights_tag_each_completion_with_a_weighted_class(self):
        weights = {"interactive": 1.0, "batch": 1.0}
        with _service(resilience=ResilienceConfig()) as service:
            stats = run_open_loop(
                service, "m", X, rate_rps=400.0, duration_s=0.1, seed=5,
                slo_weights=weights,
            )
        assert stats.completed > 0
        assert set(stats.latencies_by_slo) <= set(weights)
        assert sum(len(v) for v in stats.latencies_by_slo.values()) == stats.completed
        for slo, samples in stats.latencies_by_slo.items():
            assert stats.slo_percentiles(slo)["p50"] == percentile_dict(samples)["p50"]
        assert stats.slo_percentiles("best_effort") == percentile_dict([])
