"""Tests for the prediction cache and the service metrics."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.obs import parse_prometheus, render_prometheus
from repro.serving.batcher import PredictionTicket
from repro.serving.cache import PredictionCache, input_digest
from repro.serving.metrics import COUNTS, ServiceMetrics
from repro.serving.resilience import AdmissionController, ResilienceConfig
from repro.serving.weight_stack import WeightStackCache


class TestInputDigest:
    def test_depends_on_values(self):
        assert input_digest(np.zeros(4)) != input_digest(np.ones(4))
        assert input_digest(np.arange(4.0)) == input_digest(np.arange(4.0))

    def test_layout_independent(self):
        strided = np.arange(8.0)[::2]
        assert input_digest(strided) == input_digest(strided.copy())


def fill(cache, key, value):
    """Store ``value`` the way the service does: claim, then put."""
    ticket = PredictionTicket(key[0])
    assert cache.claim(key, ticket) is None
    return cache.put(key, ticket, value)


class TestPredictionCache:
    def test_miss_then_hit(self):
        cache = PredictionCache(capacity=4)
        key = PredictionCache.key("m", 1, 10, np.zeros(3))
        assert cache.get(key) is None
        assert fill(cache, key, np.array([0.5, 0.5]))
        assert np.array_equal(cache.get(key), [0.5, 0.5])
        assert np.array_equal(cache.claim(key, PredictionTicket("m")), [0.5, 0.5])

    def test_returns_defensive_copies(self):
        cache = PredictionCache(capacity=4)
        key = PredictionCache.key("m", 1, 10, np.zeros(3))
        fill(cache, key, np.array([0.5, 0.5]))
        cache.get(key)[0] = 99.0
        assert np.array_equal(cache.get(key), [0.5, 0.5])

    def test_version_changes_key(self):
        row = np.zeros(3)
        assert PredictionCache.key("m", 1, 10, row) != PredictionCache.key("m", 2, 10, row)
        assert PredictionCache.key("m", 1, 10, row) != PredictionCache.key("m", 1, 20, row)

    def test_lru_eviction(self):
        cache = PredictionCache(capacity=2)
        keys = [PredictionCache.key("m", 1, 10, np.full(3, v)) for v in range(3)]
        fill(cache, keys[0], np.zeros(2))
        fill(cache, keys[1], np.zeros(2))
        cache.get(keys[0])  # refresh 0; 1 becomes LRU
        fill(cache, keys[2], np.zeros(2))
        assert cache.get(keys[1]) is None
        assert cache.get(keys[0]) is not None

    def test_invalidate_model(self):
        cache = PredictionCache(capacity=8)
        for model in ("a", "b"):
            fill(cache, PredictionCache.key(model, 1, 10, np.zeros(3)), np.zeros(2))
        assert cache.invalidate_model("a") == 1
        assert len(cache) == 1
        assert cache.get(PredictionCache.key("b", 1, 10, np.zeros(3))) is not None

    def test_capacity_zero_disables(self):
        cache = PredictionCache(capacity=0)
        key = PredictionCache.key("m", 1, 10, np.zeros(3))
        first, second = PredictionTicket("m"), PredictionTicket("m")
        assert cache.claim(key, first) is None
        assert cache.claim(key, second) is None  # no coalescing either
        assert not cache.put(key, first, np.zeros(2))
        assert cache.get(key) is None and len(cache) == 0


class TestCacheClaims:
    key = PredictionCache.key("m", 1, 10, np.zeros(3))

    def test_second_claim_returns_the_in_flight_ticket(self):
        cache = PredictionCache(capacity=4)
        holder = PredictionTicket("m")
        assert cache.claim(self.key, holder) is None
        assert cache.claim(self.key, PredictionTicket("m")) is holder

    def test_put_without_the_claim_stores_nothing(self):
        cache = PredictionCache(capacity=4)
        holder, stranger = PredictionTicket("m"), PredictionTicket("m")
        assert not cache.put(self.key, stranger, np.zeros(2))  # never claimed
        cache.claim(self.key, holder)
        assert not cache.put(self.key, stranger, np.zeros(2))
        assert cache.put(self.key, holder, np.ones(2))
        assert not cache.put(self.key, holder, np.zeros(2))  # claim ended
        assert (cache.get(self.key) == 1.0).all()

    def test_claims_take_no_capacity_and_no_length(self):
        cache = PredictionCache(capacity=1)
        for value in (1, 2, 3):
            key = PredictionCache.key("m", 1, 10, np.full(3, value))
            cache.claim(key, PredictionTicket("m"))
        assert len(cache) == 0
        fill(cache, self.key, np.zeros(2))
        assert len(cache) == 1

    def test_release_hands_the_key_to_the_next_request(self):
        cache = PredictionCache(capacity=4)
        first, second = PredictionTicket("m"), PredictionTicket("m")
        cache.claim(self.key, first)
        cache.release(self.key, second)  # not the holder: no effect
        assert cache.claim(self.key, second) is first
        cache.release(self.key, first)
        assert cache.claim(self.key, second) is None

    def test_a_finished_holder_is_taken_over(self):
        cache = PredictionCache(capacity=4)
        finished, fresh = PredictionTicket("m"), PredictionTicket("m")
        cache.claim(self.key, finished)
        finished.set_exception(RuntimeError("left behind"))
        assert cache.claim(self.key, fresh) is None
        assert cache.put(self.key, fresh, np.ones(2))

    @pytest.mark.parametrize("keep_rows", [False, True])
    def test_invalidate_model_drops_claims(self, keep_rows):
        cache = PredictionCache(capacity=4)
        other = PredictionCache.key("m", 1, 10, np.ones(3))
        fill(cache, other, np.ones(2))
        holder = PredictionTicket("m")
        cache.claim(self.key, holder)
        cache.invalidate_model("m", keep_rows=keep_rows)
        assert not cache.put(self.key, holder, np.zeros(2))
        assert cache.get(self.key) is None
        assert (cache.get(other) is not None) == keep_rows

    def test_negative_capacity_rejected(self):
        with pytest.raises(ConfigurationError):
            PredictionCache(capacity=-1)


class TestServiceMetrics:
    def test_latency_percentiles(self):
        metrics = ServiceMetrics()
        for value in range(1, 101):
            metrics.record_latency(value / 1000.0)
        latency = metrics.latency_percentiles()
        assert latency["p50"] == pytest.approx(0.0505, abs=1e-4)
        assert latency["p99"] <= 0.1
        assert latency["p50"] <= latency["p95"] <= latency["p99"]

    def test_empty_percentiles_are_zero(self):
        assert ServiceMetrics().latency_percentiles() == {
            "p50": 0.0,
            "p95": 0.0,
            "p99": 0.0,
        }

    def test_latency_window_is_a_ring(self):
        metrics = ServiceMetrics(latency_window=4)
        for value in (1.0, 1.0, 1.0, 1.0, 5.0, 5.0, 5.0, 5.0):
            metrics.record_latency(value)
        assert metrics.latency_percentiles()["p50"] == 5.0
        assert metrics.count("requests_served") == 8

    def test_batch_histogram_and_mean(self):
        metrics = ServiceMetrics()
        for size in (1, 64, 64, 7):
            metrics.record_batch(size)
        assert metrics.batch_histogram() == {1: 1, 7: 1, 64: 2}
        assert metrics.snapshot()["mean_batch_size"] == pytest.approx(34.0)

    def test_queue_depth_tracks_maximum(self):
        metrics = ServiceMetrics()
        for depth in (3, 9, 2):
            metrics.record_queue_depth(depth)
        assert metrics.count("max_queue_depth") == 9
        assert metrics.count("last_queue_depth") == 2

    def test_cache_and_overload_counters(self):
        metrics = ServiceMetrics()
        metrics.record_cache(True)
        metrics.record_cache(False)
        metrics.record_cache(False)
        metrics.record_overload()
        snap = metrics.snapshot()
        assert snap["cache_hit_rate"] == pytest.approx(1 / 3)
        assert snap["overloads"] == 1
        assert snap["cache_hits"] == 1 and snap["cache_misses"] == 2

    def test_render_mentions_every_section(self):
        metrics = ServiceMetrics()
        metrics.record_latency(0.01)
        metrics.record_batch(4)
        text = metrics.render()
        for fragment in ("requests served", "batch histogram", "latency", "cache", "queue depth"):
            assert fragment in text

    def test_every_count_names_a_registered_series(self):
        """A typo in :data:`COUNTS` would read a silent 0 forever."""
        metrics = ServiceMetrics()
        metrics.attach_stack_cache(WeightStackCache())
        for key, (name, labels) in COUNTS.items():
            metric = metrics.registry.get(name)
            assert metric is not None, key
            assert not labels or tuple(labels) == metric.labels, key

    def test_bad_window_rejected(self):
        with pytest.raises(ConfigurationError):
            ServiceMetrics(latency_window=0)


class TestResilienceCounters:
    def test_shed_counts_by_class(self):
        metrics = ServiceMetrics()
        for slo in ("batch", "best_effort", "batch"):
            metrics.record_shed(slo)
        snap = metrics.snapshot()
        assert snap["shed"] == 3
        assert snap["shed_by_class"] == {"batch": 2, "best_effort": 1}

    def test_deadline_evictions_sum_over_classes(self):
        metrics = ServiceMetrics()
        metrics.record_deadline_eviction("interactive")
        metrics.record_deadline_eviction("batch")
        assert metrics.snapshot()["deadline_evictions"] == 2

    def test_restarts_sum_over_causes(self):
        metrics = ServiceMetrics()
        metrics.record_restart("died")
        metrics.record_restart("stalled")
        metrics.record_restart("died")
        assert metrics.count("worker_restarts") == 3
        samples = parse_prometheus(render_prometheus(metrics.registry))
        causes = {
            s["labels"]["cause"]: s["value"]
            for s in samples
            if s["name"] == "service_worker_restarts_total"
        }
        assert causes == {"died": 2, "stalled": 1}

    def test_stale_and_degraded_counters(self):
        metrics = ServiceMetrics()
        metrics.record_stale()
        metrics.record_degraded(5)
        metrics.record_degraded(3)
        snap = metrics.snapshot()
        assert snap["stale_serves"] == 1
        assert snap["degraded_rows"] == 8

    def test_clean_snapshot_reports_zeros(self):
        snap = ServiceMetrics().snapshot()
        for key in (
            "shed", "deadline_evictions", "worker_restarts",
            "stale_serves", "degraded_rows",
        ):
            assert snap[key] == 0
        assert snap["shed_by_class"] == {}

    def test_clean_render_omits_resilience_lines(self):
        text = ServiceMetrics().render()
        for fragment in ("resilience", "degradation"):
            assert fragment not in text

    def test_render_reports_shedding_and_evictions(self):
        metrics = ServiceMetrics()
        metrics.record_shed("best_effort")
        metrics.record_deadline_eviction("batch")
        text = metrics.render()
        assert "resilience      : 1 shed (best_effortx1), 1 deadline evictions" in text
        assert "degradation" not in text

    def test_render_reports_degradation(self):
        metrics = ServiceMetrics()
        metrics.record_restart("died")
        metrics.record_stale()
        metrics.record_degraded(4)
        text = metrics.render()
        assert (
            "degradation     : 1 worker restarts, 1 stale serves, 4 degraded rows"
            in text
        )
        assert "resilience" not in text


class TestAdmissionGauges:
    def test_pressure_and_ladder_level_are_scraped_live(self):
        metrics = ServiceMetrics()
        controller = AdmissionController(ResilienceConfig(ewma_alpha=1.0), capacity=8)
        metrics.attach_admission(controller)

        def scrape():
            return {
                s["name"]: s["value"]
                for s in parse_prometheus(render_prometheus(metrics.registry))
            }

        before = scrape()
        assert before["service_pressure_seconds"] == 0.0
        assert before["service_degrade_level"] == 0.0
        controller.observe_queue_wait(0.5)
        after = scrape()
        assert after["service_pressure_seconds"] == pytest.approx(0.5)
        assert after["service_degrade_level"] == 2.0
