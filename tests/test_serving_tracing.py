"""End-to-end request tracing through the serving tier, plus the
stack-cache metrics satellite and the concurrent ServiceMetrics hammer."""

import threading

import numpy as np
import pytest

from repro.bnn.bayesian import BayesianNetwork
from repro.errors import ConfigurationError
from repro.obs import parse_prometheus, render_prometheus
from repro.obs.trace import SERVING_PHASES, Tracer
from repro.serving import (
    BnnService,
    MicroBatcher,
    ModelRegistry,
    PredictionCache,
    PredictionTicket,
    ServiceConfig,
    ServingWorker,
)
from repro.serving.metrics import ServiceMetrics

IN, OUT = 10, 3


@pytest.fixture()
def network():
    return BayesianNetwork((IN, 6, OUT), seed=0, initial_sigma=0.04)


@pytest.fixture()
def images():
    return np.random.default_rng(5).random((16, IN))


def traced_service(network, **overrides) -> BnnService:
    config = dict(
        workers=0, max_batch=8, cache_capacity=0, queue_capacity=64,
        trace_capacity=1024,
    )
    config.update(overrides)
    service = BnnService(config=ServiceConfig(**config))
    # n_samples is deliberately high: inference must dominate each span's
    # wall clock so the coverage assertions are robust to scheduler noise
    # on loaded CI machines (the fixed gaps between phases are a few µs).
    service.register_network("m", network, n_samples=48, grng="bnnwallace", seed=3)
    return service


class TestTracerWiring:
    def test_disabled_by_default(self, network, images):
        with traced_service(network, trace_capacity=0) as service:
            assert service.tracer is None
            service.predict_many("m", images[:4])  # still serves fine

    def test_negative_capacity_rejected(self):
        with pytest.raises(ConfigurationError):
            ServiceConfig(trace_capacity=-1)

    def test_every_request_produces_a_span(self, network, images):
        with traced_service(network) as service:
            service.predict_many("m", images)
            spans = service.tracer.spans()
        assert len(spans) == len(images)
        assert service_models(spans) == {"m"}
        assert all(s.error is None for s in spans)


def service_models(spans):
    return {s.model for s in spans}


class TestSpanInvariants:
    """The ISSUE's span contract: phases nest, and their sum ≤ wall time."""

    def _spans(self, network, images, **overrides):
        with traced_service(network, **overrides) as service:
            service.predict_many("m", images)
            service.predict_many("m", images)
            return service.tracer.spans()

    @pytest.mark.parametrize("overrides", [{}, {"workers": 2}])
    def test_sum_of_phases_bounded_by_wall(self, network, images, overrides):
        spans = self._spans(network, images, **overrides)
        assert spans
        for span in spans:
            assert span.end is not None
            assert span.latency_s > 0
            assert sum(span.phases.values()) <= span.latency_s + 1e-6

    @pytest.mark.parametrize("overrides", [{}, {"workers": 2}])
    def test_phase_names_are_canonical(self, network, images, overrides):
        for span in self._spans(network, images, **overrides):
            assert set(span.phases) <= set(SERVING_PHASES)
            assert all(v >= 0 for v in span.phases.values())

    def test_miss_spans_carry_batch_metadata_and_coverage(self, network, images):
        spans = self._spans(network, images)
        misses = [s for s in spans if not s.cache_hit]
        assert misses
        for span in misses:
            assert span.batch_size >= 1
            assert span.worker is not None
            assert {"queue_wait", "inference", "respond"} <= set(span.phases)
            # The bench gate enforces >= 95%; the unit test allows slack
            # for loaded CI machines but still requires real coverage.
            assert span.accounted_fraction() >= 0.80

    def test_cache_hit_spans_are_marked_and_covered(self, network, images):
        with traced_service(network, cache_capacity=32) as service:
            service.predict_many("m", images[:8])
            service.predict_many("m", images[:8])  # identical rows: all hits
            spans = service.tracer.spans()
        hits = [s for s in spans if s.cache_hit]
        assert len(hits) == 8
        for span in hits:
            assert "cache_lookup" in span.phases
            # A hit's whole lifetime is the lookup; coverage is ~100%.
            assert span.accounted_fraction() >= 0.80

    def test_threaded_spans_complete_for_all_requests(self, network, images):
        with traced_service(network, workers=2) as service:
            results = service.predict_many("m", images)
            assert results.shape == (len(images), OUT)
            assert service.tracer.finished == len(images)

    def test_lone_request_books_the_fill_window_as_batch_fill(self, network, images):
        """A worker holding a lone request open for ``max_wait_ms`` is
        waiting for the batch to coalesce, not for a worker.  (The worker
        thread's wake-up delay is real queue wait and grows without bound
        on a loaded host, so the queue_wait bound lives in the inline test
        below.)"""
        with traced_service(network, workers=1, max_wait_ms=20.0) as service:
            service.submit("m", images[0]).result(timeout=5.0)
            (span,) = service.tracer.spans()
        assert span.phases["batch_fill"] >= 0.015

    def test_fill_window_is_not_queue_wait(self, network, images):
        registry = ModelRegistry()
        registry.register_network("m", network, n_samples=4, seed=3)
        tracer = Tracer(capacity=8)
        batcher = MicroBatcher(max_batch=8, max_wait_ms=20.0)
        worker = ServingWorker(
            0, registry, batcher, PredictionCache(0), ServiceMetrics(), tracer=tracer
        )
        ticket = PredictionTicket("m")
        ticket.trace = tracer.begin("m", start=ticket.created_at)
        batcher.submit(images[0], ticket)
        worker.execute(batcher.next_batch())
        (span,) = tracer.spans()
        assert span.phases["batch_fill"] >= 0.015
        # Only the few statements around the pop remain queue wait.
        assert span.phases["queue_wait"] < 0.010


def shared_stack_service(network) -> BnnService:
    """The stack cache is only exercised by share-weight-stacks models."""
    service = BnnService(
        config=ServiceConfig(workers=0, max_batch=8, cache_capacity=0)
    )
    service.register_network(
        "m", network, n_samples=4, grng="bnnwallace", seed=3,
        share_weight_stacks=True,
    )
    return service


class TestStackCacheMetricsSatellite:
    def test_snapshot_and_render_include_stack_cache(self, network, images):
        with shared_stack_service(network) as service:
            service.predict_many("m", images)
            snap = service.metrics.snapshot()
            rendered = service.metrics.render()
            stack = service.stack_cache
            assert snap["stack_cache_hits"] == stack.hits
            assert snap["stack_cache_misses"] == stack.draws
            assert snap["stack_cache_waits"] == stack.waits
            assert snap["stack_cache_evictions"] == stack.evictions
            assert snap["stack_cache_misses"] >= 1  # first batch builds
            assert "stack cache     :" in rendered

    def test_stack_cache_reaches_the_prometheus_exposition(self, network, images):
        """The scrape is live: no stats()/snapshot() call precedes it."""
        with shared_stack_service(network) as service:
            service.predict_many("m", images)
            text = render_prometheus(service.metrics.registry)
        assert 'service_stack_cache_total{event="miss"} 1\n' in text
        samples = {
            (s["name"], tuple(sorted(s["labels"].items()))): s["value"]
            for s in parse_prometheus(text)
        }
        assert ("service_stack_cache_entries", ()) in samples

    def test_unattached_metrics_report_zeros(self):
        metrics = ServiceMetrics(latency_window=8)
        snap = metrics.snapshot()
        assert snap["stack_cache_hits"] == 0
        assert "stack cache" not in metrics.render()


class TestServiceMetricsConcurrentHammer:
    def test_counters_conserved_across_threads(self):
        metrics = ServiceMetrics(latency_window=64)
        threads_n, iters = 8, 300
        barrier = threading.Barrier(threads_n)

        def work(tid: int) -> None:
            barrier.wait()
            for i in range(iters):
                metrics.record_latency(0.001 * (tid + 1))
                metrics.record_batch(4)
                metrics.record_cache(hit=i % 2 == 0)
                metrics.record_queue_depth(tid)
                if i % 3 == 0:
                    metrics.record_failure()
                if i % 5 == 0:
                    metrics.record_overload()

        workers = [
            threading.Thread(target=work, args=(t,)) for t in range(threads_n)
        ]
        for w in workers:
            w.start()
        for w in workers:
            w.join()

        total = threads_n * iters
        snap = metrics.snapshot()
        assert snap["requests_served"] == total
        assert snap["requests_failed"] == threads_n * len(range(0, iters, 3))
        assert snap["overloads"] == threads_n * len(range(0, iters, 5))
        assert snap["batches"] == total
        assert snap["mean_batch_size"] == 4.0
        assert snap["cache_hits"] == total // 2
        assert snap["cache_misses"] == total // 2
        assert snap["max_queue_depth"] == threads_n - 1
        # The latency histogram must have seen every observation too.
        hist = metrics.registry.get("service_request_latency_seconds")
        assert hist.snapshot()["count"] == total
