"""Unit tests for the unified metrics registry (counters, gauges, histograms)."""

import threading

import pytest

from repro.errors import ConfigurationError
from repro.obs import Counter, Gauge, Histogram, MetricsRegistry


@pytest.fixture()
def registry():
    return MetricsRegistry()


class TestCounter:
    def test_starts_at_zero_and_accumulates(self, registry):
        c = registry.counter("requests_total")
        assert c.value() == 0.0
        c.inc()
        c.inc(2.5)
        assert c.value() == 3.5

    def test_labelled_series_are_independent(self, registry):
        c = registry.counter("by_outcome", labels=("outcome",))
        c.inc(outcome="ok")
        c.inc(3, outcome="err")
        assert c.value(outcome="ok") == 1.0
        assert c.value(outcome="err") == 3.0
        assert c.total() == 4.0
        assert c.series() == {("ok",): 1.0, ("err",): 3.0}

    def test_cannot_decrease(self, registry):
        c = registry.counter("mono")
        with pytest.raises(ConfigurationError):
            c.inc(-1)

    def test_label_schema_is_enforced(self, registry):
        c = registry.counter("lab", labels=("a",))
        with pytest.raises(ConfigurationError):
            c.inc(b=1)
        with pytest.raises(ConfigurationError):
            c.value()


    def test_function_backed_reads_live_series(self, registry):
        box = {("hit",): 1, ("miss",): 2}
        c = registry.counter("live_total", labels=("event",), fn=lambda: box)
        assert c.value(event="miss") == 2.0
        box[("miss",)] = 5
        assert c.value(event="miss") == 5.0
        assert c.value(event="wait") == 0.0
        assert c.series() == {("hit",): 1.0, ("miss",): 5.0}
        assert c.total() == 6.0
        with pytest.raises(ConfigurationError):
            c.inc(event="hit")


class TestGauge:
    def test_set_and_inc(self, registry):
        g = registry.gauge("depth")
        g.set(7)
        assert g.value() == 7.0
        g.inc(-2)
        assert g.value() == 5.0

    def test_function_backed_reads_live(self, registry):
        box = {"n": 1}
        g = registry.gauge("live", fn=lambda: box["n"])
        assert g.value() == 1.0
        box["n"] = 42
        assert g.value() == 42.0
        assert g.series() == {(): 42.0}

    def test_function_backed_rejects_writes_and_labels(self, registry):
        g = registry.gauge("ro", fn=lambda: 0)
        with pytest.raises(ConfigurationError):
            g.set(1)
        with pytest.raises(ConfigurationError):
            g.inc()
        with pytest.raises(ConfigurationError):
            registry.gauge("ro_lab", labels=("x",), fn=lambda: 0)


class TestHistogram:
    def test_cumulative_buckets_sum_count(self, registry):
        h = registry.histogram("lat", buckets=(0.01, 0.1, 1.0))
        for v in (0.005, 0.05, 0.5, 5.0):
            h.observe(v)
        snap = h.snapshot()
        assert snap["buckets"] == {0.01: 1, 0.1: 2, 1.0: 3}
        assert snap["count"] == 4
        assert snap["sum"] == pytest.approx(5.555)

    def test_buckets_must_be_sorted_unique(self, registry):
        with pytest.raises(ConfigurationError):
            registry.histogram("bad", buckets=(1.0, 0.5))
        with pytest.raises(ConfigurationError):
            registry.histogram("dup", buckets=(1.0, 1.0))

    def test_labelled_series(self, registry):
        h = registry.histogram("by_model", labels=("model",), buckets=(1.0,))
        h.observe(0.5, model="a")
        h.observe(2.0, model="a")
        h.observe(0.1, model="b")
        assert h.series() == {("a",): 2.0, ("b",): 1.0}
        assert h.snapshot(model="a")["buckets"][1.0] == 1


class TestRegistry:
    def test_get_or_create_returns_same_object(self, registry):
        a = registry.counter("shared", labels=("x",))
        b = registry.counter("shared", labels=("x",))
        assert a is b

    def test_type_mismatch_rejected(self, registry):
        registry.counter("metric")
        with pytest.raises(ConfigurationError):
            registry.gauge("metric")

    def test_label_mismatch_rejected(self, registry):
        registry.counter("metric", labels=("a",))
        with pytest.raises(ConfigurationError):
            registry.counter("metric", labels=("b",))

    def test_invalid_names_rejected(self, registry):
        for bad in ("", "has space", "9starts_digit", "dash-ed"):
            with pytest.raises(ConfigurationError):
                registry.counter(bad)

    def test_names_and_metrics_sorted(self, registry):
        registry.counter("b_total")
        registry.gauge("a_gauge")
        assert registry.names() == ["a_gauge", "b_total"]
        assert [m.name for m in registry.metrics()] == ["a_gauge", "b_total"]
        assert isinstance(registry.get("a_gauge"), Gauge)
        assert isinstance(registry.get("b_total"), Counter)
        assert registry.get("missing") is None


class TestConcurrentHammer:
    def test_totals_conserved_under_contention(self, registry):
        """N threads hammer one counter, one labelled counter, one gauge,
        one histogram; every per-thread contribution must be conserved."""
        threads_n, iters = 8, 500
        c = registry.counter("hammer_total")
        lab = registry.counter("hammer_by_thread", labels=("thread",))
        h = registry.histogram("hammer_hist", buckets=(0.5,))
        g = registry.gauge("hammer_gauge")
        start = threading.Barrier(threads_n)

        def work(tid: int) -> None:
            start.wait()
            for i in range(iters):
                c.inc()
                lab.inc(2, thread=tid)
                h.observe(i % 2)  # alternates the two buckets
                g.inc()

        workers = [
            threading.Thread(target=work, args=(t,)) for t in range(threads_n)
        ]
        for w in workers:
            w.start()
        for w in workers:
            w.join()

        total = threads_n * iters
        assert c.value() == total
        assert lab.total() == 2 * total
        assert all(
            lab.value(thread=t) == 2 * iters for t in range(threads_n)
        )
        snap = h.snapshot()
        assert snap["count"] == total
        assert snap["buckets"][0.5] == total // 2  # the `0` observations
        assert g.value() == total

    def test_concurrent_get_or_create_yields_one_metric(self, registry):
        results = []
        barrier = threading.Barrier(6)

        def create() -> None:
            barrier.wait()
            results.append(registry.counter("race_total", labels=("l",)))

        workers = [threading.Thread(target=create) for _ in range(6)]
        for w in workers:
            w.start()
        for w in workers:
            w.join()
        assert all(m is results[0] for m in results)
        assert isinstance(results[0], Histogram) is False
