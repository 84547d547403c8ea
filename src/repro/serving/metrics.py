"""Service metrics: latency percentiles, batch histogram, queue/cache stats.

Everything a load test needs to judge the micro-batcher: request latency
(p50/p95/p99 over a bounded ring of recent samples), the batch-size
histogram (is coalescing actually happening, or is the service degenerating
into per-request calls?), queue depth (headroom before
:class:`~repro.errors.ServiceOverloaded`), cache hit rate, and overload
drops.  All counters are thread-safe; reading is done through
:meth:`ServiceMetrics.snapshot`, which returns plain Python values safe to
serialise or diff.

:class:`ServiceMetrics` is a *client* of the unified
:class:`~repro.obs.registry.MetricsRegistry`: every count lives once, in
the registry (names below), so one Prometheus scrape or
``--metrics-json`` dump covers the whole service.  :data:`COUNTS` maps
each plain-value count to its registry series; :meth:`ServiceMetrics.count`
reads one and :meth:`ServiceMetrics.snapshot` reads them all.  The
weight-stack cache's hits/misses/single-flight waits/evictions surface
through a function-backed counter installed by
:meth:`ServiceMetrics.attach_stack_cache`, read live at scrape time.

Registry metric names::

    service_requests_total{outcome}   served | failed
    service_overloads_total           queue-full drops
    service_cache_lookups_total{result}  hit | miss  (prediction cache)
    service_batches_total             dispatched batches
    service_batch_rows_total          rows across all batches
    service_batch_size_total{size}    batch-size histogram
    service_queue_depth               last observed depth (gauge)
    service_queue_depth_max           high-water mark (gauge)
    service_request_latency_seconds   request-latency histogram
    service_stack_cache_total{event}  hit | miss | wait | eviction (live)
    service_shed_total{slo}           admission-control sheds by class
    service_deadline_evictions_total{slo}  expired requests evicted
    service_worker_restarts_total{cause}   supervised restarts (died | stalled)
    service_stale_serves_total        stale cache rows served under overload
    service_degraded_rows_total       rows served at reduced MC passes
    service_pressure_seconds          EWMA queue-wait pressure (gauge)
    service_degrade_level             overload-ladder position (gauge)
"""

from __future__ import annotations

import threading

import numpy as np

from repro.errors import ConfigurationError
from repro.obs.registry import MetricsRegistry

#: Percentiles reported by :meth:`ServiceMetrics.latency_percentiles`.
LATENCY_PERCENTILES = (50.0, 95.0, 99.0)

#: Latency-histogram buckets (seconds): micro-batched requests live in the
#: 0.5ms–250ms range; the tail buckets catch overloaded configurations.
LATENCY_BUCKETS = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0,
)


def percentile_dict(samples) -> dict[str, float]:
    """``{"p50": ..., "p95": ..., "p99": ...}`` for a latency sample list.

    All zeros when ``samples`` is empty.  Shared by the service metrics
    and the load generator so both report the same percentile set.
    """
    if len(samples) == 0:
        return {f"p{int(p)}": 0.0 for p in LATENCY_PERCENTILES}
    values = np.percentile(samples, LATENCY_PERCENTILES)
    return {f"p{int(p)}": float(v) for p, v in zip(LATENCY_PERCENTILES, values)}


def format_latency(latency: dict[str, float]) -> str:
    """Render a :func:`percentile_dict` as ``p50=..ms p95=..ms p99=..ms``."""
    return "  ".join(
        f"p{int(p)}={latency[f'p{int(p)}'] * 1e3:.2f}ms" for p in LATENCY_PERCENTILES
    )


#: Count name → (registry metric, label filter).  Every entry is a
#: :meth:`ServiceMetrics.count` and a :meth:`ServiceMetrics.snapshot` key;
#: an empty filter sums every series of the metric.
COUNTS: dict[str, tuple[str, dict[str, str]]] = {
    "requests_served": ("service_requests_total", {"outcome": "served"}),
    "requests_failed": ("service_requests_total", {"outcome": "failed"}),
    "overloads": ("service_overloads_total", {}),
    "batches": ("service_batches_total", {}),
    "batch_rows": ("service_batch_rows_total", {}),
    "cache_hits": ("service_cache_lookups_total", {"result": "hit"}),
    "cache_misses": ("service_cache_lookups_total", {"result": "miss"}),
    "max_queue_depth": ("service_queue_depth_max", {}),
    "last_queue_depth": ("service_queue_depth", {}),
    "shed": ("service_shed_total", {}),
    "deadline_evictions": ("service_deadline_evictions_total", {}),
    "worker_restarts": ("service_worker_restarts_total", {}),
    "stale_serves": ("service_stale_serves_total", {}),
    "degraded_rows": ("service_degraded_rows_total", {}),
    "stack_cache_hits": ("service_stack_cache_total", {"event": "hit"}),
    "stack_cache_misses": ("service_stack_cache_total", {"event": "miss"}),
    "stack_cache_waits": ("service_stack_cache_total", {"event": "wait"}),
    "stack_cache_evictions": ("service_stack_cache_total", {"event": "eviction"}),
}


def _ratio(numerator: int, denominator: int) -> float:
    return numerator / denominator if denominator else 0.0


class ServiceMetrics:
    """Thread-safe accumulator for serving-side observability.

    Parameters
    ----------
    latency_window:
        Ring-buffer size for latency samples; percentiles are computed
        over the most recent ``latency_window`` requests.
    registry:
        The :class:`~repro.obs.registry.MetricsRegistry` the counters
        live in; a private one is created when omitted (the standalone
        configuration the unit tests use).
    """

    def __init__(
        self, latency_window: int = 8192, registry: MetricsRegistry | None = None
    ) -> None:
        if latency_window < 1:
            raise ConfigurationError(
                f"latency_window must be >= 1, got {latency_window}"
            )
        self.registry = registry if registry is not None else MetricsRegistry()
        self._lock = threading.Lock()
        self._latencies = np.zeros(latency_window)
        self._latency_count = 0
        r = self.registry
        self._requests = r.counter(
            "service_requests_total", "Requests by outcome", labels=("outcome",)
        )
        self._overloads_c = r.counter(
            "service_overloads_total", "Requests dropped by queue backpressure"
        )
        self._cache_c = r.counter(
            "service_cache_lookups_total",
            "Prediction-cache lookups by result",
            labels=("result",),
        )
        self._batches_c = r.counter("service_batches_total", "Dispatched batches")
        self._batch_rows_c = r.counter(
            "service_batch_rows_total", "Rows across all dispatched batches"
        )
        self._batch_size_c = r.counter(
            "service_batch_size_total", "Batches by exact size", labels=("size",)
        )
        self._queue_depth_g = r.gauge(
            "service_queue_depth", "Queue depth at the last submit"
        )
        self._queue_depth_max_g = r.gauge(
            "service_queue_depth_max", "Maximum observed queue depth"
        )
        self._latency_h = r.histogram(
            "service_request_latency_seconds",
            "End-to-end request latency",
            buckets=LATENCY_BUCKETS,
        )
        self._shed_c = r.counter(
            "service_shed_total",
            "Requests shed by the admission controller, by SLO class",
            labels=("slo",),
        )
        self._deadline_c = r.counter(
            "service_deadline_evictions_total",
            "Requests evicted past their deadline, by SLO class",
            labels=("slo",),
        )
        self._restarts_c = r.counter(
            "service_worker_restarts_total",
            "Supervised worker restarts by cause",
            labels=("cause",),
        )
        self._stale_c = r.counter(
            "service_stale_serves_total",
            "Version-stale cache rows served under overload",
        )
        self._degraded_c = r.counter(
            "service_degraded_rows_total",
            "Rows served at reduced MC passes (overload ladder)",
        )

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def record_latency(self, seconds: float) -> None:
        with self._lock:
            self._latencies[self._latency_count % self._latencies.size] = seconds
            self._latency_count += 1
        self._requests.inc(outcome="served")
        self._latency_h.observe(seconds)

    def record_failure(self) -> None:
        self._requests.inc(outcome="failed")

    def record_overload(self) -> None:
        self._overloads_c.inc()

    def record_cache(self, hit: bool) -> None:
        self._cache_c.inc(result="hit" if hit else "miss")

    def record_batch(self, size: int) -> None:
        self._batches_c.inc()
        self._batch_rows_c.inc(size)
        self._batch_size_c.inc(size=int(size))

    def record_shed(self, slo: str) -> None:
        self._shed_c.inc(slo=slo)

    def record_deadline_eviction(self, slo: str) -> None:
        self._deadline_c.inc(slo=slo)

    def record_restart(self, cause: str) -> None:
        self._restarts_c.inc(cause=cause)

    def record_stale(self) -> None:
        self._stale_c.inc()

    def record_degraded(self, rows: int) -> None:
        self._degraded_c.inc(int(rows))

    def record_queue_depth(self, depth: int) -> None:
        # The read-modify-write on the high-water mark needs the metrics
        # lock: two concurrent submits must not regress the maximum.
        with self._lock:
            self._queue_depth_g.set(depth)
            if depth > self._queue_depth_max_g.value():
                self._queue_depth_max_g.set(depth)

    # ------------------------------------------------------------------
    # Live views of other objects' state
    # ------------------------------------------------------------------
    def attach_stack_cache(self, stack_cache) -> None:
        """Expose a :class:`~repro.serving.weight_stack.WeightStackCache`'s
        hits/misses/single-flight waits/evictions and occupancy as
        registry series read live at collect time (a miss is a draw)."""
        self.registry.counter(
            "service_stack_cache_total",
            "Weight-stack cache events",
            labels=("event",),
            fn=lambda: {
                ("hit",): stack_cache.hits,
                ("miss",): stack_cache.draws,
                ("wait",): stack_cache.waits,
                ("eviction",): stack_cache.evictions,
            },
        )
        self.registry.gauge(
            "service_stack_cache_entries",
            "Cached weight-stack ensembles",
            fn=lambda: len(stack_cache),
        )

    def attach_admission(self, controller) -> None:
        """Expose an :class:`~repro.serving.resilience.AdmissionController`'s
        live pressure signal and overload-ladder position as registry
        gauges (read lazily at scrape time)."""
        self.registry.gauge(
            "service_pressure_seconds",
            "EWMA queue-wait pressure driving admission control",
            fn=controller.pressure,
        )
        self.registry.gauge(
            "service_degrade_level",
            "Overload-ladder position (0 full N, 1 half, 2 floor)",
            fn=lambda: float(controller.degrade_level()),
        )

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def latency_percentiles(self) -> dict[str, float]:
        """``{"p50": ..., "p95": ..., "p99": ...}`` in seconds (0.0 if empty)."""
        with self._lock:
            filled = min(self._latency_count, self._latencies.size)
            window = self._latencies[:filled].copy()
        return percentile_dict(window)

    def batch_histogram(self) -> dict[int, int]:
        """Batch size → number of batches dispatched at that size."""
        return dict(
            sorted(
                (int(size), int(count))
                for (size,), count in self._batch_size_c.series().items()
            )
        )

    def count(self, key: str) -> int:
        """Current value of the :data:`COUNTS` entry ``key`` (0 when its
        metric is not registered, e.g. no stack cache attached)."""
        name, labels = COUNTS[key]
        metric = self.registry.get(name)
        if metric is None:
            return 0
        if labels:
            return int(metric.value(**labels))
        return int(sum(metric.series().values()))

    def snapshot(self) -> dict[str, object]:
        """Plain-value view of every count plus derived statistics."""
        snap: dict[str, object] = {key: self.count(key) for key in COUNTS}
        cache_lookups = snap["cache_hits"] + snap["cache_misses"]
        snap.update(
            mean_batch_size=_ratio(snap["batch_rows"], snap["batches"]),
            batch_histogram=self.batch_histogram(),
            latency_s=self.latency_percentiles(),
            cache_hit_rate=_ratio(snap["cache_hits"], cache_lookups),
            shed_by_class={
                slo: int(count)
                for (slo,), count in sorted(self._shed_c.series().items())
            },
        )
        return snap

    def render(self) -> str:
        """Aligned text block of :meth:`snapshot` for CLI output."""
        snap = self.snapshot()
        latency = snap["latency_s"]
        histogram = ", ".join(
            f"{size}x{count}" for size, count in snap["batch_histogram"].items()
        )
        lines = [
            f"requests served : {snap['requests_served']}",
            f"requests failed : {snap['requests_failed']}",
            f"overload drops  : {snap['overloads']}",
            f"batches         : {snap['batches']} (mean size {snap['mean_batch_size']:.1f})",
            f"batch histogram : {histogram or '(none)'}",
            f"latency         : {format_latency(latency)}",
            f"cache           : {snap['cache_hits']} hits / {snap['cache_misses']} misses "
            f"({snap['cache_hit_rate'] * 100.0:.1f}% hit rate)",
            f"queue depth     : max {snap['max_queue_depth']}, last {snap['last_queue_depth']}",
        ]
        if self.registry.get("service_stack_cache_total") is not None:
            lines.append(
                f"stack cache     : {snap['stack_cache_hits']} hits / "
                f"{snap['stack_cache_misses']} misses, "
                f"{snap['stack_cache_waits']} single-flight waits, "
                f"{snap['stack_cache_evictions']} evictions"
            )
        if snap["shed"] or snap["deadline_evictions"]:
            by_class = ", ".join(
                f"{slo}x{count}" for slo, count in snap["shed_by_class"].items()
            )
            lines.append(
                f"resilience      : {snap['shed']} shed ({by_class or 'none'}), "
                f"{snap['deadline_evictions']} deadline evictions"
            )
        if snap["worker_restarts"] or snap["stale_serves"] or snap["degraded_rows"]:
            lines.append(
                f"degradation     : {snap['worker_restarts']} worker restarts, "
                f"{snap['stale_serves']} stale serves, "
                f"{snap['degraded_rows']} degraded rows"
            )
        return "\n".join(lines)
