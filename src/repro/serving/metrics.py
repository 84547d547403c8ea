"""Service metrics: latency percentiles, batch histogram, queue/cache stats.

Everything a load test needs to judge the micro-batcher: request latency
(p50/p95/p99 over a bounded ring of recent samples), the batch-size
histogram (is coalescing actually happening, or is the service degenerating
into per-request calls?), queue depth (headroom before
:class:`~repro.errors.ServiceOverloaded`), cache hit rate, and overload
drops.  All counters are thread-safe; reading is done through
:meth:`ServiceMetrics.snapshot`, which returns plain Python values safe to
serialise or diff.

Since the observability PR, :class:`ServiceMetrics` is a *client* of the
unified :class:`~repro.obs.registry.MetricsRegistry`: every counter lives
in the registry (names below), so one Prometheus scrape or
``--metrics-json`` dump covers the whole service, while ``snapshot()`` /
``render()`` keep their exact legacy shape.  The weight-stack cache's
hits/misses/single-flight waits/evictions are folded into the snapshot via
:meth:`ServiceMetrics.attach_stack_cache`.

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
    service_adaptive_rows_total / _passes_total / _pass_budget_total
    service_stack_cache_total{event}  hit | miss | wait | eviction
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
        self._stack_cache = None
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
        self._adaptive_rows_c = r.counter(
            "service_adaptive_rows_total", "Rows served through the adaptive path"
        )
        self._adaptive_passes_c = r.counter(
            "service_adaptive_passes_total", "MC passes actually run for adaptive rows"
        )
        self._adaptive_budget_c = r.counter(
            "service_adaptive_pass_budget_total",
            "Fixed-N pass budget of the adaptive rows",
        )
        self._stack_c = r.counter(
            "service_stack_cache_total",
            "Weight-stack cache events",
            labels=("event",),
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
    # Legacy attribute views (the pre-registry public surface)
    # ------------------------------------------------------------------
    @property
    def requests_served(self) -> int:
        return int(self._requests.value(outcome="served"))

    @property
    def requests_failed(self) -> int:
        return int(self._requests.value(outcome="failed"))

    @property
    def overloads(self) -> int:
        return int(self._overloads_c.value())

    @property
    def cache_hits(self) -> int:
        return int(self._cache_c.value(result="hit"))

    @property
    def cache_misses(self) -> int:
        return int(self._cache_c.value(result="miss"))

    @property
    def batches(self) -> int:
        return int(self._batches_c.value())

    @property
    def batch_rows(self) -> int:
        return int(self._batch_rows_c.value())

    @property
    def max_queue_depth(self) -> int:
        return int(self._queue_depth_max_g.value())

    @property
    def last_queue_depth(self) -> int:
        return int(self._queue_depth_g.value())

    @property
    def shed(self) -> int:
        return int(sum(self._shed_c.series().values()))

    @property
    def deadline_evictions(self) -> int:
        return int(sum(self._deadline_c.series().values()))

    @property
    def worker_restarts(self) -> int:
        return int(sum(self._restarts_c.series().values()))

    @property
    def stale_serves(self) -> int:
        return int(self._stale_c.value())

    @property
    def degraded_rows(self) -> int:
        return int(self._degraded_c.value())

    @property
    def adaptive_rows(self) -> int:
        return int(self._adaptive_rows_c.value())

    @property
    def adaptive_passes(self) -> int:
        return int(self._adaptive_passes_c.value())

    @property
    def adaptive_pass_budget(self) -> int:
        return int(self._adaptive_budget_c.value())

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

    def record_adaptive(self, pass_counts, max_samples: int) -> None:
        """Account one adaptive batch's per-row MC pass counts.

        ``pass_counts`` is the per-row vector of
        :attr:`~repro.bnn.adaptive.AdaptiveResult.passes`;
        ``max_samples`` is the fixed-``N`` budget those rows would have
        cost, so the snapshot's saved-pass fraction is
        ``1 - passes / budget``.
        """
        counts = np.asarray(pass_counts)
        self._adaptive_rows_c.inc(int(counts.size))
        self._adaptive_passes_c.inc(int(counts.sum()))
        self._adaptive_budget_c.inc(int(counts.size) * int(max_samples))

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
            if depth > self.max_queue_depth:
                self._queue_depth_max_g.set(depth)

    # ------------------------------------------------------------------
    # Weight-stack cache fold-in
    # ------------------------------------------------------------------
    def attach_stack_cache(self, stack_cache) -> None:
        """Surface a :class:`~repro.serving.weight_stack.WeightStackCache`'s
        hits/misses/single-flight waits/evictions in the snapshot, the
        render block, and the registry exposition (live, at read time)."""
        self._stack_cache = stack_cache
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

    def _stack_snapshot(self) -> dict[str, int]:
        cache = self._stack_cache
        if cache is None:
            return {
                "stack_cache_hits": 0,
                "stack_cache_misses": 0,
                "stack_cache_waits": 0,
                "stack_cache_evictions": 0,
            }
        # Mirror the live values into the registry counter so a scrape
        # sees them without the cache holding a registry reference.
        for event, value in (
            ("hit", cache.hits),
            ("miss", cache.misses),
            ("wait", cache.waits),
            ("eviction", cache.evictions),
        ):
            current = self._stack_c.value(event=event)
            if value > current:
                self._stack_c.inc(value - current, event=event)
        return {
            "stack_cache_hits": int(cache.hits),
            "stack_cache_misses": int(cache.misses),
            "stack_cache_waits": int(cache.waits),
            "stack_cache_evictions": int(cache.evictions),
        }

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

    def mean_batch_size(self) -> float:
        batches = self.batches
        return self.batch_rows / batches if batches else 0.0

    def cache_hit_rate(self) -> float:
        hits, misses = self.cache_hits, self.cache_misses
        total = hits + misses
        return hits / total if total else 0.0

    def snapshot(self) -> dict[str, object]:
        """Plain-value view of every counter plus derived statistics."""
        percentiles = self.latency_percentiles()
        histogram = self.batch_histogram()
        mean_batch = self.mean_batch_size()
        hit_rate = self.cache_hit_rate()
        adaptive_rows = self.adaptive_rows
        adaptive_passes = self.adaptive_passes
        adaptive_budget = self.adaptive_pass_budget
        mean_passes = adaptive_passes / adaptive_rows if adaptive_rows else 0.0
        saved = 1.0 - adaptive_passes / adaptive_budget if adaptive_budget else 0.0
        snap: dict[str, object] = {
            "requests_served": self.requests_served,
            "requests_failed": self.requests_failed,
            "overloads": self.overloads,
            "batches": self.batches,
            "mean_batch_size": mean_batch,
            "batch_histogram": histogram,
            "latency_s": percentiles,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "cache_hit_rate": hit_rate,
            "max_queue_depth": self.max_queue_depth,
            "last_queue_depth": self.last_queue_depth,
            "adaptive_rows": adaptive_rows,
            "adaptive_passes": adaptive_passes,
            "adaptive_mean_passes": mean_passes,
            "adaptive_saved_fraction": saved,
            "shed": self.shed,
            "shed_by_class": {
                slo: int(count)
                for (slo,), count in sorted(self._shed_c.series().items())
            },
            "deadline_evictions": self.deadline_evictions,
            "worker_restarts": self.worker_restarts,
            "stale_serves": self.stale_serves,
            "degraded_rows": self.degraded_rows,
        }
        snap.update(self._stack_snapshot())
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
        if self._stack_cache is not None:
            lines.append(
                f"stack cache     : {snap['stack_cache_hits']} hits / "
                f"{snap['stack_cache_misses']} misses, "
                f"{snap['stack_cache_waits']} single-flight waits, "
                f"{snap['stack_cache_evictions']} evictions"
            )
        if snap["adaptive_rows"]:
            lines.append(
                f"adaptive        : {snap['adaptive_rows']} rows, "
                f"mean {snap['adaptive_mean_passes']:.1f} passes "
                f"({snap['adaptive_saved_fraction'] * 100.0:.1f}% passes saved)"
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
