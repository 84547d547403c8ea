"""`BnnService`: the synchronous request/response façade over the stack.

Wiring::

    submit(model, image) ──► PredictionCache ──hit──► resolved ticket
                                  │ miss
                                  ▼
                            MicroBatcher (bounded queue, ServiceOverloaded)
                                  │ coalesce ≤ max_batch same-model rows
                                  ▼
                 WorkerPool / caller thread (ServingWorker.execute)
                                  │ one run_adaptive call over the
                                  │ model's chunk_probs seam
                                  ▼
                     tickets resolved + cache filled + metrics recorded

Two execution modes share that path:

* ``workers >= 1`` — a :class:`~repro.serving.workers.WorkerPool` drains
  the queue in the background; ``submit`` returns immediately and the
  ticket resolves concurrently.  This is the serving mode the open-loop
  load generator targets.
* ``workers == 0`` — **synchronous mode**: no threads; the queue drains on
  the caller's thread whenever a full batch accumulates or
  :meth:`BnnService.flush` / :meth:`BnnService.predict_many` runs.
  Deterministic by construction (one worker stream, one dispatch order),
  which is what the bit-for-bit equivalence tests and the closed-loop
  benchmark use.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass

import numpy as np

from repro.errors import AdmissionShed, ConfigurationError, ServiceOverloaded
from repro.obs.trace import Tracer
from repro.serving.batcher import MicroBatcher, PredictionTicket
from repro.serving.cache import PredictionCache
from repro.serving.metrics import ServiceMetrics
from repro.serving.registry import ModelEntry, ModelRegistry
from repro.serving.resilience import (
    SLO_CLASSES,
    AdmissionController,
    FaultPlan,
    ResilienceConfig,
)
from repro.serving.weight_stack import WeightStackCache
from repro.serving.workers import ServingWorker, WorkerPool

#: Default ceiling on how long a caller waits for one prediction.
DEFAULT_RESULT_TIMEOUT_S = 60.0


@dataclass
class ServiceConfig:
    """Tuning knobs of the serving stack (see ``docs/SERVING.md``)."""

    #: Micro-batching window: rows coalesced into one MC call.
    max_batch: int = 64
    #: How long a worker holds a partial batch open waiting for more rows.
    max_wait_ms: float = 2.0
    #: Bounded queue size; beyond it ``submit`` raises ``ServiceOverloaded``.
    queue_capacity: int = 1024
    #: Background serving threads; 0 = synchronous caller-driven mode.
    workers: int = 2
    #: Prediction-cache rows; 0 disables caching.
    cache_capacity: int = 4096
    #: Shared sampled weight-stack ensembles kept live; 0 makes any
    #: ``share_weight_stacks`` model a configuration error.
    stack_cache_capacity: int = 8
    #: Latency ring-buffer length for the percentile metrics.
    latency_window: int = 8192
    #: Request-tracing span ring size; 0 disables tracing entirely (no
    #: spans are allocated and the request path pays nothing).
    trace_capacity: int = 0
    #: Resilience layer (SLO deadlines, admission control, degradation,
    #: worker supervision — see ``docs/RESILIENCE.md``); ``None`` keeps
    #: the request path bit-for-bit identical to the pre-resilience stack.
    resilience: ResilienceConfig | None = None

    def __post_init__(self) -> None:
        if self.workers < 0:
            raise ConfigurationError(f"workers must be >= 0, got {self.workers}")
        if self.trace_capacity < 0:
            raise ConfigurationError(
                f"trace_capacity must be >= 0, got {self.trace_capacity}"
            )


class BnnService:
    """High-throughput BNN prediction service over a model registry."""

    def __init__(
        self,
        registry: ModelRegistry | None = None,
        config: ServiceConfig | None = None,
        fault_plan: FaultPlan | None = None,
    ) -> None:
        self.registry = registry if registry is not None else ModelRegistry()
        self.config = config if config is not None else ServiceConfig()
        if fault_plan is not None and self.config.resilience is None:
            raise ConfigurationError(
                "a FaultPlan requires ServiceConfig.resilience (the chaos "
                "harness exercises the supervision it configures)"
            )
        self.fault_plan = fault_plan
        self.metrics = ServiceMetrics(latency_window=self.config.latency_window)
        self.cache = PredictionCache(capacity=self.config.cache_capacity)
        self.stack_cache = WeightStackCache(capacity=self.config.stack_cache_capacity)
        self.metrics.attach_stack_cache(self.stack_cache)
        self.admission: AdmissionController | None = None
        if self.config.resilience is not None:
            self.admission = AdmissionController(
                self.config.resilience, capacity=self.config.queue_capacity
            )
            self.metrics.attach_admission(self.admission)
        self.tracer: Tracer | None = (
            Tracer(capacity=self.config.trace_capacity)
            if self.config.trace_capacity > 0
            else None
        )
        self.batcher = MicroBatcher(
            max_batch=self.config.max_batch,
            max_wait_ms=self.config.max_wait_ms,
            capacity=self.config.queue_capacity,
        )
        if self.config.workers > 0:
            self._pool: WorkerPool | None = WorkerPool(
                self.registry,
                self.batcher,
                self.cache,
                self.metrics,
                workers=self.config.workers,
                stack_cache=self.stack_cache,
                tracer=self.tracer,
                resilience=self.config.resilience,
                admission=self.admission,
                fault_plan=fault_plan,
            )
            self._sync_worker = None
        else:
            self._pool = None
            # Unstarted thread object used purely as the inline executor,
            # so both modes run the identical batch path with worker 0's
            # reproducible stream.
            self._sync_worker = ServingWorker(
                0, self.registry, self.batcher, self.cache, self.metrics,
                self.stack_cache, self.tracer,
                admission=self.admission, fault_plan=fault_plan,
            )
        # Previous registry version per model whose cache rows were kept
        # alive for stale serving (reload() under serve_stale).  Plain
        # dict: GIL-atomic get/set, written only by reload()/evict().
        self._stale_versions: dict[str, int] = {}
        # In-flight coalescing (cache-enabled services only): cache key ->
        # the pending primary ticket, so identical concurrent requests
        # share one computed row instead of racing for the cache slot.
        self._pending_lock = threading.Lock()
        self._pending: dict[tuple, PredictionTicket] = {}
        self._closed = False

    # ------------------------------------------------------------------
    # Registration passthroughs (cache-coherent wrappers over the registry)
    # ------------------------------------------------------------------
    def register_network(self, name: str, model, **options) -> ModelEntry:
        """Serve a network, exported parameters or a saved ``.npz`` in float."""
        return self.registry.register_network(name, model, **options)

    def register_quantized(self, name: str, model, **options) -> ModelEntry:
        """Serve exported parameters or a saved ``.npz`` through the
        fixed-point hardware model."""
        return self.registry.register_quantized(name, model, **options)

    def reload(self, name: str) -> ModelEntry:
        """Re-read a file-backed model; eagerly drops its cached rows
        and shared weight stacks.

        Under a resilience config with ``serve_stale`` the previous
        version's cached rows are *kept*: at the top of the overload
        ladder the service may answer from them (flagged ``stale`` on the
        ticket) instead of computing.  Version-keyed cache keys make the
        old rows unreachable by the normal lookup path, so correctness of
        fresh serving is unaffected.
        """
        resilience = self.config.resilience
        keep_stale = resilience is not None and resilience.serve_stale
        if keep_stale:
            self._stale_versions[name] = self.registry.get(name).version
        entry = self.registry.reload(name)
        if not keep_stale:
            self.cache.invalidate_model(name)
        self.stack_cache.invalidate_model(name)
        return entry

    def evict(self, name: str) -> None:
        self.registry.evict(name)
        self.cache.invalidate_model(name)
        self.stack_cache.invalidate_model(name)
        self._stale_versions.pop(name, None)

    def refresh_weight_stacks(self, name: str) -> int:
        """Advance a shared-stack model to a fresh sampled ensemble.

        Bumps the model's weight-stack stream position (the next batch
        draws new epsilons at the advanced position) and drops its cached
        prediction rows, which were computed under the old ensemble.
        Returns the number of stream positions advanced (0 if the model
        has not served a shared batch yet).
        """
        advanced = self.stack_cache.advance(name)
        self.cache.invalidate_model(name)
        return advanced

    # ------------------------------------------------------------------
    # Request path
    # ------------------------------------------------------------------
    def _check_row(self, entry: ModelEntry, x: np.ndarray) -> np.ndarray:
        # Always a private copy: submission is asynchronous, so a queued
        # row must not alias a caller buffer that may be reused before the
        # batch executes.
        row = np.array(x, dtype=np.float64)
        if row.ndim != 1 or row.shape[0] != entry.in_features:
            raise ConfigurationError(
                f"model {entry.name!r} expects a flat ({entry.in_features},) "
                f"input row, got shape {row.shape}"
            )
        return row

    def _coalesce_pending(self, key: tuple, ticket: PredictionTicket) -> PredictionTicket | None:
        """Return an in-flight ticket for ``key``, or register ``ticket``.

        With the cache enabled, the service promises that identical
        requests return identical rows between reloads; for *concurrent*
        identical requests the cache alone cannot keep that promise (both
        would miss and land in a batch as separate rows with different MC
        sample positions).  Coalescing onto the first pending ticket
        closes that window.  Counted as a cache hit in the metrics; the
        latency sample is recorded once, for the primary.
        """
        with self._pending_lock:
            existing = self._pending.get(key)
            if existing is not None and not existing.done():
                return existing
            self._pending[key] = ticket
            if len(self._pending) > 2 * self.config.queue_capacity:
                for done_key in [k for k, t in self._pending.items() if t.done()]:
                    del self._pending[done_key]
        return None

    def _release_pending(self, key: tuple, ticket: PredictionTicket) -> None:
        with self._pending_lock:
            if self._pending.get(key) is ticket:
                del self._pending[key]

    def _resolve_cached(
        self,
        ticket: PredictionTicket,
        key: tuple,
        row: np.ndarray,
        *,
        stale: bool = False,
    ) -> PredictionTicket:
        """Answer ``ticket`` from a cached ``row`` without queueing it.

        Releases the ticket's in-flight coalescing entry (a no-op when it
        never registered), counts a cache hit — plus a stale serve when
        ``stale`` — and closes the span with a ``cache_lookup`` phase.
        """
        self._release_pending(key, ticket)
        if stale:
            ticket.stale = True
            self.metrics.record_stale()
        self.metrics.record_cache(True)
        ticket.set_result(row)
        self.metrics.record_latency(ticket.latency())
        span = ticket.trace
        if span is not None and self.tracer is not None:
            # A hit's whole lifetime IS the lookup: anchor the phase to the
            # span window so coverage is exact even at microsecond scale.
            span.add_phase("cache_lookup", ticket.completed_at - span.start)
            span.cache_hit = True
            self.tracer.finish(span, end=ticket.completed_at)
        return ticket

    def submit(
        self,
        model: str,
        x: np.ndarray,
        *,
        slo: str | None = None,
        deadline_s: float | None = None,
    ) -> PredictionTicket:
        """Enqueue one prediction request; returns a resolvable ticket.

        Raises :class:`~repro.errors.UnknownModelError` for unregistered
        models, :class:`~repro.errors.ConfigurationError` for shape
        mismatches, and :class:`~repro.errors.ServiceOverloaded` when the
        bounded queue is full (recorded in the metrics).  On a
        cache-enabled service, a request identical to one already in
        flight returns the in-flight ticket instead of queueing a
        duplicate row.

        On a resilience-enabled service (``ServiceConfig.resilience``) a
        request may carry an SLO class (default ``interactive``) and a
        deadline in seconds from now (default: the class deadline from the
        config).  Expired requests fail with
        :class:`~repro.errors.DeadlineExceeded`; shed ones with
        :class:`~repro.errors.AdmissionShed` (recorded per class).
        """
        if self._closed:
            raise ConfigurationError("service is closed")
        resilience = self.config.resilience
        if resilience is None and (slo is not None or deadline_s is not None):
            raise ConfigurationError(
                "slo/deadline_s require ServiceConfig.resilience to be set"
            )
        slo_class = slo if slo is not None else "interactive"
        if slo_class not in SLO_CLASSES:
            raise ConfigurationError(
                f"unknown SLO class {slo_class!r}; "
                f"expected one of {', '.join(SLO_CLASSES)}"
            )
        if deadline_s is not None and deadline_s <= 0:
            raise ConfigurationError(f"deadline_s must be > 0, got {deadline_s}")
        entry = self.registry.get(model)
        row = self._check_row(entry, x)
        ticket = PredictionTicket(model, slo=slo_class)
        if resilience is not None:
            limit = (
                deadline_s
                if deadline_s is not None
                else resilience.class_deadline_s(slo_class)
            )
            if limit is not None:
                ticket.deadline = ticket.created_at + limit
        tracer = self.tracer
        span = None
        if tracer is not None:
            span = tracer.begin(model, start=ticket.created_at)
            ticket.trace = span
        key: tuple | None = None
        if self.cache.capacity > 0:
            # Digesting the row and consulting the cache only matter on a
            # cache-enabled service; a disabled cache skips the whole path
            # (no per-request hashing, no misleading 0% hit-rate stream).
            lookup_start = time.perf_counter()
            key = PredictionCache.key(entry.name, entry.version, entry.n_samples, row)
            cached = self.cache.get(key)
            if cached is not None:
                return self._resolve_cached(ticket, key, cached)
            in_flight = self._coalesce_pending(key, ticket)
            if in_flight is not None:
                self.metrics.record_cache(True)
                if span is not None:
                    # The caller rides the in-flight primary's ticket; this
                    # span covers only the submit-side lookup that found it.
                    now = time.perf_counter()
                    span.add_phase("cache_lookup", now - span.start)
                    span.cache_hit = True
                    span.mark("coalesced")
                    tracer.finish(span, end=now)
                return in_flight
            # We are now the pending primary — but a previous primary may
            # have completed (cache.put happens before its ticket resolves)
            # between the cache lookup above and the registration.  Re-read
            # the cache so a just-computed row is reused instead of being
            # recomputed and overwritten by a different MC draw.
            fresh = self.cache.get(key)
            if fresh is not None:
                return self._resolve_cached(ticket, key, fresh)
            if (
                self.admission is not None
                and resilience.serve_stale
                and self.admission.degrade_level() >= 2
            ):
                # Top of the overload ladder: answer from the previous
                # model version's cached row (kept alive by reload()) if
                # one exists, flagged stale, instead of computing at all.
                stale_version = self._stale_versions.get(entry.name)
                if stale_version is not None:
                    stale_row = self.cache.get(
                        PredictionCache.key(
                            entry.name, stale_version, entry.n_samples, row
                        )
                    )
                    if stale_row is not None:
                        return self._resolve_cached(
                            ticket, key, stale_row, stale=True
                        )
            self.metrics.record_cache(False)
            if span is not None:
                span.add_phase("cache_lookup", time.perf_counter() - lookup_start)
        try:
            if self.admission is not None:
                self.admission.admit(slo_class, self.batcher.pending())
            depth = self.batcher.submit(row, ticket)
        except Exception as error:
            # Fail the ticket too: a concurrent identical request may
            # already have coalesced onto it, and that caller must see the
            # rejection rather than block until its result() timeout.
            if key is not None:
                self._release_pending(key, ticket)
            ticket.set_exception(error)
            if span is not None:
                tracer.finish(
                    span, end=ticket.completed_at, error=type(error).__name__
                )
            if isinstance(error, AdmissionShed):
                self.metrics.record_shed(slo_class)
            elif isinstance(error, ServiceOverloaded):
                self.metrics.record_overload()
            raise
        self.metrics.record_queue_depth(depth)
        if self._sync_worker is not None:
            while self.batcher.full_batch_ready():
                self._drain_one()
        return ticket

    def _drain_one(self) -> bool:
        assert self._sync_worker is not None
        batch = self.batcher.drain_tick()
        if batch is None:
            return False
        self._sync_worker.execute(batch)
        return True

    def flush(self) -> None:
        """Synchronous mode: run queued batches on the caller's thread.

        A no-op when the queue is empty or when a worker pool owns the
        drain (threaded mode).
        """
        if self._sync_worker is None:
            return
        while self._drain_one():
            pass

    def predict_many(
        self,
        model: str,
        x: np.ndarray,
        *,
        timeout: float = DEFAULT_RESULT_TIMEOUT_S,
        slo: str | None = None,
        deadline_s: float | None = None,
    ) -> np.ndarray:
        """Submit every row of ``x`` and return stacked probability rows.

        The convenience bulk path: in synchronous mode this is exactly the
        micro-batched fast path (full batches dispatch during submission,
        the remainder on the final flush); in threaded mode it is a
        closed-loop client of the worker pool.
        """
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2:
            raise ConfigurationError(
                f"predict_many expects a (batch, features) array, got {x.shape}"
            )
        tickets = []
        for row in x:
            # A bulk caller is closed-loop by definition: on backpressure
            # it waits for the service to drain instead of dropping, so
            # inputs larger than queue_capacity still complete.
            while True:
                try:
                    tickets.append(
                        self.submit(model, row, slo=slo, deadline_s=deadline_s)
                    )
                    break
                except ServiceOverloaded:
                    self.flush()  # sync mode: drain on this thread
                    time.sleep(0.001)  # threaded mode: let workers drain
        self.flush()
        return np.stack([ticket.result(timeout) for ticket in tickets])

    def predict_proba(
        self,
        model: str,
        x: np.ndarray,
        *,
        timeout: float = DEFAULT_RESULT_TIMEOUT_S,
        slo: str | None = None,
        deadline_s: float | None = None,
    ) -> np.ndarray:
        """Single-request convenience wrapper returning one probability row."""
        ticket = self.submit(model, x, slo=slo, deadline_s=deadline_s)
        self.flush()
        return ticket.result(timeout)

    # ------------------------------------------------------------------
    def stats(self) -> dict[str, object]:
        """Metrics snapshot plus live queue/cache/registry gauges."""
        snap = self.metrics.snapshot()
        snap["queue_pending"] = self.batcher.pending()
        snap["cache_entries"] = len(self.cache)
        snap["stack_cache_entries"] = len(self.stack_cache)
        snap["models"] = self.registry.names()
        return snap

    def close(self) -> None:
        """Stop accepting work and shut the worker pool down.

        Idempotent: in-flight batches drain and every held ticket
        resolves (result or typed error).
        """
        if self._closed:
            return
        self._closed = True
        if self._pool is not None:
            self._pool.stop()
        else:
            self.flush()
            self.batcher.close()

    def __enter__(self) -> "BnnService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
