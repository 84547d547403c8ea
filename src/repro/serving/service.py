"""`BnnService`: the synchronous request/response façade over the stack.

Every request runs claim → batch → settle::

    submit(model, image)
        │ key = (model, version, N, digest), computed once, kept on the ticket
        ▼
    PredictionCache.claim(key, ticket) ──row──────────► settle (cache hit)
        │            └──in-flight ticket──► returned to the caller (coalesced)
        │ None: this ticket now holds the key
        ▼
    admission + MicroBatcher.submit ──rejected──► settle (shed / overload)
        │ coalesce ≤ max_batch same-model rows
        ▼
    WorkerPool / caller thread (ServingWorker.execute)
        │ deadline check ──expired──► settle (DeadlineExceeded)
        │ one predictor.predict_proba(x, n_passes) call
        │   ──fault──► settle (the error), failover / stop sweep ──► settle
        ▼
    settle (row): cached under the claim, ticket resolved, counted, traced

:func:`~repro.serving.batcher.settle` is the one place a ticket resolves,
so every exit counts and traces the same way.

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

import time
from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError, InjectedWorkerKill, ServiceOverloaded
from repro.obs.trace import Tracer
from repro.serving.batcher import MicroBatcher, PredictionTicket, settle
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
        """Re-read a file-backed model; eagerly drops its cached rows,
        in-flight cache claims and shared weight stacks.

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
        self.cache.invalidate_model(name, keep_rows=keep_stale)
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
        prediction rows and in-flight cache claims: a batch already
        running under the old ensemble still answers its requests, but
        caches nothing.
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

    def _stale_row(self, entry: ModelEntry, row: np.ndarray) -> np.ndarray | None:
        """The previous version's row, kept by a ``serve_stale`` :meth:`reload`,
        when the overload ladder is at its top (level 2)."""
        stale_version = self._stale_versions.get(entry.name)
        if stale_version is None or self.admission.degrade_level() < 2:
            return None
        return self.cache.get(
            PredictionCache.key(entry.name, stale_version, entry.n_samples, row)
        )

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
        duplicate row (one :meth:`~PredictionCache.claim` decides).

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
        if self.cache.capacity > 0:
            # Digesting the row and consulting the cache only matter on a
            # cache-enabled service; a disabled cache skips the whole path
            # (no per-request hashing, no misleading 0% hit-rate stream).
            lookup_start = time.perf_counter()
            ticket.key = PredictionCache.key(
                entry.name, entry.version, entry.n_samples, row
            )
            found = self.cache.claim(ticket.key, ticket)
            if isinstance(found, PredictionTicket):
                # The identical request in flight answers this one too:
                # a cache hit, whose span covers only the lookup.
                self.metrics.record_cache(True)
                if span is not None:
                    now = time.perf_counter()
                    span.add_phase("cache_lookup", now - span.start)
                    span.cache_hit = True
                    span.mark("coalesced")
                    tracer.finish(span, end=now)
                return found
            if found is None:
                found = self._stale_row(entry, row)
                if found is not None:
                    self.cache.release(ticket.key, ticket)
                    ticket.stale = True
                    self.metrics.record_stale()
            if found is not None:
                self.metrics.record_cache(True)
                if span is not None:
                    span.cache_hit = True
                # A hit's whole lifetime IS the lookup: the phase runs to
                # the resolution stamp, so coverage is exact.
                settle(
                    ticket, self.metrics, tracer, row=found,
                    last_phase=("cache_lookup", ticket.created_at),
                )
                return ticket
            self.metrics.record_cache(False)
            if span is not None:
                span.add_phase("cache_lookup", time.perf_counter() - lookup_start)
        try:
            if self.admission is not None:
                self.admission.admit(slo_class, self.batcher.pending())
            depth = self.batcher.submit(row, ticket)
        except Exception as error:
            # Settle the ticket too: it holds the cache claim, and a
            # concurrent identical request may already ride it.
            settle(ticket, self.metrics, tracer, error=error, cache=self.cache)
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
        try:
            self._sync_worker.execute(batch)
        except InjectedWorkerKill:
            # The caller's thread is the worker here and no supervisor
            # fails the batch over, so fail it as the pool would.
            worker = self._sync_worker
            worker.fail(batch.tickets, f"{worker.label} was killed mid-batch")
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
