"""Worker pool: threads that turn queued batches into batched MC calls.

Each :class:`ServingWorker` owns a private predictor per model — built by
:meth:`~repro.serving.registry.ModelEntry.build_predictor` with the
worker's decorrelated GRNG stream (see
:func:`~repro.serving.registry.worker_stream_seed`) — so concurrent
workers never share generator state and every worker's epsilon stream is
individually reproducible.  Workers rebuild a predictor when the model's
registry version moves (a reload), which is how new posteriors and fresh
streams propagate without locks around the hot path.

A batch runs one way whatever the model kind: one
``predictor.predict_proba(x, n_passes)`` call, where ``n_passes`` is the
entry's ``N`` or, for a degraded batch, the overload ladder's reduced
pass count.

The heavy lifting inside a batch is pure NumPy/BLAS, which releases the
GIL for the GEMMs, so a small pool genuinely overlaps compute with
queueing; the pool size is a throughput/latency knob, not a parallel-Python
workaround.  ``ServingWorker`` is also usable unstarted: the synchronous
service mode constructs worker 0 and calls :meth:`ServingWorker.execute`
on the caller's thread, so both modes run the identical execution path.

Of a request's claim → batch → settle, :meth:`ServingWorker.execute`
makes the one deadline check (failing expired tickets with
:class:`~repro.errors.DeadlineExceeded`), runs the live rows and settles
each ticket (:func:`~repro.serving.batcher.settle`) with its row, or
with the error of a batch-level fault.

With a :class:`~repro.serving.resilience.ResilienceConfig` attached the
pool additionally supervises its threads (``docs/RESILIENCE.md``): a
supervisor thread watches heartbeats and per-batch residency, settles
the tickets of a dead or stalled worker's batch with a typed
:class:`~repro.errors.WorkerCrashed` (never a hang), and restarts the
slot with a bumped ``incarnation`` so the replacement draws a fresh,
decorrelated — yet deterministic — GRNG stream.  ``stop`` fails
whatever a worker still holds past its join timeout the same way, and
then every request still queued behind it.
Workers also step Monte-Carlo passes down the overload ladder.
"""

from __future__ import annotations

import contextlib
import threading
import time

from repro.errors import (
    ConfigurationError,
    DeadlineExceeded,
    InjectedWorkerKill,
    WorkerCrashed,
)
from repro.obs import trace as _trace
from repro.obs.trace import Tracer
from repro.serving.batcher import Batch, MicroBatcher, settle
from repro.serving.cache import PredictionCache
from repro.serving.metrics import ServiceMetrics
from repro.serving.registry import ModelRegistry
from repro.serving.resilience import AdmissionController, FaultPlan, ResilienceConfig
from repro.serving.weight_stack import WeightStackCache
from repro.utils.validation import check_positive

#: How long an idle worker blocks on the queue before re-checking shutdown.
_IDLE_POLL_S = 0.05


def _enqueued(span) -> float:
    """The span's enqueue stamp, or its start when it was never queued."""
    return span.start if span.enqueued is None else span.enqueued


def _submit_phase(span, enqueued: float) -> tuple[str, float]:
    """``submit``: the span start to the enqueue, less the cache lookup."""
    return ("submit", enqueued - span.start - span.phases.get("cache_lookup", 0.0))


class ServingWorker(threading.Thread):
    """One serving thread (or the synchronous mode's inline executor).

    The supervision attributes (``last_beat``, ``busy_since``,
    ``current_batch``, ``retired``, ``crashed``) are deliberately plain,
    lock-free attributes: each is written by the worker thread and read as
    a single-word snapshot by the supervisor, so a slightly stale read
    only delays a supervision decision by one poll interval.
    """

    def __init__(
        self,
        index: int,
        registry: ModelRegistry,
        batcher: MicroBatcher,
        cache: PredictionCache,
        metrics: ServiceMetrics,
        stack_cache: WeightStackCache | None = None,
        tracer: Tracer | None = None,
        *,
        admission: AdmissionController | None = None,
        fault_plan: FaultPlan | None = None,
        incarnation: int = 0,
    ) -> None:
        super().__init__(name=f"bnn-serving-worker-{index}", daemon=True)
        self.index = index
        self.registry = registry
        self.batcher = batcher
        self.cache = cache
        self.metrics = metrics
        self.stack_cache = stack_cache
        self.tracer = tracer
        self.admission = admission
        self.fault_plan = fault_plan
        self.incarnation = incarnation
        # Supervision heartbeat/progress markers (see class docstring).
        self.last_beat = time.perf_counter()
        self.busy_since: float | None = None
        self.current_batch: Batch | None = None
        self.retired = False
        self.crashed = False
        # Per-worker predictor cache: model name -> (version, predictor).
        self._predictors: dict[str, tuple[int, object]] = {}

    # ------------------------------------------------------------------
    def _predictor_for(self, entry) -> object:
        cached = self._predictors.get(entry.name)
        if cached is not None and cached[0] == entry.version:
            return cached[1]
        predictor = entry.build_predictor(
            self.index, stack_cache=self.stack_cache, incarnation=self.incarnation
        )
        self._predictors[entry.name] = (entry.version, predictor)
        return predictor

    def settle_expired(self, batch: Batch) -> None:
        """Fail the batch's expired tickets and drop their rows.

        Each fails once with :class:`~repro.errors.DeadlineExceeded` (a
        coalesced follower shares its primary's outcome); its span gets a
        ``shed`` phase covering the queue residency that expired it.
        """
        now = time.perf_counter()
        rows, tickets = [], []
        for row, ticket in zip(batch.rows, batch.tickets):
            if ticket.deadline is None or now <= ticket.deadline:
                rows.append(row)
                tickets.append(ticket)
                continue
            span = ticket.trace
            enqueued = now if span is None else _enqueued(span)
            error = DeadlineExceeded(
                f"{ticket.slo} request for model {ticket.model!r} expired "
                "in queue before a worker could serve it"
            )
            settle(
                ticket, self.metrics, self.tracer, error=error, cache=self.cache,
                phases=(_submit_phase(span, enqueued),) if span else (),
                last_phase=("shed", enqueued), worker=self.index,
            )
        batch.rows = rows
        batch.tickets = tickets

    @property
    def label(self) -> str:
        """``serving worker <index> (incarnation <n>)``, for error messages."""
        return f"serving worker {self.index} (incarnation {self.incarnation})"

    def fail(self, tickets, message: str) -> None:
        """Settle ``tickets`` with :class:`~repro.errors.WorkerCrashed`."""
        error = WorkerCrashed(message)
        for ticket in tickets:
            settle(ticket, self.metrics, self.tracer, error=error, cache=self.cache)

    def execute(self, batch: Batch) -> None:
        """Run one coalesced batch and resolve every ticket in it.

        Any failure (unknown model after an eviction race, a bad row that
        slipped validation, a predictor returning a malformed result, ...)
        is delivered to the batch's tickets rather than killing the worker.
        The output-shape check lives *inside* the fault barrier, before the
        cache loop: a faulty predictor must never populate cache entries
        for any of the batch's rows (a short result would otherwise cache
        some rows before the per-row indexing blew up mid-loop).
        """
        plan = self.fault_plan
        if plan is not None:
            event = plan.fire(self.index, self.incarnation)
            if event is not None:
                if event.action == "kill":
                    raise InjectedWorkerKill(
                        f"fault plan killed worker {self.index} "
                        f"(incarnation {self.incarnation})"
                    )
                # "stall" and "delay" only differ in magnitude: a stall is
                # long enough for the supervisor's batch timeout to fire.
                time.sleep(event.seconds)
        if any(t.deadline is not None for t in batch.tickets):
            self.settle_expired(batch)
        if len(batch) == 0:
            return  # whole batch expired: no inference, tickets already failed
        tracer = self.tracer
        traced = tracer is not None and any(
            ticket.trace is not None for ticket in batch.tickets
        )
        exec_start = time.perf_counter()
        admission = self.admission
        if admission is not None:
            # Queue pressure = how long the batch's youngest request sat
            # queued before execution started (perf_counter timebase, the
            # same clock the tracer stamps spans with).
            youngest = max(ticket.created_at for ticket in batch.tickets)
            admission.observe_queue_wait(exec_start - youngest)
        # Phase collection is installed only for traced batches; the inner
        # phase() calls degrade to a single thread-local read otherwise.
        batch_phases: dict[str, float] = {}
        collect = (
            _trace.collect_phases(batch_phases) if traced else contextlib.nullcontext()
        )
        degraded: int | None = None
        try:
            with collect:
                entry = self.registry.get(batch.model)
                predictor = self._predictor_for(entry)
                n_passes = entry.n_samples
                if admission is not None:
                    n_eff = admission.effective_passes(n_passes)
                    if n_eff < n_passes:
                        # Overload ladder: serve only the first n_eff MC
                        # passes — the same passes a full run would execute
                        # first, so degraded results are a matched-ensemble
                        # prefix (docs/RESILIENCE.md).
                        degraded = n_passes = n_eff
                with _trace.phase("inference"):
                    probs = predictor.predict_proba(batch.stack(), n_passes)
            # respond runs from inference end: the checks and bookkeeping
            # below are part of answering the batch.
            respond_start = time.perf_counter()
            if probs.ndim != 2 or probs.shape != (len(batch), entry.out_features):
                raise ConfigurationError(
                    f"predictor for model {entry.name!r} returned shape "
                    f"{probs.shape}, expected ({len(batch)}, {entry.out_features})"
                )
        except Exception as error:  # noqa: BLE001 - fault barrier per batch
            self.metrics.record_batch(len(batch))
            for ticket in batch.tickets:
                settle(
                    ticket, self.metrics, tracer, error=error, cache=self.cache,
                    worker=self.index, batch_size=len(batch),
                )
            return
        self.metrics.record_batch(len(batch))
        if degraded is not None:
            self.metrics.record_degraded(len(batch))
        timing = None
        if traced:
            # One stamp tuple per batch; each span expands its own
            # submit, batch_fill, queue_wait and respond from it on read.
            e_last = max(
                (
                    _enqueued(span)
                    for span in (t.trace for t in batch.tickets)
                    if span is not None
                ),
                default=exec_start,
            )
            e_last = min(e_last, exec_start)
            fill_tail = 0.0
            if batch.fill_from is not None:
                fill_tail = max(0.0, batch.popped_at - max(batch.fill_from, e_last))
            # The batch's execution tiles into inference (exclusive of any
            # shared-stack build inside it) and stack_build: everything
            # else before respond — predictor lookup, stack fetch or
            # build, pass configuration — so no gap goes unattributed.
            infer_s = batch_phases.get("inference", 0.0)
            timing = (
                e_last, fill_tail, exec_start,
                respond_start - exec_start - infer_s, infer_s, respond_start,
            )
        # A batch the supervisor failed over meanwhile settles nothing
        # more: its tickets are resolved and their cache claims released.
        for row_index, ticket in enumerate(batch.tickets):
            if timing is not None and ticket.trace is not None:
                ticket.trace.batch = timing
            ticket.degraded = degraded
            settle(
                ticket, self.metrics, tracer, row=probs[row_index], cache=self.cache,
                worker=self.index, batch_size=len(batch),
            )

    # ------------------------------------------------------------------
    def run(self) -> None:  # pragma: no cover - exercised via WorkerPool tests
        while not self.retired:
            batch = self.batcher.next_batch(timeout=_IDLE_POLL_S)
            self.last_beat = time.perf_counter()
            if batch is not None:
                self.busy_since = time.perf_counter()
                self.current_batch = batch
                try:
                    self.execute(batch)
                except InjectedWorkerKill:
                    # Chaos kill: die holding the batch.  current_batch
                    # stays set so the supervisor fails its tickets over.
                    self.crashed = True
                    return
                self.current_batch = None
                self.busy_since = None
            elif self.batcher.closed:
                return


class WorkerPool:
    """Owns ``workers`` serving threads over one shared batcher.

    With ``resilience`` set, a supervisor thread polls the workers every
    ``heartbeat_interval_s``: a dead worker (chaos kill, unexpected thread
    death) or one stuck on a single batch past ``batch_timeout_s`` has its
    batch failed over with :class:`~repro.errors.WorkerCrashed` and its
    slot restarted with ``incarnation + 1`` — the replacement's GRNG
    stream is re-derived at the bumped position, so post-restart outputs
    are decorrelated from the dead worker's yet fully deterministic given
    the fault schedule.
    """

    def __init__(
        self,
        registry: ModelRegistry,
        batcher: MicroBatcher,
        cache: PredictionCache,
        metrics: ServiceMetrics,
        workers: int = 2,
        stack_cache: WeightStackCache | None = None,
        tracer: Tracer | None = None,
        resilience: ResilienceConfig | None = None,
        admission: AdmissionController | None = None,
        fault_plan: FaultPlan | None = None,
    ) -> None:
        check_positive("workers", workers)
        self.registry = registry
        self.batcher = batcher
        self.cache = cache
        self.metrics = metrics
        self.stack_cache = stack_cache
        self.tracer = tracer
        self.resilience = resilience
        self.admission = admission
        self.fault_plan = fault_plan
        self._lock = threading.Lock()
        self._restarts = 0
        self._stopping = threading.Event()
        self.workers = [self._make_worker(index, 0) for index in range(workers)]
        for worker in self.workers:
            worker.start()
        self._supervisor: threading.Thread | None = None
        if resilience is not None:
            self._supervisor = threading.Thread(
                target=self._supervise, name="bnn-serving-supervisor", daemon=True
            )
            self._supervisor.start()

    def _make_worker(self, index: int, incarnation: int) -> ServingWorker:
        return ServingWorker(
            index, self.registry, self.batcher, self.cache, self.metrics,
            self.stack_cache, self.tracer, admission=self.admission,
            fault_plan=self.fault_plan, incarnation=incarnation,
        )

    @property
    def restarts(self) -> int:
        """Supervised restarts performed over the pool's lifetime."""
        with self._lock:
            return self._restarts

    # ------------------------------------------------------------------
    def _supervise(self) -> None:  # pragma: no cover - exercised via chaos tests
        config = self.resilience
        while not self._stopping.wait(config.heartbeat_interval_s):
            with self._lock:
                snapshot = list(enumerate(self.workers))
            now = time.perf_counter()
            for slot, worker in snapshot:
                if self._stopping.is_set():
                    return
                if not worker.is_alive():
                    if not worker.retired:
                        self._failover(slot, worker, "died")
                    continue
                busy_since = worker.busy_since
                if busy_since is not None and now - busy_since > config.batch_timeout_s:
                    self._failover(slot, worker, "stalled")

    def _failover(self, slot: int, worker: ServingWorker, cause: str) -> None:
        """Fail a dead/stalled worker's batch over and restart its slot."""
        restarted = False
        with self._lock:
            if self.workers[slot] is not worker:
                return  # already failed over by an earlier poll
            if self._restarts < self.resilience.max_restarts:
                self._restarts += 1
                restarted = True
                replacement = self._make_worker(worker.index, worker.incarnation + 1)
                self.workers[slot] = replacement
                # Start inside the lock: is_alive() is True once start()
                # returns, so the next supervisor snapshot can never catch
                # a swapped-in-but-not-yet-started replacement and restart
                # it a second time.
                replacement.start()
        worker.retired = True
        self._fail_batch(worker, f"{cause} mid-batch; its requests were failed over")
        if restarted:
            self.metrics.record_restart(cause)

    def _fail_batch(self, worker: ServingWorker, what: str) -> None:
        """Settle the tickets of ``worker``'s batch with ``WorkerCrashed``."""
        batch = worker.current_batch
        if batch is not None:
            worker.fail(batch.tickets, f"{worker.label} {what}")

    # ------------------------------------------------------------------
    def stop(self, timeout: float = 5.0) -> None:
        """Close the queue, let workers drain it, and join them."""
        self._stopping.set()
        supervisor = self._supervisor
        if supervisor is not None:
            supervisor.join(timeout)
        # close() refuses new submissions but leaves queued batches
        # poppable, so in-flight tickets still resolve before the join.
        self.batcher.close()
        with self._lock:
            workers = list(self.workers)
        for worker in workers:
            worker.join(timeout)
        if self.resilience is not None:
            # No-hang sweep: a worker that died (or is still wedged past
            # the join timeout) must not leave tickets unresolved behind a
            # stopped pool.
            for worker in workers:
                self._fail_batch(worker, "shut down holding an unfinished batch")
        # Requests still queued behind a worker wedged past the join would
        # otherwise wait for it forever: drain the closed queue and fail
        # them too, expired ones as expired (a no-op when the workers
        # drained it).
        while (batch := self.batcher.drain_tick()) is not None:
            workers[0].settle_expired(batch)
            workers[0].fail(
                batch.tickets,
                f"serving pool stopped before a worker ran this {batch.model!r} request",
            )
