"""Micro-batching scheduler: coalesce single-image requests into batches.

The serving subsystem's core trade: a model's batched Monte-Carlo call
(``predict_proba``) pays its per-call costs once per batch — a
shared stack's forward kernels, or for a fresh float model one epsilon
fill and layer 0's GEMMs shared by every pass — so 64 coalesced
single-image requests run 64-row GEMMs instead of 64 one-row calls.
:class:`MicroBatcher` is the queue that performs that coalescing:

* ``submit`` appends to a **bounded** queue and raises
  :class:`~repro.errors.ServiceOverloaded` when full (typed backpressure —
  producers feel load instead of the queue growing without bound);
* ``next_batch`` (worker side) pops up to ``max_batch`` requests **for one
  model**, waiting at most ``max_wait_ms`` after the first pop for the
  batch to fill — the classic latency/throughput knob;
* ``drain_tick`` is the non-blocking variant used by the synchronous
  (caller-driven) service mode and by tests; an empty queue is a no-op
  tick returning ``None``.

Requests for different models may interleave in the queue; a batch only
ever contains rows for a single model (one Monte-Carlo call serves one
posterior), and skipped requests keep their queue order.  The queue never
looks at deadlines: the executing worker checks them once, after the pop.

A request lives claim → batch → settle: ``BnnService.submit`` claims its
cache key, the batcher carries its :class:`PredictionTicket` to a worker,
and every way it can end goes through :func:`settle`, the one place a
ticket resolves and is counted.
"""

from __future__ import annotations

import threading
import time
from collections import deque

import numpy as np

from repro.errors import (
    AdmissionShed,
    ConfigurationError,
    DeadlineExceeded,
    ServiceOverloaded,
    ServingError,
)
from repro.utils.validation import check_positive


#: Makes each ticket's first-wins resolution atomic; held for a few
#: attribute writes only.
_RESOLVE = threading.Lock()


class PredictionTicket:
    """Future-like handle for one submitted prediction request.

    Created by :meth:`~repro.serving.service.BnnService.submit`; resolved
    once, by :func:`settle`.  ``created_at`` / ``completed_at`` are
    ``time.perf_counter`` stamps so client-observed latency and the
    service's recorded latency are the same number.

    Waiters block on a plain lock held from creation to resolution (each
    passes through by acquiring and releasing it): a tenth of an
    ``Event``'s construction cost, and no container for the garbage
    collector to track while a load generator holds thousands of tickets.
    """

    __slots__ = (
        "model", "created_at", "completed_at", "trace", "key",
        "slo", "deadline", "degraded", "stale",
        "_latch", "_value", "_error",
    )

    def __init__(self, model: str, slo: str = "interactive") -> None:
        self.model = model
        self.created_at = time.perf_counter()
        self.completed_at: float | None = None
        #: Optional :class:`~repro.obs.trace.RequestSpan` attached by a
        #: tracing-enabled service; ``None`` when tracing is off.
        self.trace = None
        #: Prediction-cache key, computed once at submit; ``None`` when
        #: the service caches nothing.
        self.key = None
        #: SLO class (:data:`~repro.serving.resilience.SLO_CLASSES`).
        self.slo = slo
        #: Absolute perf_counter deadline, or ``None`` (no eviction).
        self.deadline: float | None = None
        #: MC passes actually served when the overload ladder reduced
        #: them; ``None`` for a full-``N`` result.
        self.degraded: int | None = None
        #: True when resolved from a version-stale cache row.
        self.stale = False
        self._latch = threading.Lock()
        self._latch.acquire()
        self._value: np.ndarray | None = None
        self._error: BaseException | None = None

    def done(self) -> bool:
        """Whether a result or error has been delivered."""
        return self.completed_at is not None

    def _resolve(self, value: np.ndarray | None, error: BaseException | None) -> bool:
        with _RESOLVE:
            if self.completed_at is not None:
                return False
            self._value = value
            self._error = error
            self.completed_at = time.perf_counter()
        self._latch.release()
        return True

    def set_result(self, value: np.ndarray) -> bool:
        """Deliver a result; first delivery wins (``False``: already resolved).

        Serving code resolves tickets only through :func:`settle`.
        """
        return self._resolve(value, None)

    def set_exception(self, error: BaseException) -> bool:
        """Deliver a failure; first delivery wins (see :meth:`set_result`)."""
        return self._resolve(None, error)

    def latency(self) -> float:
        """Seconds from submit to completion (requires :meth:`done`)."""
        if self.completed_at is None:
            raise ServingError("ticket is not complete yet")
        return self.completed_at - self.created_at

    def _wait(self, timeout: float | None) -> bool:
        if self.completed_at is not None:
            return True
        if timeout is None:
            acquired = self._latch.acquire()
        elif timeout > 0:
            acquired = self._latch.acquire(timeout=timeout)
        else:
            acquired = self._latch.acquire(blocking=False)
        if acquired:
            self._latch.release()
        return acquired

    def result(self, timeout: float | None = None) -> np.ndarray:
        """Block until resolved; return the probability row or re-raise.

        Returns a private copy per call: coalesced duplicate requests share
        one ticket, so handing out the stored array would let one caller's
        in-place mutation corrupt another's result (the cache copies on
        read for the same reason).
        """
        if not self._wait(timeout):
            raise ServingError(
                f"prediction for model {self.model!r} timed out after {timeout}s"
            )
        if self._error is not None:
            raise self._error
        assert self._value is not None
        return self._value.copy()


def settle(
    ticket: PredictionTicket, metrics, tracer, *,
    row: np.ndarray | None = None, error: BaseException | None = None,
    cache=None, phases=(), last_phase: tuple[str, float] | None = None,
    worker: int | None = None, batch_size: int | None = None,
) -> bool:
    """Resolve ``ticket`` with ``row`` or ``error``: the one exit of a request.

    First delivery wins (``False``: already resolved, nothing counted).
    Given the ``cache``, the ticket's claim ends first — a ``row`` is
    stored under it — so a later identical request finds the row.  A row
    counts as served, :class:`~repro.errors.AdmissionShed` as shed,
    :class:`~repro.errors.ServiceOverloaded` as an overload, any other
    error as failed (a :class:`~repro.errors.DeadlineExceeded` also as a
    deadline eviction).  A traced span gets ``phases``, then
    ``last_phase = (name, since)`` up to the resolution stamp, and ends.
    """
    if cache is not None and ticket.key is not None:
        if error is None:
            cache.put(ticket.key, ticket, row)
        else:
            cache.release(ticket.key, ticket)
    delivered = ticket.set_result(row) if error is None else ticket.set_exception(error)
    if not delivered:
        return False
    if error is None:
        metrics.record_latency(ticket.latency())
    elif isinstance(error, AdmissionShed):
        metrics.record_shed(ticket.slo)
    elif isinstance(error, ServiceOverloaded):
        metrics.record_overload()
    else:
        if isinstance(error, DeadlineExceeded):
            metrics.record_deadline_eviction(ticket.slo)
        metrics.record_failure()
    span = ticket.trace
    if span is not None and tracer is not None:
        for name, seconds in phases:
            span.add_phase(name, seconds)
        if last_phase is not None:
            name, since = last_phase
            span.add_phase(name, max(0.0, ticket.completed_at - since))
        if worker is not None:
            span.worker = worker
        if batch_size is not None:
            span.batch_size = batch_size
        error_name = None if error is None else type(error).__name__
        tracer.finish(span, end=ticket.completed_at, error=error_name)
    return True


class _Request:
    __slots__ = ("row", "ticket")

    def __init__(self, row: np.ndarray, ticket: PredictionTicket) -> None:
        self.row = row
        self.ticket = ticket


class Batch:
    """One model's worth of coalesced requests, ready for a single MC call."""

    __slots__ = ("model", "rows", "tickets", "popped_at", "fill_from")

    def __init__(self, model: str, rows: list[np.ndarray], tickets: list[PredictionTicket]) -> None:
        self.model = model
        self.rows = rows
        self.tickets = tickets
        #: ``perf_counter`` stamp of the pop — the end of queue residency
        #: for every request in the batch.
        self.popped_at = time.perf_counter()
        #: ``perf_counter`` stamp of when :meth:`MicroBatcher.next_batch`
        #: started holding this partial batch open for ``max_wait_ms``;
        #: ``None`` when it was popped without a fill window
        #: (:meth:`MicroBatcher.drain_tick`).  Tracing books the window
        #: as ``batch_fill``, not ``queue_wait``.
        self.fill_from: float | None = None

    def __len__(self) -> int:
        return len(self.rows)

    def stack(self) -> np.ndarray:
        """The ``(len(batch), in_features)`` input of the batched MC call."""
        return np.stack(self.rows)


class MicroBatcher:
    """Bounded request queue with same-model micro-batch coalescing.

    Parameters
    ----------
    max_batch:
        Upper bound on rows per batch — the micro-batching window.
    max_wait_ms:
        After the first request of a batch is popped, how long a blocking
        ``next_batch`` waits for the batch to fill before dispatching a
        partial one.  ``0`` dispatches whatever is queued immediately.
    capacity:
        Bounded queue size; ``submit`` beyond it raises
        :class:`~repro.errors.ServiceOverloaded`.
    """

    def __init__(self, max_batch: int = 64, max_wait_ms: float = 2.0, capacity: int = 1024) -> None:
        check_positive("max_batch", max_batch)
        check_positive("capacity", capacity)
        if max_wait_ms < 0:
            raise ConfigurationError(f"max_wait_ms must be >= 0, got {max_wait_ms}")
        if capacity < max_batch:
            raise ConfigurationError(
                f"capacity ({capacity}) must be >= max_batch ({max_batch})"
            )
        self.max_batch = int(max_batch)
        self.max_wait_ms = float(max_wait_ms)
        self.capacity = int(capacity)
        self._queue: deque[_Request] = deque()
        # Per-model pending counts, kept in lockstep with the queue so
        # "is a full batch ready?" and the fill-wait below are O(1);
        # _full is the set of models whose count reaches max_batch.
        self._counts: dict[str, int] = {}
        self._full: set[str] = set()
        self._lock = threading.Lock()
        self._not_empty = threading.Condition(self._lock)
        self._closed = False

    # ------------------------------------------------------------------
    def pending(self) -> int:
        """Requests currently queued (all models)."""
        with self._lock:
            return len(self._queue)

    @property
    def closed(self) -> bool:
        with self._lock:
            return self._closed

    def submit(self, row: np.ndarray, ticket: PredictionTicket) -> int:
        """Enqueue one request; returns the queue depth after the append.

        Raises :class:`~repro.errors.ServiceOverloaded` when the queue is
        at capacity and :class:`~repro.errors.ServingError` when closed.
        """
        with self._not_empty:
            if self._closed:
                raise ServingError("batcher is closed")
            if len(self._queue) >= self.capacity:
                raise ServiceOverloaded(
                    f"request queue full ({self.capacity} pending); retry later"
                )
            self._queue.append(_Request(row, ticket))
            if ticket.trace is not None:
                ticket.trace.enqueued = time.perf_counter()
            model = ticket.model
            self._counts[model] = self._counts.get(model, 0) + 1
            if self._counts[model] >= self.max_batch:
                self._full.add(model)
            depth = len(self._queue)
            self._not_empty.notify()
            return depth

    # ------------------------------------------------------------------
    def _pop_batch_locked(self) -> Batch | None:
        """Pop up to ``max_batch`` same-model requests (caller holds lock).

        Scanning stops as soon as the batch is full (or the head model's
        pending count is exhausted), and skipped other-model requests are
        spliced back in front of the untouched tail — so a pop is
        O(batch + skipped), not O(queue), and never holds the lock for a
        full-queue rebuild under multi-model load.
        """
        if not self._queue:
            return None
        model = self._queue[0].ticket.model
        available = min(self._counts[model], self.max_batch)
        taken: list[_Request] = []
        skipped: list[_Request] = []
        while len(taken) < available:
            request = self._queue.popleft()
            if request.ticket.model == model:
                taken.append(request)
            else:
                skipped.append(request)
        self._queue.extendleft(reversed(skipped))
        remaining = self._counts[model] - len(taken)
        if remaining:
            self._counts[model] = remaining
        else:
            del self._counts[model]
        if remaining < self.max_batch:
            self._full.discard(model)
        return Batch(model, [r.row for r in taken], [r.ticket for r in taken])

    def full_batch_ready(self) -> bool:
        """Whether *any* model has ``max_batch`` rows pending.

        The synchronous service mode uses this as its auto-drain trigger,
        so submission bursts dispatch full micro-batches and partial
        remainders wait for an explicit flush.  The check covers every
        model, not just the head of the queue — a full batch queued behind
        another model's partial rows still triggers the drain (the drain
        loop pops head batches until the full one dispatches).
        """
        with self._lock:
            return bool(self._full)

    def drain_tick(self) -> Batch | None:
        """Non-blocking tick: pop one batch if anything is queued.

        An empty queue is a valid empty tick — returns ``None``, touches
        nothing.  This is the caller-driven path of the synchronous service
        mode.
        """
        with self._lock:
            return self._pop_batch_locked()

    def next_batch(self, timeout: float | None = None) -> Batch | None:
        """Blocking pop for worker threads.

        Waits up to ``timeout`` seconds for a first request (``None`` on
        timeout or when closed and drained), then up to ``max_wait_ms``
        more for ``max_batch`` same-model requests to accumulate before
        dispatching a partial batch.
        """
        with self._not_empty:
            if not self._queue and not self._closed:
                self._not_empty.wait(timeout)
            if not self._queue:
                return None
            fill_from = None
            if self.max_wait_ms > 0:
                window = self.max_wait_ms / 1000.0
                model = self._queue[0].ticket.model
                fill_from = time.perf_counter()
                while not self._closed:
                    if self._queue:
                        head = self._queue[0].ticket.model
                        if head != model:
                            # Another worker popped the model we were
                            # filling for; the new head gets its own fill
                            # window instead of inheriting a spent one.
                            model = head
                            fill_from = time.perf_counter()
                        if self._counts.get(model, 0) >= self.max_batch:
                            break
                    remaining = fill_from + window - time.perf_counter()
                    if remaining <= 0:
                        break
                    self._not_empty.wait(remaining)
            batch = self._pop_batch_locked()
            if batch is not None:
                batch.fill_from = fill_from
            return batch

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Refuse new submissions and wake blocked workers.

        Already-queued requests remain poppable so a shutdown can drain.
        """
        with self._not_empty:
            self._closed = True
            self._not_empty.notify_all()
