"""Per-request tracing: spans with named phases on monotonic clocks.

A **span** is one request's timeline through the serving stack.  Its
``phases`` dict maps phase names to seconds; the serving tier records

``cache_lookup``  submit-side prediction-cache consult (digest + lookup)
``submit``        the rest of span start → enqueue for a miss: validation,
                  registry lookup, admission and the batcher lock
``batch_fill``    enqueue → the *last* row of the request's batch arriving,
                  plus the batcher's ``max_wait_ms`` fill window after it
                  (time spent waiting for the batch to coalesce)
``queue_wait``    the rest of last-row arrival → a worker starting to
                  execute the batch (time the batch waited for a worker)
``stack_build``   predictor acquisition + shared weight-ensemble fetch/build
``inference``     the batched Monte-Carlo call itself
``respond``       inference end → this request's ticket resolving
                  (cache fill + result delivery)

``batch_fill``/``queue_wait`` split each request's queue residency at the
arrival of its batch's youngest row, and move the fill window a worker
held open after that arrival back to ``batch_fill``, so the two classic
p99 suspects — "waiting for traffic to coalesce" vs "waiting for a
worker" — are separate numbers.  A lone request that sits out the fill
window books it as ``batch_fill``.  A served request's phases from
``submit`` on are stamped once per batch (:attr:`RequestSpan.batch`)
and expanded per span only when its :attr:`RequestSpan.phases` is read,
so the worker's per-request tracing cost is one attribute set and the
ring append.

All stamps are ``time.perf_counter`` — the same monotonic clock the
tickets and the load generator use, so client samples and server spans
join on a shared timebase.

Phase timing is **nested-aware**: :func:`phase` blocks inside an active
:func:`collect_phases` collection attribute *exclusive* time (a child's
time is subtracted from its parent), so the recorded phases of one
collection partition its wall clock — the invariant the span tests
assert (phases nest; sum of phases ≤ wall time).  With no collection
active, :func:`phase` is a no-op costing one thread-local read, which is
what makes always-on instrumentation of the weight-stack cache safe.

Spans land in a bounded ring (:class:`Tracer`), exportable as JSON-lines
(:meth:`Tracer.export_jsonl`) and renderable as a p50/p95/p99 phase
breakdown (:func:`render_phase_report`, the ``obs-report`` CLI verb).
"""

from __future__ import annotations

import json
import pathlib
import threading
import time
from collections import deque
from contextlib import contextmanager

import numpy as np

from repro.errors import ConfigurationError

#: Canonical serving phases, in request-lifecycle order (report order).
#: ``shed`` covers the queue residency of a request evicted past its
#: deadline (resilience layer) — such spans have no compute phases.
SERVING_PHASES = (
    "cache_lookup",
    "submit",
    "batch_fill",
    "queue_wait",
    "shed",
    "stack_build",
    "inference",
    "respond",
)


class RequestSpan:
    """One request's phase timeline.  Plain data; the tracer owns the ring."""

    __slots__ = (
        "model", "start", "end", "enqueued", "_phases", "_marks", "batch",
        "batch_size", "worker", "cache_hit", "error",
    )

    def __init__(self, model: str, start: float) -> None:
        self.model = model
        self.start = start
        self.end: float | None = None
        #: perf_counter stamp of the enqueue, or ``None`` (never queued).
        self.enqueued: float | None = None
        # Allocated on first use: most served spans never need them.
        self._phases: dict[str, float] | None = None
        self._marks: dict[str, float] | None = None
        #: The served batch's shared stamps, or ``None``: a plain tuple
        #: ``(e_last, fill_tail, exec_start, stack_build, inference,
        #: respond_start)`` — the youngest row's enqueue, the fill window
        #: held open after it, the start of execution, the batch-level
        #: phase seconds and the end of inference.
        self.batch: tuple[float, ...] | None = None
        self.batch_size = 0
        self.worker: int | None = None
        self.cache_hit = False
        self.error: str | None = None

    @property
    def phases(self) -> dict[str, float]:
        """Phase name to seconds, the batch's share expanded on read.

        A served request spent [start, enqueued] in submit (validation,
        admission, the batcher lock), less its own ``cache_lookup``.  Its
        queue residency splits at the youngest arrival ``e_last``: it
        waited [enqueued, e_last] for the batch to fill and [e_last,
        exec_start] for dispatch, except the fill window after
        ``e_last``, which is still coalescing and moves to
        ``batch_fill``.  ``respond`` runs from inference end to the
        span's end.  These are disjoint sub-intervals of the span, so
        summed phases never exceed wall time.
        """
        phases = dict(self._phases or {})
        if self.batch is None:
            return phases
        e_last, fill_tail, exec_start, stack_build, inference, respond_start = self.batch
        enqueued = min(self.start if self.enqueued is None else self.enqueued, e_last)
        end = respond_start if self.end is None else self.end
        for name, seconds in (
            ("submit", enqueued - self.start - phases.get("cache_lookup", 0.0)),
            ("batch_fill", e_last - enqueued + fill_tail),
            ("queue_wait", exec_start - e_last - fill_tail),
            ("stack_build", stack_build),
            ("inference", inference),
            ("respond", end - respond_start),
        ):
            phases[name] = phases.get(name, 0.0) + max(seconds, 0.0)
        return phases

    @property
    def marks(self) -> dict[str, float]:
        """Named instants (``coalesced``, ...) on the perf_counter clock."""
        return dict(self._marks or {})

    def add_phase(self, name: str, seconds: float) -> None:
        if self._phases is None:
            self._phases = {}
        self._phases[name] = self._phases.get(name, 0.0) + max(float(seconds), 0.0)

    def mark(self, name: str) -> None:
        if self._marks is None:
            self._marks = {}
        self._marks[name] = time.perf_counter()

    @property
    def latency_s(self) -> float:
        return (self.end - self.start) if self.end is not None else 0.0

    def accounted_fraction(self) -> float:
        """Sum of phases over wall time (the coverage-gate statistic)."""
        wall = self.latency_s
        return sum(self.phases.values()) / wall if wall > 0 else 1.0

    def to_dict(self) -> dict:
        return {
            "model": self.model,
            "start": self.start,
            "end": self.end,
            "latency_s": self.latency_s,
            "phases": dict(self.phases),
            "batch_size": self.batch_size,
            "worker": self.worker,
            "cache_hit": self.cache_hit,
            "error": self.error,
        }

    def _record(self) -> tuple:
        """The span as one flat tuple of atomic values.

        A traced service keeps thousands of finished spans.  As flat
        tuples the garbage collector stops tracking them on its first
        pass instead of walking every one in each full collection (a
        tuple nested in the record, such as the batch stamps, could keep
        it tracked).  Only a span with its own phases or marks nests one.
        """
        return (
            self.model, self.start, self.end, self.enqueued,
            None if self._phases is None else tuple(self._phases.items()),
            None if self._marks is None else tuple(self._marks.items()),
            self.batch_size, self.worker, self.cache_hit, self.error,
        ) + (self.batch or _NO_BATCH)

    @classmethod
    def _from_record(cls, record: tuple) -> "RequestSpan":
        span = cls(record[0], record[1])
        (
            span.end, span.enqueued, phases, marks,
            span.batch_size, span.worker, span.cache_hit, span.error,
        ) = record[2:10]
        span._phases = None if phases is None else dict(phases)
        span._marks = None if marks is None else dict(marks)
        span.batch = None if record[10] is None else record[10:]
        return span


#: A record's batch stamps when the span served no batch.
_NO_BATCH = (None,) * 6


class Tracer:
    """Thread-safe bounded ring of finished request spans.

    Parameters
    ----------
    capacity:
        Maximum retained spans; older spans fall off the ring.  Spans are
        small (one dict of floats), so the default keeps minutes of
        high-rate traffic.
    """

    def __init__(self, capacity: int = 16384) -> None:
        if capacity < 1:
            raise ConfigurationError(f"capacity must be >= 1, got {capacity}")
        self.capacity = int(capacity)
        self._lock = threading.Lock()
        # Finished spans as RequestSpan._record tuples.
        self._ring: deque[tuple] = deque(maxlen=self.capacity)
        #: Total spans ever finished (the ring may have dropped some).
        self.finished = 0

    # ------------------------------------------------------------------
    def begin(self, model: str, start: float | None = None) -> RequestSpan:
        """Open a span; the caller carries it (on the ticket) until finish."""
        return RequestSpan(model, time.perf_counter() if start is None else start)

    def finish(
        self,
        span: RequestSpan,
        end: float | None = None,
        error: str | None = None,
    ) -> None:
        """Stamp the end, record the span in the ring."""
        span.end = time.perf_counter() if end is None else end
        if error is not None:
            span.error = error
        record = span._record()
        with self._lock:
            self._ring.append(record)
            self.finished += 1

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        with self._lock:
            return len(self._ring)

    def spans(self) -> list[RequestSpan]:
        """Snapshot of the ring, oldest first."""
        with self._lock:
            records = list(self._ring)
        return [RequestSpan._from_record(record) for record in records]

    def clear(self) -> None:
        with self._lock:
            self._ring.clear()

    def export_jsonl(self, path) -> int:
        """Write one JSON object per span; returns the span count."""
        spans = self.spans()
        pathlib.Path(path).parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as handle:
            for span in spans:
                handle.write(json.dumps(span.to_dict()) + "\n")
        return len(spans)


# ----------------------------------------------------------------------
# Nested phase timing (thread-local; exclusive-time attribution)
# ----------------------------------------------------------------------
_active = threading.local()


class _Frame:
    __slots__ = ("child",)

    def __init__(self) -> None:
        self.child = 0.0


@contextmanager
def collect_phases(sink: dict):
    """Collect :func:`phase` timings on this thread into ``sink``.

    Nested collections are not stacked: the innermost wins until it
    exits (the serving tier never nests collections — one per batch).
    """
    previous = getattr(_active, "stack", None)
    _active.stack = [(_Frame(), sink)]
    try:
        yield sink
    finally:
        _active.stack = previous


@contextmanager
def phase(name: str):
    """Time this block into the active collection (no-op without one).

    Exclusive attribution: a nested phase's wall time is subtracted from
    its parent phase, so one collection's phases sum to (at most) the
    outermost phase time — never double-counting.
    """
    stack = getattr(_active, "stack", None)
    if not stack:
        yield
        return
    frame = _Frame()
    sink = stack[0][1]
    stack.append((frame, sink))
    start = time.perf_counter()
    try:
        yield
    finally:
        elapsed = time.perf_counter() - start
        stack.pop()
        stack[-1][0].child += elapsed
        exclusive = max(elapsed - frame.child, 0.0)
        sink[name] = sink.get(name, 0.0) + exclusive


# ----------------------------------------------------------------------
# Reporting
# ----------------------------------------------------------------------
def load_spans(path) -> list[dict]:
    """Read a JSON-lines trace export back into span dicts."""
    spans: list[dict] = []
    with open(path) as handle:
        for line in handle:
            line = line.strip()
            if line:
                spans.append(json.loads(line))
    return spans


def _percentiles(values: list[float]) -> tuple[float, float, float]:
    if not values:
        return 0.0, 0.0, 0.0
    p50, p95, p99 = np.percentile(values, (50.0, 95.0, 99.0))
    return float(p50), float(p95), float(p99)


def render_phase_report(spans: "list[dict] | list[RequestSpan]") -> str:
    """p50/p95/p99 phase-breakdown table over spans (``obs-report``).

    Accepts live :class:`RequestSpan` objects (``Tracer.spans()``),
    :meth:`RequestSpan.to_dict` dicts, or JSONL re-reads.  Cache hits and
    errors are summarised separately; the phase table covers served
    (error-free) spans.
    """
    spans = [s.to_dict() if isinstance(s, RequestSpan) else s for s in spans]
    served = [s for s in spans if not s.get("error")]
    hits = sum(1 for s in served if s.get("cache_hit"))
    errors = len(spans) - len(served)
    latencies = [float(s.get("latency_s", 0.0)) for s in served]
    total_latency = sum(latencies)
    lines = [
        f"spans    : {len(spans)} total, {len(served)} served "
        f"({hits} cache hits, {errors} errors)",
    ]
    if not served:
        return "\n".join(lines)
    p50, p95, p99 = _percentiles(latencies)
    lines.append(
        f"latency  : p50={p50 * 1e3:.2f}ms  p95={p95 * 1e3:.2f}ms  "
        f"p99={p99 * 1e3:.2f}ms"
    )
    accounted = [
        sum(s.get("phases", {}).values()) / s["latency_s"]
        for s in served
        if s.get("latency_s", 0.0) > 0
    ]
    if accounted:
        lines.append(f"coverage : {100.0 * min(accounted):.1f}% of latency "
                     f"accounted by phases (worst span)")
    lines.append("")
    header = f"{'phase':<14}{'count':>8}{'p50':>12}{'p95':>12}{'p99':>12}{'share':>9}"
    lines.append(header)
    lines.append("-" * len(header))
    seen = [name for name in SERVING_PHASES]
    extra = sorted(
        {name for s in served for name in s.get("phases", {})} - set(SERVING_PHASES)
    )
    for name in seen + extra:
        values = [
            float(s["phases"][name]) for s in served if name in s.get("phases", {})
        ]
        if not values:
            continue
        p50, p95, p99 = _percentiles(values)
        share = sum(values) / total_latency if total_latency > 0 else 0.0
        lines.append(
            f"{name:<14}{len(values):>8}"
            f"{p50 * 1e6:>10.0f}us{p95 * 1e6:>10.0f}us{p99 * 1e6:>10.0f}us"
            f"{share:>8.1%}"
        )
    return "\n".join(lines)
