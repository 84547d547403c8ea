"""Load-test harness: open- and closed-loop request generators.

Two canonical arrival patterns drive :class:`~repro.serving.service.BnnService`:

* **Closed loop** (:func:`run_closed_loop`) — a fixed window of in-flight
  requests; the next window is issued only when the previous one
  completed.  Measures *capacity*: the maximum sustainable requests/sec of
  the configuration, which is what the micro-batching benchmark gate
  compares (``max_batch=64`` against ``max_batch=1``).
* **Open loop** (:func:`run_open_loop`) — requests arrive on a Poisson
  process at ``rate_rps`` regardless of completions, the standard model of
  independent users.  Measures *latency under load* and exercises the
  backpressure path: arrivals beyond the bounded queue are dropped and
  counted, not buffered.

Arrival randomness is seeded through
:func:`repro.utils.seeding.spawn_generator`, so a load test is replayable.
Latencies are taken from the tickets' own submit/complete timestamps — the
same numbers the service metrics record — so client- and service-side
views agree.
"""

from __future__ import annotations

import json
import pathlib
import time
from dataclasses import dataclass, field

import numpy as np

from repro.errors import (
    AdmissionShed,
    ConfigurationError,
    DeadlineExceeded,
    ServiceOverloaded,
)
from repro.serving.batcher import PredictionTicket
from repro.serving.metrics import format_latency, percentile_dict
from repro.serving.resilience import SLO_CLASSES, FaultPlan
from repro.serving.service import BnnService
from repro.utils.seeding import spawn_generator
from repro.utils.validation import check_positive

#: Ceiling on waiting for stragglers when a run ends.
_RESULT_TIMEOUT_S = 60.0


@dataclass
class LoadStats:
    """Outcome of one load-generator run."""

    pattern: str
    offered: int
    completed: int
    #: Open-loop arrivals rejected by backpressure and lost.
    dropped: int = 0
    #: Closed-loop rejections that were retried (and eventually completed).
    retried: int = 0
    failed: int = 0
    #: Requests shed by the resilience layer (admission control at submit,
    #: deadline eviction in queue).  Their own bucket — policy losses, not
    #: service faults — and excluded from the latency samples.
    shed: int = 0
    #: Tickets that never resolved within the collection timeout.  The
    #: no-hang invariant requires this to be 0 in every chaos run.
    hung: int = 0
    #: Total wall clock of the run (arrival window + drain for open loop).
    duration_s: float = 0.0
    #: Open loop only: the arrival window alone — the interval during
    #: which requests were offered.  0.0 for closed-loop runs.
    window_s: float = 0.0
    #: Open loop only: post-window flush/drain and straggler collection.
    drain_s: float = 0.0
    latencies_s: list[float] = field(default_factory=list, repr=False)
    #: Per-completion submit stamps (``ticket.created_at``, perf_counter
    #: timebase), index-aligned with ``latencies_s`` — the raw samples
    #: behind :meth:`export_samples`.
    submit_ts: list[float] = field(default_factory=list, repr=False)
    #: Completed-request latencies grouped by SLO class (resilience runs
    #: only; empty otherwise).
    latencies_by_slo: dict[str, list[float]] = field(default_factory=dict, repr=False)

    @property
    def throughput_rps(self) -> float:
        """Completed requests per second.

        Open-loop runs divide by the arrival window (all completed work
        arrived inside it; including the post-window drain in the
        denominator would understate the service); closed-loop runs use
        the full wall clock, whose windows have no idle drain tail.
        """
        basis = self.window_s if self.window_s > 0 else self.duration_s
        return self.completed / basis if basis > 0 else 0.0

    def latency_percentiles(self) -> dict[str, float]:
        return percentile_dict(self.latencies_s)

    def latency_mean(self) -> float:
        return float(np.mean(self.latencies_s)) if self.latencies_s else 0.0

    def latency_max(self) -> float:
        return float(np.max(self.latencies_s)) if self.latencies_s else 0.0

    @property
    def shed_rate(self) -> float:
        """Fraction of offered requests shed by policy (0.0 when none)."""
        return self.shed / self.offered if self.offered else 0.0

    @property
    def goodput_rps(self) -> float:
        """Completed-within-policy requests per second (= throughput here:
        shed and failed rows never reach ``completed``)."""
        return self.throughput_rps

    def slo_percentiles(self, slo: str) -> dict[str, float]:
        """Latency percentiles of one SLO class's completions only."""
        return percentile_dict(self.latencies_by_slo.get(slo, []))

    def summary(self) -> dict[str, float]:
        """Percentiles plus mean/max — one dict for reports and recorders.

        Shed requests are *excluded* from every latency number (they were
        refused, not served slowly) and surfaced as ``shed_rate`` instead.
        """
        out = self.latency_percentiles()
        out["mean"] = self.latency_mean()
        out["max"] = self.latency_max()
        if self.shed or self.hung:
            out["shed_rate"] = self.shed_rate
        return out

    def export_samples(self, path) -> pathlib.Path:
        """Write per-request ``{submit_ts, latency_s}`` JSON lines.

        ``submit_ts`` is the ticket's ``perf_counter`` submit stamp — the
        same timebase the server's trace spans use, so client samples and
        span timelines can be joined offline.
        """
        path = pathlib.Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as handle:
            for submit, latency in zip(self.submit_ts, self.latencies_s):
                handle.write(
                    json.dumps({"submit_ts": submit, "latency_s": latency}) + "\n"
                )
        return path

    def render(self) -> str:
        if self.window_s > 0:
            duration_line = (
                f"duration     : {self.duration_s:.3f}s "
                f"({self.window_s:.3f}s arrival window + {self.drain_s:.3f}s drain)"
            )
        else:
            duration_line = f"duration     : {self.duration_s:.3f}s"
        lines = [
            f"pattern      : {self.pattern}",
            f"offered      : {self.offered} requests"
            + (f" ({self.dropped} dropped by backpressure)" if self.dropped else "")
            + (f" ({self.retried} backpressure retries)" if self.retried else ""),
            f"completed    : {self.completed} ({self.failed} failed)",
            duration_line,
            f"throughput   : {self.throughput_rps:,.1f} req/s",
            f"latency      : {format_latency(self.latency_percentiles())}  "
            f"mean={self.latency_mean() * 1e3:.2f}ms  "
            f"max={self.latency_max() * 1e3:.2f}ms",
        ]
        if self.shed or self.hung:
            lines.append(
                f"resilience   : {self.shed} shed "
                f"({self.shed_rate * 100.0:.1f}% of offered), {self.hung} hung"
            )
        if len(self.latencies_by_slo) > 1:
            for slo in SLO_CLASSES:
                if self.latencies_by_slo.get(slo):
                    lines.append(
                        f"  {slo:<11}: {len(self.latencies_by_slo[slo])} completed  "
                        f"{format_latency(self.slo_percentiles(slo))}"
                    )
        return "\n".join(lines)


def _collect(stats: LoadStats, tickets: list[PredictionTicket], timeout: float) -> None:
    for ticket in tickets:
        try:
            ticket.result(timeout)
        except (DeadlineExceeded, AdmissionShed):
            stats.shed += 1  # policy loss, not a service fault
        except Exception:  # noqa: BLE001 - a load test tallies failures
            if ticket.done():
                stats.failed += 1
            else:
                stats.hung += 1  # result() timed out with no resolution at all
        else:
            stats.completed += 1
            stats.latencies_s.append(ticket.latency())
            stats.submit_ts.append(ticket.created_at)
            stats.latencies_by_slo.setdefault(ticket.slo, []).append(ticket.latency())


def run_closed_loop(
    service: BnnService,
    model: str,
    images: np.ndarray,
    *,
    total_requests: int,
    window: int | None = None,
    slo: str | None = None,
    deadline_s: float | None = None,
    result_timeout_s: float = _RESULT_TIMEOUT_S,
) -> LoadStats:
    """Issue ``total_requests`` in back-to-back windows; measure capacity.

    ``window`` defaults to the service's ``max_batch`` so each window maps
    onto one full micro-batch.  Requests cycle through ``images``.
    Transient :class:`~repro.errors.ServiceOverloaded` rejections are
    retried after a short backoff (a closed-loop client waits, it does not
    drop) — but an :class:`~repro.errors.AdmissionShed` is final: the
    policy refused this class under pressure, so the request lands in the
    ``shed`` bucket instead of a retry storm that would defeat the
    controller.
    """
    check_positive("total_requests", total_requests)
    images = np.asarray(images, dtype=np.float64)
    if images.ndim != 2 or images.shape[0] == 0:
        raise ConfigurationError(
            f"images must be a non-empty (count, features) array, got {images.shape}"
        )
    if window is None:
        window = service.config.max_batch
    check_positive("window", window)
    stats = LoadStats(pattern="closed-loop", offered=total_requests, completed=0)
    start = time.perf_counter()
    sent = 0
    while sent < total_requests:
        take = min(window, total_requests - sent)
        tickets: list[PredictionTicket] = []
        for offset in range(take):
            row = images[(sent + offset) % images.shape[0]]
            while True:
                try:
                    tickets.append(
                        service.submit(model, row, slo=slo, deadline_s=deadline_s)
                    )
                    break
                except AdmissionShed:
                    stats.shed += 1  # shed by policy: lost, not retried
                    break
                except ServiceOverloaded:
                    stats.retried += 1  # the request is retried, not lost
                    time.sleep(0.001)
        service.flush()
        _collect(stats, tickets, result_timeout_s)
        sent += take
    stats.duration_s = time.perf_counter() - start
    return stats


def run_open_loop(
    service: BnnService,
    model: str,
    images: np.ndarray,
    *,
    rate_rps: float,
    duration_s: float,
    seed: int = 0,
    slo: str | None = None,
    deadline_s: float | None = None,
    slo_weights: "dict[str, float] | None" = None,
    fault_plan: FaultPlan | None = None,
    result_timeout_s: float = _RESULT_TIMEOUT_S,
) -> LoadStats:
    """Poisson arrivals at ``rate_rps`` for ``duration_s``; measure latency.

    Requests that hit a full queue are dropped (counted, not retried) —
    open-loop clients model independent users, whose arrivals do not slow
    down because the service is busy.  Admission-control sheds land in
    their own ``shed`` bucket.  Meaningful latency numbers need a service
    with ``workers >= 1``; in synchronous mode only full batches dispatch
    during the run and the remainder drains at the end.

    ``slo_weights`` draws each request's SLO class from a weighted
    distribution (seeded — replayable); it is mutually exclusive with a
    fixed ``slo``.  A ``fault_plan`` with burst windows multiplies the
    arrival rate inside each window (burst overload) without perturbing
    the underlying exponential draw sequence.

    The arrival window (``window_s``) and the post-window flush/drain
    (``drain_s``) are measured separately; ``throughput_rps`` divides by
    the window, so the drain tail no longer deflates the reported rate.
    """
    check_positive("rate_rps", rate_rps)
    check_positive("duration_s", duration_s)
    images = np.asarray(images, dtype=np.float64)
    if images.ndim != 2 or images.shape[0] == 0:
        raise ConfigurationError(
            f"images must be a non-empty (count, features) array, got {images.shape}"
        )
    if slo_weights is not None:
        if slo is not None:
            raise ConfigurationError("pass either slo or slo_weights, not both")
        unknown = set(slo_weights) - set(SLO_CLASSES)
        if unknown or not slo_weights:
            raise ConfigurationError(
                f"slo_weights must be a non-empty map over {SLO_CLASSES}, "
                f"got {sorted(slo_weights)}"
            )
        classes = [c for c in SLO_CLASSES if c in slo_weights]
        weights = np.asarray([slo_weights[c] for c in classes], dtype=np.float64)
        if weights.sum() <= 0 or (weights < 0).any():
            raise ConfigurationError("slo_weights must be non-negative, sum > 0")
        # The draws of rng.choice(len(classes), p=weights): the same CDF
        # and one uniform each, without its per-call argument checks.
        cdf = np.cumsum(weights / weights.sum())
        cdf /= cdf[-1]
    rng = spawn_generator(seed, "loadgen-open")
    stats = LoadStats(pattern=f"open-loop @ {rate_rps:g} req/s", offered=0, completed=0)
    tickets: list[PredictionTicket] = []
    start = time.perf_counter()
    next_arrival = start
    index = 0
    while True:
        gap = rng.exponential(1.0 / rate_rps)
        if fault_plan is not None:
            # Scale the gap, not the rate inside the draw: the exponential
            # sequence is identical with or without bursts, so a chaos run
            # replays the same arrival skeleton as its calm twin.
            gap /= fault_plan.rate_multiplier(next_arrival - start)
        next_arrival += gap
        now = time.perf_counter()
        if next_arrival - start > duration_s:
            break
        if next_arrival > now:
            time.sleep(next_arrival - now)
        request_slo = slo
        if slo_weights is not None:
            request_slo = classes[int(cdf.searchsorted(rng.random(), side="right"))]
        stats.offered += 1
        try:
            tickets.append(
                service.submit(
                    model,
                    images[index % images.shape[0]],
                    slo=request_slo,
                    deadline_s=deadline_s,
                )
            )
        except AdmissionShed:
            stats.shed += 1
        except ServiceOverloaded:
            stats.dropped += 1
        index += 1
    # The arrival window ends here; the flush/drain and straggler
    # collection below are accounted separately so throughput_rps (which
    # divides by the window) is not understated by the drain tail.
    stats.window_s = time.perf_counter() - start
    service.flush()
    _collect(stats, tickets, result_timeout_s)
    stats.duration_s = time.perf_counter() - start
    stats.drain_s = stats.duration_s - stats.window_s
    return stats
