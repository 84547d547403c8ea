"""Resilience layer: SLO classes, admission control, degradation, chaos.

The serving stack's overload story before this module was a single bit:
the bounded queue either accepts a request or raises
:class:`~repro.errors.ServiceOverloaded`.  This module turns that bit
into a policy surface (see ``docs/RESILIENCE.md``):

* **SLO classes** — every request carries one of :data:`SLO_CLASSES`
  (``interactive`` / ``batch`` / ``best_effort``) and an optional
  deadline.  Expired requests are *evicted*, not served late: the
  executing worker checks deadlines once, after the pop, failing the
  ticket (and every coalesced follower riding it) with a typed
  :class:`~repro.errors.DeadlineExceeded`.
* **Admission control** — :class:`AdmissionController` measures queue
  pressure as an EWMA of observed queue-wait seconds (perf_counter
  timebase, the same clock the tracer uses) and sheds the cheap classes
  first: ``best_effort`` at a low pressure threshold, ``batch`` at a
  higher one, ``interactive`` never — until the queue's physical capacity
  (the hard cap the batcher already enforces).  A token bucket per shed
  class keeps a trickle of admissions flowing so a shed class still makes
  progress and the pressure signal stays fresh.
* **Graceful degradation** — the same pressure signal drives an overload
  ladder over Monte-Carlo pass counts: level 0 serves the configured
  ``N``, level 1 serves ``N/2``, level 2 serves ``min_passes`` — each
  as one ``predict_proba(x, n_passes)`` call on the model's predictor,
  so a degraded batch runs the *same first passes* the full batch would
  (matched ensembles under shared weight stacks, which is what bounds
  the accuracy delta).  At the
  top of the ladder a service may also answer from version-stale cache
  rows (flagged on the ticket) instead of computing at all.
* **Chaos** — :class:`FaultPlan` is a scripted, seedable schedule of
  worker faults (kill / stall / delay at the k-th batch of a worker
  slot) plus open-loop arrival bursts, so supervision and shedding are
  reproducibly testable; ``benchmarks/bench_serving.py --chaos`` gates
  "no hung requests, bounded interactive p99, goodput floor" on it.

Everything here is **off by default**: ``ServiceConfig.resilience=None``
keeps the request path bit-for-bit identical to the pre-resilience
service.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass

from repro.errors import AdmissionShed, ConfigurationError, InjectedWorkerKill
from repro.utils.seeding import spawn_generator

__all__ = [
    "SLO_CLASSES",
    "FAULT_ACTIONS",
    "InjectedWorkerKill",
    "ResilienceConfig",
    "AdmissionController",
    "FaultEvent",
    "FaultPlan",
]

#: Request classes, in shed order (last shed first).
SLO_CLASSES = ("interactive", "batch", "best_effort")

#: Fault actions a :class:`FaultPlan` may script.
FAULT_ACTIONS = ("kill", "stall", "delay")


@dataclass(frozen=True)
class ResilienceConfig:
    """Tuning knobs of the resilience layer (``docs/RESILIENCE.md``).

    Attached to :class:`~repro.serving.service.ServiceConfig` via its
    ``resilience`` field; ``None`` there disables every behavior in this
    module.
    """

    #: Per-class default deadlines (seconds after submit); ``None`` means
    #: no deadline unless the caller passes one explicitly.
    interactive_deadline_s: float | None = None
    batch_deadline_s: float | None = None
    best_effort_deadline_s: float | None = None
    #: EWMA smoothing factor of the queue-pressure signal.
    ewma_alpha: float = 0.3
    #: Pressure (EWMA queue-wait seconds) above which each class sheds.
    #: ``interactive`` has no threshold — only the queue's hard cap.
    best_effort_shed_s: float = 0.05
    batch_shed_s: float = 0.25
    #: Queue-depth fractions (of capacity) that also trigger shedding,
    #: covering total-wedge scenarios where no batches complete and the
    #: EWMA goes stale.
    best_effort_depth_frac: float = 0.5
    batch_depth_frac: float = 0.85
    #: Token-bucket trickle for shed classes: admissions per second and
    #: burst size that pass even under pressure (0 disables the trickle).
    trickle_rps: float = 2.0
    trickle_burst: float = 2.0
    #: Overload ladder: pressure above ``degrade_half_s`` serves N/2
    #: passes, above ``degrade_floor_s`` serves ``min_passes``.
    degrade_half_s: float = 0.08
    degrade_floor_s: float = 0.35
    min_passes: int = 4
    #: At ladder level 2, answer from the previous model version's cached
    #: rows when available (flagged ``stale`` on the ticket).
    serve_stale: bool = True
    #: Supervision: a worker holding one batch longer than this is
    #: declared stalled, its tickets failed over, and its slot restarted.
    batch_timeout_s: float = 5.0
    #: Supervisor poll cadence (also the heartbeat granularity).
    heartbeat_interval_s: float = 0.05
    #: Ceiling on supervised restarts over the pool's lifetime.
    max_restarts: int = 16

    def __post_init__(self) -> None:
        for name in (
            "interactive_deadline_s", "batch_deadline_s", "best_effort_deadline_s",
        ):
            value = getattr(self, name)
            if value is not None and value <= 0:
                raise ConfigurationError(f"{name} must be > 0, got {value}")
        if not 0.0 < self.ewma_alpha <= 1.0:
            raise ConfigurationError(
                f"ewma_alpha must be in (0, 1], got {self.ewma_alpha}"
            )
        for name in (
            "best_effort_shed_s", "batch_shed_s",
            "degrade_half_s", "degrade_floor_s",
            "batch_timeout_s", "heartbeat_interval_s",
        ):
            if getattr(self, name) <= 0:
                raise ConfigurationError(
                    f"{name} must be > 0, got {getattr(self, name)}"
                )
        for name in ("best_effort_depth_frac", "batch_depth_frac"):
            value = getattr(self, name)
            if not 0.0 < value <= 1.0:
                raise ConfigurationError(f"{name} must be in (0, 1], got {value}")
        if self.trickle_rps < 0 or self.trickle_burst < 0:
            raise ConfigurationError("trickle_rps/trickle_burst must be >= 0")
        if self.min_passes < 1:
            raise ConfigurationError(
                f"min_passes must be >= 1, got {self.min_passes}"
            )
        if self.max_restarts < 0:
            raise ConfigurationError(
                f"max_restarts must be >= 0, got {self.max_restarts}"
            )
        if self.degrade_floor_s < self.degrade_half_s:
            raise ConfigurationError(
                "degrade_floor_s must be >= degrade_half_s "
                f"({self.degrade_floor_s} < {self.degrade_half_s})"
            )

    def class_deadline_s(self, slo: str) -> float | None:
        """Default deadline of ``slo`` (``None`` = no deadline)."""
        if slo == "interactive":
            return self.interactive_deadline_s
        if slo == "batch":
            return self.batch_deadline_s
        if slo == "best_effort":
            return self.best_effort_deadline_s
        raise ConfigurationError(
            f"unknown SLO class {slo!r}; expected one of {', '.join(SLO_CLASSES)}"
        )


class _TokenBucket:
    """Plain token bucket; the owning controller's lock serialises access."""

    def __init__(self, rate: float, burst: float) -> None:
        self.rate = float(rate)
        self.burst = float(burst)
        self.tokens = float(burst)
        self.stamp: float | None = None

    def try_take(self, now: float) -> bool:
        if self.rate <= 0:
            return False
        if self.stamp is None:
            self.stamp = now
        self.tokens = min(self.burst, self.tokens + (now - self.stamp) * self.rate)
        self.stamp = now
        if self.tokens >= 1.0:
            self.tokens -= 1.0
            return True
        return False


class AdmissionController:
    """Pressure-driven per-class admission and the degradation ladder.

    Pressure is an EWMA of queue-wait samples reported by workers (the
    gap between a batch's youngest arrival and its execution start, on
    the perf_counter timebase).  ``admit`` sheds ``best_effort`` first,
    then ``batch``; ``interactive`` is only ever rejected by the queue's
    physical capacity.  The same signal positions the overload ladder
    that :meth:`effective_passes` exposes to workers.
    """

    def __init__(
        self,
        config: ResilienceConfig,
        capacity: int,
        clock=time.perf_counter,
    ) -> None:
        self.config = config
        self.capacity = int(capacity)
        self.clock = clock
        self._lock = threading.Lock()
        self._pressure = 0.0
        self._forced_level: int | None = None
        self._buckets = {
            "best_effort": _TokenBucket(config.trickle_rps, config.trickle_burst),
            "batch": _TokenBucket(config.trickle_rps, config.trickle_burst),
        }

    # ------------------------------------------------------------------
    def observe_queue_wait(self, seconds: float) -> None:
        """Fold one measured queue-wait sample into the pressure EWMA."""
        sample = max(0.0, float(seconds))
        alpha = self.config.ewma_alpha
        with self._lock:
            self._pressure += alpha * (sample - self._pressure)

    def pressure(self) -> float:
        """Current EWMA queue-wait estimate (seconds)."""
        with self._lock:
            return self._pressure

    # ------------------------------------------------------------------
    def _class_limits(self, slo: str) -> tuple[float, float] | None:
        """(pressure threshold, depth fraction) for a shed-able class."""
        config = self.config
        if slo == "best_effort":
            return config.best_effort_shed_s, config.best_effort_depth_frac
        if slo == "batch":
            return config.batch_shed_s, config.batch_depth_frac
        return None  # interactive: hard cap only

    def admit(self, slo: str, queue_depth: int) -> None:
        """Admit or shed one request of class ``slo``.

        Raises :class:`~repro.errors.AdmissionShed` when the class's
        pressure (or depth) threshold is exceeded and its trickle bucket
        is empty; returns silently otherwise.
        """
        limits = self._class_limits(slo)
        if limits is None:
            return
        threshold_s, depth_frac = limits
        with self._lock:
            pressure = self._pressure
            pressured = (
                pressure > threshold_s
                or queue_depth >= depth_frac * self.capacity
            )
            if not pressured:
                return
            if self._buckets[slo].try_take(self.clock()):
                return
        raise AdmissionShed(
            f"{slo} request shed under queue pressure "
            f"(EWMA wait {pressure * 1e3:.1f}ms, threshold "
            f"{threshold_s * 1e3:.0f}ms, depth {queue_depth}); back off"
        )

    # ------------------------------------------------------------------
    def force_level(self, level: int | None) -> None:
        """Pin the ladder (tests/benchmarks); ``None`` resumes tracking."""
        if level is not None and not 0 <= level <= 2:
            raise ConfigurationError(f"ladder level must be 0..2, got {level}")
        with self._lock:
            self._forced_level = level

    def degrade_level(self) -> int:
        """Current overload-ladder position: 0 (full N), 1 (N/2), 2 (floor)."""
        with self._lock:
            if self._forced_level is not None:
                return self._forced_level
            pressure = self._pressure
        if pressure > self.config.degrade_floor_s:
            return 2
        if pressure > self.config.degrade_half_s:
            return 1
        return 0

    def effective_passes(self, n_samples: int) -> int:
        """MC passes to run at the current ladder level (never > ``n_samples``)."""
        level = self.degrade_level()
        if level == 0:
            return n_samples
        floor = max(1, min(self.config.min_passes, n_samples))
        if level == 1:
            return max(n_samples // 2, floor)
        return floor


# ----------------------------------------------------------------------
# Chaos harness
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class FaultEvent:
    """One scripted fault: ``action`` at the ``at_batch``-th batch of a slot.

    ``at_batch`` counts batches executed on the worker *slot* (across
    restarts) starting at 1, so a schedule stays meaningful after a
    supervised restart; ``incarnation`` optionally pins the event to one
    incarnation of the slot.
    """

    worker: int
    at_batch: int
    action: str
    seconds: float = 0.0
    incarnation: int | None = None

    def __post_init__(self) -> None:
        if self.action not in FAULT_ACTIONS:
            raise ConfigurationError(
                f"unknown fault action {self.action!r}; "
                f"expected one of {', '.join(FAULT_ACTIONS)}"
            )
        if self.at_batch < 1:
            raise ConfigurationError(
                f"at_batch must be >= 1, got {self.at_batch}"
            )
        if self.action in ("stall", "delay") and self.seconds <= 0:
            raise ConfigurationError(
                f"{self.action} events need seconds > 0, got {self.seconds}"
            )


class FaultPlan:
    """Deterministic chaos schedule for workers and the load generator.

    ``events`` script worker faults (see :class:`FaultEvent`); ``bursts``
    are ``(start_s, end_s, multiplier)`` windows the open-loop generator
    applies to its arrival rate (burst overload).  The plan keeps one
    batch counter per worker slot, so two runs against the same seed and
    plan fire faults at identical points — the property the restart-
    determinism test asserts.
    """

    def __init__(self, events=(), bursts=()) -> None:
        self.events = tuple(events)
        self.bursts = tuple(
            (float(start), float(end), float(mult)) for start, end, mult in bursts
        )
        for start, end, mult in self.bursts:
            if end <= start or mult <= 0:
                raise ConfigurationError(
                    f"burst windows need end > start and multiplier > 0, "
                    f"got ({start}, {end}, {mult})"
                )
        self._lock = threading.Lock()
        self._counts: dict[int, int] = {}

    # ------------------------------------------------------------------
    def fire(self, worker: int, incarnation: int) -> FaultEvent | None:
        """Advance the slot's batch counter; return the matching event, if any."""
        with self._lock:
            count = self._counts.get(worker, 0) + 1
            self._counts[worker] = count
        for event in self.events:
            if (
                event.worker == worker
                and event.at_batch == count
                and (event.incarnation is None or event.incarnation == incarnation)
            ):
                return event
        return None

    def rate_multiplier(self, elapsed_s: float) -> float:
        """Open-loop arrival-rate multiplier at ``elapsed_s`` into the run."""
        for start, end, mult in self.bursts:
            if start <= elapsed_s < end:
                return mult
        return 1.0

    def reset(self) -> None:
        """Rewind the per-slot batch counters (for replaying the plan)."""
        with self._lock:
            self._counts.clear()

    # ------------------------------------------------------------------
    @classmethod
    def random_plan(
        cls,
        seed: int,
        *,
        workers: int,
        horizon_batches: int = 32,
        kill_prob: float = 0.05,
        stall_prob: float = 0.05,
        stall_s: float = 0.5,
    ) -> "FaultPlan":
        """Seeded random schedule over ``workers`` slots (chaos sweeps)."""
        rng = spawn_generator(seed, "fault-plan")
        events = []
        for worker in range(workers):
            for batch_index in range(1, horizon_batches + 1):
                draw = rng.random()
                if draw < kill_prob:
                    events.append(FaultEvent(worker, batch_index, "kill"))
                elif draw < kill_prob + stall_prob:
                    events.append(
                        FaultEvent(worker, batch_index, "stall", seconds=stall_s)
                    )
        return cls(events=events)
