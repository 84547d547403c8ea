"""Unified metrics registry: counters, gauges, histograms with labels.

One process-local registry holds every metric a subsystem wants to expose;
:mod:`repro.obs.export` renders the whole registry as Prometheus text
exposition or JSON in one pass.  The design follows the Prometheus data
model closely enough that the exposition is parseable by real scrapers:

* a **metric** has a name, a help string, a type, and a fixed tuple of
  label names;
* each distinct label-value combination is one **series** (an unlabelled
  metric is the single series with the empty label tuple);
* **counters** only go up, **gauges** go anywhere (either may be backed by
  a callable evaluated at collect time), **histograms** accumulate
  observations into cumulative ``le`` buckets plus ``_sum``/``_count``.

Thread safety: every mutation and read takes the registry's single lock.
The serving tier records per *batch* (not per epsilon), so one uncontended
lock costs nanoseconds against millisecond batches; in exchange the
concurrent-hammer tests can assert exact conservation of totals.
"""

from __future__ import annotations

import threading

from repro.errors import ConfigurationError

#: Default histogram buckets (seconds-flavoured, Prometheus defaults).
DEFAULT_BUCKETS = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)

_VALID_TYPES = ("counter", "gauge", "histogram")


def _check_name(name: str) -> str:
    if not name or not all(c.isalnum() or c in "_:" for c in name):
        raise ConfigurationError(f"invalid metric name {name!r}")
    if name[0].isdigit():
        raise ConfigurationError(f"metric name cannot start with a digit: {name!r}")
    return name


class Metric:
    """Base class: one named metric family with a fixed label schema."""

    kind = "untyped"

    def __init__(self, registry: "MetricsRegistry", name: str, help: str, labels: tuple) -> None:
        self._registry = registry
        self._lock = registry._lock
        self.name = _check_name(name)
        self.help = help
        self.labels = tuple(labels)
        for label in self.labels:
            _check_name(label)

    # ------------------------------------------------------------------
    def _key(self, labels: dict) -> tuple:
        if set(labels) != set(self.labels):
            raise ConfigurationError(
                f"metric {self.name!r} expects labels {self.labels}, "
                f"got {tuple(sorted(labels))}"
            )
        return tuple(str(labels[name]) for name in self.labels)

    def series(self) -> "dict[tuple, float]":
        """Label-values tuple → current value (a snapshot copy)."""
        raise NotImplementedError


class Counter(Metric):
    """Monotonically increasing per-series totals; optionally backed by a callable.

    A function-backed counter (``fn=``) returns its whole series dict
    (label-values tuple → total) at collect time — the counterpart of
    :class:`Gauge`'s ``fn=`` for totals another object already keeps.
    """

    kind = "counter"

    def __init__(self, registry, name, help, labels, fn=None) -> None:
        super().__init__(registry, name, help, labels)
        self._fn = fn
        self._values: dict[tuple, float] = {}

    def inc(self, amount: float = 1.0, **labels) -> None:
        if self._fn is not None:
            raise ConfigurationError(f"counter {self.name!r} is function-backed")
        if amount < 0:
            raise ConfigurationError(
                f"counter {self.name!r} cannot decrease (inc by {amount})"
            )
        key = self._key(labels)
        with self._lock:
            self._values[key] = self._values.get(key, 0.0) + amount

    def value(self, **labels) -> float:
        key = self._key(labels)
        if self._fn is not None:
            return float(self._fn().get(key, 0.0))
        with self._lock:
            return self._values.get(key, 0.0)

    def total(self) -> float:
        """Sum over every series (all label combinations)."""
        return sum(self.series().values())

    def series(self) -> dict[tuple, float]:
        if self._fn is not None:
            return {key: float(value) for key, value in self._fn().items()}
        with self._lock:
            return dict(self._values)


class Gauge(Metric):
    """Last-written value per series; optionally backed by a callable.

    A function-backed gauge (``fn=``) is evaluated at collect time, which
    is how live values owned by another object (queue depth, cache
    occupancy) surface in the exposition without double bookkeeping.
    """

    kind = "gauge"

    def __init__(self, registry, name, help, labels, fn=None) -> None:
        super().__init__(registry, name, help, labels)
        if fn is not None and labels:
            raise ConfigurationError(
                f"function-backed gauge {name!r} cannot have labels"
            )
        self._fn = fn
        self._values: dict[tuple, float] = {}

    def set(self, value: float, **labels) -> None:
        if self._fn is not None:
            raise ConfigurationError(f"gauge {self.name!r} is function-backed")
        key = self._key(labels)
        with self._lock:
            self._values[key] = float(value)

    def inc(self, amount: float = 1.0, **labels) -> None:
        if self._fn is not None:
            raise ConfigurationError(f"gauge {self.name!r} is function-backed")
        key = self._key(labels)
        with self._lock:
            self._values[key] = self._values.get(key, 0.0) + amount

    def value(self, **labels) -> float:
        if self._fn is not None:
            return float(self._fn())
        key = self._key(labels)
        with self._lock:
            return self._values.get(key, 0.0)

    def series(self) -> dict[tuple, float]:
        if self._fn is not None:
            return {(): float(self._fn())}
        with self._lock:
            return dict(self._values)


class Histogram(Metric):
    """Cumulative-bucket histogram (Prometheus ``le`` semantics)."""

    kind = "histogram"

    def __init__(self, registry, name, help, labels, buckets=DEFAULT_BUCKETS) -> None:
        super().__init__(registry, name, help, labels)
        bounds = tuple(float(b) for b in buckets)
        if not bounds or list(bounds) != sorted(set(bounds)):
            raise ConfigurationError(
                f"histogram {name!r} buckets must be sorted and unique, got {buckets}"
            )
        self.buckets = bounds
        # Per series: [per-bucket counts..., +Inf count], sum, count.
        self._counts: dict[tuple, list[float]] = {}
        self._sums: dict[tuple, float] = {}
        self._totals: dict[tuple, int] = {}

    def observe(self, value: float, **labels) -> None:
        key = self._key(labels)
        value = float(value)
        with self._lock:
            counts = self._counts.get(key)
            if counts is None:
                counts = [0.0] * (len(self.buckets) + 1)
                self._counts[key] = counts
            for index, bound in enumerate(self.buckets):
                if value <= bound:
                    counts[index] += 1
                    break
            else:
                counts[-1] += 1
            self._sums[key] = self._sums.get(key, 0.0) + value
            self._totals[key] = self._totals.get(key, 0) + 1

    def snapshot(self, **labels) -> dict[str, object]:
        """``{"buckets": {le: cumulative}, "sum": ..., "count": ...}``."""
        key = self._key(labels)
        with self._lock:
            counts = list(self._counts.get(key, [0.0] * (len(self.buckets) + 1)))
            total_sum = self._sums.get(key, 0.0)
            total = self._totals.get(key, 0)
        cumulative: dict[float, int] = {}
        running = 0.0
        for bound, count in zip(self.buckets, counts):
            running += count
            cumulative[bound] = int(running)
        return {"buckets": cumulative, "sum": total_sum, "count": int(total)}

    def series(self) -> dict[tuple, float]:
        """Per-series observation counts (the ``_count`` view)."""
        with self._lock:
            return {key: float(total) for key, total in self._totals.items()}


class MetricsRegistry:
    """Process-local collection of named metrics.

    ``counter`` / ``gauge`` / ``histogram`` are get-or-create: asking for
    an existing name returns the existing metric *iff* the type and label
    schema match (a mismatch is a :class:`ConfigurationError`), so
    independent subsystems can share one registry without import-order
    coupling.
    """

    def __init__(self) -> None:
        self._lock = threading.RLock()
        self._metrics: dict[str, Metric] = {}

    # ------------------------------------------------------------------
    def _get_or_create(self, cls, name, help, labels, **kwargs) -> Metric:
        with self._lock:
            existing = self._metrics.get(name)
            if existing is not None:
                if type(existing) is not cls or existing.labels != tuple(labels):
                    raise ConfigurationError(
                        f"metric {name!r} already registered as {existing.kind} "
                        f"with labels {existing.labels}"
                    )
                return existing
            metric = cls(self, name, help, tuple(labels), **kwargs)
            self._metrics[name] = metric
            return metric

    def counter(self, name: str, help: str = "", labels: tuple = (), fn=None) -> Counter:
        return self._get_or_create(Counter, name, help, labels, fn=fn)

    def gauge(self, name: str, help: str = "", labels: tuple = (), fn=None) -> Gauge:
        return self._get_or_create(Gauge, name, help, labels, fn=fn)

    def histogram(
        self, name: str, help: str = "", labels: tuple = (), buckets=DEFAULT_BUCKETS
    ) -> Histogram:
        return self._get_or_create(Histogram, name, help, labels, buckets=buckets)

    # ------------------------------------------------------------------
    def get(self, name: str) -> Metric | None:
        with self._lock:
            return self._metrics.get(name)

    def names(self) -> list[str]:
        with self._lock:
            return sorted(self._metrics)

    def metrics(self) -> list[Metric]:
        """Every registered metric, name-sorted (the collect order)."""
        with self._lock:
            return [self._metrics[name] for name in sorted(self._metrics)]
