"""Shared observability subsystem: tracing, metrics, profiling, bench results.

Four cooperating pieces, each usable on its own:

``registry``  a general counter/gauge/histogram registry with labels —
              the single store every subsystem's metrics land in
              (:class:`~repro.serving.metrics.ServiceMetrics` is a client)
``export``    Prometheus text exposition + JSON export of a registry,
              plus the parser used by the round-trip tests
``trace``     per-request spans with named phases (``queue_wait``,
              ``batch_fill``, ``cache_lookup``, ``stack_build``,
              ``inference``, ``respond``) on monotonic clocks, stored in
              a bounded ring and exportable as JSON-lines
``profile``   opt-in kernel timing hooks (near-zero cost when disabled)
              around the GRNG/inference/quantized/hardware/training seams
``bench``     structured benchmark-result recorder (the JSON each
              ``benchmarks/bench_*.py`` run writes)

See ``docs/OBSERVABILITY.md`` for the full tour.
"""

from repro.obs.bench import BenchRecorder
from repro.obs.export import (
    parse_prometheus,
    registry_to_json,
    render_prometheus,
    write_metrics_json,
)
from repro.obs.profile import KernelProfiler, disable_profiling, enable_profiling
from repro.obs.registry import Counter, Gauge, Histogram, MetricsRegistry
from repro.obs.trace import (
    RequestSpan,
    Tracer,
    collect_phases,
    load_spans,
    phase,
    render_phase_report,
)

__all__ = [
    "BenchRecorder",
    "Counter",
    "Gauge",
    "Histogram",
    "KernelProfiler",
    "MetricsRegistry",
    "RequestSpan",
    "Tracer",
    "collect_phases",
    "disable_profiling",
    "enable_profiling",
    "load_spans",
    "parse_prometheus",
    "phase",
    "registry_to_json",
    "render_phase_report",
    "render_prometheus",
    "write_metrics_json",
]
