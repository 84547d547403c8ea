"""Benchmark-result recorder.

Every ``benchmarks/bench_*.py`` run writes one structured JSON document to
``benchmarks/results/`` — machine identity, workload configuration, and a
named-metric map — via :class:`BenchRecorder`.  CI uploads the documents
as a build artifact.  Each bench enforces its own gates (bit-exactness,
no-hang, accuracy budgets) and exits non-zero on a failure; the recorder
only keeps the numbers.

Result schema (version 1)::

    {
      "schema": 1,
      "bench": "bench_serving",
      "mode": "quick" | "full",
      "machine": {"platform": ..., "python": ..., "numpy": ..., "cpus": ...},
      "config": {...workload parameters...},
      "metrics": {
        "<name>": {
          "value": 7.9,
          "unit": "x",
          "direction": "higher" | "lower"
        }, ...
      }
    }
"""

from __future__ import annotations

import json
import os
import pathlib
import platform
import time

from repro.errors import ConfigurationError

SCHEMA_VERSION = 1


def machine_fingerprint() -> dict:
    """Identity of the machine a result was measured on."""
    import numpy

    return {
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpus": os.cpu_count() or 0,
    }


class BenchRecorder:
    """Accumulates one benchmark run's metrics; writes the JSON document."""

    def __init__(self, bench: str, mode: str = "full", config: dict | None = None) -> None:
        if not bench:
            raise ConfigurationError("bench name must be non-empty")
        self.bench = bench
        self.mode = mode
        self.config = dict(config or {})
        self.metrics: dict[str, dict] = {}

    def record(
        self, name: str, value: float, *, unit: str = "", direction: str = "higher"
    ) -> None:
        """Record one named metric.

        ``direction`` is which way *better* points ("higher" for
        throughput/accuracy, "lower" for latency/error).
        """
        if direction not in ("higher", "lower"):
            raise ConfigurationError(
                f"direction must be 'higher' or 'lower', got {direction!r}"
            )
        self.metrics[name] = {"value": float(value), "unit": unit, "direction": direction}

    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        return {
            "schema": SCHEMA_VERSION,
            "bench": self.bench,
            "mode": self.mode,
            "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
            "machine": machine_fingerprint(),
            "config": self.config,
            "metrics": self.metrics,
        }

    def write(self, out_dir) -> pathlib.Path:
        """Write ``<out_dir>/<bench>.json``; returns the path."""
        out_dir = pathlib.Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        path = out_dir / f"{self.bench}.json"
        path.write_text(json.dumps(self.to_dict(), indent=2) + "\n")
        return path
