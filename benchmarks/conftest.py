"""Shared benchmark plumbing.

Every benchmark regenerates one table/figure of the paper via the
experiment registry, times the run with pytest-benchmark (one round —
these are experiments, not microbenchmarks), and writes the rendered
table to ``benchmarks/results/<experiment>.txt`` so the reproduction
artifacts persist next to the timing data.
"""

from __future__ import annotations

import pathlib
import time

import pytest

from repro.obs import BenchRecorder

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


@pytest.fixture(scope="session")
def results_dir() -> pathlib.Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


@pytest.fixture()
def record_experiment(results_dir, benchmark):
    """Run an experiment once under the benchmark timer; save its table.

    Alongside the rendered table, each experiment writes a structured
    recorder JSON (``experiment_<name>.json``) carrying its wall time.
    """

    def _run(name: str, run_fn, render_fn, **kwargs):
        start = time.perf_counter()
        result = benchmark.pedantic(
            lambda: run_fn(**kwargs), rounds=1, iterations=1
        )
        runtime_s = time.perf_counter() - start
        rendered = render_fn(result)
        (results_dir / f"{name}.txt").write_text(rendered)
        recorder = BenchRecorder(
            f"experiment_{name}", mode="full", config={"experiment": name}
        )
        recorder.record("runtime_s", runtime_s, unit="s", direction="lower")
        recorder.write(results_dir)
        print()
        print(rendered)
        return result

    return _run
