"""Sequential / process-parallel experiment runner.

``run-all`` used to be a strictly sequential loop; this module runs the
registered experiments either in-process (``jobs=1``) or across a process
pool (``jobs=N``), with three properties the CLI and its tests rely
on:

* **Determinism.**  Every experiment module seeds itself (``run()``
  defaults to ``seed=0``) and shares no mutable state with its siblings,
  so the rendered output of ``jobs=N`` is identical to the sequential
  run's — ``TestParallelRunner.test_parallel_equals_sequential`` asserts
  string equality, and CI's parallel ``run-all`` step diffs the two
  runs' tables through the CLI with a shared ``--cache-dir``.
* **Failure isolation.**  A crashing experiment yields an
  :class:`ExperimentOutcome` carrying the traceback; the rest of the
  batch keeps running (the behaviour the sequential ``run-all`` always
  had).
* **Cache sharing.**  ``cache_dir`` installs the trained-posterior
  artifact cache (:mod:`repro.experiments.artifacts`) in every worker via
  the ``REPRO_CACHE_DIR`` environment variable.  Workers racing to train
  the same network at worst duplicate work — training is deterministic
  and artifact writes are atomic, so they write identical bytes and every
  reader sees a complete artifact.
"""

from __future__ import annotations

import os
import time
import traceback
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.experiments import registry


@dataclass
class ExperimentOutcome:
    """Result of one experiment run (picklable, so workers can return it)."""

    name: str
    rendered: str | None
    error: str | None
    seconds: float

    @property
    def failed(self) -> bool:
        return self.error is not None


def run_experiment(name: str, cache_dir: "str | None" = None) -> ExperimentOutcome:
    """Run one registered experiment, capturing failures as data.

    Module-level (picklable) so it doubles as the process-pool worker;
    ``cache_dir`` is exported as ``REPRO_CACHE_DIR`` for the duration of
    the experiment — and restored afterwards, so an in-process
    (``jobs=1``) batch does not leak the cache into later, cache-less
    work in the same interpreter — letting the training helpers find the
    shared artifact cache regardless of which process they run in.
    """
    previous = os.environ.get("REPRO_CACHE_DIR")
    if cache_dir:
        os.environ["REPRO_CACHE_DIR"] = str(cache_dir)
    start = time.perf_counter()
    try:
        experiment = registry.get_experiment(name)
        rendered = experiment.render(experiment.run())
        return ExperimentOutcome(name, rendered, None, time.perf_counter() - start)
    except Exception as error:  # noqa: BLE001 - keep the batch going
        detail = f"{type(error).__name__}: {error}\n{traceback.format_exc()}"
        return ExperimentOutcome(name, None, detail, time.perf_counter() - start)
    finally:
        if cache_dir:
            if previous is None:
                os.environ.pop("REPRO_CACHE_DIR", None)
            else:
                os.environ["REPRO_CACHE_DIR"] = previous


def run_experiments(
    names: "list[str] | None" = None,
    *,
    jobs: int = 1,
    cache_dir: "str | None" = None,
    on_outcome=None,
) -> list[ExperimentOutcome]:
    """Run ``names`` (default: every registered experiment, sorted).

    ``jobs=1`` runs in-process; ``jobs>1`` fans out over a process pool.
    Outcomes are returned — and streamed to ``on_outcome``, when given —
    in ``names`` order either way, so callers see identical output.
    """
    if jobs < 1:
        raise ConfigurationError(f"jobs must be >= 1, got {jobs}")
    if names is None:
        names = sorted(registry.EXPERIMENTS)
    else:
        names = list(names)
        for name in names:
            registry.get_experiment(name)  # fail fast on unknown names
    outcomes: list[ExperimentOutcome] = []
    if jobs == 1:
        for name in names:
            outcome = run_experiment(name, cache_dir)
            outcomes.append(outcome)
            if on_outcome is not None:
                on_outcome(outcome)
        return outcomes
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        for outcome in pool.map(
            run_experiment, names, [cache_dir] * len(names)
        ):
            outcomes.append(outcome)
            if on_outcome is not None:
                on_outcome(outcome)
    return outcomes
