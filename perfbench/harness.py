"""Workload-independent pieces of the benchmark: load, statistics, checks.

Nothing here imports ``repro``: the load loops and the statistics
take plain callables and numbers, so the benchmark's own tests can drive
them with fake services.
"""

from __future__ import annotations

import math
import os
import platform
import resource
import subprocess
import sys
import time
from dataclasses import dataclass, field

import numpy as np

#: Samples the reported tail percentile must leave beyond it.
TAIL_MIN_BEYOND = 10

#: The tail percentile never goes above this, however many samples.
TAIL_CAP = 99.9

#: BLAS/OpenMP thread variables recorded in every result (never set).
THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


# ----------------------------------------------------------------------
# Percentiles
# ----------------------------------------------------------------------
def tail_percentile(n: int) -> float:
    """Highest percentile (0.1 steps, at most p99.9) with ten of ``n`` samples beyond it."""
    if n < 2 * TAIL_MIN_BEYOND:
        raise ValueError(
            f"{n} samples cannot support a tail with {TAIL_MIN_BEYOND} beyond it"
        )
    return min(TAIL_CAP, math.floor(1000.0 * (1.0 - TAIL_MIN_BEYOND / n) + 1e-6) / 10.0)


def latency_summary(samples_s, chunks: int = 1) -> dict:
    """Median and tail of latency samples (seconds in, milliseconds out).

    The median is over all samples.  The tail is the median, over
    ``chunks`` runs of consecutive samples, of each run's
    :func:`tail_percentile`: a stall of the machine that hits one part of
    a run moves one of the values the median is taken over, not the tail.
    """
    values = np.asarray(samples_s, dtype=np.float64) * 1e3
    parts = np.array_split(values, chunks)
    pct = tail_percentile(min(part.size for part in parts))
    tails = [float(np.percentile(part, pct)) for part in parts]
    return {
        "p50_ms": float(np.percentile(values, 50.0)),
        "tail_ms": float(np.median(tails)),
        "tail_pct": pct,
        "chunk_tails_ms": tails,
        "samples": int(values.size),
        "p99_ms": float(np.percentile(values, 99.0)),
        "p999_ms": float(np.percentile(values, 99.9)),
    }


def closed_loop_rate(attempts: list["Attempt"], chunks: int) -> float:
    """Completed requests per second: the median over ``chunks`` runs of attempts."""
    rates = []
    for part in np.array_split(np.arange(len(attempts)), chunks):
        group = [attempts[i] for i in part]
        served = sum(1 for a in group if a.ok)
        end = max(a.completed for a in group if a.completed is not None)
        rates.append(served / (end - group[0].sent))
    return median_of(rates)


def percentile(values, pct: float) -> float:
    """``np.percentile`` that reads 0.0 for an empty sample."""
    values = np.asarray(values, dtype=np.float64)
    return float(np.percentile(values, pct)) if values.size else 0.0


# ----------------------------------------------------------------------
# Arrivals
# ----------------------------------------------------------------------
def exponential_gaps(rate: float, count: int, rng: np.random.Generator) -> np.ndarray:
    """Poisson inter-arrival gaps: the same ones for every seed, in the seed's order.

    The gaps are the exponential quantiles at ``(i + 0.5) / count``, so
    their distribution is exactly the Poisson one at ``rate`` whatever the
    seed; the seed shuffles them.  They are shuffled rather than laid out
    in a fixed low-discrepancy order because such an order lines up with
    serve-mix's periodic refreshes, and the seed would then decide how
    many requests meet every stack build.
    """
    quantiles = (np.arange(count) + 0.5) / count
    return rng.permutation(-np.log1p(-quantiles) / rate)


# ----------------------------------------------------------------------
# Open loop
# ----------------------------------------------------------------------
@dataclass
class Attempt:
    """One request: when it was due, sent, and how it ended.

    ``index`` is the request's number in the workload's plan.
    """

    due: float
    index: int = -1
    sent: float = 0.0
    submit_s: float = 0.0
    ticket: object = None
    error: str | None = None
    completed: float | None = None
    row: np.ndarray | None = None
    hung: bool = False

    @property
    def ok(self) -> bool:
        return self.error is None and not self.hung and self.row is not None

    def latency_s(self) -> float:
        """Due time to completion: a late generator counts against the program."""
        return self.completed - self.due


def _send(submit, index: int, due: float, clock) -> Attempt:
    """Submit request ``index``; a raised exception is a failed attempt, complete at once."""
    attempt = Attempt(due=due, index=index)
    attempt.sent = clock()
    try:
        attempt.ticket = submit(index)
    except Exception as error:  # noqa: BLE001 - every refusal is counted
        attempt.error = type(error).__name__
        attempt.completed = clock()
    attempt.submit_s = clock() - attempt.sent
    return attempt


def run_open_loop(
    submit,
    offsets_s,
    *,
    between=None,
    clock=time.perf_counter,
    sleep=time.sleep,
) -> list[Attempt]:
    """Send request ``i`` at ``start + offsets_s[i]`` from this one thread.

    ``submit(i)`` returns a ticket with ``result(timeout)`` and
    ``completed_at``; an exception it raises is a failed attempt, stamped
    complete at once.  ``between(i)`` runs just before request ``i`` is
    sent (the benchmark's scheduled writes).  The loop never waits for a
    response, so a stalled service delays later *sends*, and that delay
    is charged to them because latency runs from the due time.
    """
    attempts: list[Attempt] = []
    start = clock()
    for index, offset in enumerate(offsets_s):
        due = start + float(offset)
        ahead = due - clock()
        if ahead > 0:
            sleep(ahead)
        if between is not None:
            between(index)
        attempts.append(_send(submit, index, due, clock))
    return attempts


def run_closed_loop(
    submit, count: int, timeout_s: float, *, clock=time.perf_counter
) -> list[Attempt]:
    """Send requests ``0 .. count-1`` one at a time, each once the last has ended.

    A request is due when it is sent, so its latency is submission to
    completion and no two requests ever share the service.  Sending stops
    at the first hung ticket: the run is incorrect, and waiting out more
    hangs would only make it longer.
    """
    attempts: list[Attempt] = []
    for index in range(count):
        attempt = _send(submit, index, clock(), clock)
        attempts.append(attempt)
        collect([attempt], timeout_s, clock=clock)
        if attempt.hung:
            break
    return attempts


def run_burst(
    submit, indices, timeout_s: float, *, clock=time.perf_counter
) -> tuple[list[Attempt], float]:
    """Submit requests ``indices`` at once, wait for all; also the seconds they took.

    The seconds run from the first submission to the last completion, so
    ``completed / seconds`` is the service's capacity on this mix.
    """
    start = clock()
    attempts = [_send(submit, index, start, clock) for index in indices]
    collect(attempts, timeout_s, clock=clock)
    ends = [a.completed for a in attempts if a.completed is not None]
    return attempts, (max(ends) if ends else clock()) - start


def collect(attempts: list[Attempt], timeout_s: float, clock=time.perf_counter) -> None:
    """Wait for every ticket (one shared deadline); mark hangs and errors."""
    deadline = clock() + timeout_s
    for attempt in attempts:
        if attempt.ticket is None:
            continue
        ticket = attempt.ticket
        try:
            attempt.row = ticket.result(max(0.0, deadline - clock()))
        except Exception as error:  # noqa: BLE001 - every failure is counted
            if ticket.done():
                attempt.error = type(error).__name__
                attempt.completed = ticket.completed_at
            else:
                attempt.hung = True
            continue
        attempt.completed = ticket.completed_at


# ----------------------------------------------------------------------
# Outcomes
# ----------------------------------------------------------------------
@dataclass
class Checks:
    """Named correctness checks; the run is correct only if all pass."""

    results: dict = field(default_factory=dict)

    def add(self, name: str, passed: bool, detail: str = "") -> None:
        self.results[name] = {"passed": bool(passed), "detail": detail}

    @property
    def passed(self) -> bool:
        return all(item["passed"] for item in self.results.values())


def probability_rows_ok(rows: np.ndarray, width: int) -> tuple[bool, str]:
    """Every row finite, non-negative, ``width`` wide and summing to one."""
    rows = np.asarray(rows, dtype=np.float64)
    if rows.ndim != 2 or rows.shape[1] != width:
        return False, f"shape {rows.shape}, expected (n, {width})"
    if not np.all(np.isfinite(rows)):
        return False, "non-finite probability"
    if np.any(rows < 0.0):
        return False, "negative probability"
    worst = float(np.max(np.abs(rows.sum(axis=1) - 1.0))) if rows.size else 0.0
    return worst <= 1e-9, f"max |row sum - 1| = {worst:.3g}"


def outcome(latencies_s, attempted: int, slo_s: float) -> dict:
    """Success rate and SLO attainment over *attempts*.

    ``latencies_s`` holds the completed attempts only; a failed, refused,
    shed or hung attempt is missing from it and so counts as a miss.
    """
    latencies = np.asarray(latencies_s, dtype=np.float64)
    if attempted < 1:
        raise ValueError("no attempts")
    return {
        "attempted": int(attempted),
        "completed": int(latencies.size),
        "failed": int(attempted - latencies.size),
        "success_rate": latencies.size / attempted,
        "slo_attainment": int(np.count_nonzero(latencies <= slo_s)) / attempted,
    }


def served_outcome(attempts: list[Attempt], slo_s: float, chunks: int = 1) -> dict:
    """Outcome, latency and generator lag of an open- or closed-loop run."""
    served = [a for a in attempts if a.ok]
    latencies = [a.latency_s() for a in served]
    result = outcome(latencies, len(attempts), slo_s)
    result["hung"] = sum(1 for a in attempts if a.hung)
    result.update(latency_summary(latencies, chunks))
    result["lag_ms_p99"] = percentile([(a.sent - a.due) * 1e3 for a in attempts], 99.0)
    return result


def median_of(values) -> float:
    return float(np.median(np.asarray(values, dtype=np.float64)))


# ----------------------------------------------------------------------
# Process facts
# ----------------------------------------------------------------------
def peak_rss_mb() -> float:
    """Peak resident set of this process so far (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def timed_import_s(root: str, modules: tuple[str, ...], repeats: int) -> list[float]:
    """Time importing ``modules`` in ``repeats`` fresh interpreters.

    The clock runs inside the child around the imports only, so
    interpreter start-up is excluded.  Each child is waited for.
    """
    code = (
        "import sys, time\n"
        f"sys.path.insert(0, {os.path.join(root, 'src')!r})\n"
        "t = time.perf_counter()\n"
        + "".join(f"import {name}\n" for name in modules)
        + "print(time.perf_counter() - t)\n"
    )
    times = []
    for _ in range(repeats):
        done = subprocess.run(
            [sys.executable, "-c", code],
            cwd=root,
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return times


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _blas_version() -> str:
    try:
        config = np.show_config(mode="dicts")
        blas = config["Build Dependencies"]["blas"]
        return f"{blas.get('name', '?')} {blas.get('version', '?')}"
    except (TypeError, KeyError):
        return "unknown"


def _git_commit(root: str) -> str | None:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=root,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    if done.returncode != 0:
        return None
    return done.stdout.strip() or None


def fingerprint(root: str, seed: int) -> dict:
    """Machine and software facts that bear on every timing."""
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas_version(),
        "thread_env": {name: os.environ.get(name) for name in THREAD_VARS},
        "seed": seed,
        "git_commit": _git_commit(root),
    }

