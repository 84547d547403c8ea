"""Adaptive Monte-Carlo inference: sequential-confidence early exit.

Every fixed-``N`` path answers a request with exactly ``N`` forward
passes, even when the predictive posterior is decided after a handful —
for a confidently-classified digit the class probabilities separate
within the first chunk and the remaining passes only polish decimals the
argmax never looks at.  Since sampling cost dominates BNN inference
(drawing ``eps_per_pass`` Gaussians per pass is the workload the paper's
GRNG hardware exists for), stopping early is a direct serving-throughput
lever.

Exit bound
----------
Per MC pass ``s``, let ``d_s`` be the gap between the leading and
runner-up class probability of that pass's softmax row.  The running mean
gap after ``n`` passes, ``g_n``, estimates the posterior-expected gap
``E[d]`` of iid bounded samples (``d_s`` lies in ``[-1, 1]``), so
Hoeffding's inequality gives::

    P(g_n - E[d] >= t) <= exp(-n * t^2 / 2)

Setting the right side to ``exit_delta`` and solving for ``t`` yields the
**posterior-concentration bound**::

    t(n) = sqrt(2 * ln(2 / exit_delta) / n)

A row exits once ``g_n >= t(n)``: with probability at least
``1 - exit_delta`` the true expected gap is positive, i.e. the argmax of
the full-posterior average would agree with the argmax of the truncated
average.  (We bound the *mean* gap rather than each class mean
separately, which is slightly conservative; the ``2/delta`` keeps the
two-sided form so the same constant serves the docs derivation and the
monotonicity property: ``t`` is strictly decreasing in both ``n`` and
``exit_delta``, so stricter thresholds can only increase pass counts.)

Execution contract
------------------
Passes are evaluated in vectorized chunks (``chunk`` at a time) through
the ``chunk_probs(x, start, size)`` seam
(:meth:`~repro.bnn.inference.LocalReparamPredictor.chunk_probs`,
:meth:`~repro.bnn.quantized.QuantizedBayesianNetwork.chunk_probs`, and
the serving weight-stack sources).  Exit checks happen only at chunk
boundaries, every row of a batch is forwarded each chunk (a row's
probability trajectory therefore never depends on *other* rows' exit
times), and a row's result freezes at its own exit point.  The whole
batch stops once every row has exited.  Two guarantees follow:

* **Bit-exact fallback** — with the bound disabled (``exit_delta=None``)
  no row exits, every chunk runs, and the chunk-sequential accumulation
  performs the identical float operations in the identical order as the
  fixed-``N`` batched path: the result equals ``predict_proba`` bit for
  bit (for any call-pattern-invariant epsilon stream).
* **Monotone pass counts** — for a fixed epsilon stream, shrinking
  ``exit_delta`` (stricter confidence) raises ``t(n)`` pointwise, so
  every row's exit pass count is monotone non-increasing in
  ``exit_delta``.

The bit-exact fallback is why the serving worker runs every batch
through :func:`run_adaptive`: a fixed-``N`` batch is one chunk of ``N``
passes with exit off, and a degraded batch is one chunk of its reduced
count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError
from repro.utils.validation import check_positive


@dataclass(frozen=True)
class AdaptiveConfig:
    """Tuning knobs of the early-exit sampler.

    Parameters
    ----------
    chunk:
        MC passes evaluated per vectorized chunk; exit checks happen at
        chunk boundaries only.
    exit_delta:
        Confidence parameter of the Hoeffding exit bound (smaller =
        stricter = later exits).  ``None`` disables early exit entirely —
        the adaptive path then runs all ``n_samples`` passes and is
        bit-for-bit equal to the fixed-``N`` batched path.
    min_passes:
        Floor below which no row may exit, regardless of the bound
        (rounded up to the next chunk boundary by construction).
    """

    chunk: int = 8
    exit_delta: float | None = 0.05
    min_passes: int = 0

    def __post_init__(self) -> None:
        check_positive("chunk", self.chunk)
        if self.exit_delta is not None and not 0.0 < self.exit_delta < 1.0:
            raise ConfigurationError(
                f"exit_delta must be in (0, 1) or None, got {self.exit_delta!r}"
            )
        if self.min_passes < 0:
            raise ConfigurationError(
                f"min_passes must be >= 0, got {self.min_passes}"
            )


def concentration_bound(n: int, exit_delta: float) -> float:
    """Hoeffding bound ``t(n) = sqrt(2 ln(2/delta) / n)`` on the mean gap.

    Strictly decreasing in both ``n`` and ``exit_delta`` — the
    monotonicity the pass-count property tests pin down.
    """
    check_positive("n", n)
    return math.sqrt(2.0 * math.log(2.0 / exit_delta) / n)


@dataclass
class AdaptiveResult:
    """Outcome of one adaptive prediction call.

    ``probs`` are the MC-averaged class probabilities (each row averaged
    over its *own* ``passes[row]`` passes); ``passes`` is the per-row
    pass count — the serving metrics surface its sum against
    ``max_samples * rows`` as the saved-pass ratio.
    """

    probs: np.ndarray
    passes: np.ndarray
    max_samples: int

    def mean_passes(self) -> float:
        return float(self.passes.mean()) if self.passes.size else 0.0


def run_adaptive(
    x: np.ndarray,
    n_samples: int,
    chunk_probs,
    config: AdaptiveConfig,
) -> AdaptiveResult:
    """Drive ``chunk_probs`` chunk by chunk with per-row early exit.

    ``chunk_probs(x, start, size)`` returns the per-pass softmax rows of
    passes ``start .. start+size`` as a ``(size, batch, classes)`` array;
    implementations either advance a live epsilon stream (``start``
    ignored) or slice a precomputed weight stack.  See the module
    docstring for the exit rule and the bit-exactness/monotonicity
    contract.
    """
    check_positive("n_samples", n_samples)
    batch = x.shape[0]
    passes = np.zeros(batch, dtype=np.int64)
    totals: np.ndarray | None = None
    result: np.ndarray | None = None
    undecided = np.ones(batch, dtype=bool)
    done = 0
    while done < n_samples:
        size = min(config.chunk, n_samples - done)
        probs = chunk_probs(x, done, size)
        if totals is None:
            totals = np.zeros((batch, probs.shape[2]))
            result = np.zeros_like(totals)
        # Pass-sequential accumulation: bit-identical to the fixed path's
        # slice-by-slice sample average when no row exits early.
        for index in range(size):
            totals += probs[index]
        done += size
        if config.exit_delta is None or done >= n_samples:
            continue
        if done < max(config.min_passes, 1):
            continue
        if totals.shape[1] < 2:
            # Degenerate single-class head: the argmax is decided by
            # construction, so the first eligible boundary exits every row.
            gap = np.full(batch, np.inf)
        else:
            top2 = np.partition(totals, -2, axis=1)[:, -2:]
            gap = (top2[:, 1] - top2[:, 0]) / done
        exited = undecided & (gap >= concentration_bound(done, config.exit_delta))
        if exited.any():
            result[exited] = totals[exited] / done
            passes[exited] = done
            undecided &= ~exited
            if not undecided.any():
                break
    if totals is None:  # pragma: no cover - batch always >= 1 row upstream
        raise ConfigurationError("adaptive run produced no chunks")
    result[undecided] = totals[undecided] / done
    passes[undecided] = done
    return AdaptiveResult(probs=result, passes=passes, max_samples=n_samples)

