"""Shared-weight-stack predictors: serve off a cached sampled ensemble.

The per-worker predictors built by
:meth:`~repro.serving.registry.ModelEntry.build_predictor` redraw every
epsilon for every batch.  The predictors here instead *read* their sampled
weights from the service-wide
:class:`~repro.serving.weight_stack.WeightStackCache`, so concurrent
requests against the same ``(model, version, N)`` cost one stream draw
total — the throughput lever ``share_weight_stacks`` turns on.

Like every served model they expose one surface,
``predict_proba(x, n_samples)``, which the serving worker calls once per
batch.  A call resolves the cached ensemble once and runs its first
``n_samples`` passes, so a degraded batch is a prefix of the full one,
and a :meth:`~repro.serving.service.BnnService.refresh_weight_stacks`
(position bump) or reload (version bump) that lands mid-batch is picked
up by the *next* batch: one batch never mixes two ensembles.
"""

from __future__ import annotations

import numpy as np

from repro.bnn.inference import stacked_forward_stacks, stacked_softmax_average
from repro.bnn.quantized import QuantizedBayesianNetwork


def slice_stacks(stacks, n_samples: int):
    """Per-layer ``(w, b)`` views of the first ``n_samples`` passes.

    Works for both stack flavours (float tensors and fixed-point codes):
    the sample axis is leading in each.
    """
    return [(w[:n_samples], b[:n_samples]) for w, b in stacks]


class SharedStackPredictor:
    """Float-path predictor reading its sampled weights from the stack cache."""

    def __init__(self, entry, stack_cache) -> None:
        self.entry = entry
        self.stack_cache = stack_cache

    def _stacks(self, n_samples: int):
        """The first ``n_samples`` passes of the entry's current ensemble."""
        return slice_stacks(self.stack_cache.get_or_create(self.entry), n_samples)

    def predict_proba(self, x: np.ndarray, n_samples: int) -> np.ndarray:
        """Eq. (6) over the ensemble's first ``n_samples`` passes."""
        logits = stacked_forward_stacks(
            self._stacks(n_samples), np.asarray(x, dtype=np.float64)
        )
        return stacked_softmax_average(logits)


class QuantizedSharedStackPredictor(SharedStackPredictor):
    """Fixed-point predictor reading sampled weight codes from the stack cache.

    ``network`` supplies the datapath (formats, MAC tree) only — its own
    epsilon source is never consulted because every call passes ``sampled``
    stacks into
    :meth:`~repro.bnn.quantized.QuantizedBayesianNetwork.predict_proba`.
    """

    def __init__(
        self, entry, stack_cache, network: QuantizedBayesianNetwork
    ) -> None:
        super().__init__(entry, stack_cache)
        self.network = network

    def predict_proba(self, x: np.ndarray, n_samples: int) -> np.ndarray:
        return self.network.predict_proba(x, n_samples, sampled=self._stacks(n_samples))
