"""Shared-weight-stack predictors: serve off a cached sampled ensemble.

The per-worker predictors built by
:meth:`~repro.serving.registry.ModelEntry.build_predictor` redraw every
epsilon for every batch.  The predictors here instead *read* their sampled
weights from the service-wide
:class:`~repro.serving.weight_stack.WeightStackCache`, so concurrent
requests against the same ``(model, version, N)`` cost one stream draw
total — the throughput lever ``share_weight_stacks`` turns on.

Like every served model they expose one surface, the
``chunk_probs(x, start, size)`` seam that
:func:`~repro.bnn.adaptive.run_adaptive` drives.  Stack-backed
implementations *use* ``start``: chunk ``k`` slices passes
``start .. start+size`` out of the cached ensemble, so chunked
consumption visits exactly the passes one fixed-``N`` chunk would — the
bit-exact-fallback contract holds here just as it does for live streams.

The ensemble is resolved from the cache once per run, at its first chunk
(``start == 0``), and every later chunk of that run slices the same one:
a :meth:`~repro.serving.service.BnnService.refresh_weight_stacks`
(position bump) or reload (version bump) that lands mid-batch is picked
up by the *next* batch, and never mixes two ensembles into one average.
"""

from __future__ import annotations

import numpy as np

from repro.bnn.activations import softmax
from repro.bnn.inference import stacked_forward_stacks
from repro.bnn.quantized import QuantizedBayesianNetwork


def slice_stacks(stacks, start: int, size: int):
    """Per-layer ``(w, b)`` views of passes ``start .. start+size``.

    Works for both stack flavours (float tensors and fixed-point codes):
    the sample axis is leading in each.
    """
    return [(w[start : start + size], b[start : start + size]) for w, b in stacks]


class SharedStackPredictor:
    """Float-path predictor reading its sampled weights from the stack cache."""

    def __init__(self, entry, stack_cache) -> None:
        self.entry = entry
        self.stack_cache = stack_cache
        self._stacks = None

    def _run_stacks(self, start: int, size: int):
        """Passes ``start..start+size`` of the ensemble this run started on."""
        if start == 0 or self._stacks is None:
            self._stacks = self.stack_cache.get_or_create(self.entry)
        stacks = self._stacks
        if start + size >= self.entry.n_samples:
            self._stacks = None  # a full run is over: hold no stale ensemble
        return slice_stacks(stacks, start, size)

    def chunk_probs(self, x: np.ndarray, start: int, size: int) -> np.ndarray:
        """Per-pass softmax rows of passes ``start..start+size`` of the stack."""
        stacks = self._run_stacks(start, size)
        return softmax(stacked_forward_stacks(stacks, np.asarray(x, dtype=np.float64)))


class QuantizedSharedStackPredictor(SharedStackPredictor):
    """Fixed-point predictor reading sampled weight codes from the stack cache.

    ``network`` supplies the datapath (formats, MAC tree) only — its own
    epsilon source is never consulted because every call passes ``sampled``
    stacks into
    :meth:`~repro.bnn.quantized.QuantizedBayesianNetwork.forward_stacked_codes`.
    """

    def __init__(
        self, entry, stack_cache, network: QuantizedBayesianNetwork
    ) -> None:
        super().__init__(entry, stack_cache)
        self.network = network

    def chunk_probs(self, x: np.ndarray, start: int, size: int) -> np.ndarray:
        x_codes = self.network.act_fmt.quantize(np.asarray(x, dtype=np.float64))
        sampled = self._run_stacks(start, size)
        logits_codes = self.network.forward_stacked_codes(x_codes, size, sampled=sampled)
        return softmax(self.network.act_fmt.dequantize(logits_codes))
