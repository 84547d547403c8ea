"""LRU prediction cache keyed on (model, version, N, input digest).

Monte-Carlo predictions are stochastic, so a cache is *definitional* as
much as an optimisation: the service promises that, between two reloads of
a model, repeated requests for the same input return the same probability
row (the one computed for the first arrival) rather than a fresh MC
estimate.  The model's registry **version** is part of the key, which is
how a reload invalidates every cached row of the old posterior without a
scan; :meth:`PredictionCache.invalidate_model` additionally drops the dead
entries eagerly so reload-heavy services don't wait on LRU pressure to
reclaim the memory.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict

import numpy as np

from repro.errors import ConfigurationError

#: Key type: (model name, model version, n_samples, input digest).
CacheKey = tuple[str, int, int, bytes]


def input_digest(row: np.ndarray) -> bytes:
    """Digest of one input row's float64 bytes (layout-independent)."""
    data = np.ascontiguousarray(row, dtype=np.float64)
    return hashlib.blake2b(data.tobytes(), digest_size=16).digest()


class PredictionCache:
    """Thread-safe LRU over probability rows.

    Parameters
    ----------
    capacity:
        Maximum cached rows; ``0`` disables the cache entirely (every
        ``get`` misses, ``put`` is a no-op) — the configuration the
        bit-for-bit serving-equivalence tests use so cache hits cannot
        change batch composition.
    """

    def __init__(self, capacity: int = 4096) -> None:
        if capacity < 0:
            raise ConfigurationError(f"capacity must be >= 0, got {capacity}")
        self.capacity = int(capacity)
        self._lock = threading.Lock()
        self._entries: OrderedDict[CacheKey, np.ndarray] = OrderedDict()

    # ------------------------------------------------------------------
    @staticmethod
    def key(model: str, version: int, n_samples: int, row: np.ndarray) -> CacheKey:
        return (model, int(version), int(n_samples), input_digest(row))

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    # ------------------------------------------------------------------
    def get(self, key: CacheKey) -> np.ndarray | None:
        """Cached row (a defensive copy) or ``None``.

        Hits and misses are counted by the caller, in
        :class:`~repro.serving.metrics.ServiceMetrics`: only the service
        knows whether a lookup is a request's first or an internal re-read.
        """
        with self._lock:
            value = self._entries.get(key)
            if value is None:
                return None
            self._entries.move_to_end(key)
            return value.copy()

    def put(self, key: CacheKey, value: np.ndarray) -> None:
        """Insert (or refresh) a row, evicting least-recently-used overflow."""
        if self.capacity == 0:
            return
        with self._lock:
            self._entries[key] = np.array(value, dtype=np.float64)
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)

    def invalidate_model(self, model: str) -> int:
        """Eagerly drop every entry of ``model`` (any version); returns count."""
        with self._lock:
            dead = [key for key in self._entries if key[0] == model]
            for key in dead:
                del self._entries[key]
            return len(dead)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
