"""LRU prediction cache and in-flight claims on (model, version, N, digest).

Monte-Carlo predictions are stochastic, so a cache is *definitional* as
much as an optimisation: the service promises that, between two reloads of
a model, repeated requests for the same input return the same probability
row (the one computed for the first arrival) rather than a fresh MC
estimate.  The model's registry **version** is part of the key, which is
how a reload invalidates every cached row of the old posterior without a
scan; :meth:`PredictionCache.invalidate_model` additionally drops the dead
entries eagerly so reload-heavy services don't wait on LRU pressure to
reclaim the memory.

Concurrent identical requests would both miss and compute separate rows,
so :meth:`PredictionCache.claim` is the one locked lookup a request makes:
the cached row, the identical in-flight request's ticket, or ``None`` (the
caller's ticket now holds the key).  Only the holder's ``put`` stores a
row, so :meth:`~PredictionCache.invalidate_model`, which drops claims,
keeps a batch computed under an old ensemble from caching its rows.
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
    """Thread-safe LRU over probability rows, with in-flight claims.

    Parameters
    ----------
    capacity:
        Maximum cached rows; ``0`` disables caching and coalescing — the
        configuration the bit-for-bit serving-equivalence tests use so
        hits cannot change batch composition.  Claims count toward
        neither ``capacity`` nor ``len(cache)``.
    """

    def __init__(self, capacity: int = 4096) -> None:
        if capacity < 0:
            raise ConfigurationError(f"capacity must be >= 0, got {capacity}")
        self.capacity = int(capacity)
        self._lock = threading.Lock()
        self._entries: OrderedDict[CacheKey, np.ndarray] = OrderedDict()
        self._claims: dict[CacheKey, object] = {}

    # ------------------------------------------------------------------
    @staticmethod
    def key(model: str, version: int, n_samples: int, row: np.ndarray) -> CacheKey:
        return (model, int(version), int(n_samples), input_digest(row))

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    # ------------------------------------------------------------------
    def get(self, key: CacheKey) -> np.ndarray | None:
        """Cached row (a defensive copy) or ``None``; never claims."""
        with self._lock:
            return self._get_locked(key)

    def _get_locked(self, key: CacheKey) -> np.ndarray | None:
        value = self._entries.get(key)
        if value is None:
            return None
        self._entries.move_to_end(key)
        return value.copy()

    def claim(self, key: CacheKey, ticket):
        """The cached row (a copy), the identical in-flight request's
        ticket, or ``None``: then ``ticket`` holds ``key`` until its
        :meth:`put` or :meth:`release`.  A resolved holder is taken over."""
        if self.capacity == 0:
            return None
        with self._lock:
            row = self._get_locked(key)
            if row is not None:
                return row
            holder = self._claims.get(key)
            if holder is not None and not holder.done():
                return holder
            self._claims[key] = ticket
            return None

    def put(self, key: CacheKey, ticket, value: np.ndarray) -> bool:
        """Store ``value`` and end the claim if ``ticket`` holds it (else a
        no-op returning ``False``); evicts least-recently-used overflow."""
        with self._lock:
            if self._claims.get(key) is not ticket:
                return False
            del self._claims[key]
            self._entries[key] = np.array(value, dtype=np.float64)
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
            return True

    def release(self, key: CacheKey, ticket) -> None:
        """End ``ticket``'s claim on ``key`` without storing a row."""
        with self._lock:
            if self._claims.get(key) is ticket:
                del self._claims[key]

    def invalidate_model(self, model: str, *, keep_rows: bool = False) -> int:
        """Drop every claim of ``model`` (its in-flight rows go uncached)
        and, unless ``keep_rows``, every row of any version; returns the
        number of rows dropped."""
        with self._lock:
            for key in [key for key in self._claims if key[0] == model]:
                del self._claims[key]
            if keep_rows:
                return 0
            dead = [key for key in self._entries if key[0] == model]
            for key in dead:
                del self._entries[key]
            return len(dead)
