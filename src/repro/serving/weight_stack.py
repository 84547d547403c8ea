"""Shared sampled-weight-stack cache for the serving tier.

The dominant cost of a batched Monte-Carlo call is *sampling*: drawing
``n_samples * eps_per_pass`` epsilons and materialising the per-pass
weight stacks.  The micro-batcher already amortises that cost over the
rows of one batch; this cache amortises it over *batches*: concurrent
requests against the same ``(model, version, N)`` entry share one
sampled weight-stack ensemble instead of re-drawing epsilons per batch.

Keying and semantics
--------------------
Entries are keyed ``(model, version, n_samples, position)``:

* ``version`` rides the registry's version-in-key invalidation scheme —
  a reload bumps the version, making every stale stack unreachable
  (``invalidate_model`` additionally drops them eagerly, exactly like the
  prediction cache);
* ``position`` is the stack's place in the model's dedicated sampling
  stream: stack ``p`` is drawn from a stream seeded
  ``derive_seed(seed, "weight-stack", version, p)``
  (:meth:`~repro.serving.registry.ModelEntry.build_weight_stack`), so the
  cached ensemble is a pure function of the key — any worker, thread, or
  test can reproduce it.  :meth:`WeightStackCache.advance` bumps the
  position, which is the operational "give me fresh weights" knob
  (sharing trades per-batch freshness for throughput; advancing restores
  freshness at a chosen cadence).

Because the stack is worker-independent, every worker serving a shared
entry computes with the *same* sampled ensemble — repeated requests give
identical rows between reloads even without the prediction cache, which
strengthens the serving layer's determinism promise.

Concurrency
-----------
Lookups are lock-protected; builds are **single-flight**: the first
worker to miss a key draws the stack while later arrivals wait on an
event and then read the cached result, so a thundering herd of identical
requests costs exactly one stream draw (asserted by the counting-stub
tests).
"""

from __future__ import annotations

import threading
from collections import OrderedDict

from repro.errors import ConfigurationError
from repro.obs import trace as _trace

#: Key type: (model name, model version, n_samples, stream position).
StackKey = tuple[str, int, int, int]

#: Single-flight waiters poll at this cadence instead of blocking forever
#: (the serving no-hang invariant, reprolint RL006); each poll re-reads
#: the cache state, so a vanished builder only costs one interval.
_BUILD_POLL_S = 0.1


class WeightStackCache:
    """Thread-safe LRU of sampled weight-stack ensembles.

    Parameters
    ----------
    capacity:
        Maximum cached ensembles.  Stacks are large (``n_samples`` full
        weight copies), so the default is small; ``0`` disables the cache
        (every :meth:`get_or_create` raises), which turns any
        ``share_weight_stacks`` entry into a configuration error instead
        of a silent per-batch redraw.
    """

    def __init__(self, capacity: int = 8) -> None:
        if capacity < 0:
            raise ConfigurationError(f"capacity must be >= 0, got {capacity}")
        self.capacity = int(capacity)
        self._lock = threading.Lock()
        self._entries: "OrderedDict[StackKey, object]" = OrderedDict()
        self._positions: dict[tuple[str, int, int], int] = {}
        self._building: dict[StackKey, threading.Event] = {}
        self.hits = 0
        #: Stream draws performed: misses that completed a build.
        self.draws = 0
        #: Single-flight waits: lookups that blocked on another worker's
        #: in-progress build instead of drawing themselves.
        self.waits = 0
        #: LRU evictions (capacity pressure; invalidations not counted).
        self.evictions = 0

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def keys(self) -> list[StackKey]:
        with self._lock:
            return list(self._entries)

    def position(self, name: str, version: int, n_samples: int) -> int:
        """Current stream position for a ``(model, version, N)`` triple."""
        with self._lock:
            return self._positions.get((name, int(version), int(n_samples)), 0)

    # ------------------------------------------------------------------
    def get_or_create(self, entry):
        """The shared stack for ``entry`` at its current stream position.

        ``entry`` is a :class:`~repro.serving.registry.ModelEntry`; a miss
        calls ``entry.build_weight_stack(position)`` exactly once however
        many workers race for the key (single-flight).  Raises
        :class:`~repro.errors.ConfigurationError` when the cache is
        disabled.
        """
        if self.capacity == 0:
            raise ConfigurationError(
                "weight-stack sharing is enabled for model "
                f"{entry.name!r} but the stack cache has capacity 0"
            )
        waited = False
        while True:
            with self._lock:
                triple = (entry.name, int(entry.version), int(entry.n_samples))
                position = self._positions.setdefault(triple, 0)
                key: StackKey = triple + (position,)
                stacks = self._entries.get(key)
                if stacks is not None:
                    self._entries.move_to_end(key)
                    self.hits += 1
                    return stacks
                pending = self._building.get(key)
                if pending is None:
                    pending = threading.Event()
                    self._building[key] = pending
                    builder = True
                else:
                    builder = False
                    if not waited:  # one wait per requester, however many polls
                        waited = True
                        self.waits += 1
            if not builder:
                # Another worker is drawing this stack; wait and re-read.
                # Bounded wait (the serving no-hang invariant, reprolint
                # RL006): if the builder thread dies without signalling,
                # the loop re-reads state and takes over instead of
                # blocking forever.
                pending.wait(_BUILD_POLL_S)
                continue
            try:
                # The draw is the dominant cost of a shared-stack miss;
                # attribute it to the request trace's stack_build phase
                # (a no-op when no phase collection is active).
                with _trace.phase("stack_build"):
                    stacks = entry.build_weight_stack(position)
            except BaseException:
                with self._lock:
                    del self._building[key]
                pending.set()  # waiters retry (and one becomes the builder)
                raise
            with self._lock:
                self.draws += 1
                self._entries[key] = stacks
                self._entries.move_to_end(key)
                while len(self._entries) > self.capacity:
                    self._entries.popitem(last=False)
                    self.evictions += 1
                del self._building[key]
            pending.set()
            return stacks

    # ------------------------------------------------------------------
    def advance(self, name: str) -> int:
        """Bump every ``(name, *, *)`` stream position; drop the old stacks.

        The next request against the model draws a fresh ensemble at the
        advanced position.  Returns the number of positions bumped.
        """
        with self._lock:
            bumped = 0
            for triple in list(self._positions):
                if triple[0] == name:
                    self._positions[triple] += 1
                    bumped += 1
            for key in [key for key in self._entries if key[0] == name]:
                del self._entries[key]
            return bumped

    def invalidate_model(self, name: str) -> int:
        """Eagerly drop every stack (and position) of ``name``; returns count."""
        with self._lock:
            dead = [key for key in self._entries if key[0] == name]
            for key in dead:
                del self._entries[key]
            for triple in [t for t in self._positions if t[0] == name]:
                del self._positions[triple]
            return len(dead)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._positions.clear()
