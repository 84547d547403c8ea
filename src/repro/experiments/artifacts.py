"""Trained-posterior artifact cache for the experiment suite.

Several experiments train the *same* Bayesian network — the accuracy
tables re-train per run, Fig. 17 re-trains the exact configurations
Fig. 16 just trained, and a ``run-all`` pays for every one of them from
scratch.  This module caches the expensive part (the trained posterior
plus its per-epoch history) on disk, keyed by a content hash of
everything that determines the result: dataset identity, topology,
epochs, seed, prior, optimizer configuration, the gradient estimator
training runs (:data:`repro.bnn.bayesian.TRAINING_ESTIMATOR`) and the
eq. (6) estimator the per-epoch accuracies are measured with
(:data:`repro.bnn.bayesian.EVALUATION_ESTIMATOR`).

Design rules that make caching *safe*:

* **Content-addressed keys.**  :meth:`TrainingSpec.content_key` hashes a
  canonical JSON rendering of the spec and both estimators; any change
  to them yields a different key, so a stale artifact can never be
  served for a changed configuration, training path or evaluation path.
* **Bit-exact round trips.**  Posteriors are stored with
  :func:`repro.bnn.serialization.save_posterior` (lossless float64
  ``.npz``) and histories as JSON (``repr``-based float round-trip is
  exact), so a cache hit reproduces the cold run bit for bit.
* **Atomic, concurrency-tolerant writes.**  Artifacts are written to a
  temp name and ``os.replace``d into place, payload last (its presence
  marks the artifact complete), so parallel ``run-all`` workers racing to
  train the same network at worst duplicate work — deterministic training
  means they write identical bytes.

Activation is explicit: experiments consult :func:`active_cache`, which
returns ``None`` (train in memory, the pre-cache behaviour) unless a cache
was installed with :func:`set_active_cache` or the ``REPRO_CACHE_DIR``
environment variable names a directory (which is how the parallel runner's
worker processes inherit the cache).
"""

from __future__ import annotations

import hashlib
import json
import os
import pathlib
from dataclasses import asdict, dataclass, field

import numpy as np

from repro.bnn import bayesian
from repro.bnn.serialization import load_posterior, save_posterior
from repro.errors import ConfigurationError

#: Bumped when the on-disk artifact layout changes; part of every content
#: key so old artifacts are invisible rather than misread.
CACHE_FORMAT = 1

_ENV_VAR = "REPRO_CACHE_DIR"


@dataclass(frozen=True)
class TrainingSpec:
    """Everything that determines a training run's result.

    ``dataset`` is a caller-built string identifying the exact data fed to
    training (loader name, sizes, split seed, slicing).  ``prior`` and
    ``optimizer`` are flat tuples such as ``("scale-mixture", 0.5, 1.0,
    0.0025)`` and ``("adam", 0.003)``.  ``extra`` holds any further
    knobs (e.g. the paired FNN's dropout rate).
    """

    dataset: str
    model: str
    topology: tuple[int, ...]
    epochs: int
    batch_size: int
    seed: int
    prior: tuple
    optimizer: tuple
    initial_sigma: float
    eval_samples: int
    extra: tuple = field(default_factory=tuple)

    def content_key(self) -> str:
        """Stable content hash of the spec and both estimators (hex, 32 chars)."""
        payload = asdict(self)
        payload["cache_format"] = CACHE_FORMAT
        payload["training_estimator"] = bayesian.TRAINING_ESTIMATOR
        payload["evaluation_estimator"] = bayesian.EVALUATION_ESTIMATOR
        try:
            canonical = json.dumps(payload, sort_keys=True, default=_canonical)
        except (TypeError, ValueError) as error:
            raise ConfigurationError(
                f"training spec is not canonically serializable: {error}"
            ) from error
        return hashlib.sha256(canonical.encode()).hexdigest()[:32]


def data_fingerprint(*arrays) -> str:
    """Content hash of the exact arrays a training run consumes.

    The natural ``dataset`` field for a :class:`TrainingSpec`: hashing
    dtype + shape + bytes of every array (``None`` entries are recorded
    as absent — an absent test set leaves the history without test
    accuracies, so it must change the key) makes the cache immune to
    loader renames, re-slicing, or preprocessing drift.
    """
    digest = hashlib.sha256()
    for array in arrays:
        if array is None:
            digest.update(b"none;")
            continue
        array = np.ascontiguousarray(array)
        digest.update(f"{array.dtype}{array.shape};".encode())
        digest.update(array.tobytes())
    return digest.hexdigest()[:32]


def _canonical(value):
    """JSON fallback for the tuple/scalar types specs are built from."""
    if isinstance(value, tuple):
        return list(value)
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    raise ConfigurationError(f"unsupported spec value {value!r}")


class ArtifactCache:
    """Directory-backed store of trained posteriors + JSON payloads.

    ``get_or_train(spec, train)`` returns ``(posterior, payload, hit)``.
    On a miss it calls ``train()`` (which must return such a
    ``(posterior, payload)`` pair), stores the artifact, and — crucially —
    serves the result *from the stored files*, so a cold run and a later
    cache hit consume byte-identical artifacts.
    """

    def __init__(self, directory: "str | pathlib.Path") -> None:
        self.directory = pathlib.Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.hits = 0
        self.misses = 0

    # ------------------------------------------------------------------
    def _posterior_path(self, key: str) -> pathlib.Path:
        return self.directory / f"{key}.npz"

    def _payload_path(self, key: str) -> pathlib.Path:
        return self.directory / f"{key}.json"

    def load(self, key: str) -> "tuple[list, dict] | None":
        """Load ``(posterior, payload)`` for ``key``, or ``None`` if absent.

        The payload file is written last, so its presence marks a complete
        artifact; a half-written artifact (crash between the two renames)
        is treated as a miss.
        """
        payload_path = self._payload_path(key)
        posterior_path = self._posterior_path(key)
        if not payload_path.exists() or not posterior_path.exists():
            return None
        payload = json.loads(payload_path.read_text())
        posterior = load_posterior(posterior_path)
        return posterior, payload

    def store(self, key: str, posterior: list, payload: dict) -> None:
        """Atomically persist an artifact (posterior first, payload last)."""
        tmp_infix = f".tmp.{os.getpid()}"
        # np.savez appends .npz to names missing it, so the temp name must
        # already end in .npz for the rename source to exist.
        posterior_tmp = self.directory / f"{key}{tmp_infix}.npz"
        save_posterior(posterior_tmp, posterior)
        os.replace(posterior_tmp, self._posterior_path(key))
        payload_tmp = self.directory / f"{key}{tmp_infix}.json"
        payload_tmp.write_text(json.dumps(payload))
        os.replace(payload_tmp, self._payload_path(key))

    def get_or_train(self, spec: TrainingSpec, train) -> tuple[list, dict, bool]:
        """Serve ``spec``'s artifact, training (and storing) it on a miss."""
        key = spec.content_key()
        cached = self.load(key)
        if cached is not None:
            self.hits += 1
            posterior, payload = cached
            return posterior, payload, True
        self.misses += 1
        posterior, payload = train()
        self.store(key, posterior, payload)
        stored = self.load(key)
        if stored is None:  # pragma: no cover - disk disappeared under us
            raise ConfigurationError(f"artifact {key} vanished after store")
        posterior, payload = stored
        return posterior, payload, False

    def stats(self) -> dict[str, int]:
        return {"hits": self.hits, "misses": self.misses}


# ----------------------------------------------------------------------
# Ambient cache: what the training helpers consult when the caller did
# not pass a cache explicitly.
# ----------------------------------------------------------------------
_active: ArtifactCache | None = None
_env_cache: ArtifactCache | None = None


def set_active_cache(cache: "ArtifactCache | None") -> "ArtifactCache | None":
    """Install (or clear, with ``None``) the process-wide active cache.

    Returns the previous value so callers can restore it.
    """
    global _active
    previous = _active
    _active = cache
    return previous


def active_cache() -> "ArtifactCache | None":
    """The cache experiments should use, or ``None`` for no caching.

    Priority: an explicitly installed cache (:func:`set_active_cache`),
    then the ``REPRO_CACHE_DIR`` environment variable (memoized per
    directory — hit/miss counts accumulate across experiments in the same
    process), then ``None``.
    """
    if _active is not None:
        return _active
    directory = os.environ.get(_ENV_VAR, "")
    if not directory:
        return None
    global _env_cache
    if _env_cache is None or _env_cache.directory != pathlib.Path(directory):
        _env_cache = ArtifactCache(directory)
    return _env_cache
