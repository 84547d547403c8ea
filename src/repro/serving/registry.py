"""Model registry: named, versioned, ready-to-serve posteriors.

The serving subsystem's model store.  Two methods register a model:
:meth:`ModelRegistry.register_network` (float) and
:meth:`ModelRegistry.register_quantized` (the 8-bit fixed-point datapath).
Each takes the model as an in-memory
:class:`~repro.bnn.bayesian.BayesianNetwork` (float only), as exported
``(mu, sigma)`` parameters, or as the path of a saved posterior ``.npz``
(:mod:`repro.bnn.serialization`), plus serving options that are exactly
:class:`ModelEntry`'s fields: Monte-Carlo sample count ``N``, GRNG name,
base seed, and so on.  Entries carry a **version** that bumps on every
:meth:`ModelRegistry.reload`, which is what invalidates worker-local
predictors and the prediction cache without any explicit signalling — both
key on ``(name, version)``.

Reproducibility under concurrency comes from :func:`worker_stream_seed`:
worker ``w`` serving version ``v`` of a model with base seed ``s`` draws
its epsilons from a :class:`~repro.grng.stream.GrngStream` seeded
``derive_seed(s, "serving-worker", v, w)``.  Streams of different workers
are decorrelated but each is a pure function of ``(seed, version, worker)``
— so a single-worker service replays bit for bit, and the equivalence
tests can reconstruct exactly the stream any worker used.
"""

from __future__ import annotations

import os
import threading
from collections import OrderedDict
from dataclasses import dataclass, field, replace

import numpy as np

from repro.bnn.bayesian import BayesianNetwork
from repro.bnn.inference import (
    LocalReparamPredictor,
    build_weight_stacks,
    stacked_epsilons,
)
from repro.bnn.quantized import QuantizedBayesianNetwork
from repro.bnn.serialization import load_posterior, network_from_posterior
from repro.errors import ConfigurationError, UnknownModelError
from repro.grng import GrngStream, make_grng
from repro.serving.predictors import (
    QuantizedSharedStackPredictor,
    SharedStackPredictor,
)
from repro.utils.seeding import derive_seed
from repro.utils.validation import check_positive


def worker_stream_seed(
    base_seed: int, version: int, worker_index: int, incarnation: int = 0
) -> int:
    """Seed of worker ``worker_index``'s GRNG stream for a model version.

    Derived through :func:`repro.utils.seeding.derive_seed` so concurrent
    workers get decorrelated yet individually reproducible streams; bumping
    the version (a reload) deterministically resets every worker's stream.

    ``incarnation`` counts supervised restarts of the worker slot.  A
    restarted worker must not replay the dead incarnation's stream (its
    position is unknowable — the crash interrupted it mid-draw), so each
    incarnation derives a fresh decorrelated seed; the derivation stays a
    pure function of ``(seed, version, worker, incarnation)``, which is
    what makes post-restart outputs reproducible given the same fault
    schedule.  Incarnation 0 keeps the original label set, so existing
    streams (and the equivalence tests built on them) are bit-identical.
    """
    if incarnation:
        return derive_seed(
            base_seed, "serving-worker-restart", version, worker_index, incarnation
        )
    return derive_seed(base_seed, "serving-worker", version, worker_index)


@dataclass
class ModelEntry:
    """One servable model: network + serving parameters + version.

    Two kinds share the entry shape:

    * ``kind="float"`` — a software :class:`BayesianNetwork` served by
      local reparameterization
      (:class:`~repro.bnn.inference.LocalReparamPredictor`), or off
      shared weight stacks (``network`` set);
    * ``kind="quantized"`` — exported ``(mu, sigma)`` posterior
      parameters served through the fixed-point
      :class:`~repro.bnn.quantized.QuantizedBayesianNetwork` at
      ``bit_length`` bits (``posterior`` set) — the accelerator's
      functional model behind the same micro-batching front end.
    """

    name: str
    network: BayesianNetwork | None
    n_samples: int = 10
    grng: str = "bnnwallace"
    seed: int = 0
    version: int = 1
    source_path: str | None = None
    kind: str = "float"
    #: Operand width of the fixed-point datapath (quantized kind only).
    bit_length: int = 8
    #: Exported posterior parameters (quantized kind only).
    posterior: "list[dict[str, np.ndarray]] | None" = None
    #: Serve off one cached sampled ensemble shared across workers/batches.
    share_weight_stacks: bool = False
    #: Serialized requests must match this row width.
    in_features: int = field(init=False)
    out_features: int = field(init=False)

    def __post_init__(self) -> None:
        check_positive("n_samples", self.n_samples)
        if self.kind == "quantized":
            if not self.posterior:
                raise ConfigurationError(
                    "quantized model entries need exported posterior parameters"
                )
            self.in_features = self.posterior[0]["mu_weights"].shape[0]
            self.out_features = self.posterior[-1]["mu_weights"].shape[1]
        elif self.kind == "float":
            if self.network is None:
                raise ConfigurationError("float model entries need a network")
            self.in_features = self.network.layer_sizes[0]
            self.out_features = self.network.layer_sizes[-1]
        else:
            raise ConfigurationError(
                f"unknown model kind {self.kind!r}; expected 'float' or 'quantized'"
            )

    def build_weight_stack(self, position: int):
        """Sample the shared weight-stack ensemble at stream ``position``.

        Seeded ``derive_seed(seed, "weight-stack", version, position)`` —
        independent of any worker index, so every worker (and any test)
        reconstructs the identical ensemble for a cache key.  Returns the
        per-layer ``(w, b)`` stack list of the entry's kind
        (:func:`~repro.bnn.inference.build_weight_stacks` tensors for
        float models, weight/bias *codes* from
        :meth:`~repro.bnn.quantized.QuantizedBayesianNetwork.sample_weight_stacks`
        for quantized ones).
        """
        stack_seed = derive_seed(self.seed, "weight-stack", self.version, position)
        stream = GrngStream(make_grng(self.grng, seed=stack_seed))
        if self.kind == "quantized":
            network = QuantizedBayesianNetwork(
                self.posterior,
                bit_length=self.bit_length,
                grng=stream,
                seed=stack_seed,
            )
            return network.sample_weight_stacks(self.n_samples)
        epsilons = stacked_epsilons(self.network.layers, self.n_samples, stream)
        return build_weight_stacks(self.network.layers, epsilons)

    def build_predictor(self, worker_index: int, stack_cache=None, incarnation: int = 0):
        """This worker's ``predict_proba(x, n_samples)`` source for the entry.

        Fresh-draw entries get a predictor on the worker's decorrelated
        stream (``incarnation`` selects a restarted slot's fresh stream,
        see :func:`worker_stream_seed`): a
        :class:`~repro.bnn.inference.LocalReparamPredictor` for float
        models, the fixed-point
        :class:`~repro.bnn.quantized.QuantizedBayesianNetwork` itself for
        quantized ones.  ``share_weight_stacks`` entries instead return a
        predictor reading the service-wide
        :class:`~repro.serving.weight_stack.WeightStackCache`
        (``stack_cache`` is then required).
        """
        if self.share_weight_stacks:
            if stack_cache is None:
                raise ConfigurationError(
                    f"model {self.name!r} shares weight stacks but no stack "
                    "cache was provided"
                )
            if self.kind == "quantized":
                # Datapath only: epsilons always come from the shared stack.
                return QuantizedSharedStackPredictor(
                    self,
                    stack_cache,
                    QuantizedBayesianNetwork(
                        self.posterior, bit_length=self.bit_length, seed=self.seed
                    ),
                )
            return SharedStackPredictor(self, stack_cache)
        stream_seed = worker_stream_seed(self.seed, self.version, worker_index, incarnation)
        grng = GrngStream(make_grng(self.grng, seed=stream_seed))
        if self.kind == "quantized":
            return QuantizedBayesianNetwork(
                self.posterior, bit_length=self.bit_length, grng=grng, seed=stream_seed
            )
        return LocalReparamPredictor(self.network, grng)


def _load_source(model) -> tuple[object, str | None]:
    """``(model, source_path)``: a path is loaded with :func:`load_posterior`
    and returned as its source; anything else passes through in-memory."""
    if isinstance(model, (str, os.PathLike)):
        return load_posterior(model), str(model)
    return model, None


class ModelRegistry:
    """Thread-safe name → :class:`ModelEntry` store with reload/eviction.

    Parameters
    ----------
    max_models:
        Optional capacity; registering beyond it evicts the
        least-recently-*used* entry (``get`` refreshes recency).  ``None``
        means unbounded.
    """

    def __init__(self, max_models: int | None = None) -> None:
        if max_models is not None:
            check_positive("max_models", max_models)
        self.max_models = max_models
        self._lock = threading.Lock()
        self._entries: OrderedDict[str, ModelEntry] = OrderedDict()
        # Last version each evicted name reached.  Re-registering a name
        # continues from here, so caches and worker-local predictors keyed
        # on (name, version) can never confuse the new model with a dead
        # one that happened to share its name.
        self._retired_versions: dict[str, int] = {}

    # ------------------------------------------------------------------
    def names(self) -> list[str]:
        """Registered model names, least-recently-used first."""
        with self._lock:
            return list(self._entries)

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def get(self, name: str) -> ModelEntry:
        """Look up a model, refreshing its LRU recency."""
        with self._lock:
            try:
                entry = self._entries[name]
            except KeyError:
                raise UnknownModelError(
                    f"model {name!r} is not registered; "
                    f"available: {', '.join(self._entries) or '(none)'}"
                ) from None
            self._entries.move_to_end(name)
            return entry

    # ------------------------------------------------------------------
    def _install(self, entry: ModelEntry) -> ModelEntry:
        with self._lock:
            previous = self._entries.get(entry.name)
            # The version counter is monotonic per name across replacement
            # AND evict/re-register cycles, so (name, version) uniquely
            # identifies one loaded posterior forever.
            base = (
                previous.version
                if previous is not None
                else self._retired_versions.get(entry.name, 0)
            )
            entry.version = base + 1
            self._entries[entry.name] = entry
            self._entries.move_to_end(entry.name)
            while self.max_models is not None and len(self._entries) > self.max_models:
                name, evicted = self._entries.popitem(last=False)
                self._retired_versions[name] = evicted.version
            return entry

    def register_network(self, name: str, model, **options) -> ModelEntry:
        """Register a float model under ``name``.

        ``model`` is a :class:`BayesianNetwork`, exported ``(mu, sigma)``
        parameters, or the path of a saved posterior ``.npz`` (remembered
        so :meth:`reload` can pick up a newer file).  ``options`` are
        :class:`ModelEntry` fields (``n_samples``, ``grng``, ``seed``,
        ``share_weight_stacks``).
        """
        if "bit_length" in options:
            raise ConfigurationError("bit_length applies to quantized models only")
        model, source_path = _load_source(model)
        if not isinstance(model, BayesianNetwork):
            model = network_from_posterior(model, seed=options.get("seed", ModelEntry.seed))
        return self._install(ModelEntry(name, model, source_path=source_path, **options))

    def register_quantized(self, name: str, model, **options) -> ModelEntry:
        """Register exported parameters as a *quantized hardware* model.

        ``model`` is exported ``(mu, sigma)`` parameters or the path of a
        saved posterior ``.npz``.  Requests against this entry run through
        the fixed-point
        :class:`~repro.bnn.quantized.QuantizedBayesianNetwork` — the same
        functional model the :class:`~repro.hw.accelerator.VibnnAccelerator`
        wraps — at ``bit_length`` bits with the named GRNG supplying
        epsilons (default ``"rlf"``, the paper's hardware generator).
        Cache, metrics, micro-batching and the load generators are shared
        with float models unchanged.
        """
        posterior, source_path = _load_source(model)
        if isinstance(posterior, BayesianNetwork):
            raise ConfigurationError(
                "quantized models are registered from exported posterior "
                "parameters or a saved posterior file, not a network"
            )
        options.setdefault("grng", "rlf")
        return self._install(
            ModelEntry(
                name,
                None,
                kind="quantized",
                posterior=posterior,
                source_path=source_path,
                **options,
            )
        )

    # ------------------------------------------------------------------
    def reload(self, name: str) -> ModelEntry:
        """Re-read a file-backed model and bump its version.

        Worker predictors and cache entries keyed on the old version become
        unreachable, so a reload atomically invalidates both.  Every
        serving option of the entry survives (a quantized model reloads as
        a quantized model); only the parameters and the version change.
        """
        entry = self.get(name)
        if entry.source_path is None:
            raise ConfigurationError(
                f"model {name!r} was registered in-memory; only file-backed "
                "models can be reloaded"
            )
        posterior = load_posterior(entry.source_path)
        if entry.kind == "quantized":
            fresh = replace(entry, posterior=posterior)
        else:
            fresh = replace(
                entry, network=network_from_posterior(posterior, seed=entry.seed)
            )
        return self._install(fresh)

    def evict(self, name: str) -> None:
        """Remove a model; subsequent ``get`` raises ``UnknownModelError``.

        The name's version counter is retired, not reset: registering the
        same name later continues from the evicted version.
        """
        with self._lock:
            if name not in self._entries:
                raise UnknownModelError(f"model {name!r} is not registered")
            self._retired_versions[name] = self._entries[name].version
            del self._entries[name]
