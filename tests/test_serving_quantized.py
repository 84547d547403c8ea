"""Serving the fixed-point hardware model through the registry/service.

The new scenario: the serving layer fronts the accelerator's functional
model (:class:`~repro.bnn.quantized.QuantizedBayesianNetwork`) — batcher,
cache, metrics and load generators unchanged.  The load-bearing checks:

* a served quantized model is bit-for-bit the direct fixed-point model
  run with the worker's reconstructed stream;
* kind/versioning semantics (reload keeps the quantized kind, eviction
  retires versions) hold for quantized entries like float ones.
"""

import numpy as np
import pytest

from repro.bnn.bayesian import BayesianNetwork
from repro.bnn.quantized import QuantizedBayesianNetwork
from repro.bnn.serialization import save_posterior
from repro.errors import ConfigurationError, UnknownModelError
from repro.grng import make_grng
from repro.grng.stream import GrngStream
from repro.serving.registry import ModelEntry, ModelRegistry, worker_stream_seed
from repro.serving.service import BnnService, ServiceConfig


def _posterior(seed=0, sizes=(10, 8, 3)):
    return BayesianNetwork(sizes, seed=seed, initial_sigma=0.05).posterior_parameters()


X = np.random.default_rng(1).random((9, 10))


def _direct(posterior, entry, x, worker=0):
    """The fixed-point prediction the serving stack must reproduce."""
    seed = worker_stream_seed(entry.seed, entry.version, worker)
    network = QuantizedBayesianNetwork(
        posterior,
        bit_length=entry.bit_length,
        grng=GrngStream(make_grng(entry.grng, seed=seed)),
        seed=seed,
    )
    return network.predict_proba(x, n_samples=entry.n_samples)


class TestRegistryQuantized:
    def test_register_quantized_entry_shape(self):
        registry = ModelRegistry()
        entry = registry.register_quantized("hw", _posterior(), bit_length=8, grng="rlf")
        assert entry.kind == "quantized"
        assert entry.in_features == 10 and entry.out_features == 3
        assert entry.network is None
        assert registry.get("hw") is entry

    def test_build_predictor_returns_the_quantized_network(self):
        entry = ModelRegistry().register_quantized("hw", _posterior(), n_samples=4)
        predictor = entry.build_predictor(0)
        assert isinstance(predictor, QuantizedBayesianNetwork)
        probs = predictor.predict_proba(X, entry.n_samples)
        assert probs.shape == (X.shape[0], 3)
        assert np.allclose(probs.sum(axis=1), 1.0)

    def test_quantized_entry_requires_posterior(self):
        with pytest.raises(ConfigurationError, match="posterior"):
            ModelEntry("bad", None, kind="quantized")

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigurationError, match="kind"):
            ModelEntry("bad", None, kind="analog")

    def test_file_round_trip_and_reload_keeps_kind(self, tmp_path):
        path = tmp_path / "posterior.npz"
        save_posterior(path, _posterior(seed=3))
        registry = ModelRegistry()
        entry = registry.register_quantized(
            "hw", path, bit_length=8, n_samples=5, grng="rlf", seed=2
        )
        assert entry.kind == "quantized" and entry.version == 1
        reloaded = registry.reload("hw")
        assert reloaded.kind == "quantized"
        assert reloaded.version == 2
        assert reloaded.bit_length == 8
        assert reloaded.grng == "rlf"

    def test_eviction_retires_quantized_versions(self):
        registry = ModelRegistry()
        first = registry.register_quantized("hw", _posterior())
        registry.evict("hw")
        with pytest.raises(UnknownModelError):
            registry.get("hw")
        again = registry.register_quantized("hw", _posterior())
        assert again.version == first.version + 1


class TestServiceQuantized:
    def _service(self, **config_overrides):
        defaults = dict(workers=0, cache_capacity=0, max_batch=16)
        defaults.update(config_overrides)
        return BnnService(config=ServiceConfig(**defaults))

    def test_served_equals_direct_bit_for_bit(self):
        posterior = _posterior(seed=4)
        with self._service() as service:
            entry = service.register_quantized(
                "hw", posterior, bit_length=8, n_samples=6, grng="rlf", seed=11
            )
            served = service.predict_many("hw", X)
        assert np.array_equal(served, _direct(posterior, entry, X))

    def test_float_grng_quantized_model_served(self):
        # A float generator (BNNWallace) behind the quantized datapath:
        # the capability probe routes it through the Q2.(B-3) path.
        posterior = _posterior(seed=5)
        with self._service() as service:
            entry = service.register_quantized(
                "hw", posterior, bit_length=8, n_samples=3, grng="bnnwallace", seed=1
            )
            served = service.predict_many("hw", X)
        assert np.array_equal(served, _direct(posterior, entry, X))

    def test_quantized_and_float_models_coexist(self):
        posterior = _posterior(seed=6)
        network = BayesianNetwork((10, 8, 3), seed=6, initial_sigma=0.05)
        with self._service() as service:
            service.register_network("sw", network, n_samples=3, grng="numpy")
            service.register_quantized("hw", posterior, n_samples=3, grng="rlf")
            sw = service.predict_many("sw", X)
            hw = service.predict_many("hw", X)
        assert sw.shape == hw.shape == (X.shape[0], 3)
        assert not np.array_equal(sw, hw)  # different datapaths

    def test_cache_and_version_invalidate_on_reregister(self):
        posterior = _posterior(seed=7)
        with self._service(cache_capacity=64) as service:
            service.register_quantized("hw", posterior, n_samples=2, grng="rlf")
            first = service.predict_proba("hw", X[0])
            cached = service.predict_proba("hw", X[0])
            assert np.array_equal(first, cached)  # cache hit: identical row
            entry = service.register_quantized("hw", posterior, n_samples=2, grng="rlf")
            assert entry.version == 2  # version bump invalidates old rows
            fresh = service.predict_proba("hw", X[0])
            assert fresh.shape == first.shape

    def test_shape_validation_uses_posterior_features(self):
        with self._service() as service:
            service.register_quantized("hw", _posterior())
            with pytest.raises(ConfigurationError, match="expects a flat"):
                service.submit("hw", np.zeros(4))

    def test_quantized_model_under_threaded_workers(self):
        posterior = _posterior(seed=8)
        with self._service(workers=2) as service:
            service.register_quantized("hw", posterior, n_samples=2, grng="rlf")
            probs = service.predict_many("hw", X)
        assert probs.shape == (X.shape[0], 3)
        assert np.allclose(probs.sum(axis=1), 1.0)
