"""Tests for the serving model registry."""

import dataclasses

import numpy as np
import pytest

from repro.bnn.bayesian import BayesianNetwork
from repro.bnn.serialization import save_posterior
from repro.errors import ConfigurationError, UnknownModelError
from repro.serving.registry import (
    ModelEntry,
    ModelRegistry,
    worker_stream_seed,
)


@pytest.fixture()
def network():
    return BayesianNetwork((6, 5, 3), seed=0, initial_sigma=0.04)


@pytest.fixture()
def posterior(network):
    return network.posterior_parameters()


class TestWorkerStreamSeed:
    def test_decorrelates_workers_versions_and_seeds(self):
        seeds = {
            worker_stream_seed(0, 1, 0),
            worker_stream_seed(0, 1, 1),
            worker_stream_seed(0, 2, 0),
            worker_stream_seed(1, 1, 0),
        }
        assert len(seeds) == 4

    def test_deterministic(self):
        assert worker_stream_seed(7, 3, 2) == worker_stream_seed(7, 3, 2)


class TestModelRegistry:
    def test_register_and_get(self, network):
        registry = ModelRegistry()
        entry = registry.register_network("digits", network, n_samples=4)
        assert registry.get("digits") is entry
        assert entry.version == 1
        assert entry.in_features == 6 and entry.out_features == 3
        assert registry.names() == ["digits"]

    def test_unknown_model(self):
        registry = ModelRegistry()
        with pytest.raises(UnknownModelError, match="not registered"):
            registry.get("nope")
        with pytest.raises(UnknownModelError):
            registry.evict("nope")

    def test_build_predictor_serves(self, network):
        registry = ModelRegistry()
        entry = registry.register_network("digits", network, n_samples=3)
        predictor = entry.build_predictor(0)
        probs = predictor.predict_proba(np.zeros((2, 6)), entry.n_samples)
        assert probs.shape == (2, 3)
        assert np.allclose(probs.sum(axis=1), 1.0)

    def test_register_file_and_reload(self, tmp_path, network, posterior):
        path = tmp_path / "model.npz"
        save_posterior(path, posterior)
        registry = ModelRegistry()
        entry = registry.register_network("digits", path, n_samples=4, seed=9)
        assert entry.version == 1 and entry.source_path == str(path)

        # A new posterior lands in the same file; reload must pick it up
        # and bump the version.
        retrained = BayesianNetwork((6, 5, 3), seed=5).posterior_parameters()
        save_posterior(path, retrained)
        reloaded = registry.reload("digits")
        assert reloaded.version == 2
        assert reloaded.n_samples == 4 and reloaded.seed == 9
        assert np.array_equal(
            reloaded.network.layers[0].mu_weights, retrained[0]["mu_weights"]
        )

    @pytest.mark.parametrize("kind", ["float", "quantized"])
    def test_reload_keeps_every_serving_option(self, tmp_path, posterior, kind):
        path = tmp_path / "model.npz"
        save_posterior(path, posterior)
        registry = ModelRegistry()
        options = dict(
            n_samples=6,
            grng="box-muller",
            seed=3,
            share_weight_stacks=True,
        )
        if kind == "quantized":
            entry = registry.register_quantized("m", path, bit_length=6, **options)
        else:
            entry = registry.register_network("m", path, **options)

        retrained = BayesianNetwork((6, 5, 3), seed=5).posterior_parameters()
        save_posterior(path, retrained)
        reloaded = registry.reload("m")

        assert reloaded.version == entry.version + 1
        reloaded_params = {"version", "network", "posterior"}
        for f in dataclasses.fields(ModelEntry):
            if f.name not in reloaded_params:
                assert getattr(reloaded, f.name) == getattr(entry, f.name), f.name
        if kind == "quantized":
            assert reloaded.bit_length == 6 and reloaded.network is None
            fresh_mu = reloaded.posterior[0]["mu_weights"]
        else:
            fresh_mu = reloaded.network.layers[0].mu_weights
        assert np.array_equal(fresh_mu, retrained[0]["mu_weights"])

    @pytest.mark.parametrize(
        "kind, source",
        [
            ("float", "network"),
            ("float", "parameters"),
            ("float", "path"),
            ("quantized", "parameters"),
            ("quantized", "path"),
        ],
    )
    def test_register_every_source(self, tmp_path, network, posterior, kind, source):
        path = tmp_path / "model.npz"
        save_posterior(path, posterior)
        model = {"network": network, "parameters": posterior, "path": path}[source]
        registry = ModelRegistry()
        if kind == "quantized":
            entry = registry.register_quantized("m", model, n_samples=4)
            served_mu = entry.posterior[0]["mu_weights"]
        else:
            entry = registry.register_network("m", model, n_samples=4)
            served_mu = entry.network.layers[0].mu_weights
        assert entry.kind == kind
        assert (entry.in_features, entry.out_features) == (6, 3)
        assert entry.grng == ("rlf" if kind == "quantized" else "bnnwallace")
        assert np.array_equal(served_mu, posterior[0]["mu_weights"])
        if source == "path":
            assert entry.source_path == str(path)
            assert registry.reload("m").version == entry.version + 1
        else:
            assert entry.source_path is None
            with pytest.raises(ConfigurationError, match="file-backed"):
                registry.reload("m")

    def test_kind_specific_inputs_are_rejected(self, network):
        with pytest.raises(ConfigurationError, match="not a network"):
            ModelRegistry().register_quantized("m", network)
        with pytest.raises(ConfigurationError, match="quantized models only"):
            ModelRegistry().register_network("m", network, bit_length=6)

    def test_reregistering_continues_versions(self, network):
        registry = ModelRegistry()
        registry.register_network("digits", network)
        entry = registry.register_network("digits", network)
        assert entry.version == 2

    def test_version_survives_evict_and_reregister(self, network):
        """(name, version) must never identify two different posteriors."""
        registry = ModelRegistry()
        registry.register_network("digits", network)
        registry.evict("digits")
        entry = registry.register_network("digits", network)
        assert entry.version == 2

    def test_version_survives_lru_eviction(self, network):
        registry = ModelRegistry(max_models=1)
        registry.register_network("a", network)
        registry.register_network("b", network)  # LRU-evicts a
        entry = registry.register_network("a", network)
        assert entry.version == 2

    def test_evict(self, network):
        registry = ModelRegistry()
        registry.register_network("digits", network)
        registry.evict("digits")
        assert len(registry) == 0
        with pytest.raises(UnknownModelError):
            registry.get("digits")

    def test_lru_eviction_at_capacity(self, network):
        registry = ModelRegistry(max_models=2)
        registry.register_network("a", network)
        registry.register_network("b", network)
        registry.get("a")  # refresh a; b becomes least recently used
        registry.register_network("c", network)
        assert sorted(registry.names()) == ["a", "c"]
        with pytest.raises(UnknownModelError):
            registry.get("b")
