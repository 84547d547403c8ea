"""Tests for the trained-posterior artifact cache and its wiring."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.experiments.artifacts import (
    ArtifactCache,
    TrainingSpec,
    active_cache,
    data_fingerprint,
    set_active_cache,
)
from repro.experiments.training import train_bnn


def _spec(**overrides) -> TrainingSpec:
    fields = dict(
        dataset="digits:64:16:0",
        model="bnn",
        topology=(12, 6, 3),
        epochs=2,
        batch_size=16,
        seed=0,
        prior=("scale-mixture", 0.5, 1.0, 0.0025),
        optimizer=("adam", 3e-3),
        initial_sigma=0.02,
        eval_samples=5,
    )
    fields.update(overrides)
    return TrainingSpec(**fields)


def _posterior(seed=0):
    rng = np.random.default_rng(seed)
    return [
        {
            "mu_weights": rng.standard_normal((4, 3)),
            "sigma_weights": np.abs(rng.standard_normal((4, 3))) + 0.01,
            "mu_bias": rng.standard_normal(3),
            "sigma_bias": np.abs(rng.standard_normal(3)) + 0.01,
        }
    ]


class TestTrainingSpec:
    def test_content_key_is_stable(self):
        assert _spec().content_key() == _spec().content_key()

    def test_every_field_changes_the_key(self):
        base = _spec().content_key()
        for overrides in (
            {"dataset": "digits:64:16:1"},
            {"topology": (12, 8, 3)},
            {"epochs": 3},
            {"batch_size": 8},
            {"seed": 1},
            {"prior": ("gaussian", 1.0)},
            {"optimizer": ("adam", 1e-3)},
            {"initial_sigma": 0.05},
            {"eval_samples": 30},
            {"extra": ("dropout", 0.5)},
        ):
            assert _spec(**overrides).content_key() != base, overrides

    def test_training_estimator_changes_the_key(self, monkeypatch):
        # Posteriors trained, or histories evaluated, by another estimator
        # must not be served as hits from a cache filled before it changed.
        from repro.bnn import bayesian

        keys = {_spec().content_key()}
        for estimator in ("TRAINING_ESTIMATOR", "EVALUATION_ESTIMATOR"):
            with monkeypatch.context() as patch:
                patch.setattr(bayesian, estimator, "weight-sampling")
                keys.add(_spec().content_key())
        assert len(keys) == 3

    def test_unserializable_spec_rejected(self):
        with pytest.raises(ConfigurationError):
            _spec(extra=(object(),)).content_key()


class TestDataFingerprint:
    def test_sensitive_to_values_shape_and_absence(self):
        x = np.arange(12.0).reshape(3, 4)
        base = data_fingerprint(x, None)
        assert data_fingerprint(x.copy(), None) == base
        assert data_fingerprint(x + 1, None) != base
        assert data_fingerprint(x.reshape(4, 3), None) != base
        assert data_fingerprint(x, x) != base


class TestArtifactCache:
    def test_round_trip_is_bit_exact(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        posterior = _posterior()
        cache.store("k1", posterior, {"history": {"train_loss": [0.1, 0.2]}})
        loaded, payload = cache.load("k1")
        for original, restored in zip(posterior, loaded):
            for key in original:
                assert np.array_equal(original[key], restored[key])
        assert payload == {"history": {"train_loss": [0.1, 0.2]}}

    def test_get_or_train_counts_hits_and_misses(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        calls = []

        def train():
            calls.append(1)
            return _posterior(), {"history": {}}

        spec = _spec()
        _, _, hit1 = cache.get_or_train(spec, train)
        _, _, hit2 = cache.get_or_train(spec, train)
        assert (hit1, hit2) == (False, True)
        assert len(calls) == 1
        assert cache.stats() == {"hits": 1, "misses": 1}

    def test_half_written_artifact_is_a_miss(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        cache.store("k2", _posterior(), {"ok": 1})
        # Simulate a crash between the two renames: payload missing.
        (tmp_path / "k2.json").unlink()
        assert cache.load("k2") is None

    def test_env_var_activation(self, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        assert active_cache() is None
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        cache = active_cache()
        assert cache is not None and cache.directory == tmp_path
        # Memoized per directory: counts accumulate across lookups.
        assert active_cache() is cache

    def test_explicit_cache_wins_over_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "env"))
        explicit = ArtifactCache(tmp_path / "explicit")
        previous = set_active_cache(explicit)
        try:
            assert active_cache() is explicit
        finally:
            set_active_cache(previous)


class TestTrainBnnCaching:
    @pytest.fixture()
    def data(self):
        rng = np.random.default_rng(0)
        return (
            rng.random((48, 10)),
            rng.integers(0, 3, 48),
            rng.random((12, 10)),
            rng.integers(0, 3, 12),
        )

    def test_hit_reproduces_cold_run_bit_for_bit(self, tmp_path, data):
        x_train, y_train, x_test, y_test = data
        cache = ArtifactCache(tmp_path)
        previous = set_active_cache(cache)
        try:
            cold, cold_history, cold_hit = train_bnn(
                (10, 6, 3), x_train, y_train, x_test, y_test, epochs=2, seed=1
            )
            warm, warm_history, warm_hit = train_bnn(
                (10, 6, 3), x_train, y_train, x_test, y_test, epochs=2, seed=1
            )
        finally:
            set_active_cache(previous)
        assert (cold_hit, warm_hit) == (False, True)
        assert cache.stats() == {"hits": 1, "misses": 1}
        for left, right in zip(cold.posterior_parameters(), warm.posterior_parameters()):
            for key in left:
                assert np.array_equal(left[key], right[key])
        assert cold_history == warm_history

    def test_different_data_misses(self, tmp_path, data):
        x_train, y_train, x_test, y_test = data
        previous = set_active_cache(ArtifactCache(tmp_path))
        try:
            _, _, first = train_bnn(
                (10, 6, 3), x_train, y_train, x_test, y_test, epochs=2, seed=1
            )
            _, _, second = train_bnn(
                (10, 6, 3), x_train + 1e-9, y_train, x_test, y_test, epochs=2, seed=1
            )
        finally:
            set_active_cache(previous)
        assert (first, second) == (False, False)

    def test_no_cache_returns_live_network(self, data):
        x_train, y_train, x_test, y_test = data
        assert active_cache() is None
        network, history, hit = train_bnn(
            (10, 6, 3), x_train, y_train, x_test, y_test, epochs=1, seed=1
        )
        assert hit is False
        assert history.epochs == 1
        assert network.predict(x_test[:2], n_samples=2).shape == (2,)
