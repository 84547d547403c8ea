"""Tests for the shared sampled weight-stack cache (`repro.serving.weight_stack`).

The cache's contract: concurrent same-model requests cost **one** stream
draw (single-flight builds), entries are keyed ``(model, version, N,
position)`` so reloads and re-registrations can never serve stale
ensembles, and ``advance``/``invalidate_model`` provide the freshness and
eviction knobs the service exposes.
"""

import threading

import numpy as np
import pytest

from repro.bnn.bayesian import BayesianNetwork
from repro.errors import ConfigurationError
from repro.serving import (
    BnnService,
    ServiceConfig,
    WeightStackCache,
)
from repro.serving.registry import ModelRegistry

IN, OUT = 10, 3


class CountingEntry:
    """ModelEntry stand-in that counts (and records) stack builds."""

    def __init__(self, name="m", version=1, n_samples=4, build_delay=None):
        self.name = name
        self.version = version
        self.n_samples = n_samples
        self.builds = []
        self.build_delay = build_delay  # optional threading.Event to wait on
        self.lock = threading.Lock()

    def build_weight_stack(self, position):
        if self.build_delay is not None:
            self.build_delay.wait(1.0)
        with self.lock:
            self.builds.append(position)
        return {"entry": self.name, "version": self.version, "position": position}


class TestSingleFlight:
    def test_one_draw_under_concurrent_requests(self):
        """A thundering herd of identical requests builds the stack once."""
        gate = threading.Event()
        entry = CountingEntry(build_delay=gate)
        cache = WeightStackCache(capacity=4)
        results = []

        def fetch():
            results.append(cache.get_or_create(entry))

        threads = [threading.Thread(target=fetch) for _ in range(8)]
        for thread in threads:
            thread.start()
        gate.set()
        for thread in threads:
            thread.join(5.0)
        assert len(entry.builds) == 1
        assert cache.draws == 1
        assert len(results) == 8
        assert all(r is results[0] for r in results)

    def test_second_call_hits(self):
        entry = CountingEntry()
        cache = WeightStackCache()
        first = cache.get_or_create(entry)
        second = cache.get_or_create(entry)
        assert first is second
        assert cache.hits == 1 and cache.draws == 1 and entry.builds == [0]

    def test_failed_build_releases_waiters(self):
        """A builder that raises must not deadlock or poison the key."""

        class FailingOnce(CountingEntry):
            def __init__(self):
                super().__init__()
                self.fail_next = True

            def build_weight_stack(self, position):
                if self.fail_next:
                    self.fail_next = False
                    raise RuntimeError("injected build fault")
                return super().build_weight_stack(position)

        entry = FailingOnce()
        cache = WeightStackCache()
        with pytest.raises(RuntimeError):
            cache.get_or_create(entry)
        # The key is released: the next caller becomes the builder.
        assert cache.get_or_create(entry)["position"] == 0
        assert cache.draws == 1


class TestKeying:
    def test_no_cross_model_version_or_n_leakage(self):
        """Distinct (model, version, N) triples never share an entry."""
        cache = WeightStackCache(capacity=16)
        entries = [
            CountingEntry("a", version=1, n_samples=4),
            CountingEntry("a", version=2, n_samples=4),
            CountingEntry("a", version=2, n_samples=8),
            CountingEntry("b", version=1, n_samples=4),
        ]
        stacks = [cache.get_or_create(entry) for entry in entries]
        assert len({id(stack) for stack in stacks}) == 4
        assert cache.draws == 4
        # Re-reading each returns its own cached object.
        for entry, stack in zip(entries, stacks):
            assert cache.get_or_create(entry) is stack

    def test_advance_bumps_position_and_drops_stacks(self):
        cache = WeightStackCache()
        entry = CountingEntry()
        cache.get_or_create(entry)
        assert cache.position("m", 1, 4) == 0
        assert cache.advance("m") == 1
        assert cache.position("m", 1, 4) == 1
        assert len(cache) == 0
        assert cache.get_or_create(entry)["position"] == 1
        assert entry.builds == [0, 1]

    def test_advance_leaves_other_models_alone(self):
        cache = WeightStackCache()
        a, b = CountingEntry("a"), CountingEntry("b")
        cache.get_or_create(a)
        cache.get_or_create(b)
        cache.advance("a")
        assert cache.position("a", 1, 4) == 1
        assert cache.position("b", 1, 4) == 0
        assert cache.get_or_create(b) is cache.get_or_create(b)
        assert b.builds == [0]

    def test_invalidate_model_drops_stacks_and_positions(self):
        cache = WeightStackCache()
        a, b = CountingEntry("a"), CountingEntry("b")
        cache.get_or_create(a)
        cache.get_or_create(b)
        cache.advance("a")
        cache.get_or_create(a)
        assert cache.invalidate_model("a") == 1
        assert cache.position("a", 1, 4) == 0  # positions reset too
        assert [key[0] for key in cache.keys()] == ["b"]

    def test_lru_eviction_at_capacity(self):
        cache = WeightStackCache(capacity=2)
        entries = [CountingEntry(name) for name in ("a", "b", "c")]
        for entry in entries:
            cache.get_or_create(entry)
        assert len(cache) == 2
        names = [key[0] for key in cache.keys()]
        assert names == ["b", "c"]  # "a" was least recently used
        cache.get_or_create(entries[0])
        assert entries[0].builds == [0, 0]  # evicted, so rebuilt

    def test_zero_capacity_is_a_configuration_error(self):
        cache = WeightStackCache(capacity=0)
        with pytest.raises(ConfigurationError):
            cache.get_or_create(CountingEntry())

    def test_negative_capacity_rejected(self):
        with pytest.raises(ConfigurationError):
            WeightStackCache(capacity=-1)


@pytest.fixture()
def network():
    return BayesianNetwork((IN, 6, OUT), seed=0, initial_sigma=0.04)


@pytest.fixture()
def images():
    return np.random.default_rng(11).random((12, IN))


def shared_service(network, **overrides) -> BnnService:
    config = dict(workers=0, max_batch=8, cache_capacity=0, queue_capacity=64)
    config.update(overrides)
    service = BnnService(config=ServiceConfig(**config))
    service.register_network(
        "m", network, n_samples=6, grng="bnnwallace", seed=3, share_weight_stacks=True
    )
    return service


class TestServiceIntegration:
    def test_batches_share_one_draw_and_are_deterministic(self, network, images):
        with shared_service(network) as service:
            first = service.predict_many("m", images)
            second = service.predict_many("m", images)
            assert service.stack_cache.draws == 1
            assert service.stack_cache.hits >= 1
        assert (first == second).all()

    def test_stack_matches_entry_build(self, network, images):
        """The served ensemble is exactly build_weight_stack(position=0)."""
        from repro.bnn.activations import softmax
        from repro.bnn.inference import stacked_forward_stacks

        with shared_service(network) as service:
            served = service.predict_many("m", images)
            entry = service.registry.get("m")
        stacks = entry.build_weight_stack(0)
        logits = stacked_forward_stacks(stacks, images)
        probs = softmax(logits)
        total = np.zeros(probs.shape[1:])
        for index in range(probs.shape[0]):
            total += probs[index]
        assert (served == total / probs.shape[0]).all()

    def test_reload_invalidates_shared_stacks(self, network, images, tmp_path):
        from repro.bnn.serialization import save_posterior

        path = tmp_path / "model.npz"
        save_posterior(path, network.posterior_parameters())
        service = BnnService(
            config=ServiceConfig(workers=0, max_batch=8, cache_capacity=0)
        )
        with service:
            service.register_network(
                "m", path, n_samples=6, grng="bnnwallace", seed=3,
                share_weight_stacks=True,
            )
            before = service.predict_many("m", images)
            assert len(service.stack_cache) == 1
            service.reload("m")
            assert len(service.stack_cache) == 0
            after = service.predict_many("m", images)
        # Version is in the stack seed: the reloaded ensemble differs.
        assert not (before == after).all()
        assert service.stack_cache.draws == 2

    def test_evict_drops_shared_stacks(self, network, images):
        with shared_service(network) as service:
            service.predict_many("m", images)
            assert len(service.stack_cache) == 1
            service.evict("m")
            assert len(service.stack_cache) == 0

    def test_refresh_weight_stacks_draws_a_new_ensemble(self, network, images):
        with shared_service(network) as service:
            before = service.predict_many("m", images)
            assert service.refresh_weight_stacks("m") == 1
            after = service.predict_many("m", images)
            assert service.stack_cache.draws == 2
        assert not (before == after).all()

    def test_refresh_mid_batch_caches_no_old_ensemble_row(
        self, network, images, monkeypatch
    ):
        """A batch that read its stacks before a refresh still answers its
        request, but the row it computed under the old ensemble must not
        be cached: the next identical request computes anew."""
        from repro.serving import SharedStackPredictor

        with shared_service(network, cache_capacity=32) as service:
            predict_proba = SharedStackPredictor.predict_proba
            refreshes = []

            def refresh_after_reading(predictor, x, n_samples):
                probs = predict_proba(predictor, x, n_samples)
                if not refreshes:
                    refreshes.append(service.refresh_weight_stacks("m"))
                return probs

            monkeypatch.setattr(
                SharedStackPredictor, "predict_proba", refresh_after_reading
            )
            before = service.predict_proba("m", images[0])
            assert refreshes == [1]
            after = service.predict_proba("m", images[0])
            stats = service.stats()
            assert stats["cache_hits"] == 0 and stats["cache_misses"] == 2
            assert stats["cache_entries"] == 1  # the fresh ensemble's row
            assert service.stack_cache.draws == 2
        assert not (before == after).all()

    def test_threaded_workers_share_one_draw(self, network, images):
        with shared_service(network, workers=2, max_wait_ms=1.0) as service:
            tickets = [service.submit("m", row) for row in images]
            rows = np.stack([ticket.result(10.0) for ticket in tickets])
            assert service.stack_cache.draws == 1
        # Worker-independent stacks: same rows as the synchronous mode.
        with shared_service(network) as sync:
            expected = sync.predict_many("m", images)
        assert (rows == expected).all()

    def test_share_without_cache_capacity_fails_batches(self, network, images):
        service = BnnService(
            config=ServiceConfig(
                workers=0, max_batch=8, cache_capacity=0, stack_cache_capacity=0
            )
        )
        with service:
            service.register_network(
                "m", network, n_samples=6, seed=3, share_weight_stacks=True
            )
            ticket = service.submit("m", images[0])
            service.flush()
            with pytest.raises(ConfigurationError):
                ticket.result(1.0)

    def test_quantized_shared_stacks_deterministic(self, network, images):
        posterior = network.posterior_parameters()
        def make():
            service = BnnService(
                config=ServiceConfig(workers=0, max_batch=8, cache_capacity=0)
            )
            service.register_quantized(
                "q", posterior, n_samples=6, grng="rlf", seed=5,
                share_weight_stacks=True,
            )
            return service
        with make() as service:
            first = service.predict_many("q", images)
            assert service.stack_cache.draws == 1
        with make() as service:
            second = service.predict_many("q", images)
        assert (first == second).all()


class TestRegistryBuildWeightStack:
    def test_stack_is_a_pure_function_of_the_key(self, network):
        registry = ModelRegistry()
        entry = registry.register_network(
            "m", network, n_samples=5, seed=9, share_weight_stacks=True
        )
        one = entry.build_weight_stack(0)
        two = entry.build_weight_stack(0)
        for (w1, b1), (w2, b2) in zip(one, two):
            assert (w1 == w2).all() and (b1 == b2).all()
        other = entry.build_weight_stack(1)
        assert not all(
            (w1 == w2).all() for (w1, _), (w2, _) in zip(one, other)
        )

    def test_build_predictor_requires_stack_cache(self, network):
        registry = ModelRegistry()
        entry = registry.register_network(
            "m", network, n_samples=5, share_weight_stacks=True
        )
        with pytest.raises(ConfigurationError):
            entry.build_predictor(0)
        predictor = entry.build_predictor(0, stack_cache=WeightStackCache())
        assert predictor.entry is entry


def shared_entry(network, kind):
    registry = ModelRegistry()
    if kind == "q8":
        return registry.register_quantized(
            "m", network.posterior_parameters(), n_samples=5, seed=9,
            share_weight_stacks=True,
        )
    return registry.register_network(
        "m", network, n_samples=5, seed=9, share_weight_stacks=True
    )


@pytest.mark.parametrize("kind", ["float", "q8"])
class TestSharedStackPredictors:
    """The predictors that read the stack cache."""

    def test_a_new_run_reads_the_refreshed_ensemble(self, network, images, kind):
        """A call (here a degraded 2-pass prefix) must not pin its
        ensemble into the next call: every call resolves the current one."""
        entry = shared_entry(network, kind)
        cache = WeightStackCache()
        predictor = entry.build_predictor(0, stack_cache=cache)
        predictor.predict_proba(images, 2)
        cache.advance("m")
        served = predictor.predict_proba(images, 5)
        reference = entry.build_predictor(0, stack_cache=WeightStackCache())
        reference.predict_proba(images, 5)  # one full call at position 0
        reference.stack_cache.advance("m")
        expected = reference.predict_proba(images, 5)
        assert served.tobytes() == expected.tobytes()
        assert cache.draws == 2
