"""End-to-end tests for `BnnService`: equivalence, backpressure, reload, threads."""

import numpy as np
import pytest

from repro.bnn.bayesian import BayesianNetwork
from repro.bnn.inference import LocalReparamPredictor
from repro.bnn.serialization import save_posterior
from repro.errors import (
    ConfigurationError,
    ServiceOverloaded,
    UnknownModelError,
)
from repro.grng import GrngStream, make_grng
from repro.serving import BnnService, ServiceConfig, worker_stream_seed

IN, OUT = 12, 4


@pytest.fixture()
def network():
    return BayesianNetwork((IN, 8, OUT), seed=0, initial_sigma=0.04)


@pytest.fixture()
def images():
    return np.random.default_rng(7).random((16, IN))


def sync_service(network, **overrides) -> BnnService:
    config = dict(workers=0, max_batch=8, cache_capacity=0, queue_capacity=64)
    config.update(overrides)
    service = BnnService(config=ServiceConfig(**config))
    service.register_network("m", network, n_samples=5, grng="bnnwallace", seed=3)
    return service


class TestServedEquivalence:
    def test_bit_for_bit_matches_direct_batched_path(self, network, images):
        """Served == a direct local-reparameterization call for the same
        seed/batch (the fresh float path)."""
        with sync_service(network) as service:
            served = service.predict_many("m", images[:8])
            version = service.registry.get("m").version
        direct = LocalReparamPredictor(
            network,
            GrngStream(make_grng("bnnwallace", seed=worker_stream_seed(3, version, 0))),
        ).predict_proba(images[:8], 5)
        assert served.shape == direct.shape
        assert (served == direct).all()

    def test_successive_batches_continue_the_stream(self, network, images):
        """Two served batches must equal two direct calls on one stream."""
        with sync_service(network) as service:
            first = service.predict_many("m", images[:8])
            second = service.predict_many("m", images[8:16])
        direct = LocalReparamPredictor(
            network,
            GrngStream(make_grng("bnnwallace", seed=worker_stream_seed(3, 1, 0))),
        )
        assert (first == direct.predict_proba(images[:8], 5)).all()
        assert (second == direct.predict_proba(images[8:16], 5)).all()

    def test_rows_are_probability_distributions(self, network, images):
        with sync_service(network) as service:
            probs = service.predict_many("m", images)
        assert probs.shape == (16, OUT)
        assert np.allclose(probs.sum(axis=1), 1.0)
        assert (probs >= 0).all()


class TestRequestValidation:
    def test_unknown_model(self, network, images):
        with sync_service(network) as service:
            with pytest.raises(UnknownModelError):
                service.submit("nope", images[0])

    def test_row_shape_mismatch(self, network):
        with sync_service(network) as service:
            with pytest.raises(ConfigurationError, match="input row"):
                service.submit("m", np.zeros(IN + 1))
            with pytest.raises(ConfigurationError, match="batch, features"):
                service.predict_many("m", np.zeros(IN))

    def test_closed_service_rejects_submissions(self, network, images):
        service = sync_service(network)
        service.close()
        with pytest.raises(ConfigurationError, match="closed"):
            service.submit("m", images[0])


class TestBackpressure:
    def test_queue_full_raises_service_overloaded(self, network, images):
        with sync_service(network, max_batch=4, queue_capacity=4) as service:
            # No model accumulates a full batch (so nothing auto-drains),
            # but together the two models fill the bounded queue.
            service.register_network("m2", network, n_samples=5, seed=4)
            tickets = [service.submit("m", images[i]) for i in range(3)]
            tickets.append(service.submit("m2", images[3]))
            assert all(not ticket.done() for ticket in tickets)
            with pytest.raises(ServiceOverloaded):
                service.submit("m", images[4])
            assert service.stats()["overloads"] == 1
            service.flush()
            assert all(ticket.done() for ticket in tickets)

    def test_full_batch_auto_drains_during_submission(self, network, images):
        with sync_service(network, max_batch=4, queue_capacity=8) as service:
            tickets = [service.submit("m", images[i]) for i in range(4)]
            # The 4th submit completed a micro-batch and dispatched it
            # inline; the queue is empty again without an explicit flush.
            assert all(ticket.done() for ticket in tickets)
            assert service.stats()["queue_pending"] == 0
            assert service.stats()["batch_histogram"] == {4: 1}

    def test_overloaded_submit_fails_its_ticket(self, network, images):
        """A rejected submission must not leave its cache claim behind.

        If it did, a later identical request would coalesce onto a ticket
        that is neither queued nor resolvable and hang until timeout.
        """
        with sync_service(
            network, max_batch=4, queue_capacity=4, cache_capacity=32
        ) as service:
            service.register_network("m2", network, n_samples=5, seed=4)
            for i in range(3):
                service.submit("m", images[i])
            service.submit("m2", images[3])
            with pytest.raises(ServiceOverloaded):
                service.submit("m", images[4])
            service.flush()
            # The same request now succeeds instead of returning the
            # stranded ticket.
            assert service.predict_proba("m", images[4]).shape == (OUT,)

    def test_full_batch_behind_other_model_still_auto_drains(self, network, images):
        """A full batch queued behind another model's partial rows dispatches."""
        with sync_service(network, max_batch=2, queue_capacity=8) as service:
            service.register_network("m2", network, n_samples=5, seed=4)
            partial = service.submit("m2", images[0])
            tickets = [service.submit("m", images[i]) for i in (1, 2)]
            # The second "m" submit completed a full batch; the drain loop
            # popped the blocking "m2" partial first, then the full batch.
            assert partial.done() and all(ticket.done() for ticket in tickets)
            assert service.stats()["batch_histogram"] == {1: 1, 2: 1}

    def test_predict_many_larger_than_queue_capacity(self, network, images):
        """Bulk prediction waits out backpressure instead of failing."""
        config = ServiceConfig(
            workers=1, max_batch=4, queue_capacity=4, cache_capacity=0, max_wait_ms=1.0
        )
        service = BnnService(config=config)
        service.register_network("m", network, n_samples=3, grng="bnnwallace", seed=3)
        with service:
            x = np.tile(images, (2, 1))  # 32 rows through a queue of 4
            probs = service.predict_many("m", x)
        assert probs.shape == (32, OUT)
        assert np.allclose(probs.sum(axis=1), 1.0)

    def test_flush_on_empty_queue_is_noop(self, network):
        with sync_service(network) as service:
            service.flush()
            assert service.stats()["queue_pending"] == 0
            assert service.stats()["batches"] == 0


class TestCacheBehaviour:
    def test_repeat_request_hits_cache(self, network, images):
        with sync_service(network, cache_capacity=32) as service:
            first = service.predict_proba("m", images[0])
            stats = service.stats()
            assert stats["cache_hits"] == 0 and stats["cache_misses"] == 1
            second = service.predict_proba("m", images[0])
            stats = service.stats()
            assert stats["cache_hits"] == 1
            assert (first == second).all()
            # The hit resolved without a new batch.
            assert stats["batches"] == 1

    def test_reload_invalidates_cache(self, network, images, tmp_path):
        path = tmp_path / "model.npz"
        save_posterior(path, network.posterior_parameters())
        with BnnService(
            config=ServiceConfig(workers=0, max_batch=8, cache_capacity=32)
        ) as service:
            service.register_network("m", path, n_samples=5, grng="bnnwallace", seed=3)
            before = service.predict_proba("m", images[0])
            assert service.stats()["cache_entries"] == 1

            retrained = BayesianNetwork((IN, 8, OUT), seed=9).posterior_parameters()
            save_posterior(path, retrained)
            entry = service.reload("m")
            assert entry.version == 2
            assert service.stats()["cache_entries"] == 0  # eagerly dropped

            after = service.predict_proba("m", images[0])
            assert service.stats()["cache_misses"] == 2  # recomputed, not served stale
            assert not np.array_equal(before, after)

    def test_evict_drops_model_and_cache(self, network, images):
        with sync_service(network, cache_capacity=32) as service:
            service.predict_proba("m", images[0])
            service.evict("m")
            assert service.stats()["cache_entries"] == 0
            with pytest.raises(UnknownModelError):
                service.submit("m", images[0])

    def test_evict_then_reregister_serves_the_new_model(self, network, images):
        """A re-registered name must not serve the evicted model's results."""
        with sync_service(network, cache_capacity=32) as service:
            before = service.predict_proba("m", images[0])
            service.evict("m")
            other = BayesianNetwork((IN, 8, OUT), seed=99, initial_sigma=0.04)
            service.register_network("m", other, n_samples=5, grng="bnnwallace", seed=3)
            assert service.registry.get("m").version == 2
            after = service.predict_proba("m", images[0])
            assert not np.array_equal(before, after)

    def test_concurrent_identical_requests_coalesce(self, network, images):
        """In-flight duplicates share one ticket and one computed row."""
        with sync_service(network, cache_capacity=32) as service:
            first = service.submit("m", images[0])
            second = service.submit("m", images[0])
            assert second is first
            service.flush()
            assert service.stats()["batch_histogram"] == {1: 1}
            probs = service.predict_many("m", np.stack([images[1], images[1]]))
            assert (probs[0] == probs[1]).all()
            # Coalesced duplicates count toward the hit rate.
            assert service.stats()["cache_hits"] == 2

    def test_submitted_rows_are_snapshotted(self, network, images):
        """Mutating a caller buffer after submit must not change the request.

        Rows of one batch share sampled weights, so if the queue aliased
        the buffer both requests would collapse to the same (mutated)
        input and return identical rows.
        """
        with sync_service(network) as service:
            buffer = images[0].copy()
            first = service.submit("m", buffer)
            buffer[:] = images[1]
            second = service.submit("m", buffer)
            service.flush()
            assert not np.array_equal(first.result(1.0), second.result(1.0))


class TestWorkerErrorDelivery:
    def test_eviction_race_fails_tickets_not_workers(self, network, images):
        """A model evicted between submit and execute errors the tickets."""
        with sync_service(network) as service:
            ticket = service.submit("m", images[0])
            service.registry.evict("m")
            service.flush()
            with pytest.raises(UnknownModelError):
                ticket.result(timeout=1.0)
            assert service.stats()["requests_failed"] == 1

    def test_faulty_predictor_output_populates_no_cache_rows(self, network, images):
        """A worker fault mid-batch must never cache that batch's rows.

        The worker validates the predictor's output shape *before* any
        ``cache.put``; a malformed result fails every ticket in the batch
        and leaves the result cache untouched, so a later retry cannot be
        served a row that was never computed correctly.
        """

        class BadPredictor:
            def predict_proba(self, x, n_samples):
                return np.zeros((len(x), OUT + 1))  # wrong class count

        with sync_service(network, cache_capacity=32) as service:
            worker = service._sync_worker
            entry = service.registry.get("m")
            worker._predictors["m"] = (entry.version, BadPredictor())
            tickets = [service.submit("m", row) for row in images[:3]]
            service.flush()
            for ticket in tickets:
                with pytest.raises(ConfigurationError, match="returned shape"):
                    ticket.result(timeout=1.0)
            assert service.stats()["cache_entries"] == 0
            assert service.stats()["requests_failed"] == 3
            # The model itself is fine: a fresh predictor (version bump via
            # reload-free eviction of the poisoned one) serves and caches.
            del worker._predictors["m"]
            probs = service.predict_proba("m", images[0])
            assert probs.shape == (OUT,)
            assert service.stats()["cache_entries"] == 1


class TestThreadedMode:
    def test_worker_pool_serves_and_coalesces(self, network, images):
        config = ServiceConfig(workers=2, max_batch=8, max_wait_ms=5.0, cache_capacity=0)
        service = BnnService(config=config)
        service.register_network("m", network, n_samples=5, grng="bnnwallace", seed=3)
        with service:
            probs = service.predict_many("m", np.tile(images, (4, 1)))
        assert probs.shape == (64, OUT)
        assert np.allclose(probs.sum(axis=1), 1.0)
        snap = service.stats()
        assert snap["requests_served"] == 64
        assert snap["batches"] >= 1
        # Coalescing must actually happen: far fewer batches than requests.
        assert snap["mean_batch_size"] > 1.0

    def test_single_worker_full_batch_is_deterministic(self, network, images):
        """One worker + one full batch == the synchronous mode bit for bit."""
        config = ServiceConfig(workers=1, max_batch=8, max_wait_ms=50.0, cache_capacity=0)
        service = BnnService(config=config)
        service.register_network("m", network, n_samples=5, grng="bnnwallace", seed=3)
        with service:
            threaded = service.predict_many("m", images[:8])
        with sync_service(network) as reference_service:
            reference = reference_service.predict_many("m", images[:8])
        assert (threaded == reference).all()

    def test_close_is_idempotent(self, network):
        service = sync_service(network)
        service.close()
        service.close()

    def test_single_worker_continues_its_stream_across_batches(self, network, images):
        config = ServiceConfig(workers=1, max_batch=8, max_wait_ms=200.0, cache_capacity=0)
        service = BnnService(config=config)
        service.register_network("m", network, n_samples=5, grng="bnnwallace", seed=3)
        with service:
            threaded = [service.predict_many("m", chunk) for chunk in (images[:8], images[8:])]
        with sync_service(network) as sync:
            reference = [sync.predict_many("m", chunk) for chunk in (images[:8], images[8:])]
        for ours, theirs in zip(threaded, reference):
            assert (ours == theirs).all()

    @pytest.mark.parametrize("workers", [1, 2])
    def test_quantized_shared_stacks_match_sync_mode(self, network, images, workers):
        posterior = network.posterior_parameters()

        def serve(workers):
            service = BnnService(
                config=ServiceConfig(
                    workers=workers, max_batch=8, max_wait_ms=200.0, cache_capacity=0
                )
            )
            service.register_quantized(
                "hw", posterior, bit_length=8, n_samples=4, seed=11,
                share_weight_stacks=True,
            )
            with service:
                return service.predict_many("hw", images)

        assert (serve(workers) == serve(0)).all()

    @pytest.mark.parametrize("workers", [1, 2])
    def test_reregistration_reaches_running_workers(self, images, workers):
        net_a = BayesianNetwork((IN, 8, OUT), seed=0, initial_sigma=0.04)
        net_b = BayesianNetwork((IN, 8, OUT), seed=9, initial_sigma=0.06)

        def serve(workers):
            service = BnnService(
                config=ServiceConfig(
                    workers=workers, max_batch=8, max_wait_ms=200.0, cache_capacity=0
                )
            )
            with service:
                for net in (net_a, net_b):
                    service.register_network(
                        "m", net, n_samples=5, seed=3, share_weight_stacks=True
                    )
                    yield service.predict_many("m", images[:8])

        before, after = serve(workers)
        sync_before, sync_after = serve(0)
        assert (before == sync_before).all()
        assert (after == sync_after).all()
        assert not (before == after).all()

    @pytest.mark.parametrize("workers", [0, 2])
    def test_context_manager_and_idempotent_stop(self, network, images, workers):
        with sync_service(network, workers=workers) as service:
            assert service.predict_many("m", images[:4]).shape == (4, OUT)
        service.close()
        service.close()
        with pytest.raises(ConfigurationError, match="closed"):
            service.submit("m", images[0])


class TestServiceConfig:
    def test_defaults(self):
        config = ServiceConfig()
        assert config.workers == 2
        assert config.trace_capacity == 0
        assert config.resilience is None

    @pytest.mark.parametrize(
        ("kwargs", "match"),
        [(dict(workers=-1), "workers"), (dict(trace_capacity=-1), "trace_capacity")],
    )
    def test_negative_knobs_rejected(self, kwargs, match):
        with pytest.raises(ConfigurationError, match=match):
            ServiceConfig(**kwargs)


class TestServiceSurface:
    def test_stats_add_live_gauges_to_the_metrics(self, network, images):
        with sync_service(network, cache_capacity=16) as service:
            service.predict_many("m", images[:3])
            service.submit("m", images[3])
            snap = service.stats()
        assert snap["queue_pending"] == 1
        assert snap["cache_entries"] == 3
        assert snap["stack_cache_entries"] == 0
        assert snap["models"] == ["m"]
        assert snap["requests_served"] == 3

    def test_predict_many_rejects_a_single_row(self, network, images):
        with sync_service(network) as service:
            with pytest.raises(ConfigurationError, match="predict_many"):
                service.predict_many("m", images[0])

    def test_predict_proba_is_one_row_of_the_batched_path(self, network, images):
        with sync_service(network) as service:
            single = service.predict_proba("m", images[0])
        with sync_service(network) as service:
            batched = service.predict_many("m", images[:1])
        assert (single == batched[0]).all()

    def test_sync_close_serves_queued_requests(self, network, images):
        service = sync_service(network)
        tickets = [service.submit("m", row) for row in images[:3]]
        assert not any(ticket.done() for ticket in tickets)
        service.close()
        assert np.stack([t.result(0.1) for t in tickets]).shape == (3, OUT)
