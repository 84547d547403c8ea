"""Unit tests for the serving execution path: `ServingWorker` and `WorkerPool`.

`ServingWorker.execute` is the one path every batch takes — inline on the
caller's thread in synchronous mode, or on a pool thread — so it is
driven here directly, on hand-built batches, without a `BnnService` in
front of it.  `WorkerPool` is driven through its own batcher: thread
lifecycle, draining on stop, and supervised failover with restart
accounting by cause.
"""

import threading
import time

import numpy as np
import pytest

from repro.bnn.bayesian import BayesianNetwork
from repro.bnn.inference import (
    LocalReparamPredictor,
    stacked_forward_stacks,
    stacked_softmax_average,
)
from repro.bnn.quantized import QuantizedBayesianNetwork
from repro.errors import (
    AdmissionShed,
    ConfigurationError,
    DeadlineExceeded,
    InjectedWorkerKill,
    ServiceOverloaded,
    UnknownModelError,
    WorkerCrashed,
)
from repro.grng import GrngStream, make_grng
from repro.obs import parse_prometheus, render_prometheus
from repro.obs.trace import Tracer
from repro.serving import (
    AdmissionController,
    Batch,
    FaultEvent,
    FaultPlan,
    MicroBatcher,
    ModelRegistry,
    PredictionCache,
    PredictionTicket,
    ResilienceConfig,
    ServiceMetrics,
    ServingWorker,
    WeightStackCache,
    WorkerPool,
    slice_stacks,
    worker_stream_seed,
)
from repro.serving.batcher import settle

IN, OUT = 12, 4
N_SAMPLES = 5


@pytest.fixture()
def network():
    return BayesianNetwork((IN, 8, OUT), seed=0, initial_sigma=0.04)


@pytest.fixture()
def images():
    return np.random.default_rng(7).random((16, IN))


@pytest.fixture()
def registry(network):
    registry = ModelRegistry()
    registry.register_network(
        "m", network, n_samples=N_SAMPLES, grng="bnnwallace", seed=3
    )
    return registry


def make_worker(registry, index=0, *, cache_capacity=16, **kwargs):
    return ServingWorker(
        index,
        registry,
        MicroBatcher(max_batch=8, capacity=64),
        PredictionCache(capacity=cache_capacity),
        ServiceMetrics(),
        WeightStackCache(capacity=4),
        **kwargs,
    )


def make_batch(rows, model="m"):
    rows = [np.array(row, dtype=np.float64) for row in rows]
    return Batch(model, rows, [PredictionTicket(model) for _ in rows])


def direct_probs(registry, rows, index=0, incarnation=0):
    entry = registry.get("m")
    predictor = entry.build_predictor(index, incarnation=incarnation)
    return np.asarray(predictor.predict_proba(np.stack(rows), entry.n_samples))


def results(batch):
    return np.stack([ticket.result(1.0) for ticket in batch.tickets])


def wait_until(predicate, timeout=5.0):
    deadline = time.perf_counter() + timeout
    while not predicate():
        if time.perf_counter() > deadline:
            return False
        time.sleep(0.01)
    return True


def restart_causes(metrics):
    samples = parse_prometheus(render_prometheus(metrics.registry))
    return {
        s["labels"]["cause"]: s["value"]
        for s in samples
        if s["name"] == "service_worker_restarts_total"
    }


def claim_rows(cache, registry, batch):
    """Claim each ticket's cache key, as ``BnnService.submit`` does."""
    entry = registry.get("m")
    for row, ticket in zip(batch.rows, batch.tickets):
        ticket.key = PredictionCache.key("m", entry.version, entry.n_samples, row)
        assert cache.claim(ticket.key, ticket) is None


# ----------------------------------------------------------------------
# settle: the one way a ticket resolves
# ----------------------------------------------------------------------
class TestSettle:
    def test_error_fails_every_ticket_once_and_counts_failures(self, images):
        batch = make_batch(images[:3])
        metrics = ServiceMetrics()
        error = WorkerCrashed("boom")
        assert all(settle(t, metrics, None, error=error) for t in batch.tickets)
        for ticket in batch.tickets:
            with pytest.raises(WorkerCrashed, match="boom"):
                ticket.result(0.1)
        assert metrics.count("requests_failed") == 3

    def test_already_resolved_tickets_are_skipped(self, images):
        batch = make_batch(images[:3])
        batch.tickets[1].set_result(np.ones(OUT))
        metrics = ServiceMetrics()
        delivered = [
            settle(t, metrics, None, error=WorkerCrashed("x")) for t in batch.tickets
        ]
        assert delivered == [True, False, True]
        assert (batch.tickets[1].result(0.1) == 1.0).all()
        assert metrics.count("requests_failed") == 2

    def test_closes_spans_with_the_error_type(self, images):
        tracer = Tracer(capacity=8)
        batch = make_batch(images[:2])
        for ticket in batch.tickets:
            ticket.trace = tracer.begin("m", start=ticket.created_at)
            settle(ticket, ServiceMetrics(), tracer, error=WorkerCrashed("x"))
        spans = tracer.spans()
        assert len(spans) == 2
        assert {span.error for span in spans} == {"WorkerCrashed"}

    @pytest.mark.parametrize(
        ("error", "counts"),
        [
            (None, {"requests_served": 1}),
            (AdmissionShed("x"), {"shed": 1}),
            (ServiceOverloaded("x"), {"overloads": 1}),
            (DeadlineExceeded("x"), {"requests_failed": 1, "deadline_evictions": 1}),
            (UnknownModelError("x"), {"requests_failed": 1}),
        ],
        ids=["row", "shed", "overload", "deadline", "other-error"],
    )
    def test_each_outcome_is_counted_once_by_kind(self, error, counts):
        metrics = ServiceMetrics()
        ticket = PredictionTicket("m", slo="batch")
        settle(ticket, metrics, None, row=np.ones(OUT), error=error)
        keys = ("requests_served", "requests_failed", "overloads", "shed",
                "deadline_evictions")
        assert {k: metrics.count(k) for k in keys if metrics.count(k)} == counts

    def test_last_phase_runs_to_the_resolution_stamp(self):
        tracer = Tracer(capacity=8)
        ticket = PredictionTicket("m")
        ticket.trace = tracer.begin("m", start=ticket.created_at)
        settle(
            ticket, ServiceMetrics(), tracer, row=np.ones(OUT),
            phases=(("submit", 0.0),), last_phase=("respond", ticket.created_at),
            worker=2, batch_size=5,
        )
        (span,) = tracer.spans()
        assert span.phases["respond"] == ticket.completed_at - ticket.created_at
        assert (span.worker, span.batch_size, span.error) == (2, 5, None)

    def test_a_row_is_cached_only_under_a_held_claim(self, images):
        cache = PredictionCache(capacity=4)
        holder, other = PredictionTicket("m"), PredictionTicket("m")
        holder.key = other.key = PredictionCache.key("m", 1, 5, images[0])
        assert cache.claim(holder.key, holder) is None
        assert cache.claim(other.key, other) is holder  # in flight: coalesce
        settle(other, ServiceMetrics(), None, row=np.zeros(OUT), cache=cache)
        assert len(cache) == 0  # no claim, no row
        settle(holder, ServiceMetrics(), None, row=np.ones(OUT), cache=cache)
        assert (cache.get(holder.key) == 1.0).all()

    def test_an_error_releases_the_claim(self, images):
        cache = PredictionCache(capacity=4)
        failed, retry = PredictionTicket("m"), PredictionTicket("m")
        failed.key = PredictionCache.key("m", 1, 5, images[0])
        cache.claim(failed.key, failed)
        settle(failed, ServiceMetrics(), None, error=WorkerCrashed("x"), cache=cache)
        assert cache.claim(failed.key, retry) is None  # the retry computes anew
        assert len(cache) == 0


# ----------------------------------------------------------------------
# ServingWorker.execute on hand-built batches
# ----------------------------------------------------------------------
class TestExecute:
    def test_resolves_every_ticket_and_records_the_batch(self, registry, images):
        worker = make_worker(registry)
        batch = make_batch(images[:5])
        worker.execute(batch)
        probs = results(batch)
        assert probs.shape == (5, OUT)
        assert np.allclose(probs.sum(axis=1), 1.0)
        assert worker.metrics.count("batches") == 1
        assert worker.metrics.count("batch_rows") == 5
        assert worker.metrics.count("requests_served") == 5
        assert worker.metrics.count("requests_failed") == 0

    @pytest.mark.parametrize("index", [0, 1, 3])
    def test_serves_the_slots_own_stream(self, registry, images, index):
        worker = make_worker(registry, index)
        batch = make_batch(images[:6])
        worker.execute(batch)
        expected = direct_probs(registry, batch.rows, index=index)
        assert (results(batch) == expected).all()

    def test_slots_are_decorrelated(self, registry, images):
        outputs = []
        for index in (0, 1):
            batch = make_batch(images[:6])
            make_worker(registry, index).execute(batch)
            outputs.append(results(batch))
        assert not (outputs[0] == outputs[1]).all()

    def test_incarnation_selects_a_fresh_stream(self, registry, images):
        first = make_batch(images[:6])
        make_worker(registry, incarnation=0).execute(first)
        restarted = make_batch(images[:6])
        make_worker(registry, incarnation=1).execute(restarted)
        expected = direct_probs(registry, restarted.rows, incarnation=1)
        assert (results(restarted) == expected).all()
        assert not (results(first) == results(restarted)).all()

    def test_predictor_persists_across_batches(self, registry, images):
        worker = make_worker(registry)
        first, second = make_batch(images[:4]), make_batch(images[4:8])
        worker.execute(first)
        predictor = worker._predictors["m"][1]
        worker.execute(second)
        assert worker._predictors["m"][1] is predictor
        # One continuing stream: the same two calls on a fresh predictor.
        reference = registry.get("m").build_predictor(0)
        assert (results(first) == reference.predict_proba(first.stack(), N_SAMPLES)).all()
        assert (results(second) == reference.predict_proba(second.stack(), N_SAMPLES)).all()

    def test_reregistration_rebuilds_the_predictor(self, registry, images):
        worker = make_worker(registry)
        worker.execute(make_batch(images[:4]))
        other = BayesianNetwork((IN, 8, OUT), seed=9, initial_sigma=0.06)
        entry = registry.register_network(
            "m", other, n_samples=N_SAMPLES, grng="bnnwallace", seed=3
        )
        batch = make_batch(images[:4])
        worker.execute(batch)
        assert worker._predictors["m"][0] == entry.version == 2
        assert (results(batch) == direct_probs(registry, batch.rows)).all()

    def test_fills_the_cache_under_the_serving_key(self, registry, images):
        worker = make_worker(registry)
        batch = make_batch(images[:3])
        claim_rows(worker.cache, registry, batch)
        worker.execute(batch)
        entry = registry.get("m")
        assert len(worker.cache) == 3
        for row, ticket in zip(batch.rows, batch.tickets):
            key = PredictionCache.key("m", entry.version, entry.n_samples, row)
            assert (worker.cache.get(key) == ticket.result(0.1)).all()

    def test_unclaimed_rows_are_not_cached(self, registry, images):
        worker = make_worker(registry)
        batch = make_batch(images[:3])
        claim_rows(worker.cache, registry, batch)
        worker.cache.invalidate_model("m")  # as a refresh mid-batch would
        worker.execute(batch)
        assert all(ticket.done() for ticket in batch.tickets)
        assert len(worker.cache) == 0

    def test_disabled_cache_stays_empty(self, registry, images):
        worker = make_worker(registry, cache_capacity=0)
        batch = make_batch(images[:3])
        worker.execute(batch)
        assert len(worker.cache) == 0
        assert all(ticket.done() for ticket in batch.tickets)

    def test_unknown_model_fails_the_batch_not_the_worker(self, registry, images):
        worker = make_worker(registry)
        ghost = make_batch(images[:3], model="ghost")
        worker.execute(ghost)
        for ticket in ghost.tickets:
            with pytest.raises(UnknownModelError):
                ticket.result(0.1)
        assert worker.metrics.count("requests_failed") == 3
        assert worker.metrics.count("batches") == 1
        good = make_batch(images[:3])
        worker.execute(good)
        assert results(good).shape == (3, OUT)

    def test_failed_over_batch_settles_nothing_more(self, registry, images):
        worker = make_worker(registry)
        batch = make_batch(images[:3])
        claim_rows(worker.cache, registry, batch)
        for ticket in batch.tickets:  # as WorkerPool._fail_batch does
            settle(ticket, worker.metrics, None, error=WorkerCrashed("x"), cache=worker.cache)
        worker.execute(batch)  # the late (zombie) completion
        for ticket in batch.tickets:
            with pytest.raises(WorkerCrashed):
                ticket.result(0.1)
        assert len(worker.cache) == 0
        assert worker.metrics.count("requests_served") == 0
        assert worker.metrics.count("requests_failed") == 3

    def test_first_delivery_wins_over_the_computed_row(self, registry, images):
        worker = make_worker(registry)
        batch = make_batch(images[:3])
        batch.tickets[0].set_exception(WorkerCrashed("failed over"))
        worker.execute(batch)
        with pytest.raises(WorkerCrashed):
            batch.tickets[0].result(0.1)
        assert worker.metrics.count("requests_served") == 2

    def test_fully_expired_batch_runs_no_inference(self, registry, images):
        worker = make_worker(registry)
        batch = make_batch(images[:3])
        for ticket in batch.tickets:
            ticket.deadline = ticket.created_at - 1.0
        worker.execute(batch)
        for ticket in batch.tickets:
            with pytest.raises(DeadlineExceeded):
                ticket.result(0.1)
        assert worker.metrics.count("batches") == 0
        assert worker.metrics.count("deadline_evictions") == 3
        assert "m" not in worker._predictors

    def test_expired_tickets_fail_next_to_live_rows(self, registry, images):
        worker = make_worker(registry)
        batch = make_batch(images[:3])
        expired = batch.tickets[1]
        expired.slo = "batch"
        expired.deadline = expired.created_at - 1.0
        live_rows = [batch.rows[0], batch.rows[2]]
        worker.execute(batch)
        with pytest.raises(DeadlineExceeded, match="batch request"):
            expired.result(0.1)
        assert batch.tickets == [t for t in batch.tickets if t is not expired]
        assert (results(batch) == direct_probs(registry, live_rows)).all()
        assert worker.metrics.snapshot()["deadline_evictions"] == 1
        assert worker.metrics.count("batch_rows") == 2


class TestFillWindowAccounting:
    """Queue residency splits into batch_fill and queue_wait exactly.

    Offsets are milliseconds before ``execute`` starts: two requests
    enqueued at ``enqueued``, the batcher's fill window opened at
    ``fill_from`` (``None``: popped by ``drain_tick``) and the pop at
    ``popped``.  ``tail`` is the part of the window after the last
    arrival, which is still coalescing.
    """

    @pytest.mark.parametrize(
        ("enqueued", "fill_from", "popped", "tail"),
        [
            ((40, 30), None, 5, 0),  # sync drain: no fill window
            ((40, 30), 28, 8, 20),  # lone wait after the last arrival
            ((40, 30), 35, 8, 22),  # last arrival inside the window
            ((40, 30), 10, 10, 0),  # busy worker, batch already full
        ],
        ids=["drain-tick", "window-after-arrivals", "arrival-in-window", "busy-worker"],
    )
    def test_window_after_last_arrival_is_batch_fill(
        self, registry, images, enqueued, fill_from, popped, tail
    ):
        tracer = Tracer(capacity=8)
        worker = make_worker(registry, tracer=tracer)
        batch = make_batch(images[:2])
        base = time.perf_counter()
        for ticket, ago in zip(batch.tickets, enqueued):
            ticket.trace = tracer.begin("m", start=base - 0.05)
            ticket.trace.enqueued = base - ago / 1000
        batch.fill_from = None if fill_from is None else base - fill_from / 1000
        batch.popped_at = base - popped / 1000
        worker.execute(batch)
        after = time.perf_counter()
        youngest = min(enqueued)
        for ago, span in zip(enqueued, (t.trace for t in batch.tickets)):
            assert span.phases["batch_fill"] == pytest.approx(
                (ago - youngest + tail) / 1000, abs=1e-9
            )
            # Dispatch wait runs from the last arrival to the start of
            # execute, which lies between base and after.
            dispatch = (youngest - tail) / 1000
            assert dispatch <= span.phases["queue_wait"] <= after - base + dispatch


class TestExecuteUnderAFaultPlan:
    def test_kill_escapes_before_the_batch_is_touched(self, registry, images):
        plan = FaultPlan(events=[FaultEvent(0, 1, "kill")])
        worker = make_worker(registry, fault_plan=plan)
        batch = make_batch(images[:3])
        with pytest.raises(InjectedWorkerKill, match="worker 0"):
            worker.execute(batch)
        assert not any(ticket.done() for ticket in batch.tickets)
        assert worker.metrics.count("batches") == 0

    def test_kill_pinned_to_another_incarnation_does_not_fire(self, registry, images):
        plan = FaultPlan(events=[FaultEvent(0, 1, "kill", incarnation=1)])
        worker = make_worker(registry, fault_plan=plan)
        batch = make_batch(images[:3])
        worker.execute(batch)
        assert results(batch).shape == (3, OUT)

    def test_delay_sleeps_then_serves(self, registry, images):
        plan = FaultPlan(events=[FaultEvent(0, 1, "delay", seconds=0.05)])
        worker = make_worker(registry, fault_plan=plan)
        batch = make_batch(images[:3])
        start = time.perf_counter()
        worker.execute(batch)
        assert time.perf_counter() - start >= 0.05
        assert (results(batch) == direct_probs(registry, batch.rows)).all()


class TestExecuteUnderAdmission:
    def controller(self, **kwargs):
        return AdmissionController(ResilienceConfig(**kwargs), capacity=64)

    @pytest.mark.parametrize(("level", "passes"), [(1, 2), (2, 1)])
    def test_forced_ladder_level_serves_fewer_passes(
        self, registry, images, level, passes
    ):
        admission = self.controller(min_passes=1)
        admission.force_level(level)
        worker = make_worker(registry, admission=admission)
        batch = make_batch(images[:3])
        worker.execute(batch)
        assert [ticket.degraded for ticket in batch.tickets] == [passes] * 3
        assert worker.metrics.count("degraded_rows") == 3
        assert np.allclose(results(batch).sum(axis=1), 1.0)

    def test_level_zero_serves_full_passes(self, registry, images):
        worker = make_worker(registry, admission=self.controller())
        batch = make_batch(images[:3])
        worker.execute(batch)
        assert [ticket.degraded for ticket in batch.tickets] == [None] * 3
        assert worker.metrics.count("degraded_rows") == 0
        assert (results(batch) == direct_probs(registry, batch.rows)).all()

    def test_queue_wait_feeds_the_pressure_signal(self, registry, images):
        admission = self.controller(ewma_alpha=0.5)
        worker = make_worker(registry, admission=admission)
        batch = make_batch(images[:3])
        for ticket in batch.tickets:
            ticket.created_at -= 0.4  # as if queued for 400ms
        worker.execute(batch)
        assert admission.pressure() >= 0.5 * 0.4


# ----------------------------------------------------------------------
# One execution path for every model kind and mode
# ----------------------------------------------------------------------
#: Passes a forced level-2 (floor) batch serves.
FLOOR_PASSES = 2


def register_cell(registry, network, kind, shared, grng=None):
    """``grng=None`` picks the kind's usual generator: rlf's integer codes
    for q8, bnnwallace for float."""
    options = dict(n_samples=N_SAMPLES, seed=3, share_weight_stacks=shared)
    if kind == "q8":
        return registry.register_quantized(
            "m", network.posterior_parameters(), bit_length=8, grng=grng or "rlf", **options
        )
    return registry.register_network("m", network, grng=grng or "bnnwallace", **options)


def fresh_source(entry):
    """``(x, n_passes) -> probs`` on worker 0's stream, built by the model
    itself: consecutive calls continue the stream."""
    seed = worker_stream_seed(entry.seed, entry.version, 0)
    grng = GrngStream(make_grng(entry.grng, seed=seed))
    if entry.kind == "quantized":
        network = QuantizedBayesianNetwork(
            entry.posterior, bit_length=entry.bit_length, grng=grng, seed=seed
        )
        return lambda x, n_passes: network.predict_proba(x, n_samples=n_passes)
    return LocalReparamPredictor(entry.network, grng).predict_proba


def fresh_reference(entry, x, n_passes):
    """The first ``n_passes`` of worker 0's stream, averaged by the model itself."""
    return fresh_source(entry)(x, n_passes)


def stack_logits(entry, stacks, x):
    """Logits of every pass of ``stacks``, off the entry's datapath."""
    if entry.kind == "quantized":
        network = QuantizedBayesianNetwork(entry.posterior, bit_length=entry.bit_length)
        codes = network.forward_stacked_codes(
            network.act_fmt.quantize(x), stacks[0][0].shape[0], sampled=stacks
        )
        return network.act_fmt.dequantize(codes)
    return stacked_forward_stacks(stacks, x)


def shared_reference(entry, x, n_passes):
    """The first ``n_passes`` of the position-0 ensemble, averaged."""
    stacks = slice_stacks(entry.build_weight_stack(0), n_passes)
    return stacked_softmax_average(stack_logits(entry, stacks, x))


#: Served generators: integer codes (rlf) and float-only ones, which a
#: q8 model reads as quantized float epsilons.
SERVED_GRNGS = ["bnnwallace", "rlf", "numpy"]


class TestOneExecutionPath:
    """Every kind, stack mode, run mode and served generator: served rows
    == a direct reference.  A degraded batch serves a 2-pass prefix."""

    @pytest.mark.parametrize("grng", SERVED_GRNGS)
    @pytest.mark.parametrize("mode", ["fixed", "degraded"])
    @pytest.mark.parametrize("shared", [False, True], ids=["fresh", "shared"])
    @pytest.mark.parametrize("kind", ["float", "q8"])
    def test_served_rows_equal_the_direct_reference(
        self, network, images, kind, shared, mode, grng
    ):
        registry = ModelRegistry()
        entry = register_cell(registry, network, kind, shared, grng)
        admission = AdmissionController(
            ResilienceConfig(min_passes=FLOOR_PASSES), capacity=64
        )
        if mode == "degraded":
            admission.force_level(2)
        worker = make_worker(registry, admission=admission)
        batch = make_batch(images[:6])
        worker.execute(batch)
        n_passes = FLOOR_PASSES if mode == "degraded" else N_SAMPLES
        reference = (shared_reference if shared else fresh_reference)(
            entry, batch.stack(), n_passes
        )
        assert results(batch).tobytes() == reference.tobytes()
        degraded = FLOOR_PASSES if mode == "degraded" else None
        assert [ticket.degraded for ticket in batch.tickets] == [degraded] * 6
        assert worker.metrics.count("degraded_rows") == (6 if degraded else 0)

    @pytest.mark.parametrize("grng", SERVED_GRNGS)
    @pytest.mark.parametrize("shared", [False, True], ids=["fresh", "shared"])
    @pytest.mark.parametrize("kind", ["float", "q8"])
    def test_a_degraded_batch_then_a_full_one_equal_two_direct_calls(
        self, network, images, kind, shared, grng
    ):
        """A 2-pass degraded batch, then a full 5-pass batch on the same
        worker: a fresh model continues its stream, a shared one serves
        both from the one ensemble."""
        registry = ModelRegistry()
        entry = register_cell(registry, network, kind, shared, grng)
        admission = AdmissionController(
            ResilienceConfig(min_passes=FLOOR_PASSES), capacity=64
        )
        worker = make_worker(registry, admission=admission)
        degraded, full = make_batch(images[:3]), make_batch(images[3:9])
        admission.force_level(2)
        worker.execute(degraded)
        admission.force_level(0)
        worker.execute(full)
        if shared:
            first = shared_reference(entry, degraded.stack(), FLOOR_PASSES)
            second = shared_reference(entry, full.stack(), N_SAMPLES)
            assert worker.stack_cache.draws == 1
        else:
            source = fresh_source(entry)
            first = source(degraded.stack(), FLOOR_PASSES)
            second = source(full.stack(), N_SAMPLES)
        assert results(degraded).tobytes() == first.tobytes()
        assert results(full).tobytes() == second.tobytes()
        assert [ticket.degraded for ticket in degraded.tickets] == [FLOOR_PASSES] * 3
        assert [ticket.degraded for ticket in full.tickets] == [None] * 6
        assert worker.metrics.count("degraded_rows") == 3

    @pytest.mark.parametrize("kind", ["float", "q8"])
    def test_a_shared_batch_reads_one_ensemble(self, network, images, kind):
        """A refresh landing right after the batch resolved its ensemble
        must not make the batch average two ensembles, nor build the
        second on the request path: the batch serves the one it resolved."""
        registry = ModelRegistry()
        entry = register_cell(registry, network, kind, shared=True)
        worker = make_worker(registry)
        stack_cache = worker.stack_cache
        resolve = stack_cache.get_or_create

        def resolve_then_refresh(served):
            stacks = resolve(served)
            stack_cache.advance(served.name)
            return stacks

        stack_cache.get_or_create = resolve_then_refresh
        batch = make_batch(images[:6])
        worker.execute(batch)
        reference = shared_reference(entry, batch.stack(), N_SAMPLES)
        assert results(batch).tobytes() == reference.tobytes()
        assert stack_cache.draws == 1


# ----------------------------------------------------------------------
# WorkerPool lifecycle and supervision
# ----------------------------------------------------------------------
def make_pool(registry, *, workers=1, max_batch=4, resilience=None, fault_plan=None):
    return WorkerPool(
        registry,
        MicroBatcher(max_batch=max_batch, max_wait_ms=50.0, capacity=64),
        PredictionCache(capacity=0),
        ServiceMetrics(),
        workers=workers,
        stack_cache=WeightStackCache(capacity=4),
        resilience=resilience,
        fault_plan=fault_plan,
    )


def submit_rows(pool, rows):
    tickets = []
    for row in rows:
        ticket = PredictionTicket("m")
        pool.batcher.submit(np.array(row, dtype=np.float64), ticket)
        tickets.append(ticket)
    return tickets


def fast_supervision(**overrides):
    config = dict(heartbeat_interval_s=0.02, batch_timeout_s=0.2)
    config.update(overrides)
    return ResilienceConfig(**config)


class TestWorkerPoolLifecycle:
    @pytest.mark.parametrize("workers", [0, -1])
    def test_workers_must_be_positive(self, registry, workers):
        with pytest.raises(ConfigurationError, match="workers"):
            make_pool(registry, workers=workers)

    def test_starts_named_daemon_threads_and_stop_joins_them(self, registry):
        pool = make_pool(registry, workers=3)
        try:
            assert [w.name for w in pool.workers] == [
                f"bnn-serving-worker-{i}" for i in range(3)
            ]
            assert all(w.daemon and w.is_alive() for w in pool.workers)
        finally:
            pool.stop()
        assert not any(w.is_alive() for w in pool.workers)
        assert pool.batcher.closed

    def test_stop_serves_queued_requests_before_joining(self, registry, images):
        pool = make_pool(registry, workers=2)
        tickets = submit_rows(pool, images[:10])
        pool.stop()
        assert all(ticket.done() for ticket in tickets)
        assert np.stack([t.result(0.1) for t in tickets]).shape == (10, OUT)
        assert pool.metrics.count("requests_served") == 10

    def test_stop_fails_the_queue_behind_a_wedged_worker(
        self, registry, images, monkeypatch
    ):
        """A worker still wedged past the join must not leave the requests
        queued behind it unresolved once ``stop`` returns."""
        gate, entered = threading.Event(), threading.Event()

        class Wedged:
            def predict_proba(self, x, n_samples):
                entered.set()
                gate.wait(10.0)
                raise RuntimeError("released")

        monkeypatch.setattr(ServingWorker, "_predictor_for", lambda worker, entry: Wedged())
        pool = make_pool(registry, max_batch=1)
        try:
            held = submit_rows(pool, images[:1])
            assert entered.wait(5.0)
            queued = submit_rows(pool, images[1:4])
            pool.stop(timeout=0.1)
            assert all(ticket.done() for ticket in queued)
            for ticket in queued:
                with pytest.raises(WorkerCrashed, match="pool stopped"):
                    ticket.result(0.0)
            assert pool.metrics.count("requests_failed") == 3
        finally:
            gate.set()
        with pytest.raises(RuntimeError, match="released"):
            held[0].result(5.0)

    def test_stop_is_idempotent(self, registry):
        pool = make_pool(registry)
        pool.stop()
        pool.stop()
        assert not pool.workers[0].is_alive()

    def test_no_supervisor_without_resilience(self, registry, images):
        pool = make_pool(registry)
        try:
            assert pool._supervisor is None
            tickets = submit_rows(pool, images[:4])
            assert np.stack([t.result(5.0) for t in tickets]).shape == (4, OUT)
            assert pool.restarts == 0
        finally:
            pool.stop()

    def test_healthy_supervised_pool_never_restarts(self, registry, images):
        pool = make_pool(registry, workers=2, resilience=fast_supervision())
        try:
            assert pool._supervisor.is_alive()
            tickets = submit_rows(pool, images[:8])
            assert np.stack([t.result(5.0) for t in tickets]).shape == (8, OUT)
            time.sleep(0.1)  # several supervisor polls
            assert pool.restarts == 0
            assert [w.incarnation for w in pool.workers] == [0, 0]
        finally:
            pool.stop()
        assert not pool._supervisor.is_alive()


class TestWorkerPoolSupervision:
    def test_dead_worker_is_replaced_by_the_next_incarnation(self, registry, images):
        plan = FaultPlan(events=[FaultEvent(0, 1, "kill")])
        pool = make_pool(registry, resilience=fast_supervision(), fault_plan=plan)
        try:
            original = pool.workers[0]
            tickets = submit_rows(pool, images[:4])
            for ticket in tickets:
                with pytest.raises(WorkerCrashed, match="died mid-batch"):
                    ticket.result(5.0)
            assert original.crashed and original.retired
            replacement = pool.workers[0]
            assert replacement is not original
            assert replacement.index == 0 and replacement.incarnation == 1
            assert wait_until(lambda: restart_causes(pool.metrics) == {"died": 1})
            assert pool.restarts == 1
            served = submit_rows(pool, images[4:8])
            expected = direct_probs(registry, list(images[4:8]), incarnation=1)
            assert (np.stack([t.result(5.0) for t in served]) == expected).all()
        finally:
            pool.stop()

    def test_stalled_worker_restart_is_recorded_as_stalled(self, registry, images):
        plan = FaultPlan(events=[FaultEvent(0, 1, "stall", seconds=0.6)])
        pool = make_pool(registry, resilience=fast_supervision(), fault_plan=plan)
        try:
            tickets = submit_rows(pool, images[:4])
            for ticket in tickets:
                with pytest.raises(WorkerCrashed, match="stalled"):
                    ticket.result(5.0)
            assert wait_until(lambda: restart_causes(pool.metrics) == {"stalled": 1})
            assert pool.workers[0].incarnation == 1
        finally:
            pool.stop()

    def test_exhausted_restart_budget_still_fails_tickets_typed(
        self, registry, images
    ):
        plan = FaultPlan(events=[FaultEvent(0, 1, "kill")])
        pool = make_pool(
            registry, resilience=fast_supervision(max_restarts=0), fault_plan=plan
        )
        try:
            original = pool.workers[0]
            tickets = submit_rows(pool, images[:4])
            for ticket in tickets:
                with pytest.raises(WorkerCrashed):
                    ticket.result(5.0)
            assert pool.restarts == 0
            assert pool.workers[0] is original and original.retired
            assert restart_causes(pool.metrics) == {}
            assert pool.metrics.count("requests_failed") == 4
        finally:
            pool.stop()
