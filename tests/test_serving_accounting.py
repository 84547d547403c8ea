"""Every way a request can end, in both serving tiers, counted once.

One scenario drives each exit of a request — served, cache hit,
coalesced follower, stale serve, overload, shed, deadline, fault barrier,
a worker killed mid-batch (supervised failover with a worker pool, the
caller's thread failing the batch without one) and, with a worker pool,
the ``stop`` sweep of held batches and of the queue behind them —
through a cache-enabled, traced, resilience-enabled service, in the
synchronous tier (``workers=0``) and the threaded one (``workers=2``).
It then checks the no-hang and accounting invariants across all of them:

* every ticket resolves exactly once;
* every resolution is counted in exactly one of ``requests_served``,
  ``requests_failed``, ``overloads`` or ``shed``;
* every request's span is finished exactly once.
"""

import collections
import threading
import time

import numpy as np
import pytest

from repro.bnn.bayesian import BayesianNetwork
from repro.bnn.serialization import save_posterior
from repro.errors import (
    AdmissionShed,
    DeadlineExceeded,
    InjectedWorkerKill,
    ServiceOverloaded,
    WorkerCrashed,
)
from repro.obs.trace import Tracer
from repro.serving import (
    BnnService,
    PredictionTicket,
    ResilienceConfig,
    ServiceConfig,
    ServingWorker,
)

IN, OUT = 12, 4
OUTCOMES = ("requests_served", "requests_failed", "overloads", "shed")


def wait_until(predicate, timeout=5.0):
    deadline = time.perf_counter() + timeout
    while not predicate():
        if time.perf_counter() > deadline:
            return False
        time.sleep(0.005)
    return True


class Broken:
    """A predictor whose batch fails inside the worker's fault barrier."""

    def predict_proba(self, x, n_samples):
        raise RuntimeError("broken predictor")


class Crash:
    """A predictor that kills its worker thread mid-batch."""

    def predict_proba(self, x, n_samples):
        raise InjectedWorkerKill("crash predictor")


class Hold:
    """A predictor that holds its worker until the gate opens."""

    def __init__(self, inner, gate, holding):
        self.inner, self.gate, self.holding = inner, gate, holding

    def predict_proba(self, x, n_samples):
        self.holding.append(True)
        self.gate.wait(10.0)
        return self.inner.predict_proba(x, n_samples)


@pytest.fixture()
def ledger(monkeypatch):
    """Record every ticket delivery and every span begun and finished."""
    book = collections.Counter()
    spans = collections.Counter()

    def recording(method):
        def deliver(ticket, value):
            delivered = method(ticket, value)
            if delivered:
                book[ticket] += 1
            return delivered
        return deliver

    begin, finish = Tracer.begin, Tracer.finish

    def recording_begin(tracer, *args, **kwargs):
        span = begin(tracer, *args, **kwargs)
        spans[span] += 0
        return span

    def recording_finish(tracer, span, *args, **kwargs):
        spans[span] += 1
        return finish(tracer, span, *args, **kwargs)

    monkeypatch.setattr(PredictionTicket, "set_result", recording(PredictionTicket.set_result))
    monkeypatch.setattr(
        PredictionTicket, "set_exception", recording(PredictionTicket.set_exception)
    )
    monkeypatch.setattr(Tracer, "begin", recording_begin)
    monkeypatch.setattr(Tracer, "finish", recording_finish)
    return book, spans


@pytest.fixture()
def gate(monkeypatch):
    """Route the test models to their predictor doubles; returns the
    ``Hold`` gate and the list of holds entered."""
    gate, holding = threading.Event(), []
    build = ServingWorker._predictor_for

    def predictor_for(worker, entry):
        predictor = build(worker, entry)
        if entry.name == "broken":
            return Broken()
        if entry.name == "crash":
            return Crash()
        if entry.name == "hold":
            return Hold(predictor, gate, holding)
        return predictor

    monkeypatch.setattr(ServingWorker, "_predictor_for", predictor_for)
    yield gate, holding
    gate.set()


@pytest.mark.parametrize("workers", [0, 2])
def test_every_exit_resolves_once_and_counts_once(workers, ledger, gate, tmp_path):
    book, spans = ledger
    gate, holding = gate
    threaded = workers > 0
    network = BayesianNetwork((IN, 8, OUT), seed=0, initial_sigma=0.04)
    path = tmp_path / "m.npz"
    save_posterior(path, network.posterior_parameters())
    x = np.random.default_rng(7).random((16, IN))
    service = BnnService(
        config=ServiceConfig(
            workers=workers,
            max_batch=4,
            max_wait_ms=1.0,
            queue_capacity=4,
            cache_capacity=32,
            trace_capacity=256,
            resilience=ResilienceConfig(
                heartbeat_interval_s=0.02, batch_timeout_s=60.0, trickle_rps=0.0
            ),
        )
    )
    service.register_network("m", path, n_samples=5, seed=3)
    for name in ("m2", "broken", "crash", "hold"):
        service.register_network(name, network, n_samples=5, seed=4)
    tickets = {}

    # Served, then the same row again: a cache hit.
    tickets["served"] = service.submit("m", x[0])
    service.flush()
    served_row = tickets["served"].result(5.0)
    tickets["hit"] = service.submit("m", x[0])
    assert tickets["hit"].done()
    # A batch-level fault fails its tickets, not the worker.
    tickets["fault"] = service.submit("broken", x[1])
    service.flush()
    with pytest.raises(RuntimeError, match="broken predictor"):
        tickets["fault"].result(5.0)
    # A worker dying mid-batch: supervised failover and a restart, or, in
    # the synchronous tier, the caller's thread failing the batch itself.
    tickets["failover"] = service.submit("crash", x[2])
    service.flush()
    with pytest.raises(WorkerCrashed, match="died mid-batch" if threaded else "killed mid-batch"):
        tickets["failover"].result(5.0)
    if threaded:
        assert wait_until(lambda: service.stats()["worker_restarts"] == 1)
    # Top of the overload ladder after a reload: the old version's row.
    service.reload("m")
    service.admission.force_level(2)
    tickets["stale"] = service.submit("m", x[0])
    assert tickets["stale"].done() and tickets["stale"].stale
    service.admission.force_level(None)
    if threaded:
        # Both workers held mid-batch, so the queue below cannot drain.
        tickets["hold0"] = service.submit("hold", x[3])
        assert wait_until(lambda: len(holding) == 1)
        tickets["hold1"] = service.submit("hold", x[4])
        assert wait_until(lambda: len(holding) == 2)
    # Fill the queue (no model reaches a full batch) with a coalesced
    # duplicate and a request that will expire before any worker runs it.
    tickets["queued0"] = service.submit("m", x[5])
    assert service.submit("m", x[5]) is tickets["queued0"]  # coalesced
    tickets["queued1"] = service.submit("m", x[6])
    tickets["queued2"] = service.submit("m2", x[7])
    tickets["deadline"] = service.submit("m", x[8], deadline_s=0.005)
    with pytest.raises(AdmissionShed):
        service.submit("m", x[9], slo="best_effort")
    with pytest.raises(ServiceOverloaded):
        service.submit("m", x[10])
    time.sleep(0.02)
    queued = ("queued0", "queued1", "queued2")
    if threaded:
        service._pool.stop(timeout=0.1)  # the join expires mid-hold
        for name in ("hold0", "hold1"):
            assert tickets[name].done()
            with pytest.raises(WorkerCrashed, match="unfinished batch"):
                tickets[name].result(0.1)
        # The queue behind the wedged workers is failed, not left hanging.
        for name in queued:
            assert tickets[name].done()
            with pytest.raises(WorkerCrashed, match="pool stopped"):
                tickets[name].result(0.1)
        assert tickets["deadline"].done()
        gate.set()
    service.close()

    assert (tickets["hit"].result(1.0) == served_row).all()
    assert (tickets["stale"].result(1.0) == served_row).all()
    if not threaded:
        for name in queued:
            assert tickets[name].result(5.0).shape == (OUT,)
    with pytest.raises(DeadlineExceeded):
        tickets["deadline"].result(5.0)

    # Every ticket resolved exactly once: the ones handed out, plus the
    # shed and overloaded ones that submit settled before raising.
    assert all(ticket.done() for ticket in tickets.values())
    assert set(tickets.values()) <= set(book)
    assert set(book.values()) == {1}
    assert len(book) == len(tickets) + 2
    counts = {key: service.metrics.count(key) for key in OUTCOMES}
    assert sum(counts.values()) == len(book)
    assert counts["overloads"] == counts["shed"] == 1
    assert service.metrics.count("deadline_evictions") == 1
    assert service.metrics.count("stale_serves") == 1
    assert service.metrics.count("cache_hits") == 3  # hit, stale, coalesced
    # One span per submit that got past validation, each finished once.
    assert len(spans) == len(book) + 1  # + the coalesced follower's
    assert set(spans.values()) == {1}
    assert service.tracer.finished == len(spans)
