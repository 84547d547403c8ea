"""Tests for the micro-batching scheduler and prediction tickets."""

import threading

import numpy as np
import pytest

from repro.errors import ConfigurationError, ServiceOverloaded, ServingError
from repro.serving.batcher import MicroBatcher, PredictionTicket


def _submit(batcher, model="m", value=0.0):
    ticket = PredictionTicket(model)
    batcher.submit(np.full(3, value), ticket)
    return ticket


class TestPredictionTicket:
    def test_resolves_with_result(self):
        ticket = PredictionTicket("m")
        assert not ticket.done()
        ticket.set_result(np.array([0.25, 0.75]))
        assert ticket.done()
        assert np.array_equal(ticket.result(), [0.25, 0.75])
        assert ticket.latency() >= 0.0

    def test_propagates_exception(self):
        ticket = PredictionTicket("m")
        ticket.set_exception(ConfigurationError("boom"))
        with pytest.raises(ConfigurationError, match="boom"):
            ticket.result()

    def test_result_times_out(self):
        ticket = PredictionTicket("m")
        with pytest.raises(ServingError, match="timed out"):
            ticket.result(timeout=0.01)

    def test_latency_requires_completion(self):
        with pytest.raises(ServingError):
            PredictionTicket("m").latency()


class TestMicroBatcherConfig:
    def test_rejects_bad_parameters(self):
        with pytest.raises(ConfigurationError):
            MicroBatcher(max_batch=0)
        with pytest.raises(ConfigurationError):
            MicroBatcher(max_wait_ms=-1.0)
        with pytest.raises(ConfigurationError):
            MicroBatcher(max_batch=8, capacity=4)


class TestMicroBatcher:
    def test_empty_tick_is_noop(self):
        batcher = MicroBatcher(max_batch=4, capacity=8)
        assert batcher.drain_tick() is None
        assert batcher.pending() == 0

    def test_drain_preserves_submission_order(self):
        batcher = MicroBatcher(max_batch=4, capacity=8)
        for value in range(3):
            _submit(batcher, value=float(value))
        batch = batcher.drain_tick()
        assert len(batch) == 3 and batch.model == "m"
        assert [row[0] for row in batch.rows] == [0.0, 1.0, 2.0]
        assert np.array_equal(batch.stack()[:, 0], [0.0, 1.0, 2.0])
        assert batcher.pending() == 0

    def test_max_batch_splits_queue(self):
        batcher = MicroBatcher(max_batch=2, capacity=8)
        tickets = [_submit(batcher, value=float(v)) for v in range(5)]
        assert len(batcher.drain_tick()) == 2
        assert len(batcher.drain_tick()) == 2
        last = batcher.drain_tick()
        assert len(last) == 1 and last.tickets[0] is tickets[-1]

    def test_single_model_per_batch(self):
        batcher = MicroBatcher(max_batch=4, capacity=8)
        _submit(batcher, model="a", value=1.0)
        _submit(batcher, model="b", value=2.0)
        _submit(batcher, model="a", value=3.0)
        batch = batcher.drain_tick()
        assert batch.model == "a" and len(batch) == 2
        assert [row[0] for row in batch.rows] == [1.0, 3.0]
        remaining = batcher.drain_tick()
        assert remaining.model == "b" and len(remaining) == 1

    def test_queue_full_backpressure(self):
        batcher = MicroBatcher(max_batch=2, capacity=2)
        _submit(batcher)
        _submit(batcher)
        with pytest.raises(ServiceOverloaded, match="queue full"):
            _submit(batcher)
        # Draining frees capacity again.
        batcher.drain_tick()
        _submit(batcher)

    def test_submit_reports_depth(self):
        batcher = MicroBatcher(max_batch=4, capacity=8)
        ticket = PredictionTicket("m")
        assert batcher.submit(np.zeros(3), ticket) == 1
        assert batcher.submit(np.zeros(3), PredictionTicket("m")) == 2

    def test_next_batch_times_out_empty(self):
        batcher = MicroBatcher(max_batch=4, capacity=8)
        assert batcher.next_batch(timeout=0.01) is None

    def test_next_batch_returns_immediately_when_full(self):
        batcher = MicroBatcher(max_batch=2, max_wait_ms=10_000.0, capacity=8)
        _submit(batcher)
        _submit(batcher)
        batch = batcher.next_batch(timeout=0.1)
        assert len(batch) == 2

    def test_next_batch_dispatches_partial_after_max_wait(self):
        batcher = MicroBatcher(max_batch=64, max_wait_ms=5.0, capacity=128)
        _submit(batcher)
        batch = batcher.next_batch(timeout=0.1)
        assert batch is not None and len(batch) == 1

    def test_next_batch_waits_for_fill(self):
        batcher = MicroBatcher(max_batch=2, max_wait_ms=500.0, capacity=8)
        _submit(batcher)
        filler = threading.Timer(0.02, lambda: _submit(batcher))
        filler.start()
        try:
            batch = batcher.next_batch(timeout=0.5)
        finally:
            filler.join()
        assert len(batch) == 2

    def test_partial_batch_records_its_fill_window(self):
        batcher = MicroBatcher(max_batch=64, max_wait_ms=5.0, capacity=128)
        _submit(batcher)
        batch = batcher.next_batch(timeout=0.1)
        assert batch.popped_at - batch.fill_from >= 0.005

    def test_full_batch_pops_without_sitting_out_the_window(self):
        batcher = MicroBatcher(max_batch=2, max_wait_ms=10_000.0, capacity=8)
        _submit(batcher)
        _submit(batcher)
        batch = batcher.next_batch(timeout=0.1)
        assert 0.0 <= batch.popped_at - batch.fill_from < 1.0

    def test_no_fill_window_without_max_wait(self):
        batcher = MicroBatcher(max_batch=4, max_wait_ms=0.0, capacity=8)
        _submit(batcher)
        assert batcher.next_batch(timeout=0.1).fill_from is None

    def test_drain_tick_has_no_fill_window(self):
        batcher = MicroBatcher(max_batch=4, max_wait_ms=5.0, capacity=8)
        _submit(batcher)
        assert batcher.drain_tick().fill_from is None

    def test_closed_batcher_rejects_submit_but_drains(self):
        batcher = MicroBatcher(max_batch=4, capacity=8)
        _submit(batcher)
        batcher.close()
        assert batcher.closed
        with pytest.raises(ServingError, match="closed"):
            _submit(batcher)
        assert len(batcher.drain_tick()) == 1
