"""Fast tests of the benchmark's own harness (no workload is run)."""

from __future__ import annotations

import json
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
sys.path.insert(0, BENCH)

import harness  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


class FakeClock:
    """Deterministic time: ``sleep`` and stalls advance it, nothing waits."""

    def __init__(self) -> None:
        self.now = 100.0

    def __call__(self) -> float:
        return self.now

    def sleep(self, seconds: float) -> None:
        self.now += seconds


class FakeTicket:
    def __init__(self, clock: FakeClock, *, error: Exception | None = None,
                 hang: bool = False, delay: float = 0.0) -> None:
        self.completed_at = None if hang else clock() + delay
        self._error = error
        self._hang = hang

    def done(self) -> bool:
        return not self._hang

    def result(self, timeout=None):
        if self._hang:
            raise TimeoutError("still pending")
        if self._error is not None:
            raise self._error
        return np.full(10, 0.1)


def test_metric_names_and_units_match_benchmark_json():
    with open(os.path.join(os.path.dirname(BENCH), "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER_UNITS
    assert list(run.PER_LAYER_UNITS) == list(workloads.PER_LAYER_NAMES)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert list(run.WORKLOAD_NAMES) == list(workloads.WORKLOADS)
    assert spec["paths"] == ["perfbench"]


def test_latency_runs_from_due_time_so_a_stall_shows_in_later_requests():
    clock = FakeClock()
    stall_s = 0.5

    def submit(index):
        if index == 0:
            clock.sleep(stall_s)  # the service blocks the generator
        return FakeTicket(clock)

    offsets = [0.0, 0.1, 0.2, 0.3, 1.0]
    attempts = harness.run_open_loop(submit, offsets, clock=clock, sleep=clock.sleep)
    harness.collect(attempts, 1.0, clock=clock)
    latencies = [a.latency_s() for a in attempts]
    assert latencies[0] == pytest.approx(stall_s)
    # Requests 1-3 were due during the stall and are charged for it.
    assert latencies[1:4] == pytest.approx([0.4, 0.3, 0.2])
    assert latencies[4] == pytest.approx(0.0)
    assert all(a.sent >= a.due for a in attempts)


@pytest.mark.parametrize("n", [20, 45, 99, 100, 101, 999, 1000, 5000, 10000, 30000])
def test_tail_percentile_keeps_ten_samples_beyond(n):
    pct = harness.tail_percentile(n)
    assert n * (1 - pct / 100) >= harness.TAIL_MIN_BEYOND - 1e-9
    if pct < harness.TAIL_CAP:  # one step higher would leave fewer than ten
        assert n * (1 - (pct + 0.1) / 100) < harness.TAIL_MIN_BEYOND
    samples = np.random.default_rng(n).exponential(size=n)
    summary = harness.latency_summary(samples)
    assert summary["tail_pct"] == pct and summary["samples"] == n
    assert np.count_nonzero(samples * 1e3 >= summary["tail_ms"]) >= harness.TAIL_MIN_BEYOND


def test_chunked_tail_is_not_moved_by_a_stall_in_one_chunk():
    samples = np.full(500, 0.010)
    samples[::20] = 0.020  # five per cent slow everywhere
    base = harness.latency_summary(samples, chunks=5)
    stalled = samples.copy()
    stalled[100:130] = 0.500  # the machine stalls during one chunk
    summary = harness.latency_summary(stalled, chunks=5)
    assert summary["tail_pct"] == harness.tail_percentile(100)
    assert summary["tail_ms"] == pytest.approx(base["tail_ms"])
    assert max(summary["chunk_tails_ms"]) == pytest.approx(500.0)
    # One chunk: the stall decides the tail.
    assert harness.latency_summary(stalled)["tail_ms"] == pytest.approx(500.0)


def test_closed_loop_sends_one_at_a_time_and_times_from_the_send():
    clock = FakeClock()
    outstanding = []

    class Ticket(FakeTicket):
        def result(self, timeout=None):
            outstanding.remove(self)
            return super().result(timeout)

    def submit(index):
        assert not outstanding  # the last request has ended
        clock.sleep(0.05)
        ticket = Ticket(clock, delay=0.1 * (index + 1))
        outstanding.append(ticket)
        return ticket

    attempts = harness.run_closed_loop(submit, 4, 1.0, clock=clock)
    assert [a.index for a in attempts] == [0, 1, 2, 3]
    assert [a.latency_s() for a in attempts] == pytest.approx([0.15, 0.25, 0.35, 0.45])
    assert all(a.due == a.sent for a in attempts)


def test_closed_loop_stops_at_the_first_hang():
    clock = FakeClock()
    attempts = harness.run_closed_loop(
        lambda i: FakeTicket(clock, hang=i == 2), 10, 1.0, clock=clock
    )
    assert len(attempts) == 3 and attempts[2].hung
    result = harness.outcome([a.latency_s() for a in attempts if a.ok], 3, 1.0)
    assert result["failed"] == 1


def test_burst_counts_refusals_and_times_to_the_last_completion():
    clock = FakeClock()

    def submit(index):
        if index == 12:
            raise RuntimeError("queue full")
        return FakeTicket(clock, delay=0.01 * index)

    attempts, seconds = harness.run_burst(submit, range(10, 15), 1.0, clock=clock)
    assert [a.index for a in attempts] == [10, 11, 12, 13, 14]
    assert [a.ok for a in attempts] == [True, True, False, True, True]
    assert seconds == pytest.approx(0.14)


def test_tail_percentile_refuses_too_few_samples():
    with pytest.raises(ValueError):
        harness.tail_percentile(19)


def test_failures_sheds_and_hangs_count_against_attempts():
    clock = FakeClock()

    class Overloaded(Exception):
        pass

    def submit(index):
        if index == 1:
            raise Overloaded("queue full")  # refused at submit
        if index == 2:
            return FakeTicket(clock, error=RuntimeError("shed"))  # failed later
        if index == 3:
            return FakeTicket(clock, hang=True)
        return FakeTicket(clock, delay=0.01 if index < 6 else 0.5)

    attempts = harness.run_open_loop(submit, np.arange(8) * 0.1, clock=clock, sleep=clock.sleep)
    harness.collect(attempts, 1.0, clock=clock)
    # The open-loop summary needs its tail: pad with on-time successes.
    clock.sleep(1.0)
    pad = harness.run_open_loop(
        lambda i: FakeTicket(clock, delay=0.01), np.arange(20) * 0.1,
        clock=clock, sleep=clock.sleep,
    )
    harness.collect(pad, 1.0, clock=clock)
    result = harness.served_outcome(attempts + pad, slo_s=0.1)
    assert result["attempted"] == 28
    assert result["failed"] == 3 and result["hung"] == 1
    assert result["success_rate"] == pytest.approx(25 / 28)
    # Two slow successes and three failures all miss the limit.
    assert result["slo_attainment"] == pytest.approx(23 / 28)
    assert [a.error for a in attempts[1:3]] == ["Overloaded", "RuntimeError"]


def test_outcome_counts_missing_latencies_as_misses():
    result = harness.outcome([0.01, 0.02, 0.5], attempted=5, slo_s=0.1)
    assert result["failed"] == 2
    assert result["success_rate"] == pytest.approx(0.6)
    assert result["slo_attainment"] == pytest.approx(0.4)


def test_exponential_gaps_keep_their_distribution_for_every_seed():
    a = harness.exponential_gaps(4.0, 500, np.random.default_rng(1))
    b = harness.exponential_gaps(4.0, 500, np.random.default_rng(2))
    assert not np.array_equal(a, b)
    assert np.array_equal(np.sort(a), np.sort(b))
    assert a.mean() == pytest.approx(1 / 4.0, rel=0.02)
    assert np.array_equal(a, harness.exponential_gaps(4.0, 500, np.random.default_rng(1)))


def test_probability_rows_check():
    good = np.full((3, 10), 0.1)
    assert harness.probability_rows_ok(good, 10)[0]
    bad = good.copy()
    bad[1, 0] = np.nan
    assert not harness.probability_rows_ok(bad, 10)[0]
    assert not harness.probability_rows_ok(good[:, :9], 10)[0]
    assert not harness.probability_rows_ok(good * 1.01, 10)[0]
