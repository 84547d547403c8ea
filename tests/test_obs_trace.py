"""Span/tracer unit tests: ring bound, nested phases, export, report."""

import time
from types import SimpleNamespace

import pytest

import repro.obs.trace
from repro.errors import ConfigurationError
from repro.obs import (
    RequestSpan,
    Tracer,
    collect_phases,
    load_spans,
    phase,
    render_phase_report,
)


class TestRequestSpan:
    def test_add_phase_accumulates_and_clamps(self):
        span = RequestSpan("m", start=0.0)
        span.add_phase("inference", 0.25)
        span.add_phase("inference", 0.25)
        span.add_phase("respond", -1.0)  # clock skew clamps to zero
        assert span.phases == {"inference": 0.5, "respond": 0.0}

    def test_latency_and_accounted_fraction(self):
        span = RequestSpan("m", start=1.0)
        span.end = 3.0
        span.add_phase("inference", 1.5)
        assert span.latency_s == 2.0
        assert span.accounted_fraction() == pytest.approx(0.75)

    def test_mark_uses_perf_counter(self):
        span = RequestSpan("m", start=time.perf_counter())
        span.mark("enqueued")
        assert span.marks["enqueued"] >= span.start


class TestTracer:
    def test_capacity_validation(self):
        with pytest.raises(ConfigurationError):
            Tracer(capacity=0)

    def test_ring_is_bounded_but_counts_everything(self):
        tracer = Tracer(capacity=4)
        for i in range(10):
            tracer.finish(tracer.begin(f"m{i}"))
        assert len(tracer) == 4
        assert tracer.finished == 10
        assert [s.model for s in tracer.spans()] == ["m6", "m7", "m8", "m9"]
        tracer.clear()
        assert len(tracer) == 0
        assert tracer.finished == 10

    def test_finish_stamps_end_and_error(self):
        tracer = Tracer()
        span = tracer.begin("m")
        tracer.finish(span, error="ValueError")
        assert span.end is not None and span.end >= span.start
        assert span.error == "ValueError"

    def test_export_jsonl_round_trip(self, tmp_path):
        tracer = Tracer()
        span = tracer.begin("m", start=0.0)
        span.add_phase("inference", 0.5)
        span.batch_size = 4
        tracer.finish(span, end=1.0)
        path = tmp_path / "deep" / "spans.jsonl"
        assert tracer.export_jsonl(path) == 1
        (loaded,) = load_spans(path)
        assert loaded["model"] == "m"
        assert loaded["latency_s"] == 1.0
        assert loaded["phases"] == {"inference": 0.5}
        assert loaded["batch_size"] == 4


class TestPhaseCollection:
    def test_noop_without_collection(self):
        with phase("inference"):
            pass  # must not raise, must not record anywhere

    def test_flat_phases_recorded(self):
        sink = {}
        with collect_phases(sink):
            with phase("a"):
                time.sleep(0.002)
            with phase("b"):
                time.sleep(0.002)
        assert set(sink) == {"a", "b"}
        assert all(v > 0 for v in sink.values())

    def test_nested_phases_attribute_exclusive_time(self, monkeypatch):
        """A child's wall time is subtracted from its parent, so the sink
        partitions the outer wall clock — the sum-≤-wall invariant.

        A stepped clock (whole units, advanced only inside the phases)
        makes the split exact: inclusive booking would give outer 6.
        """
        now = [0.0]
        monkeypatch.setattr(
            repro.obs.trace, "time", SimpleNamespace(perf_counter=lambda: now[0])
        )
        sink = {}
        with collect_phases(sink):
            with phase("outer"):
                now[0] += 2.0
                with phase("inner"):
                    now[0] += 4.0
        assert sink == {"outer": 2.0, "inner": 4.0}
        assert sum(sink.values()) == now[0]

    def test_collection_restores_previous_state(self):
        outer_sink, inner_sink = {}, {}
        with collect_phases(outer_sink):
            with collect_phases(inner_sink):
                with phase("x"):
                    pass
            with phase("y"):
                pass
        assert "x" in inner_sink and "x" not in outer_sink
        assert "y" in outer_sink and "y" not in inner_sink
        with phase("after"):
            pass  # back to no-op: nothing collected
        assert "after" not in outer_sink and "after" not in inner_sink

    def test_same_phase_name_accumulates(self):
        sink = {}
        with collect_phases(sink):
            for _ in range(3):
                with phase("a"):
                    time.sleep(0.001)
        assert len(sink) == 1 and sink["a"] >= 0.003


class TestPhaseReport:
    def _spans(self):
        spans = []
        for i in range(4):
            span = RequestSpan("m", start=0.0)
            span.add_phase("queue_wait", 0.010)
            span.add_phase("inference", 0.030)
            span.end = 0.041
            spans.append(span.to_dict())
        hit = RequestSpan("m", start=0.0)
        hit.add_phase("cache_lookup", 0.001)
        hit.cache_hit = True
        hit.end = 0.001
        spans.append(hit.to_dict())
        err = RequestSpan("m", start=0.0)
        err.end = 0.002
        err.error = "ServiceOverloaded"
        spans.append(err.to_dict())
        return spans

    def test_report_summarises_spans(self):
        report = render_phase_report(self._spans())
        assert "6 total, 5 served (1 cache hits, 1 errors)" in report
        assert "queue_wait" in report and "inference" in report
        assert "coverage" in report
        assert "p99" in report

    def test_report_accepts_live_tracer_spans(self):
        tracer = Tracer(capacity=8)
        for _ in range(3):
            span = tracer.begin("m", start=0.0)
            span.add_phase("inference", 0.030)
            tracer.finish(span, end=0.031)
        report = render_phase_report(tracer.spans())
        assert "3 total, 3 served" in report
        assert "inference" in report
        assert report == render_phase_report([s.to_dict() for s in tracer.spans()])

    def test_report_handles_empty_and_all_error(self):
        assert "0 total" in render_phase_report([])
        err = RequestSpan("m", start=0.0)
        err.end = 1.0
        err.error = "X"
        report = render_phase_report([err.to_dict()])
        assert "0 served" in report
