"""Kernel-profiler tests: disabled no-op, rollup math, real hook firing."""

import numpy as np
import pytest

from repro.grng import GrngStream, make_grng
from repro.obs import KernelProfiler, disable_profiling, enable_profiling
from repro.obs import profile as profile_mod
from repro.obs.profile import profiled


@pytest.fixture(autouse=True)
def _clean_profiler_state():
    """Profiling is process-global; never leak an active profiler."""
    disable_profiling()
    yield
    disable_profiling()


class TestLifecycle:
    def test_disabled_by_default(self):
        assert profile_mod.ACTIVE is None

    def test_enable_returns_singleton_until_disabled(self):
        first = enable_profiling()
        assert enable_profiling() is first
        assert profile_mod.ACTIVE is first
        assert disable_profiling() is first
        assert profile_mod.ACTIVE is None
        assert disable_profiling() is None

    def test_profiled_scope_restores_previous_state(self):
        with profiled() as prof:
            assert profile_mod.ACTIVE is prof
        assert profile_mod.ACTIVE is None
        outer = enable_profiling()
        with profiled() as inner:
            assert inner is outer  # nested scope joins the outer profiler
        assert profile_mod.ACTIVE is outer


class TestRollup:
    def test_record_accumulates_calls_seconds_ops(self):
        prof = KernelProfiler()
        prof.record("k", 0.5, ops=100)
        prof.record("k", 0.5, ops=300)
        stats = prof.stats()["k"]
        assert stats["calls"] == 2
        assert stats["seconds"] == 1.0
        assert stats["ops"] == 400
        assert stats["ops_per_s"] == pytest.approx(400.0)
        assert stats["ns_per_op"] == pytest.approx(1.0 / 400 * 1e9)

    def test_zero_ops_and_zero_seconds_are_safe(self):
        prof = KernelProfiler()
        prof.record("no_ops", 1.0)
        prof.record("instant", 0.0, ops=10)
        stats = prof.stats()
        assert stats["no_ops"]["ns_per_op"] == 0.0
        assert stats["instant"]["ops_per_s"] == 0.0

    def test_span_context_manager_records(self):
        prof = KernelProfiler()
        with prof.span("section", ops=5):
            pass
        stats = prof.stats()["section"]
        assert stats["calls"] == 1 and stats["ops"] == 5

    def test_render_and_clear(self):
        prof = KernelProfiler()
        assert "no kernel samples" in prof.render()
        prof.record("grng.fill", 0.25, ops=1_000_000)
        table = prof.render()
        assert "grng.fill" in table and "ops/s" in table
        prof.clear()
        assert "no kernel samples" in prof.render()


class TestRealHooks:
    def test_grng_fill_hook_fires_when_enabled(self):
        stream = GrngStream(make_grng("numpy", seed=0))
        out = np.empty(256)
        stream.fill(out)  # disabled: must not record anywhere
        with profiled() as prof:
            stream.fill(out)
            stream.fill(out)
        stats = prof.stats()
        assert stats["grng.fill"]["calls"] == 2
        assert stats["grng.fill"]["ops"] == 512  # out.size per fill

    def test_disabled_fill_output_identical(self):
        """The instrumentation must not perturb the stream itself."""
        a = GrngStream(make_grng("numpy", seed=9))
        b = GrngStream(make_grng("numpy", seed=9))
        out_plain = np.empty(128)
        out_profiled = np.empty(128)
        a.fill(out_plain)
        with profiled():
            b.fill(out_profiled)
        assert (out_plain == out_profiled).all()

    def test_stacked_forward_hook_fires(self):
        from repro.bnn.bayesian import BayesianNetwork
        from repro.bnn.inference import (
            build_weight_stacks,
            stacked_epsilons,
            stacked_forward_stacks,
        )

        network = BayesianNetwork((6, 5, 3), seed=1, initial_sigma=0.02)
        grng = GrngStream(make_grng("numpy", seed=2))
        x = np.random.default_rng(3).random((8, 6))
        epsilons = stacked_epsilons(network.layers, 4, grng)
        stacks = build_weight_stacks(network.layers, epsilons)
        with profiled() as prof:
            stacked_forward_stacks(stacks, x)
        stats = prof.stats()
        assert "bnn.stacked_forward" in stats
        assert stats["bnn.stacked_forward"]["ops"] == 4 * 8  # passes x rows

    def test_local_reparam_hook_fires(self):
        from repro.bnn.bayesian import BayesianNetwork
        from repro.bnn.inference import LocalReparamPredictor

        network = BayesianNetwork((6, 5, 3), seed=1, initial_sigma=0.02)
        predictor = LocalReparamPredictor(network, GrngStream(make_grng("numpy", seed=2)))
        x = np.random.default_rng(3).random((8, 6))
        with profiled() as prof:
            predictor.predict_proba(x, 4)
            predictor.predict_proba(x, 3)
        stats = prof.stats()["bnn.local_reparam"]
        assert stats["calls"] == 2
        assert stats["ops"] == (4 + 3) * 8  # passes x rows
        assert "bnn.stacked_forward" not in prof.stats()
