"""Resilience layer tests: deadlines, admission, degradation, supervision.

Covers the policy surface of :mod:`repro.serving.resilience` end to end:
config validation, the admission controller under a fake clock, deadline
eviction (including the coalesced-follower exactly-once guarantee), the
overload ladder's reduced pass counts, stale serving, worker
supervision under scripted fault plans, and the restart-determinism
contract (two runs against the same seed and fault plan are bit-identical
after a supervised restart).
"""

import time

import numpy as np
import pytest

from repro.bnn.bayesian import BayesianNetwork
from repro.bnn.inference import LocalReparamPredictor
from repro.bnn.serialization import save_posterior
from repro.errors import (
    AdmissionShed,
    ConfigurationError,
    DeadlineExceeded,
    InjectedWorkerKill,
    ServingError,
    WorkerCrashed,
)
from repro.grng import GrngStream, make_grng
from repro.serving import (
    BnnService,
    FaultEvent,
    FaultPlan,
    LoadStats,
    PredictionTicket,
    ResilienceConfig,
    ServiceConfig,
    run_closed_loop,
    worker_stream_seed,
)
from repro.serving.loadgen import _collect
from repro.serving.resilience import AdmissionController

IN, OUT = 12, 4


@pytest.fixture()
def network():
    return BayesianNetwork((IN, 8, OUT), seed=0, initial_sigma=0.04)


@pytest.fixture()
def images():
    return np.random.default_rng(7).random((16, IN))


def resilient_service(network, resilience=None, fault_plan=None, **overrides):
    config = dict(
        workers=0,
        max_batch=8,
        cache_capacity=0,
        queue_capacity=64,
        resilience=resilience if resilience is not None else ResilienceConfig(),
    )
    config.update(overrides)
    service = BnnService(config=ServiceConfig(**config), fault_plan=fault_plan)
    service.register_network("m", network, n_samples=5, grng="bnnwallace", seed=3)
    return service


class FakeClock:
    def __init__(self, now=0.0):
        self.now = now

    def __call__(self):
        return self.now


class TestConfigValidation:
    def test_defaults_are_valid(self):
        ResilienceConfig()

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(interactive_deadline_s=0.0),
            dict(batch_deadline_s=-1.0),
            dict(ewma_alpha=0.0),
            dict(ewma_alpha=1.5),
            dict(best_effort_shed_s=0.0),
            dict(best_effort_depth_frac=0.0),
            dict(batch_depth_frac=1.5),
            dict(trickle_rps=-1.0),
            dict(min_passes=0),
            dict(max_restarts=-1),
            dict(degrade_half_s=0.5, degrade_floor_s=0.1),
        ],
    )
    def test_invalid_knobs(self, kwargs):
        with pytest.raises(ConfigurationError):
            ResilienceConfig(**kwargs)

    def test_class_deadline_lookup(self):
        config = ResilienceConfig(interactive_deadline_s=0.1, batch_deadline_s=0.5)
        assert config.class_deadline_s("interactive") == 0.1
        assert config.class_deadline_s("batch") == 0.5
        assert config.class_deadline_s("best_effort") is None
        with pytest.raises(ConfigurationError, match="unknown SLO"):
            config.class_deadline_s("nope")

    def test_fault_event_validation(self):
        with pytest.raises(ConfigurationError, match="unknown fault action"):
            FaultEvent(0, 1, "explode")
        with pytest.raises(ConfigurationError, match="at_batch"):
            FaultEvent(0, 0, "kill")
        with pytest.raises(ConfigurationError, match="seconds"):
            FaultEvent(0, 1, "stall")
        FaultEvent(0, 1, "stall", seconds=0.5)  # valid

    def test_burst_validation(self):
        with pytest.raises(ConfigurationError, match="burst"):
            FaultPlan(bursts=[(1.0, 0.5, 2.0)])
        with pytest.raises(ConfigurationError, match="burst"):
            FaultPlan(bursts=[(0.0, 1.0, 0.0)])

    def test_fault_plan_requires_resilience(self, network):
        plan = FaultPlan(events=[FaultEvent(0, 1, "kill")])
        with pytest.raises(ConfigurationError, match="resilience"):
            BnnService(config=ServiceConfig(workers=0), fault_plan=plan)

    def test_slo_and_deadline_require_resilience(self, network, images):
        service = BnnService(config=ServiceConfig(workers=0, cache_capacity=0))
        service.register_network("m", network, n_samples=5, seed=3)
        with service:
            with pytest.raises(ConfigurationError, match="resilience"):
                service.submit("m", images[0], slo="batch")
            with pytest.raises(ConfigurationError, match="resilience"):
                service.submit("m", images[0], deadline_s=1.0)

    def test_unknown_slo_and_bad_deadline_rejected(self, network, images):
        with resilient_service(network) as service:
            with pytest.raises(ConfigurationError, match="unknown SLO"):
                service.submit("m", images[0], slo="platinum")
            with pytest.raises(ConfigurationError, match="deadline_s"):
                service.submit("m", images[0], deadline_s=-1.0)


class TestTicketDelivery:
    def test_first_delivery_wins(self):
        ticket = PredictionTicket("m")
        assert ticket.set_result(np.zeros(OUT))
        assert not ticket.set_exception(ServingError("late"))
        assert not ticket.set_result(np.ones(OUT))
        assert (ticket.result(0.1) == 0).all()

    def test_error_delivery_blocks_later_results(self):
        ticket = PredictionTicket("m")
        assert ticket.set_exception(DeadlineExceeded("expired"))
        assert not ticket.set_result(np.zeros(OUT))
        with pytest.raises(DeadlineExceeded):
            ticket.result(0.1)


class TestAdmissionController:
    def controller(self, clock, **kwargs):
        defaults = dict(trickle_rps=0.0, trickle_burst=0.0)
        defaults.update(kwargs)
        return AdmissionController(
            ResilienceConfig(**defaults), capacity=100, clock=clock
        )

    def test_pressure_is_an_ewma(self):
        ctrl = self.controller(FakeClock(), ewma_alpha=0.5)
        assert ctrl.pressure() == 0.0
        ctrl.observe_queue_wait(1.0)
        assert ctrl.pressure() == pytest.approx(0.5)
        ctrl.observe_queue_wait(1.0)
        assert ctrl.pressure() == pytest.approx(0.75)
        ctrl.observe_queue_wait(-5.0)  # clamped to 0, decays toward it
        assert ctrl.pressure() == pytest.approx(0.375)

    def test_shed_order_best_effort_then_batch_never_interactive(self):
        ctrl = self.controller(
            FakeClock(), best_effort_shed_s=0.05, batch_shed_s=0.25
        )
        for _ in range(20):
            ctrl.observe_queue_wait(0.1)  # above best_effort, below batch
        with pytest.raises(AdmissionShed):
            ctrl.admit("best_effort", queue_depth=0)
        ctrl.admit("batch", queue_depth=0)
        ctrl.admit("interactive", queue_depth=0)
        for _ in range(20):
            ctrl.observe_queue_wait(1.0)  # above every threshold
        with pytest.raises(AdmissionShed):
            ctrl.admit("batch", queue_depth=0)
        ctrl.admit("interactive", queue_depth=0)  # never pressure-shed

    def test_depth_fallback_sheds_without_pressure(self):
        ctrl = self.controller(
            FakeClock(), best_effort_depth_frac=0.5, batch_depth_frac=0.85
        )
        assert ctrl.pressure() == 0.0
        with pytest.raises(AdmissionShed):
            ctrl.admit("best_effort", queue_depth=50)
        ctrl.admit("batch", queue_depth=50)
        with pytest.raises(AdmissionShed):
            ctrl.admit("batch", queue_depth=85)

    def test_trickle_bucket_lets_a_metered_residue_through(self):
        clock = FakeClock()
        ctrl = self.controller(clock, trickle_rps=1.0, trickle_burst=1.0)
        for _ in range(20):
            ctrl.observe_queue_wait(1.0)
        ctrl.admit("best_effort", queue_depth=0)  # burst token
        with pytest.raises(AdmissionShed):
            ctrl.admit("best_effort", queue_depth=0)  # bucket drained
        clock.now += 1.0  # one second refills one token
        ctrl.admit("best_effort", queue_depth=0)
        with pytest.raises(AdmissionShed):
            ctrl.admit("best_effort", queue_depth=0)

    def test_degrade_ladder_and_effective_passes(self):
        ctrl = self.controller(
            FakeClock(), degrade_half_s=0.08, degrade_floor_s=0.35, min_passes=4
        )
        assert ctrl.degrade_level() == 0
        assert ctrl.effective_passes(32) == 32
        for _ in range(30):
            ctrl.observe_queue_wait(0.2)
        assert ctrl.degrade_level() == 1
        assert ctrl.effective_passes(32) == 16
        for _ in range(30):
            ctrl.observe_queue_wait(1.0)
        assert ctrl.degrade_level() == 2
        assert ctrl.effective_passes(32) == 4
        assert ctrl.effective_passes(3) == 3  # floor never exceeds N

    def test_force_level_pins_and_releases(self):
        ctrl = self.controller(FakeClock())
        ctrl.force_level(2)
        assert ctrl.degrade_level() == 2
        ctrl.force_level(None)
        assert ctrl.degrade_level() == 0
        with pytest.raises(ConfigurationError):
            ctrl.force_level(3)


class TestFaultPlan:
    def test_fire_counts_batches_per_slot(self):
        plan = FaultPlan(events=[FaultEvent(0, 2, "kill")])
        assert plan.fire(0, 0) is None
        assert plan.fire(1, 0) is None  # slot 1 has its own counter
        event = plan.fire(0, 0)
        assert event is not None and event.action == "kill"
        assert plan.fire(0, 0) is None
        plan.reset()
        assert plan.fire(0, 0) is None
        assert plan.fire(0, 0).action == "kill"

    def test_incarnation_pin(self):
        # at_batch counts across incarnations; the pin filters who fires.
        plan = FaultPlan(events=[FaultEvent(0, 2, "kill", incarnation=1)])
        assert plan.fire(0, 0) is None  # batch 1: wrong count
        assert plan.fire(0, 1).action == "kill"  # batch 2, incarnation 1
        plan.reset()
        assert plan.fire(0, 0) is None
        assert plan.fire(0, 0) is None  # batch 2 but wrong incarnation

    def test_rate_multiplier_windows(self):
        plan = FaultPlan(bursts=[(1.0, 2.0, 4.0)])
        assert plan.rate_multiplier(0.5) == 1.0
        assert plan.rate_multiplier(1.5) == 4.0
        assert plan.rate_multiplier(2.0) == 1.0

    @pytest.mark.parametrize("action", ["kill", "stall", "delay"])
    def test_every_scripted_action_fires(self, action):
        seconds = 0.0 if action == "kill" else 0.1
        plan = FaultPlan(events=[FaultEvent(1, 1, action, seconds=seconds)])
        assert plan.fire(0, 0) is None  # another slot's first batch
        event = plan.fire(1, 0)
        assert event.action == action and event.seconds == seconds

    def test_exit_is_not_a_fault_action(self):
        with pytest.raises(ConfigurationError, match="unknown fault action"):
            FaultEvent(0, 1, "exit")

    def test_random_plan_stays_inside_its_horizon(self):
        plan = FaultPlan.random_plan(
            3, workers=2, horizon_batches=10, kill_prob=0.3, stall_prob=0.3
        )
        assert plan.events
        for event in plan.events:
            assert event.worker in (0, 1)
            assert 1 <= event.at_batch <= 10
            assert event.action in ("kill", "stall")

    def test_random_plan_with_zero_rates_is_empty(self):
        plan = FaultPlan.random_plan(3, workers=4, kill_prob=0.0, stall_prob=0.0)
        assert plan.events == ()

    def test_random_plan_is_seeded(self):
        one = FaultPlan.random_plan(7, workers=2)
        two = FaultPlan.random_plan(7, workers=2)
        other = FaultPlan.random_plan(8, workers=2)
        assert one.events == two.events
        assert one.events != other.events


class TestDeadlineEviction:
    def test_expired_request_fails_typed_without_inference(self, network, images):
        with resilient_service(network) as service:
            tickets = [
                service.submit("m", images[i], deadline_s=0.005) for i in range(3)
            ]
            time.sleep(0.02)
            service.flush()
            for ticket in tickets:
                with pytest.raises(DeadlineExceeded):
                    ticket.result(1.0)
            stats = service.stats()
            assert stats["batches"] == 0  # whole batch expired: no MC call
            assert stats["deadline_evictions"] == 3
            assert stats["requests_failed"] == 3

    def test_live_rows_still_serve_next_to_expired_ones(self, network, images):
        with resilient_service(network) as service:
            doomed = service.submit("m", images[0], deadline_s=0.005)
            time.sleep(0.02)
            alive = service.submit("m", images[1])
            service.flush()
            with pytest.raises(DeadlineExceeded):
                doomed.result(1.0)
            assert alive.result(1.0).shape == (OUT,)
            stats = service.stats()
            assert stats["deadline_evictions"] == 1
            assert stats["requests_served"] == 1

    def test_class_default_deadline_applies(self, network, images):
        config = ResilienceConfig(best_effort_deadline_s=0.005)
        with resilient_service(network, resilience=config) as service:
            ticket = service.submit("m", images[0], slo="best_effort")
            assert ticket.deadline is not None
            time.sleep(0.02)
            service.flush()
            with pytest.raises(DeadlineExceeded):
                ticket.result(1.0)
            assert service.stats()["shed_by_class"] == {}  # evicted, not shed

    def test_coalesced_follower_fails_exactly_once(self, network, images):
        """Satellite regression: followers share the primary's eviction.

        Two identical in-flight requests coalesce onto one ticket; when
        the deadline evicts it, both callers must observe the same typed
        DeadlineExceeded and the failure/eviction must be counted exactly
        once (the shared ticket resolves once — not once per caller, and
        never a second resolution by a late worker).
        """
        with resilient_service(network, cache_capacity=32) as service:
            primary = service.submit("m", images[0], deadline_s=0.005)
            follower = service.submit("m", images[0])
            assert follower is primary
            time.sleep(0.02)
            service.flush()
            for caller in (primary, follower):
                with pytest.raises(DeadlineExceeded):
                    caller.result(1.0)
            stats = service.stats()
            assert stats["deadline_evictions"] == 1
            assert stats["requests_failed"] == 1


class TestDegradation:
    def test_forced_floor_serves_matched_prefix(self, network, images):
        """Level 2 serves min_passes as one call — the same first passes
        a full run would execute (matched-ensemble prefix)."""
        config = ResilienceConfig(min_passes=2)
        with resilient_service(network, resilience=config) as service:
            service.admission.force_level(2)
            tickets = [service.submit("m", row) for row in images[:8]]
            service.flush()
            served = np.stack([t.result(1.0) for t in tickets])
            assert all(t.degraded == 2 for t in tickets)
            assert service.stats()["degraded_rows"] == 8
        direct = LocalReparamPredictor(
            network,
            GrngStream(make_grng("bnnwallace", seed=worker_stream_seed(3, 1, 0))),
        )
        expected = direct.predict_proba(images[:8], 2)
        assert (served == expected).all()

    def test_level_zero_is_bit_identical_to_resilience_off(self, network, images):
        with resilient_service(network) as service:
            with_layer = service.predict_many("m", images[:8])
            assert service.stats()["degraded_rows"] == 0
        plain = BnnService(
            config=ServiceConfig(workers=0, max_batch=8, cache_capacity=0)
        )
        plain.register_network("m", network, n_samples=5, grng="bnnwallace", seed=3)
        with plain:
            without = plain.predict_many("m", images[:8])
        assert (with_layer == without).all()


class TestStaleServing:
    def test_reload_keeps_old_rows_and_floor_serves_them(
        self, network, images, tmp_path
    ):
        path = tmp_path / "model.npz"
        save_posterior(path, network.posterior_parameters())
        config = ServiceConfig(
            workers=0, max_batch=8, cache_capacity=32,
            resilience=ResilienceConfig(),
        )
        with BnnService(config=config) as service:
            service.register_network("m", path, n_samples=5, grng="bnnwallace", seed=3)
            before = service.predict_proba("m", images[0])
            retrained = BayesianNetwork((IN, 8, OUT), seed=9).posterior_parameters()
            save_posterior(path, retrained)
            service.reload("m")
            assert service.stats()["cache_entries"] == 1  # old row kept
            service.admission.force_level(2)
            ticket = service.submit("m", images[0])
            assert ticket.done() and ticket.stale
            assert (ticket.result(1.0) == before).all()
            assert service.stats()["stale_serves"] == 1
            # A row never cached still computes (degraded), not stale.
            fresh = service.submit("m", images[1])
            service.flush()
            assert fresh.result(1.0).shape == (OUT,)
            assert not fresh.stale

    def test_serve_stale_disabled_drops_old_rows_on_reload(
        self, network, images, tmp_path
    ):
        path = tmp_path / "model.npz"
        save_posterior(path, network.posterior_parameters())
        config = ServiceConfig(
            workers=0, max_batch=8, cache_capacity=32,
            resilience=ResilienceConfig(serve_stale=False),
        )
        with BnnService(config=config) as service:
            service.register_network("m", path, n_samples=5, grng="bnnwallace", seed=3)
            service.predict_proba("m", images[0])
            save_posterior(
                path, BayesianNetwork((IN, 8, OUT), seed=9).posterior_parameters()
            )
            service.reload("m")
            assert service.stats()["cache_entries"] == 0


class TestSupervision:
    def chaos_config(self, **overrides):
        config = dict(heartbeat_interval_s=0.02, batch_timeout_s=0.2)
        config.update(overrides)
        return ResilienceConfig(**config)

    def test_injected_kill_punches_through_the_fault_barrier(self):
        # The chaos kill must NOT be swallowed by the worker's per-batch
        # except Exception barrier, or no restart would ever happen.
        assert issubclass(InjectedWorkerKill, BaseException)
        assert not issubclass(InjectedWorkerKill, Exception)

    def test_sync_mode_kill_fails_the_batch_typed(self, network, images):
        """Without a pool the caller's thread runs the batch: a kill fails
        that batch's tickets instead of escaping ``flush``, and the next
        batch still serves."""
        plan = FaultPlan(events=[FaultEvent(0, 1, "kill")])
        with resilient_service(
            network, resilience=self.chaos_config(), fault_plan=plan
        ) as service:
            killed = [service.submit("m", row) for row in images[:3]]
            service.flush()
            for ticket in killed:
                with pytest.raises(WorkerCrashed, match="killed mid-batch"):
                    ticket.result(0.0)
            assert service.predict_many("m", images[3:5]).shape == (2, OUT)
            assert service.stats()["requests_failed"] == 3

    def test_killed_worker_fails_batch_typed_and_restarts(self, network, images):
        plan = FaultPlan(events=[FaultEvent(0, 1, "kill")])
        with resilient_service(
            network,
            resilience=self.chaos_config(),
            fault_plan=plan,
            workers=1,
            max_batch=4,
            max_wait_ms=50.0,
        ) as service:
            tickets = [service.submit("m", images[i]) for i in range(4)]
            for ticket in tickets:
                with pytest.raises(WorkerCrashed, match="failed over"):
                    ticket.result(5.0)
            assert service.stats()["worker_restarts"] == 1
            assert service._pool.restarts == 1
            # The replacement incarnation keeps serving.
            probs = service.predict_many("m", images[:4])
            assert probs.shape == (4, OUT)
            assert np.allclose(probs.sum(axis=1), 1.0)

    def test_stalled_worker_fails_over_within_batch_timeout(self, network, images):
        plan = FaultPlan(events=[FaultEvent(0, 1, "stall", seconds=1.0)])
        with resilient_service(
            network,
            resilience=self.chaos_config(),
            fault_plan=plan,
            workers=1,
            max_batch=4,
            max_wait_ms=50.0,
        ) as service:
            tickets = [service.submit("m", images[i]) for i in range(4)]
            start = time.perf_counter()
            for ticket in tickets:
                with pytest.raises(WorkerCrashed, match="stalled"):
                    ticket.result(5.0)
            # Failed over by the supervisor, not by waiting out the stall.
            assert time.perf_counter() - start < 0.9
            assert service.stats()["worker_restarts"] == 1

    def test_max_restarts_caps_supervised_restarts(self, network, images):
        plan = FaultPlan(
            events=[FaultEvent(0, 1, "kill"), FaultEvent(0, 2, "kill")]
        )
        with resilient_service(
            network,
            resilience=self.chaos_config(max_restarts=1),
            fault_plan=plan,
            workers=1,
            max_batch=4,
            max_wait_ms=50.0,
        ) as service:
            for _ in range(2):
                tickets = [service.submit("m", images[i]) for i in range(4)]
                for ticket in tickets:
                    with pytest.raises(WorkerCrashed):
                        ticket.result(5.0)
            assert service.stats()["worker_restarts"] == 1

    def test_restart_determinism_under_a_fault_plan(self, network, images):
        """Satellite: same seed + same plan => bit-identical runs.

        The killed batch fails in both runs; every other batch — including
        the post-restart ones served by the bumped incarnation — must be
        bit-for-bit identical, because the replacement's stream is derived
        from (seed, version, slot, incarnation), not from wall clock.
        """

        def run_once():
            plan = FaultPlan(events=[FaultEvent(0, 2, "kill")])
            outputs, failures = [], []
            with resilient_service(
                network,
                resilience=self.chaos_config(),
                fault_plan=plan,
                workers=1,
                max_batch=4,
                max_wait_ms=200.0,
            ) as service:
                for chunk in range(3):
                    rows = images[chunk * 4:(chunk + 1) * 4]
                    tickets = [service.submit("m", row) for row in rows]
                    try:
                        outputs.append(
                            np.stack([t.result(5.0) for t in tickets])
                        )
                    except WorkerCrashed:
                        failures.append(chunk)
                        for ticket in tickets:
                            assert ticket.done()  # no hangs, ever
            return outputs, failures

        first_outputs, first_failures = run_once()
        second_outputs, second_failures = run_once()
        assert first_failures == second_failures == [1]
        assert len(first_outputs) == len(second_outputs) == 2
        for left, right in zip(first_outputs, second_outputs):
            assert (left == right).all()
        # The post-restart batch really is decorrelated from what the dead
        # incarnation would have served at that stream position.
        assert worker_stream_seed(3, 1, 0, incarnation=1) != worker_stream_seed(
            3, 1, 0
        )

    def test_stop_sweeps_unfinished_batches(self, network, images):
        """A pool stopped while a worker still holds a batch must resolve
        its tickets (the no-hang invariant extends through shutdown).

        The batch timeout is set far out so the supervisor never fires;
        stopping the pool with a join timeout shorter than the stall is
        what forces the shutdown sweep to do the failing-over.
        """
        plan = FaultPlan(events=[FaultEvent(0, 1, "stall", seconds=1.5)])
        service = resilient_service(
            network,
            resilience=self.chaos_config(max_restarts=0, batch_timeout_s=60.0),
            fault_plan=plan,
            workers=1,
            max_batch=4,
            max_wait_ms=50.0,
        )
        tickets = [service.submit("m", images[i]) for i in range(4)]
        time.sleep(0.2)  # let the worker pop the batch and begin the stall
        service._pool.stop(timeout=0.1)  # join expires mid-stall
        for ticket in tickets:
            assert ticket.done()
            with pytest.raises(WorkerCrashed, match="unfinished batch"):
                ticket.result(0.1)
        service.close()


class TestLoadgenBuckets:
    def test_collect_separates_shed_failed_and_hung(self):
        stats = LoadStats(pattern="x", offered=5, completed=0)
        served = PredictionTicket("m")
        served.set_result(np.zeros(OUT))
        evicted = PredictionTicket("m")
        evicted.set_exception(DeadlineExceeded("expired"))
        refused = PredictionTicket("m")
        refused.set_exception(AdmissionShed("shed"))
        broken = PredictionTicket("m")
        broken.set_exception(ServingError("boom"))
        wedged = PredictionTicket("m")
        _collect(stats, [served, evicted, refused, broken, wedged], timeout=0.01)
        assert stats.completed == 1
        assert stats.shed == 2  # deadline eviction + admission shed
        assert stats.failed == 1
        assert stats.hung == 1
        # Latency summary excludes shed/failed/hung rows, reports the rate.
        assert len(stats.latencies_s) == 1
        summary = stats.summary()
        assert summary["shed_rate"] == pytest.approx(2 / 5)

    def test_summary_omits_shed_rate_when_clean(self):
        stats = LoadStats(pattern="x", offered=1, completed=0)
        ticket = PredictionTicket("m")
        ticket.set_result(np.zeros(OUT))
        _collect(stats, [ticket], timeout=0.01)
        assert "shed_rate" not in stats.summary()

    def test_closed_loop_counts_admission_sheds_as_final(self, network, images):
        config = ResilienceConfig(trickle_rps=0.0, trickle_burst=0.0)
        with resilient_service(network, resilience=config) as service:
            for _ in range(30):
                service.admission.observe_queue_wait(1.0)
            stats = run_closed_loop(
                service, "m", images, total_requests=6, slo="best_effort"
            )
        assert stats.shed == 6
        assert stats.completed == 0
        assert stats.retried == 0  # shed is final, never a retry storm
        assert stats.shed_rate == 1.0
        assert service.metrics.count("shed") == 6

    def test_per_slo_latency_buckets(self, network, images):
        with resilient_service(network) as service:
            interactive = service.submit("m", images[0])
            batchy = service.submit("m", images[1], slo="batch")
            service.flush()
            stats = LoadStats(pattern="x", offered=2, completed=0)
            _collect(stats, [interactive, batchy], timeout=1.0)
        assert set(stats.latencies_by_slo) == {"interactive", "batch"}
        assert stats.slo_percentiles("batch")["p50"] > 0.0
        assert stats.slo_percentiles("best_effort")["p99"] == 0.0
