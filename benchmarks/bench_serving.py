"""Benchmark: micro-batched serving vs. one request per batch.

The serving subsystem's claim is that coalescing concurrent single-image
requests into one batched Monte-Carlo call recovers the batch
efficiency the engine was built for: per-call overheads are paid once
per *batch* instead of once per *request*, and the GEMMs become 64-row
ones instead of 1-row ones.  Both sides of the gate are the same
service on the served method, local reparameterization
(``n_samples * sum(out_features)`` Gaussians per row), and pay the same
per-request costs, so the gate compares like with like.

Sections:

1. **Throughput (closed loop)** — requests/sec of (a) direct per-request
   inference (one predictor call per image, no service), (b) the service
   with ``max_batch=1`` (every per-request cost, no coalescing), (c) the
   micro-batched service at ``max_batch=64`` in synchronous mode, and
   (d) the same with a 2-thread worker pool.  The headline is (c) / (b)
   — acceptance target **>= MICROBATCH_SPEEDUP_FLOOR** (full mode) on the
   digits workload with the paper's BNNWallace generator.
2. **Latency under open-loop load** — Poisson arrivals against the worker
   pool at a fraction of measured capacity; reports p50/p95/p99.
3. **Equivalence gate** — served results must be **bit-for-bit identical**
   to a direct ``LocalReparamPredictor.predict_proba`` call with the same
   seed and batch composition (always enforced, even with ``--quick``).

``--chaos`` runs the **resilience section instead**: the chaos/overload
acceptance gates of :mod:`repro.serving.resilience` (all enforced even
with ``--quick``):

* an attached-but-unpressured resilience layer must be bit-for-bit inert;
* under a seeded fault plan (worker kill + stall) zero requests may hang —
  every ticket resolves with a result or a typed error;
* at 2x measured capacity, interactive p99 <= 3x the uncontended p99 and
  goodput >= 60% of uncontended capacity (each a median over interleaved
  uncontended/overloaded pairs, each p99 resting on >= 10 tail samples);
* the overload ladder's floor (``min_passes`` of the same shared
  weight-stack ensemble) costs <= 0.5% digits top-1 accuracy.

4. **Observability overhead + coverage gates** (both enforced even with
   ``--quick``) — the obs subsystem's own acceptance criteria:

   * *overhead*: observability is compiled in, so the "disabled" cost is
     bounded by measuring the obs-off configuration twice (medians over
     interleaved rounds must agree within **3%** — proving disabled hooks
     are lost in run-to-run noise) and the tracing-enabled configuration
     once (median within **10%** of obs-off), every timed run lasting
     >= 0.5 s;
   * *coverage*: on a traced run, every served span's phases must sum to
     **>= 95%** of that request's latency and never exceed it.

Results are additionally written as structured JSON to
``benchmarks/results/`` via :class:`repro.obs.BenchRecorder`, which CI
uploads as an artifact; every gate above is enforced here, by this
script's exit code.

Run:  PYTHONPATH=src python benchmarks/bench_serving.py [--quick] [--chaos]

``--quick`` shrinks the workload for CI smoke runs and skips the absolute
speedup gates (CI machines are noisy); the equivalence, accuracy-delta,
overhead, and coverage gates always apply.
"""

from __future__ import annotations

import argparse
import pathlib
import sys
import time

import numpy as np

from repro.bnn.bayesian import BayesianNetwork
from repro.bnn.inference import LocalReparamPredictor
from repro.bnn.trainer import Trainer
from repro.datasets import load_digits_split
from repro.grng import GrngStream, make_grng
from repro.obs import BenchRecorder
from repro.serving import (
    BnnService,
    FaultEvent,
    FaultPlan,
    ResilienceConfig,
    ServiceConfig,
    run_closed_loop,
    run_open_loop,
    worker_stream_seed,
)

GRNG = "bnnwallace"
SEED = 0
MODEL = "digits"

RESULTS_DIR = pathlib.Path(__file__).parent / "results"

#: Full-mode floor of the micro-batched (max_batch=64) over the
#: max_batch=1 service's closed-loop throughput.  Twelve full-mode runs
#: on a shared 2-vCPU host read 2.09-2.64x; the floor sits one whole
#: spread below the lowest of them, and above 1x by as much again.
MICROBATCH_SPEEDUP_FLOOR = 1.5

#: Least wall clock of one timed obs A/B run.  At ~40 ms a run's own
#: scheduler noise on a 2-vCPU host exceeded the 3% gate it feeds.
OBS_MIN_RUN_S = 0.5
#: Interleaved rounds of the obs A/B (each times A, B and traced once).
OBS_ROUNDS = 9
#: Interleaved (uncontended, overloaded) pairs behind chaos gate 3's p99s.
OVERLOAD_PAIRS = 5
#: Samples each gate-3 p99 rests on at least: the top 1% of 1000 is 10.
P99_MIN_SAMPLES = 1000


def make_service(
    network: BayesianNetwork,
    n_samples: int,
    share_weight_stacks: bool = False,
    fault_plan: FaultPlan | None = None,
    **config,
) -> BnnService:
    """Service over ``network`` with caching off (measure compute, not hits)."""
    service = BnnService(
        config=ServiceConfig(cache_capacity=0, **config), fault_plan=fault_plan
    )
    service.register_network(
        MODEL,
        network,
        n_samples=n_samples,
        grng=GRNG,
        seed=SEED,
        share_weight_stacks=share_weight_stacks,
    )
    return service


def bench_per_request(
    network: BayesianNetwork, images: np.ndarray, n_samples: int, min_seconds: float
) -> float:
    """Requests/sec of direct one-image-per-call inference (no service),
    on the served method: local reparameterization for a fresh float model."""
    predictor = LocalReparamPredictor(network, GrngStream(make_grng(GRNG, seed=SEED)))
    predictor.predict_proba(images[:1], n_samples)  # warm-up
    served = 0
    start = time.perf_counter()
    while True:
        predictor.predict_proba(images[served % images.shape[0]][None, :], n_samples)
        served += 1
        elapsed = time.perf_counter() - start
        if elapsed >= min_seconds:
            return served / elapsed


def bench_throughput(
    network: BayesianNetwork, images: np.ndarray, n_samples: int, quick: bool
) -> tuple[float, float]:
    """Returns ``(headline speedup, micro-batched capacity in req/s)``.

    The headline is the ``max_batch=64`` service over the ``max_batch=1``
    service: both pay the same per-request costs (submit, queue, settle),
    so the ratio is what coalescing alone buys.
    """
    # Quick mode too: with only a few 64-row batches per row, one stall
    # moves the headline ratio several-fold.
    total = 1024
    per_request_seconds = 0.5 if quick else 2.0
    print(
        f"== Throughput, digits workload ({images.shape[0]} distinct images, "
        f"784-100-10, N={n_samples}, grng={GRNG})"
    )
    print(f"{'configuration':<38}{'req/s':>12}{'mean batch':>12}")

    direct = bench_per_request(network, images, n_samples, per_request_seconds)
    print(f"{'direct per-request inference':<38}{direct:>12,.1f}{1.0:>12.1f}")

    rows: dict[str, float] = {}
    configs = [
        ("service max_batch=1 (no coalescing)", dict(workers=0, max_batch=1)),
        ("service micro-batched (max_batch=64)", dict(workers=0, max_batch=64)),
        ("service micro-batched, 2 workers", dict(workers=2, max_batch=64, max_wait_ms=1.0)),
    ]
    for label, config in configs:
        with make_service(network, n_samples, **config) as service:
            stats = run_closed_loop(service, MODEL, images, total_requests=total)
            mean_batch = service.metrics.snapshot()["mean_batch_size"]
        rows[label] = stats.throughput_rps
        print(f"{label:<38}{stats.throughput_rps:>12,.1f}{mean_batch:>12.1f}")

    single = rows["service max_batch=1 (no coalescing)"]
    headline = rows["service micro-batched (max_batch=64)"] / single
    threaded = rows["service micro-batched, 2 workers"] / single
    print()
    print(
        f"micro-batched vs max_batch=1 (headline): {headline:.2f}x  "
        f"(target >= {MICROBATCH_SPEEDUP_FLOOR}x)"
    )
    print(f"micro-batched 2 workers vs max_batch=1:  {threaded:.2f}x")
    print(f"service at batch 1 vs direct calls:      {single / direct:.2f}x")
    print()
    return headline, rows["service micro-batched, 2 workers"]


def bench_open_loop_latency(
    network: BayesianNetwork,
    images: np.ndarray,
    n_samples: int,
    capacity_rps: float,
    quick: bool,
) -> None:
    duration = 1.0 if quick else 3.0
    print(f"== Open-loop latency (Poisson arrivals, 2 workers, {duration:g}s per point)")
    print(f"{'offered load':<24}{'p50':>10}{'p95':>10}{'p99':>10}{'drops':>8}")
    for fraction in (0.25, 0.6):
        rate = max(capacity_rps * fraction, 1.0)
        with make_service(
            network, n_samples, workers=2, max_batch=64, max_wait_ms=2.0
        ) as service:
            stats = run_open_loop(
                service, MODEL, images, rate_rps=rate, duration_s=duration, seed=SEED
            )
        latency = stats.latency_percentiles()
        label = f"{rate:,.0f} req/s ({fraction:.0%} cap)"
        print(
            f"{label:<24}"
            f"{latency['p50'] * 1e3:>8.2f}ms{latency['p95'] * 1e3:>8.2f}ms"
            f"{latency['p99'] * 1e3:>8.2f}ms{stats.dropped:>8}"
        )
    print()


def check_equivalence(network: BayesianNetwork, images: np.ndarray, n_samples: int) -> bool:
    """Served output must equal a direct ``predict_proba`` of the served
    predictor (local reparameterization) bit for bit."""
    batch = images[:64]
    with make_service(network, n_samples, workers=0, max_batch=64) as service:
        served = service.predict_many(MODEL, batch)
        version = service.registry.get(MODEL).version
    direct = LocalReparamPredictor(
        network, GrngStream(make_grng(GRNG, seed=worker_stream_seed(SEED, version, 0)))
    ).predict_proba(batch, n_samples)
    identical = served.shape == direct.shape and bool((served == direct).all())
    print(
        "== Equivalence: served vs direct LocalReparamPredictor.predict_proba "
        f"(same seed, batch of {batch.shape[0]}): "
        + ("bit-for-bit identical" if identical else "MISMATCH")
    )
    print()
    return identical


def bench_obs_overhead(
    network: BayesianNetwork,
    images: np.ndarray,
    n_samples: int,
    quick: bool,
    recorder: BenchRecorder,
) -> int:
    """Overhead + coverage gates of the observability layer (always enforced).

    The hooks are compiled in, so "disabled overhead" cannot be measured
    against a hook-free build; instead the obs-off configuration is
    measured twice (A/B) — B agreeing with A within 3% bounds the
    disabled cost by the run-to-run noise floor — and the traced
    configuration must stay within 10% of obs-off.  Each timed run is a
    warmed service repeating the closed loop until it has lasted
    ``OBS_MIN_RUN_S``, so the gate times work, not scheduler jitter.
    Each round runs A, B and traced back to back, and the gates read the
    median over rounds of each round's B/A and traced/A ratios: a shared
    host speeds runs up as well as slowing them down, in steps of tens
    of percent that last seconds, and a round a step lands in is an
    outlier the median drops (best-of once failed the tracing gate at
    14% on a first round 11% faster than the other four).
    """
    total = 192 if quick else 512
    rounds = OBS_ROUNDS

    def measure(trace: bool) -> tuple[float, list]:
        config: dict = dict(workers=0, max_batch=64)
        if trace:
            config["trace_capacity"] = 65536
        completed, elapsed = 0, 0.0
        with make_service(network, n_samples, **config) as service:
            run_closed_loop(service, MODEL, images, total_requests=total)  # warm
            if trace:
                service.tracer.clear()
            while elapsed < OBS_MIN_RUN_S:
                stats = run_closed_loop(service, MODEL, images, total_requests=total)
                completed += stats.completed
                elapsed += stats.duration_s
            spans = service.tracer.spans() if trace else []
        return completed / elapsed, spans

    measure(False)  # warm-up (BLAS threads, allocator, page cache)
    off_a: list[float] = []
    off_b: list[float] = []
    traced: list[float] = []
    spans: list = []
    print(
        f"== Observability overhead (closed loop, >= {OBS_MIN_RUN_S}s per run, "
        f"{rounds} interleaved rounds, sync mode)"
    )
    for index in range(rounds):
        off_a.append(measure(False)[0])
        off_b.append(measure(False)[0])
        rps, run_spans = measure(True)
        traced.append(rps)
        spans = run_spans or spans
        print(
            f"  round {index}: A {off_a[-1]:,.1f}  B {off_b[-1]:,.1f}  "
            f"traced {traced[-1]:,.1f} req/s"
        )
    off_a = np.array(off_a)
    noise = abs(float(np.median(np.array(off_b) / off_a)) - 1.0)
    overhead = max(1.0 - float(np.median(np.array(traced) / off_a)), 0.0)

    print(f"{'configuration':<38}{'median req/s':>14}")
    print(f"{'obs disabled (run A)':<38}{np.median(off_a):>14,.1f}")
    print(f"{'obs disabled (run B)':<38}{np.median(off_b):>14,.1f}")
    print(f"{'tracing enabled':<38}{np.median(traced):>14,.1f}")
    print(f"disabled A/B delta : {noise:.1%} (gate <= 3%)")
    print(f"tracing overhead   : {overhead:.1%} (gate <= 10%)")

    served = [s for s in spans if s.error is None]
    coverage = min((s.accounted_fraction() for s in served), default=0.0)
    over = sum(
        1
        for s in served
        if sum(s.phases.values()) > s.latency_s + 1e-6
    )
    print(
        f"trace coverage     : {len(served)} spans, worst {coverage:.1%} of "
        f"latency phase-accounted (gate >= 95%), {over} spans over-accounted"
    )
    print()

    recorder.record(
        "obs_disabled_noise_frac", noise, unit="frac", direction="lower"
    )
    recorder.record(
        "tracing_overhead_frac", overhead, unit="frac", direction="lower"
    )
    recorder.record(
        "trace_coverage_min", coverage, unit="frac", direction="higher"
    )

    failed = False
    if noise > 0.03:
        print(f"FAIL: obs-disabled A/B runs differ by {noise:.1%} (> 3%)")
        failed = True
    if overhead > 0.10:
        print(f"FAIL: tracing overhead {overhead:.1%} exceeds the 10% gate")
        failed = True
    if not served:
        print("FAIL: traced run produced no spans")
        failed = True
    if served and coverage < 0.95:
        print(f"FAIL: worst span only {coverage:.1%} phase-accounted (< 95%)")
        failed = True
    if over:
        print(f"FAIL: {over} spans' phases sum past their wall time")
        failed = True
    return 1 if failed else 0


def bench_chaos(quick: bool, recorder: BenchRecorder) -> int:
    """Chaos + overload section: the resilience layer's acceptance gates.

    Four gates, all enforced even with ``--quick``:

    1. *off == off* — a service with ``resilience=ResilienceConfig()`` but
       no pressure must serve bit-for-bit what the resilience-free service
       serves (the layer is observation-only until the ladder engages);
    2. *no hangs* — under a fault plan that kills one worker and stalls
       the other, every offered request resolves (completed, failed with a
       typed error, or shed) within the collection timeout: ``hung == 0``;
    3. *overload* — at 2x measured capacity with a mixed SLO population,
       interactive p99 stays <= 3x the uncontended p99 and goodput stays
       >= 60% of uncontended capacity (deadline eviction + admission
       control keep the server working on live requests only); both p99s
       and the goodput are medians over ``OVERLOAD_PAIRS`` interleaved
       pairs of runs sized for ``P99_MIN_SAMPLES`` samples each;
    4. *degraded accuracy* — serving ``min_passes`` of the *same* shared
       weight-stack ensemble (overload ladder floor, forced) moves digits
       top-1 accuracy by <= 0.5%.
    """
    from repro.bnn.optimizers import Adam
    from repro.experiments.training import make_bnn

    n_samples = 8 if quick else 16
    n_images = 64 if quick else 256
    total = 192 if quick else 512
    duration = 1.0 if quick else 3.0
    _, _, images, _ = load_digits_split(n_train=10, n_test=n_images, seed=SEED)
    network = BayesianNetwork((784, 100, 10), seed=SEED)
    failed = False

    # Gate 1: resilience attached but unpressured is bit-for-bit inert.
    with make_service(network, n_samples, workers=0, max_batch=64) as service:
        off_probs = service.predict_many(MODEL, images)
    with make_service(
        network, n_samples, workers=0, max_batch=64, resilience=ResilienceConfig()
    ) as service:
        on_probs = service.predict_many(MODEL, images)
        counts = service.metrics.count
        inert = counts("degraded_rows") == 0 and counts("shed") == 0
    bit_exact = (
        inert
        and off_probs.shape == on_probs.shape
        and bool((off_probs == on_probs).all())
    )
    print(
        "== Chaos gate 1 — resilience off vs unpressured: "
        + ("bit-for-bit identical" if bit_exact else "MISMATCH")
    )
    print()

    # Gate 2: kill one worker's first batch, stall the other's first batch
    # past the batch timeout.  Both slots must fail over (typed
    # WorkerCrashed, supervised restart) and no ticket may hang.
    plan = FaultPlan(
        events=(
            FaultEvent(worker=0, at_batch=1, action="kill"),
            FaultEvent(worker=1, at_batch=1, action="stall", seconds=1.0),
            FaultEvent(worker=0, at_batch=4, action="kill"),
        )
    )
    chaos_config = ResilienceConfig(heartbeat_interval_s=0.02, batch_timeout_s=0.25)
    with make_service(
        network,
        n_samples,
        workers=2,
        max_batch=8,
        max_wait_ms=1.0,
        resilience=chaos_config,
        fault_plan=plan,
    ) as service:
        fault_stats = run_closed_loop(
            service, MODEL, images, total_requests=total, result_timeout_s=15.0
        )
        restarts = service.metrics.count("worker_restarts")
    accounted = (
        fault_stats.completed + fault_stats.failed + fault_stats.shed + fault_stats.hung
    )
    no_hang = fault_stats.hung == 0 and accounted == fault_stats.offered
    print(
        f"== Chaos gate 2 — fault plan (kill w0@1, stall w1@1, kill w0@4), "
        f"{total} requests:"
    )
    print(
        f"completed {fault_stats.completed}, failed {fault_stats.failed} (typed), "
        f"shed {fault_stats.shed}, hung {fault_stats.hung} (gate == 0), "
        f"restarts {restarts}"
    )
    print()

    # Gate 3: 2x overload.  Measure capacity, then per pair the
    # uncontended p99 and 2x offered load with a mixed SLO population and
    # an interactive deadline derived from that pair's uncontended p99.
    with make_service(
        network,
        n_samples,
        workers=2,
        max_batch=64,
        max_wait_ms=2.0,
        resilience=ResilienceConfig(),
    ) as service:
        cap_stats = run_closed_loop(service, MODEL, images, total_requests=total)
    capacity = cap_stats.throughput_rps
    # Each p99 is the median over interleaved (uncontended, overloaded)
    # pairs, and each run lasts long enough for its p99 to rest on
    # P99_MIN_SAMPLES samples (interactive is 60% of the overload mix;
    # the 1.5 covers Poisson arrival counts and shed or evicted requests).
    base_rate = max(capacity * 0.5, 1.0)
    over_rate = max(capacity * 2.0, 2.0)
    base_duration = max(duration, 1.5 * P99_MIN_SAMPLES / base_rate)
    over_duration = max(duration, 1.5 * P99_MIN_SAMPLES / (0.6 * over_rate))
    base_p99s: list[float] = []
    over_p99s: list[float] = []
    goodputs: list[float] = []
    samples: list[int] = []
    for pair in range(OVERLOAD_PAIRS):
        with make_service(
            network,
            n_samples,
            workers=2,
            max_batch=64,
            max_wait_ms=2.0,
            resilience=ResilienceConfig(),
        ) as service:
            base_stats = run_open_loop(
                service,
                MODEL,
                images,
                rate_rps=base_rate,
                duration_s=base_duration,
                seed=SEED + pair,
            )
        base_p99 = base_stats.latency_percentiles()["p99"]
        deadline = 2.0 * base_p99
        overload_config = ResilienceConfig(
            interactive_deadline_s=deadline,
            batch_deadline_s=4.0 * deadline,
            best_effort_deadline_s=deadline,
            degrade_half_s=deadline / 2.0,
            degrade_floor_s=deadline,
            min_passes=max(2, n_samples // 4),
        )
        with make_service(
            network,
            n_samples,
            workers=2,
            max_batch=64,
            max_wait_ms=2.0,
            resilience=overload_config,
        ) as service:
            over_stats = run_open_loop(
                service,
                MODEL,
                images,
                rate_rps=over_rate,
                duration_s=over_duration,
                seed=SEED + pair,
                slo_weights={"interactive": 0.6, "batch": 0.2, "best_effort": 0.2},
            )
            degraded_rows = service.metrics.count("degraded_rows")
        interactive = over_stats.latencies_by_slo.get("interactive", [])
        base_p99s.append(base_p99)
        over_p99s.append(over_stats.slo_percentiles("interactive").get("p99", 0.0))
        goodputs.append(over_stats.goodput_rps)
        samples.append(min(base_stats.completed, len(interactive)))
        print(
            f"  pair {pair}: uncontended p99 {base_p99 * 1e3:.2f}ms "
            f"({base_stats.completed} samples), overloaded interactive p99 "
            f"{over_p99s[-1] * 1e3:.2f}ms ({len(interactive)} samples), "
            f"goodput {goodputs[-1]:,.1f} req/s"
        )
    base_p99 = float(np.median(base_p99s))
    over_p99 = float(np.median(over_p99s))
    p99_ratio = over_p99 / base_p99 if base_p99 > 0 else float("inf")
    goodput_frac = float(np.median(goodputs)) / capacity if capacity > 0 else 0.0
    print(
        f"== Chaos gate 3 — overload at 2x capacity ({capacity:,.0f} req/s), "
        f"medians of {OVERLOAD_PAIRS} interleaved pairs "
        f"(>= {min(samples)} samples per p99):"
    )
    print(
        f"uncontended p99 {base_p99 * 1e3:.2f}ms, overloaded interactive p99 "
        f"{over_p99 * 1e3:.2f}ms ({p99_ratio:.2f}x, gate <= 3x)"
    )
    print(
        f"goodput {float(np.median(goodputs)):,.1f} req/s "
        f"({goodput_frac:.1%} of uncontended, gate >= 60%); last pair: "
        f"shed {over_stats.shed} ({over_stats.shed_rate:.1%}), "
        f"dropped {over_stats.dropped}, degraded rows {degraded_rows}"
    )
    print()

    # Gate 4: the overload ladder's floor (min_passes of the same shared
    # ensemble) on a *trained* model — the accuracy cost of degrading.
    n_full = 32 if quick else 64
    min_passes = 16
    eval_rows = 256 if quick else 512
    x_train, y_train, x_test, y_test = load_digits_split(
        n_train=512 if quick else 800, n_test=eval_rows, seed=SEED
    )
    trained = make_bnn((784, 64, 10), seed=SEED)
    Trainer(
        trained, Adam(3e-3), batch_size=32, epochs=4 if quick else 8, seed=SEED
    ).fit(x_train, y_train)
    degrade_config = ResilienceConfig(min_passes=min_passes)
    with make_service(
        trained,
        n_full,
        share_weight_stacks=True,
        workers=0,
        max_batch=64,
        resilience=degrade_config,
    ) as service:
        full_probs = service.predict_many(MODEL, x_test)
    with make_service(
        trained,
        n_full,
        share_weight_stacks=True,
        workers=0,
        max_batch=64,
        resilience=degrade_config,
    ) as service:
        assert service.admission is not None
        service.admission.force_level(2)
        degraded_probs = service.predict_many(MODEL, x_test)
        degraded_served = service.metrics.count("degraded_rows")
    acc_full = float((full_probs.argmax(axis=1) == y_test).mean())
    acc_degraded = float((degraded_probs.argmax(axis=1) == y_test).mean())
    acc_delta = abs(acc_full - acc_degraded)
    print(
        f"== Chaos gate 4 — degraded floor ({min_passes} of {n_full} passes, "
        f"matched ensemble, {eval_rows} eval rows):"
    )
    print(
        f"accuracy: full {acc_full:.2%}, degraded {acc_degraded:.2%} "
        f"(|delta| = {acc_delta:.3%}, budget 0.5%), "
        f"{degraded_served} rows served degraded"
    )
    print()

    recorder.record("resilience_bit_exact", 1.0 if bit_exact else 0.0, unit="bool")
    recorder.record("chaos_no_hang", 1.0 if no_hang else 0.0, unit="bool")
    recorder.record("degraded_accuracy_delta", acc_delta, unit="frac", direction="lower")
    recorder.record("chaos_worker_restarts", float(restarts), unit="count")
    recorder.record("overload_p99_ratio", p99_ratio, unit="x", direction="lower")
    recorder.record(
        "overload_goodput_frac", goodput_frac, unit="frac", direction="higher"
    )
    recorder.record("overload_shed_rate", over_stats.shed_rate, unit="frac")

    if not bit_exact:
        print("FAIL: unpressured resilience layer perturbed served bits")
        failed = True
    if fault_stats.hung:
        print(f"FAIL: {fault_stats.hung} requests hung under the fault plan")
        failed = True
    if accounted != fault_stats.offered:
        print(
            f"FAIL: only {accounted} of {fault_stats.offered} offered requests "
            "accounted for"
        )
        failed = True
    if restarts < 2:
        print(f"FAIL: expected both faulted workers to restart, saw {restarts}")
        failed = True
    if p99_ratio > 3.0:
        print(f"FAIL: overloaded interactive p99 {p99_ratio:.2f}x exceeds the 3x gate")
        failed = True
    if goodput_frac < 0.60:
        print(f"FAIL: overloaded goodput {goodput_frac:.1%} below the 60% gate")
        failed = True
    if degraded_served != eval_rows:
        print(
            f"FAIL: forced floor should degrade all {eval_rows} rows, "
            f"served {degraded_served}"
        )
        failed = True
    if acc_delta > 0.005:
        print(f"FAIL: degraded accuracy delta {acc_delta:.3%} exceeds the 0.5% budget")
        failed = True
    return 1 if failed else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="CI smoke mode: tiny workload, no absolute-speedup enforcement",
    )
    parser.add_argument(
        "--chaos",
        action="store_true",
        help="run the resilience chaos/overload section instead",
    )
    args = parser.parse_args(argv)
    mode = "quick" if args.quick else "full"
    if args.chaos:
        recorder = BenchRecorder(
            "bench_serving_chaos", mode=mode, config={"quick": args.quick}
        )
        code = bench_chaos(args.quick, recorder)
        print(f"results written to {recorder.write(RESULTS_DIR)}")
        return code
    n_samples = 5 if args.quick else 20
    n_images = 64 if args.quick else 256
    recorder = BenchRecorder(
        "bench_serving",
        mode=mode,
        config={
            "quick": args.quick,
            "n_samples": n_samples,
            "n_images": n_images,
            "grng": GRNG,
            "seed": SEED,
        },
    )
    _, _, images, _ = load_digits_split(n_train=10, n_test=n_images, seed=SEED)
    network = BayesianNetwork((784, 100, 10), seed=SEED)

    ok = check_equivalence(network, images, n_samples)
    headline, capacity = bench_throughput(network, images, n_samples, args.quick)
    bench_open_loop_latency(network, images, n_samples, capacity, args.quick)
    obs_code = bench_obs_overhead(network, images, n_samples, args.quick, recorder)

    recorder.record("serving_bit_exact", 1.0 if ok else 0.0, unit="bool")
    recorder.record("microbatch_speedup", headline, unit="x")
    recorder.record("capacity_rps", capacity, unit="req/s")
    print(f"results written to {recorder.write(RESULTS_DIR)}")

    if not ok:
        print("FAIL: served predictions diverged from the direct batched path")
        return 1
    if not args.quick and headline < MICROBATCH_SPEEDUP_FLOOR:
        print(
            f"FAIL: micro-batching speedup {headline:.2f}x below the "
            f"{MICROBATCH_SPEEDUP_FLOOR}x target"
        )
        return 1
    return obs_code


if __name__ == "__main__":
    sys.exit(main())
