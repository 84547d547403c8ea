"""Benchmark: micro-batched serving vs. per-request BNN inference.

The serving subsystem's claim is that coalescing concurrent single-image
requests into one batched Monte-Carlo call recovers the batch
efficiency the engine was built for: per-call overheads are paid once
per *batch* instead of once per *request*, and the GEMMs become 64-row
ones instead of 1-row ones.  Both sides run the served method, local
reparameterization (``n_samples * sum(out_features)`` Gaussians per
row), so the gate compares like with like.

Sections:

1. **Throughput (closed loop)** — requests/sec of (a) direct per-request
   inference (one predictor call per image, the no-serving baseline),
   (b) the service with ``max_batch=1`` (queue overhead, no coalescing),
   (c) the micro-batched service at ``max_batch=64`` in synchronous mode,
   and (d) the same with a 2-thread worker pool.  The headline is
   (c) / (a) — acceptance target **>= 5x** on the digits workload with the
   paper's BNNWallace generator.
2. **Latency under open-loop load** — Poisson arrivals against the worker
   pool at a fraction of measured capacity; reports p50/p95/p99.
3. **Equivalence gate** — served results must be **bit-for-bit identical**
   to a direct ``LocalReparamPredictor.predict_proba`` call with the same
   seed and batch composition (always enforced, even with ``--quick``).

``--adaptive`` runs the **adaptive Monte-Carlo section instead**: a
trained digits model served fixed-``N`` vs adaptively (sequential-
confidence early exit + shared weight stacks, :mod:`repro.bnn.adaptive`),
with four gates:

* early exit *disabled* must be bit-for-bit identical to the fixed path
  (always enforced);
* adaptive vs fixed top-1 accuracy on a 512-row digits eval set must
  match within **0.2%** (always enforced — a single flipped row is
  ~0.195%, so the budget is at most one flip);
* the early exit must save **>= 20.93%** of the passes (``--quick``
  only, where the seeded workload saves 25.9%);
* adaptive effective throughput must be **>= 3x** the fixed path
  (full mode only; CI machines are too noisy for absolute ratios).

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

Run:  PYTHONPATH=src python benchmarks/bench_serving.py [--quick] [--adaptive | --chaos]

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

from repro.bnn.adaptive import AdaptiveConfig
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
#: ``--quick --adaptive`` is fully seeded and saves 25.9% of passes.  The
#: floor is that value less a 0.05 slack; an exit bound that stops firing
#: (0% saved) fails it.
QUICK_SAVED_FRACTION_FLOOR = 0.2093

RESULTS_DIR = pathlib.Path(__file__).parent / "results"

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
    adaptive: AdaptiveConfig | None = None,
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
        adaptive=adaptive,
        share_weight_stacks=share_weight_stacks,
    )
    return service


def bench_per_request(
    network: BayesianNetwork, images: np.ndarray, n_samples: int, min_seconds: float
) -> float:
    """Requests/sec of direct one-image-per-call inference (the baseline),
    on the served method: local reparameterization for a fresh float model."""
    predictor = LocalReparamPredictor(
        network, GrngStream(make_grng(GRNG, seed=SEED)), n_samples
    )
    predictor.predict_proba(images[:1])  # warm-up
    served = 0
    start = time.perf_counter()
    while True:
        predictor.predict_proba(images[served % images.shape[0]][None, :])
        served += 1
        elapsed = time.perf_counter() - start
        if elapsed >= min_seconds:
            return served / elapsed


def bench_throughput(
    network: BayesianNetwork, images: np.ndarray, n_samples: int, quick: bool
) -> tuple[float, float]:
    """Returns ``(headline speedup, micro-batched capacity in req/s)``."""
    total = 192 if quick else 1024
    per_request_seconds = 0.5 if quick else 2.0
    print(
        f"== Throughput, digits workload ({images.shape[0]} distinct images, "
        f"784-100-10, N={n_samples}, grng={GRNG})"
    )
    print(f"{'configuration':<38}{'req/s':>12}{'mean batch':>12}")

    baseline = bench_per_request(network, images, n_samples, per_request_seconds)
    print(f"{'direct per-request inference':<38}{baseline:>12,.1f}{1.0:>12.1f}")

    rows: dict[str, float] = {}
    configs = [
        ("service max_batch=1 (no coalescing)", dict(workers=0, max_batch=1), max(total // 8, 32)),
        ("service micro-batched (max_batch=64)", dict(workers=0, max_batch=64), total),
        ("service micro-batched, 2 workers", dict(workers=2, max_batch=64, max_wait_ms=1.0), total),
    ]
    for label, config, requests in configs:
        with make_service(network, n_samples, **config) as service:
            stats = run_closed_loop(service, MODEL, images, total_requests=requests)
            mean_batch = service.metrics.snapshot()["mean_batch_size"]
        rows[label] = stats.throughput_rps
        print(f"{label:<38}{stats.throughput_rps:>12,.1f}{mean_batch:>12.1f}")

    headline = rows["service micro-batched (max_batch=64)"] / baseline
    threaded = rows["service micro-batched, 2 workers"] / baseline
    overhead = rows["service max_batch=1 (no coalescing)"] / baseline
    print()
    print(f"micro-batched vs per-request (headline): {headline:.1f}x  (target >= 5x)")
    print(f"micro-batched 2 workers vs per-request:  {threaded:.1f}x")
    print(f"service overhead at batch 1:             {overhead:.2f}x of direct")
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
        network,
        GrngStream(make_grng(GRNG, seed=worker_stream_seed(SEED, version, 0))),
        n_samples,
    ).predict_proba(batch)
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


def bench_adaptive(quick: bool, recorder: BenchRecorder) -> int:
    """Adaptive MC (early exit + shared weight stacks) vs the fixed-``N`` path.

    The adaptive claim needs a *trained* model: an untrained posterior's
    predictive gaps never clear the Hoeffding bound and no row exits, so
    the section trains for a couple of epochs first (seeded — the whole
    section is deterministic apart from wall-clock timings).
    """
    from repro.bnn.optimizers import Adam
    from repro.experiments.training import make_bnn

    n_samples = 32 if quick else 64
    config = AdaptiveConfig(chunk=8, exit_delta=0.05)
    eval_rows = 512  # one flipped row = 0.195% <= the 0.2% budget
    total = 192 if quick else 1024
    x_train, y_train, x_test, y_test = load_digits_split(
        n_train=512 if quick else 800, n_test=eval_rows, seed=SEED
    )
    network = make_bnn((784, 64, 10), seed=SEED)
    Trainer(
        network, Adam(3e-3), batch_size=32, epochs=6 if quick else 10, seed=SEED
    ).fit(x_train, y_train)
    print(
        f"== Adaptive MC vs fixed-N (digits, {eval_rows} eval rows, "
        f"N={n_samples}, chunk={config.chunk}, delta={config.exit_delta}, "
        f"grng={GRNG})"
    )

    # Gate 1 (always enforced): with the exit bound disabled the adaptive
    # path must reproduce the fixed path bit for bit.
    with make_service(network, n_samples, workers=0, max_batch=64) as service:
        fixed_probs = service.predict_many(MODEL, x_test)
    disabled = AdaptiveConfig(chunk=config.chunk, exit_delta=None)
    with make_service(
        network, n_samples, adaptive=disabled, workers=0, max_batch=64
    ) as service:
        disabled_probs = service.predict_many(MODEL, x_test)
    bit_exact = fixed_probs.shape == disabled_probs.shape and bool(
        (fixed_probs == disabled_probs).all()
    )
    print(
        "exit bound disabled vs fixed path: "
        + ("bit-for-bit identical" if bit_exact else "MISMATCH")
    )

    # Gate 2 (always enforced): matched accuracy on the eval set.  The
    # comparison holds the sampled ensemble fixed — adaptive early exit vs
    # the full-N average over the *same* shared weight stacks — so the
    # delta measures exactly the accuracy cost of exiting early, not the
    # Monte-Carlo noise between two independent epsilon draws (two honest
    # fixed-N estimates with different seeds already differ by more than
    # the 0.2% budget at these sample counts).
    fixedn = AdaptiveConfig(chunk=config.chunk, exit_delta=None)
    with make_service(
        network,
        n_samples,
        adaptive=fixedn,
        share_weight_stacks=True,
        workers=0,
        max_batch=64,
    ) as service:
        fixedn_probs = service.predict_many(MODEL, x_test)
    with make_service(
        network,
        n_samples,
        adaptive=config,
        share_weight_stacks=True,
        workers=0,
        max_batch=64,
    ) as service:
        adaptive_probs = service.predict_many(MODEL, x_test)
        snap = service.stats()
    acc_fixed = float((fixedn_probs.argmax(axis=1) == y_test).mean())
    acc_adaptive = float((adaptive_probs.argmax(axis=1) == y_test).mean())
    acc_delta = abs(acc_fixed - acc_adaptive)
    print(
        f"accuracy (matched ensemble): fixed-N {acc_fixed:.2%}, "
        f"adaptive {acc_adaptive:.2%} (|delta| = {acc_delta:.3%}, budget 0.2%)"
    )
    print(
        f"adaptive passes: mean {snap['adaptive_mean_passes']:.1f} of {n_samples} "
        f"({snap['adaptive_saved_fraction']:.1%} saved)"
    )

    # Gate 3 (full mode): effective closed-loop throughput >= 3x fixed.
    with make_service(network, n_samples, workers=0, max_batch=64) as service:
        fixed_stats = run_closed_loop(service, MODEL, x_test, total_requests=total)
    with make_service(
        network,
        n_samples,
        adaptive=config,
        share_weight_stacks=True,
        workers=0,
        max_batch=64,
    ) as service:
        adaptive_stats = run_closed_loop(service, MODEL, x_test, total_requests=total)
    ratio = adaptive_stats.throughput_rps / fixed_stats.throughput_rps
    print(
        f"throughput: fixed {fixed_stats.throughput_rps:,.1f} req/s, "
        f"adaptive {adaptive_stats.throughput_rps:,.1f} req/s "
        f"({ratio:.1f}x, target >= 3x{' — not enforced in --quick' if quick else ''})"
    )
    print()

    saved = float(snap["adaptive_saved_fraction"])
    recorder.record("adaptive_bit_exact", 1.0 if bit_exact else 0.0, unit="bool")
    recorder.record("adaptive_accuracy_delta", acc_delta, unit="frac", direction="lower")
    recorder.record("adaptive_saved_fraction", saved, unit="frac")
    recorder.record("adaptive_speedup", ratio, unit="x")

    failed = False
    if not bit_exact:
        print("FAIL: adaptive path with exit disabled diverged from fixed-N")
        failed = True
    if acc_delta > 0.002:
        print(f"FAIL: accuracy delta {acc_delta:.3%} exceeds the 0.2% budget")
        failed = True
    if quick and saved < QUICK_SAVED_FRACTION_FLOOR:
        print(
            f"FAIL: adaptive exit saved {saved:.1%} of passes, below the "
            f"{QUICK_SAVED_FRACTION_FLOOR:.2%} floor"
        )
        failed = True
    if not quick and ratio < 3.0:
        print(f"FAIL: adaptive speedup {ratio:.1f}x below the 3x target")
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
    fixedn = AdaptiveConfig(chunk=8, exit_delta=None)
    degrade_config = ResilienceConfig(min_passes=min_passes)
    with make_service(
        trained,
        n_full,
        adaptive=fixedn,
        share_weight_stacks=True,
        workers=0,
        max_batch=64,
        resilience=degrade_config,
    ) as service:
        full_probs = service.predict_many(MODEL, x_test)
    with make_service(
        trained,
        n_full,
        adaptive=fixedn,
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
        "--adaptive",
        action="store_true",
        help="run the adaptive-vs-fixed Monte-Carlo section instead",
    )
    parser.add_argument(
        "--chaos",
        action="store_true",
        help="run the resilience chaos/overload section instead",
    )
    args = parser.parse_args(argv)
    if args.adaptive and args.chaos:
        parser.error("pass at most one of --adaptive / --chaos")
    mode = "quick" if args.quick else "full"
    if args.adaptive:
        recorder = BenchRecorder(
            "bench_serving_adaptive", mode=mode, config={"quick": args.quick}
        )
        code = bench_adaptive(args.quick, recorder)
        print(f"results written to {recorder.write(RESULTS_DIR)}")
        return code
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
    if not args.quick and headline < 5.0:
        print(f"FAIL: micro-batching speedup {headline:.1f}x below the 5x target")
        return 1
    return obs_code


if __name__ == "__main__":
    sys.exit(main())
