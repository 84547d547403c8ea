"""The three workloads: serve-light, serve-mix and train-digits.

Each ``run_*`` function makes every input from the seed before any timer
starts, times set-up several times and keeps the median, runs a fixed
amount of work, checks the outputs and returns a result dict.  With
``traced=True`` it first repeats the untraced run (the baseline of the
tracing overhead), then runs the same inputs again with the service's
request spans on and the layers of :mod:`layertrace` wrapped.

Why these workloads
-------------------
* ``serve-light`` sends one request at a time and never repeats an
  image, so every batch is one row and each request pays a fresh epsilon
  fill: the GRNG is on the request path, which is VIBNN's bottleneck.
  Requests do not overlap: two fresh-ensemble requests that do slow each
  other two to three times, so under Poisson arrivals the median swung
  with how the arrivals bunched.  Its throughput is the one-at-a-time
  request rate.
* ``serve-mix`` serves three shared-weight-stack models (float
  bnnwallace, float rlf, 8-bit rlf) with a fixed hot share, so sampling is
  amortised and the time goes to the prediction cache and the float and
  fixed-point forward kernels; scheduled stack refreshes put a stack build
  on the request path and set the tail.  Its rate is 60 req/s: from 300
  req/s up the two workers and the generator thread contend for the
  interpreter and p50 swung 6-13 ms between identical runs.  Refreshes
  come every half second, so a run holds about twenty bnnwallace stack
  builds and the requests beyond the tail percentile are ones that met a
  build from its start; with half as many builds the tail fell inside
  the requests that met a build part-way and swung with their count.
  Its throughput is capacity, measured after the open loop: bursts of
  cold requests sent at once, completed requests per second of each
  burst.
* ``train-digits`` runs the same dense layers in write mode (forward,
  backward, Adam) on NumPy epsilons: a GEMM change shows here, a GRNG
  change should not.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

import harness
import layertrace

#: Modules the workloads import, timed as part of set-up.
IMPORTED_MODULES = ("repro.serving", "repro.bnn.bayesian", "repro.bnn.optimizers")

#: Set-ups per run; the median is reported.
SETUP_REPEATS = 5

#: Runs of consecutive requests or epochs a rate is the median over.
RATE_CHUNKS = 5

#: How long the benchmark waits for outstanding tickets before calling them hung.
COLLECT_TIMEOUT_S = 60.0

N_CLASSES = 10
MC_SAMPLES = 16


@dataclass(frozen=True)
class ServingSpec:
    rate: float          # requests per second of ``--seconds``
    slo_s: float         # latency limit for slo_attainment
    accuracy_floor: float
    tail_chunks: int     # runs of consecutive samples the tail is the median over


#: serve-light sends its requests one at a time, about 7 a second.
SERVE_LIGHT = ServingSpec(rate=7.0, slo_s=0.5, accuracy_floor=0.9, tail_chunks=2)
SERVE_MIX = ServingSpec(rate=60.0, slo_s=0.25, accuracy_floor=0.9, tail_chunks=1)

#: serve-mix: share of requests drawn from the hot set, and its size.
#: A refresh drops a model's cached rows, and between two refreshes of
#: one model about nine hot requests reach it: over two images every one
#: is seen and the hit ratio holds still from run to run; over four, how
#: many were seen varied and so did the ratio.
HOT_SHARE = 0.3
HOT_SET = 2
#: serve-mix: distinct base images the cold requests are noisy copies of.
COLD_BASE = 1000
#: serve-mix: schedule time between two weight-stack refreshes (applied
#: as a request count, so every run refreshes after the same requests).
REFRESH_EVERY_S = 0.5
#: serve-mix capacity phase: bursts of cold requests sent at once after
#: the open loop; each burst fits the service's default queue (1024).
BURSTS = 10
BURST_SIZE = 1000

#: train-digits: topology, minibatch, training-set size, epochs per second
#: of ``--seconds`` (one epoch takes about 1.1 s on a 2-core x86 box).
TRAIN_LAYERS = (784, 200, 10)
TRAIN_BATCH = 64
TRAIN_SET = 4096
TEST_SET = 1000
TRAIN_STEP_SLO_S = 0.05
TRAIN_ACCURACY_FLOOR = 0.95
EVAL_SAMPLES = 10
EPOCHS_PER_SECOND = 0.9
TRAIN_TAIL_CHUNKS = 5
STEPS_PER_EPOCH = -(-TRAIN_SET // TRAIN_BATCH)

#: Fixture posterior the serving workloads serve (trained outside timers).
FIXTURE_SEED = 0
FIXTURE_LAYERS = (784, 100, 10)
FIXTURE_TRAIN = 3000
FIXTURE_EPOCHS = 4


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------
def _rng(seed: int, label: int) -> np.random.Generator:
    return np.random.default_rng([seed, label])


def serving_fixture(seed: int, n_test: int):
    """The served 784-100-10 posterior and ``n_test`` labelled images from ``seed``.

    The posterior is the same for every seed: posteriors trained from
    different seeds served at different speeds (p50 4.0 against 5.2 ms in
    serve-mix on the same requests), which made the spread between seeds
    a spread between models.  The seed makes the requests.
    """
    from repro.datasets.digits import load_digits_split

    x_train, y_train, _, _ = load_digits_split(FIXTURE_TRAIN, 1, seed=FIXTURE_SEED)
    _, _, x_test, y_test = load_digits_split(1, n_test, seed=seed)
    network = _train(FIXTURE_LAYERS, FIXTURE_SEED, x_train, y_train, FIXTURE_EPOCHS)[0]
    return network, x_train, x_test, y_test


def _arrivals(spec: ServingSpec, count: int, rng) -> np.ndarray:
    return np.cumsum(harness.exponential_gaps(spec.rate, count, rng))


def _request_count(spec: ServingSpec, seconds: int) -> int:
    return max(int(round(spec.rate * seconds)), 2 * harness.TAIL_MIN_BEYOND * spec.tail_chunks)


# ----------------------------------------------------------------------
# Serving set-up
# ----------------------------------------------------------------------
def _build_service(register, warm_rows, trace_capacity: int):
    """Service, models and one warm-up request per model; returns seconds too."""
    from repro.serving import BnnService, ServiceConfig

    start = time.perf_counter()
    config = ServiceConfig(trace_capacity=trace_capacity) if trace_capacity else ServiceConfig()
    service = BnnService(config=config)
    register(service)
    for name, row in warm_rows:
        service.predict_proba(name, row)
    return service, time.perf_counter() - start


def _timed_setups(register, warm_rows) -> tuple[object, list[float]]:
    times = []
    service = None
    for _ in range(SETUP_REPEATS):
        if service is not None:
            service.close()
        service, seconds = _build_service(register, warm_rows, 0)
        times.append(seconds)
    return service, times


def _counters(service) -> dict:
    stats = service.stats()
    return {
        "hits": stats["cache_hits"],
        "misses": stats["cache_misses"],
        "batches": stats["batches"],
        "rows": sum(size * count for size, count in stats["batch_histogram"].items()),
        "draws": service.stack_cache.draws,
    }


def _check_served(checks, attempts, labels, scored, floor: float) -> float:
    """Row, hang and accuracy checks; accuracy is over the ``scored`` requests."""
    served = [a for a in attempts if a.ok]
    rows = np.array([a.row for a in served]) if served else np.empty((0, N_CLASSES))
    passed, detail = harness.probability_rows_ok(rows, N_CLASSES)
    checks.add("probability_rows", passed and bool(served), detail)
    hung = sum(1 for a in attempts if a.hung)
    checks.add("no_hung_tickets", hung == 0, f"{hung} hung")
    graded = [a for a in served if scored[a.index]]
    hits = sum(1 for a in graded if int(a.row.argmax()) == labels[a.index])
    accuracy = hits / len(graded) if graded else 0.0
    checks.add(
        "accuracy_floor", accuracy >= floor,
        f"{accuracy:.4f} >= {floor} over {len(graded)} requests",
    )
    return accuracy


def _end_to_end(result: dict, accuracy: float, setup_s: float) -> dict:
    return {
        "setup_s": setup_s,
        "throughput": result["throughput"],
        "latency_p50_ms": result["p50_ms"],
        "latency_tail_ms": result["tail_ms"],
        "slo_attainment": result["slo_attainment"],
        "success_rate": result["success_rate"],
        "accuracy": accuracy,
        "peak_rss_mb": harness.peak_rss_mb(),
    }


@dataclass
class ServingPlan:
    """Everything a serving run sends, made from the seed before any timer."""

    register: Callable            # register(service): the workload's models
    warm_rows: list               # (model, row): one warm-up request per model
    count: int                    # requests of the latency phase: 0 .. count-1
    send: Callable                # send(service, i) -> ticket of request i
    labels: np.ndarray            # true class of request i
    scored: np.ndarray            # scored[i]: request i counts toward accuracy
    offsets: np.ndarray | None = None  # due times (open loop); None: one at a time
    bursts: list = field(default_factory=list)  # capacity phase: request indices
    between: Callable | None = None   # between(service, i): scheduled writes
    check: Callable | None = None     # check(checks, counters): workload checks


def _run_plan(service, plan: ServingPlan, with_bursts: bool = True):
    """Latency phase, then (optionally) the capacity bursts.

    Returns the latency-phase attempts, the service counters it moved and
    one ``(attempts, seconds)`` pair per burst.
    """
    def send(i):
        return plan.send(service, i)

    before = _counters(service)
    if plan.offsets is None:
        attempts = harness.run_closed_loop(send, plan.count, COLLECT_TIMEOUT_S)
    else:
        between = plan.between
        attempts = harness.run_open_loop(
            send, plan.offsets,
            between=None if between is None else (lambda i: between(service, i)),
        )
        harness.collect(attempts, COLLECT_TIMEOUT_S)
    after = _counters(service)
    counters = {key: after[key] - before[key] for key in after}
    bursts = [
        harness.run_burst(send, indices, COLLECT_TIMEOUT_S)
        for indices in (plan.bursts if with_bursts else [])
    ]
    return attempts, counters, bursts


def _throughput(attempts, bursts) -> float:
    """Capacity: the median burst rate, or the one-at-a-time request rate."""
    if bursts:
        return harness.median_of(
            [sum(1 for a in sent if a.ok) / seconds for sent, seconds in bursts]
        )
    return harness.closed_loop_rate(attempts, RATE_CHUNKS)


def _serving_run(name, spec, root, seed, seconds, traced, prepare):
    """Shared runner of both serving workloads; ``prepare`` makes the plan."""
    import_s = harness.timed_import_s(root, IMPORTED_MODULES, SETUP_REPEATS)
    plan = prepare(seed, seconds)
    service, setups = _timed_setups(plan.register, plan.warm_rows)
    setup_s = harness.median_of(import_s) + harness.median_of(setups)
    try:
        attempts, counters, bursts = _run_plan(service, plan)
    finally:
        service.close()
    every = attempts + [a for sent, _ in bursts for a in sent]
    checks = harness.Checks()
    accuracy = _check_served(checks, every, plan.labels, plan.scored, spec.accuracy_floor)
    if plan.check is not None:
        plan.check(checks, counters)
    result = harness.served_outcome(attempts, spec.slo_s, spec.tail_chunks)
    result["throughput"] = _throughput(attempts, bursts)
    failed = sum(1 for a in every if not a.ok)
    result["success_rate"] = (len(every) - failed) / len(every)
    out = {
        "workload": name,
        "checks": checks,
        "attempted": len(every),
        "failed": failed,
        "end_to_end": _end_to_end(result, accuracy, setup_s),
        "detail": {
            "import_s": import_s,
            "setup_repeats_s": setups,
            "outcome": result,
            "burst_s": [seconds for _, seconds in bursts],
            "counters": counters,
            "cache_hit_ratio": _ratio(counters["hits"], counters["hits"] + counters["misses"]),
        },
    }
    if traced:
        out.update(_traced_serving(plan, spec, result, checks))
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# ----------------------------------------------------------------------
# serve-light
# ----------------------------------------------------------------------
def _prepare_light(seed: int, seconds: int) -> ServingPlan:
    count = _request_count(SERVE_LIGHT, seconds)
    network, x_train, x_test, y_test = serving_fixture(seed, count)

    def register(service):
        service.register_network("digits", network, n_samples=MC_SAMPLES, seed=FIXTURE_SEED)

    return ServingPlan(
        register=register,
        warm_rows=[("digits", x_train[0])],
        count=count,
        send=lambda service, i: service.submit("digits", x_test[i]),
        labels=y_test,
        scored=np.ones(count, dtype=bool),
    )


def run_serve_light(root: str, seed: int, seconds: int, traced: bool) -> dict:
    return _serving_run(
        "serve-light", SERVE_LIGHT, root, seed, seconds, traced, _prepare_light
    )


# ----------------------------------------------------------------------
# serve-mix
# ----------------------------------------------------------------------
MIX_MODELS = ("wallace", "rlf", "q8")


def _prepare_mix(seed: int, seconds: int) -> ServingPlan:
    rng = _rng(seed, 3)
    count = _request_count(SERVE_MIX, seconds)
    offsets = _arrivals(SERVE_MIX, count, _rng(seed, 1))
    total = count + BURSTS * BURST_SIZE
    network, x_train, x_test, y_test = serving_fixture(seed, HOT_SET + COLD_BASE)
    posterior = network.posterior_parameters()
    hot_x, hot_y = x_test[:HOT_SET], y_test[:HOT_SET]
    base_x, base_y = x_test[HOT_SET:], y_test[HOT_SET:]
    # Only latency-phase requests are hot; the capacity bursts are all cold.
    n_hot = int(round(HOT_SHARE * count))
    is_hot = np.zeros(total, dtype=bool)
    is_hot[rng.permutation(count)[:n_hot]] = True
    models = np.concatenate([
        rng.permutation(np.arange(count) % len(MIX_MODELS)),
        np.arange(total - count) % len(MIX_MODELS),
    ])
    hot_pick = rng.integers(0, HOT_SET, size=total)
    # Cold requests never repeat: a base image plus its own pixel noise,
    # kept as uint8 and made in chunks so the pool stays small.
    cold_base = rng.integers(0, len(base_x), size=total)
    cold = np.empty((total, base_x.shape[1]), dtype=np.uint8)
    for first in range(0, total, 1024):
        rows = cold_base[first : first + 1024]
        noise = rng.normal(0.0, 8.0, size=(len(rows), base_x.shape[1]))
        cold[first : first + len(rows)] = np.clip(base_x[rows] * 255.0 + noise, 0, 255)
    labels = np.where(is_hot, hot_y[hot_pick], base_y[cold_base])
    refresh_every = max(1, int(round(SERVE_MIX.rate * REFRESH_EVERY_S)))

    def register(service):
        service.register_network(
            "wallace", network, n_samples=MC_SAMPLES, grng="bnnwallace",
            seed=FIXTURE_SEED, share_weight_stacks=True,
        )
        service.register_network(
            "rlf", network, n_samples=MC_SAMPLES, grng="rlf",
            seed=FIXTURE_SEED, share_weight_stacks=True,
        )
        service.register_quantized(
            "q8", posterior, bit_length=8, n_samples=MC_SAMPLES, grng="rlf",
            seed=FIXTURE_SEED, share_weight_stacks=True,
        )

    def send(service, i):
        row = hot_x[hot_pick[i]] if is_hot[i] else cold[i] / 255.0
        return service.submit(MIX_MODELS[models[i]], row)

    def refresh(service, i):
        if i and i % refresh_every == 0:
            turn = i // refresh_every - 1
            service.refresh_weight_stacks(MIX_MODELS[turn % len(MIX_MODELS)])

    def check(checks, counters):
        hits = counters["hits"]
        checks.add(
            "hits_only_on_repeats",
            0 < hits <= n_hot,
            f"{hits} cache hits for {n_hot} hot requests",
        )

    return ServingPlan(
        register=register,
        warm_rows=[(name, x_train[0]) for name in MIX_MODELS],
        count=count,
        send=send,
        labels=labels,
        # Accuracy over the never-repeated requests: a misread hot image
        # would otherwise count once per repeat.
        scored=~is_hot,
        offsets=offsets,
        bursts=[
            range(first, first + BURST_SIZE) for first in range(count, total, BURST_SIZE)
        ],
        between=refresh,
        check=check,
    )


def run_serve_mix(root: str, seed: int, seconds: int, traced: bool) -> dict:
    return _serving_run("serve-mix", SERVE_MIX, root, seed, seconds, traced, _prepare_mix)


# ----------------------------------------------------------------------
# Traced serving run
# ----------------------------------------------------------------------
def _traced_serving(plan: ServingPlan, spec, untraced: dict, checks) -> dict:
    service, _ = _build_service(plan.register, plan.warm_rows, 2 * plan.count + 64)
    tracer = layertrace.LayerTracer()
    try:
        layertrace.install_inference_layers(tracer)
        attempts, counters, _ = _run_plan(service, plan, with_bursts=False)
    finally:
        tracer.restore()
        service.close()
    traced_checks = harness.Checks()
    _check_served(traced_checks, attempts, plan.labels, plan.scored, spec.accuracy_floor)
    for name, item in traced_checks.results.items():
        checks.results["traced_" + name] = item
    result = harness.served_outcome(attempts, spec.slo_s, spec.tail_chunks)
    layers = tracer.snapshot()
    breakdowns = [
        (a.latency_s(), parts)
        for a in attempts
        if a.ok and (parts := _request_parts(a, tracer)) is not None
    ]
    computed = [(lat, parts) for lat, parts in breakdowns if "phase.batch_fill" in parts]
    report = {
        "layers": _layer_table(layers),
        "median_request": _band_report(computed, 40.0, 60.0),
        "tail_requests": _band_report(breakdowns, result["tail_pct"], 100.0),
    }
    if report["tail_requests"]:
        report["tail_requests"]["groups"] = _tail_groups(report["tail_requests"]["shares"])
    metrics = serving_layer_metrics(layers, attempts, counters, result)
    metrics["obs.trace_overhead_frac"] = result["p50_ms"] / untraced["p50_ms"] - 1.0
    return {"per_layer": metrics, "report": report}


def _request_parts(attempt, tracer) -> dict | None:
    """Disjoint split of one request's due-to-done window, in seconds.

    ``None`` for requests without their own span (ones that rode an
    in-flight duplicate's ticket).  Wrapped layer self times replace the
    span's ``stack_build``/``inference`` phases they ran inside; what is
    left of those phases is ``compute_other``.
    """
    ticket = attempt.ticket
    span = getattr(ticket, "trace", None)
    if span is None or ticket.created_at < attempt.sent:
        return None
    parts = {
        "generator_lag": attempt.sent - attempt.due,
        "submit": ticket.created_at - attempt.sent,
    }
    for phase, seconds in span.phases.items():
        parts["phase." + phase] = seconds
    layers = tracer.ticket_layers.get(ticket)
    if layers:
        compute = parts.pop("phase.stack_build", 0.0) + parts.pop("phase.inference", 0.0)
        parts.update(layers)
        parts["compute_other"] = compute - sum(layers.values())
    parts["unattributed"] = attempt.latency_s() - sum(parts.values())
    return parts


def _band_report(samples, low: float, high: float) -> dict:
    """Mean split of the samples whose latency lies between two percentiles."""
    if not samples:
        return {}
    latencies = np.array([lat for lat, _ in samples])
    lo, hi = np.percentile(latencies, (low, high))
    band = [(lat, parts) for lat, parts in samples if lo <= lat <= hi]
    mean_latency = float(np.mean([lat for lat, _ in band]))
    names = sorted({name for _, parts in band for name in parts})
    mean_parts = {
        name: float(np.mean([parts.get(name, 0.0) for _, parts in band])) for name in names
    }
    unexplained = mean_parts.get("unattributed", 0.0) + mean_parts.get("compute_other", 0.0)
    return {
        "percentiles": [low, high],
        "samples": len(band),
        "latency_ms": mean_latency * 1e3,
        "parts_ms": {name: value * 1e3 for name, value in mean_parts.items()},
        "shares": {name: value / mean_latency for name, value in mean_parts.items()},
        "explained_by_layers": 1.0 - unexplained / mean_latency,
    }


#: Groups the tail of a serving run is split into (request parts -> group).
TAIL_GROUPS = {
    "generator_lag": ("generator_lag",),
    "queueing": ("phase.batch_fill", "phase.queue_wait"),
    "sampling": (
        "phase.stack_build", "serving.stack_build", "bnn.quantized.sample",
        "grng.bnnwallace", "grng.rlf", "bnn.epsilons", "bnn.build",
    ),
    "compute": (
        "phase.inference", "bnn.forward", "bnn.softmax", "bnn.quantized.forward",
        "compute_other",
    ),
}


def _tail_groups(shares: dict) -> dict:
    """Tail split: generator lag, queueing, sampling, compute, the rest.

    In serve-mix all sampling happens inside shared weight-stack builds,
    so its ``sampling`` group is the stack-build share.
    """
    groups = dict.fromkeys((*TAIL_GROUPS, "other"), 0.0)
    for name, share in shares.items():
        group = next((g for g, members in TAIL_GROUPS.items() if name in members), "other")
        groups[group] += share
    return groups


def _layer_table(layers: dict) -> dict:
    busy = sum(stats["self_s"] for stats in layers.values()) or 1.0
    return {
        name: dict(stats, share_of_layer_time=stats["self_s"] / busy)
        for name, stats in layers.items()
    }


#: Every per-layer metric, zero where the workload does not run the layer.
PER_LAYER_NAMES = (
    "grng.bnnwallace.eps_per_s",
    "grng.rlf.eps_per_s",
    "grng.eps_per_request",
    "bnn.build.ms_per_call",
    "bnn.forward.ms_per_call",
    "bnn.forward.rows_per_call",
    "bnn.forward.gflops_per_s",
    "bnn.quantized.sample_ms_per_call",
    "bnn.quantized.forward_ms_per_call",
    "serving.submit_us_p50",
    "serving.queue_wait_ms_p50",
    "serving.queue_wait_ms_p99",
    "serving.batch_fill_ms_p99",
    "serving.batch_rows_mean",
    "serving.cache_hit_ratio",
    "serving.stack_draws",
    "serving.stack_build_ms_p99",
    "train.forward_ms_per_step",
    "train.backward_ms_per_step",
    "train.update_ms_per_step",
    "train.eval_s",
    "gen.lag_ms_p99",
    "obs.trace_overhead_frac",
)


def _per_call_ms(layers: dict, name: str, key: str = "total_s") -> float:
    stats = layers.get(name)
    return stats[key] / stats["calls"] * 1e3 if stats else 0.0


def _inference_metrics(layers: dict) -> dict:
    def rate(name):
        stats = layers.get(name)
        return stats["ops"] / stats["total_s"] if stats and stats["total_s"] else 0.0

    forward = layers.get("bnn.forward")
    return {
        "grng.bnnwallace.eps_per_s": rate("grng.bnnwallace"),
        "grng.rlf.eps_per_s": rate("grng.rlf"),
        "bnn.build.ms_per_call": _per_call_ms(layers, "bnn.build"),
        "bnn.forward.ms_per_call": _per_call_ms(layers, "bnn.forward"),
        "bnn.forward.rows_per_call": forward["ops"] / forward["calls"] if forward else 0.0,
        "bnn.forward.gflops_per_s": (
            forward["flops"] / forward["total_s"] / 1e9 if forward else 0.0
        ),
        # Self time: the eq. (2) updater without the GRNG draw inside it.
        "bnn.quantized.sample_ms_per_call": _per_call_ms(
            layers, "bnn.quantized.sample", "self_s"
        ),
        "bnn.quantized.forward_ms_per_call": _per_call_ms(
            layers, "bnn.quantized.forward", "self_s"
        ),
    }


def serving_layer_metrics(layers: dict, attempts, counters: dict, result: dict) -> dict:
    metrics = dict.fromkeys(PER_LAYER_NAMES, 0.0)
    metrics.update(_inference_metrics(layers))
    eps = sum(layers.get(n, {}).get("ops", 0.0) for n in ("grng.bnnwallace", "grng.rlf"))
    metrics["grng.eps_per_request"] = eps / max(result["completed"], 1)
    spans = [
        a.ticket.trace for a in attempts
        if a.ok and a.ticket.trace is not None and not a.ticket.trace.cache_hit
    ]

    def phase_ms(name, pct):
        return harness.percentile(
            [s.phases[name] * 1e3 for s in spans if name in s.phases], pct
        )

    metrics.update({
        "serving.submit_us_p50": harness.percentile([a.submit_s * 1e6 for a in attempts], 50),
        "serving.queue_wait_ms_p50": phase_ms("queue_wait", 50),
        "serving.queue_wait_ms_p99": phase_ms("queue_wait", 99),
        "serving.batch_fill_ms_p99": phase_ms("batch_fill", 99),
        "serving.batch_rows_mean": _ratio(counters["rows"], counters["batches"]),
        "serving.cache_hit_ratio": _ratio(
            counters["hits"], counters["hits"] + counters["misses"]
        ),
        "serving.stack_draws": float(counters["draws"]),
        "serving.stack_build_ms_p99": phase_ms("stack_build", 99),
        "gen.lag_ms_p99": result["lag_ms_p99"],
    })
    return metrics


# ----------------------------------------------------------------------
# train-digits
# ----------------------------------------------------------------------
def _train_setup(x, y):
    """Network, optimiser and one warm-up step; returns seconds too."""
    from repro.bnn.bayesian import BayesianNetwork
    from repro.bnn.optimizers import Adam

    start = time.perf_counter()
    network = BayesianNetwork(TRAIN_LAYERS, seed=0)
    network.train_step(x[:TRAIN_BATCH], y[:TRAIN_BATCH], Adam(1e-3), 1.0 / x.shape[0])
    return time.perf_counter() - start


def _train(layers, seed: int, x, y, epochs: int, tracer=None):
    """The ``Trainer.fit`` minibatch loop (no per-epoch evaluation), timed.

    Returns the network, per-step seconds, per-step layer times (traced
    only), per-step losses and each epoch's wall time.
    """
    from repro.bnn.bayesian import BayesianNetwork
    from repro.bnn.optimizers import Adam

    network = BayesianNetwork(layers, seed=seed)
    optimizer = Adam(1e-3)
    order_rng = _rng(seed, 2)
    kl_scale = 1.0 / x.shape[0]
    steps, parts, losses, epoch_s = [], [], [], []
    for _ in range(epochs):
        start = time.perf_counter()
        order = order_rng.permutation(x.shape[0])
        for first in range(0, x.shape[0], TRAIN_BATCH):
            batch = order[first : first + TRAIN_BATCH]
            xb, yb = x[batch], y[batch]
            if tracer is None:
                t0 = time.perf_counter()
                nll, _ = network.train_step(xb, yb, optimizer, kl_scale)
                steps.append(time.perf_counter() - t0)
            else:
                with tracer.attribute() as sink:
                    t0 = time.perf_counter()
                    nll, _ = network.train_step(xb, yb, optimizer, kl_scale)
                    steps.append(time.perf_counter() - t0)
                parts.append(sink)
            losses.append(nll)
        epoch_s.append(time.perf_counter() - start)
    return network, steps, parts, losses, epoch_s


def _evaluate(network, x_test, y_test):
    start = time.perf_counter()
    probs = network.predict_proba(x_test, n_samples=EVAL_SAMPLES)
    return probs, time.perf_counter() - start


def run_train_digits(root: str, seed: int, seconds: int, traced: bool) -> dict:
    from repro.datasets.digits import load_digits_split

    import_s = harness.timed_import_s(root, IMPORTED_MODULES, SETUP_REPEATS)
    x, y, x_test, y_test = load_digits_split(TRAIN_SET, TEST_SET, seed=seed)
    setups = [_train_setup(x, y) for _ in range(SETUP_REPEATS)]
    setup_s = harness.median_of(import_s) + harness.median_of(setups)
    epochs = max(2, round(EPOCHS_PER_SECOND * seconds))
    network, steps, _, losses, epoch_s = _train(TRAIN_LAYERS, seed, x, y, epochs)
    probs, eval_s = _evaluate(network, x_test, y_test)
    checks = harness.Checks()
    planned = epochs * STEPS_PER_EPOCH
    checks.add("fixed_work", len(steps) == planned, f"{len(steps)} of {planned} steps")
    bad = int(np.count_nonzero(~np.isfinite(losses)))
    checks.add("finite_loss", bad == 0, f"{bad} non-finite step losses")
    passed, detail = harness.probability_rows_ok(probs, N_CLASSES)
    checks.add("probability_rows", passed, detail)
    accuracy = float(np.mean(probs.argmax(axis=1) == y_test))
    checks.add(
        "accuracy_floor", accuracy >= TRAIN_ACCURACY_FLOOR,
        f"{accuracy:.4f} >= {TRAIN_ACCURACY_FLOOR}",
    )
    good = [s for s, loss in zip(steps, losses) if np.isfinite(loss)]
    result = harness.outcome(good, len(steps), TRAIN_STEP_SLO_S)
    # The latency percentiles and the throughput leave out the first epoch,
    # whose first steps pay one-off allocation and page-fault costs.
    # Throughput is the median of the other epochs' sample rates.
    warm = STEPS_PER_EPOCH  # a run has at least two epochs
    result.update(harness.latency_summary(
        [s for s, loss in zip(steps[warm:], losses[warm:]) if np.isfinite(loss)],
        TRAIN_TAIL_CHUNKS,
    ))
    result["throughput"] = harness.median_of([TRAIN_SET / seconds for seconds in epoch_s[1:]])
    out = {
        "workload": "train-digits",
        "checks": checks,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "end_to_end": _end_to_end(result, accuracy, setup_s),
        "detail": {
            "import_s": import_s,
            "setup_repeats_s": setups,
            "outcome": result,
            "epochs": epochs,
            "epoch_s": epoch_s,
            "eval_s": eval_s,
            "final_loss": float(losses[-1]),
        },
    }
    if traced:
        out.update(_traced_training(seed, x, y, x_test, epochs, result))
    return out


def _traced_training(seed, x, y, x_test, epochs, untraced: dict) -> dict:
    tracer = layertrace.LayerTracer()
    try:
        layertrace.install_training_layers(tracer)
        network, steps, parts, _, _ = _train(TRAIN_LAYERS, seed, x, y, epochs, tracer)
        train_layers = tracer.snapshot()
        tracer.reset()
        layertrace.install_inference_layers(tracer)
        _, eval_s = _evaluate(network, x_test, None)
        eval_layers = tracer.snapshot()
    finally:
        tracer.restore()
    samples = []
    for seconds, sink in zip(steps, parts):
        split = dict(sink)
        split["unattributed"] = seconds - sum(sink.values())
        samples.append((seconds, split))
    n = len(steps)
    metrics = dict.fromkeys(PER_LAYER_NAMES, 0.0)
    metrics.update(_inference_metrics(eval_layers))

    def per_step_ms(*names):
        return sum(train_layers.get(name, {}).get("self_s", 0.0) for name in names) / n * 1e3

    metrics.update({
        "train.forward_ms_per_step": per_step_ms("train.forward", "train.loss", "train.kl"),
        "train.backward_ms_per_step": per_step_ms("train.backward"),
        "train.update_ms_per_step": per_step_ms("train.update"),
        "train.eval_s": eval_s,
        "obs.trace_overhead_frac": harness.percentile(steps, 50) * 1e3 / untraced["p50_ms"] - 1.0,
    })
    report = {
        "layers": _layer_table(train_layers),
        "eval_layers": _layer_table(eval_layers),
        "median_step": _band_report(samples, 40.0, 60.0),
        "tail_steps": _band_report(samples, untraced["tail_pct"], 100.0),
    }
    return {"per_layer": metrics, "report": report}


WORKLOADS = {
    "serve-light": run_serve_light,
    "serve-mix": run_serve_mix,
    "train-digits": run_train_digits,
}
