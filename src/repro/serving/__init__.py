"""Serving subsystem: micro-batched BNN inference behind a request API.

A fresh float model's fast path samples each row's pre-activations
(local reparameterization) from a block-buffered GRNG.  This package
puts that engine behind a request/response boundary and recovers the batch
efficiency from *traffic* instead of from callers: many concurrent
single-image requests are coalesced into the large batched Monte-Carlo
calls the engine is optimized for.  Every served model exposes one
surface, ``predict_proba(x, n_samples)``, and a worker runs every batch
as one call to it.

Modules
-------
``registry``     named/versioned models: ``register_network`` (float) and
                 ``register_quantized`` (fixed-point), each from a network,
                 exported parameters or a saved posterior ``.npz``
``batcher``      bounded request queue + micro-batch coalescing (backpressure)
``workers``      serving threads with per-worker decorrelated GRNG streams
``cache``        LRU prediction cache on (model, version, N, input digest)
``weight_stack`` shared sampled-ensemble cache on (model, version, N, position)
``predictors``   predictors serving off the shared weight-stack cache
``metrics``      latency percentiles, batch histogram, queue/cache gauges
``service``      the :class:`BnnService` façade (``submit`` / ``predict_many``)
``loadgen``      open- and closed-loop load-test harness
``resilience``   SLO classes, admission control, overload ladder, chaos plans

Per model, ``share_weight_stacks=True`` serves off one cached sampled
ensemble; every other model draws fresh epsilons from its worker's
:class:`~repro.grng.stream.GrngStream`.

See ``docs/SERVING.md`` for the architecture, tuning knobs, and measured
throughput; ``benchmarks/bench_serving.py`` is the end-to-end benchmark
with the micro-batching acceptance gate.
"""

from repro.serving.batcher import Batch, MicroBatcher, PredictionTicket
from repro.serving.cache import PredictionCache, input_digest
from repro.serving.loadgen import LoadStats, run_closed_loop, run_open_loop
from repro.serving.metrics import ServiceMetrics
from repro.serving.predictors import (
    QuantizedSharedStackPredictor,
    SharedStackPredictor,
    slice_stacks,
)
from repro.serving.registry import (
    ModelEntry,
    ModelRegistry,
    worker_stream_seed,
)
from repro.serving.resilience import (
    SLO_CLASSES,
    AdmissionController,
    FaultEvent,
    FaultPlan,
    InjectedWorkerKill,
    ResilienceConfig,
)
from repro.serving.service import BnnService, ServiceConfig
from repro.serving.weight_stack import WeightStackCache
from repro.serving.workers import ServingWorker, WorkerPool

__all__ = [
    "AdmissionController",
    "Batch",
    "BnnService",
    "FaultEvent",
    "FaultPlan",
    "InjectedWorkerKill",
    "LoadStats",
    "MicroBatcher",
    "ModelEntry",
    "ModelRegistry",
    "PredictionCache",
    "PredictionTicket",
    "QuantizedSharedStackPredictor",
    "ResilienceConfig",
    "SLO_CLASSES",
    "ServiceConfig",
    "ServiceMetrics",
    "ServingWorker",
    "SharedStackPredictor",
    "WeightStackCache",
    "WorkerPool",
    "input_digest",
    "run_closed_loop",
    "run_open_loop",
    "slice_stacks",
    "worker_stream_seed",
]
