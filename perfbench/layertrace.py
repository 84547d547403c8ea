"""Per-layer timing for the traced run, from outside the program.

:class:`LayerTracer` replaces public functions and methods of ``repro``
with timing wrappers for the length of a ``with`` block and restores them
afterwards.  Wrapped calls nest per thread, so every record carries both
inclusive time and *self* time (inclusive minus the wrapped calls made
inside it), and self times of one thread never double-count.

Self times can also be attributed to a unit of work: inside
:meth:`LayerTracer.attribute` every record made on that thread is added
to the block's own per-layer dict, which is how the benchmark learns the
layer times of one training step or of the batch one request rode in.
"""

from __future__ import annotations

import sys
import threading
import time
from contextlib import contextmanager


class LayerStats:
    __slots__ = ("calls", "total_s", "self_s", "ops", "flops")

    def __init__(self) -> None:
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.ops = 0.0
        self.flops = 0.0

    def as_dict(self) -> dict:
        return {
            "calls": self.calls,
            "total_s": self.total_s,
            "self_s": self.self_s,
            "ops": self.ops,
            "flops": self.flops,
        }


class LayerTracer:
    """Timing wrappers around named functions; see the module docstring."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._local = threading.local()
        self._stats: dict[str, LayerStats] = {}
        self._patches: list[tuple[object, str, object]] = []
        #: Per-layer self times of the batch each ticket was served in.
        self.ticket_layers: dict[object, dict[str, float]] = {}

    # ------------------------------------------------------------------
    def _wrapper(self, layer: str, original, measure):
        local = self._local
        record = self._record

        def timed(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            frame = [0.0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
            ops, flops = measure(args, kwargs, result) if measure else (0.0, 0.0)
            own = max(elapsed - frame[0], 0.0)
            sink = getattr(local, "sink", None)
            if sink is not None:
                sink[layer] = sink.get(layer, 0.0) + own
            record(layer, elapsed, own, ops, flops)
            return result

        timed.__wrapped__ = original
        return timed

    def _record(self, layer: str, total: float, own: float, ops: float, flops: float) -> None:
        with self._lock:
            stats = self._stats.get(layer)
            if stats is None:
                stats = self._stats[layer] = LayerStats()
            stats.calls += 1
            stats.total_s += total
            stats.self_s += own
            stats.ops += ops
            stats.flops += flops

    def wrap_method(self, cls: type, name: str, layer: str, measure=None) -> None:
        """Time ``cls.name`` (a method defined on ``cls`` itself)."""
        original = cls.__dict__[name]
        self._patches.append((cls, name, original))
        setattr(cls, name, self._wrapper(layer, original, measure))

    def wrap_function(self, module, name: str, layer: str, measure=None) -> None:
        """Time ``module.name`` wherever a loaded ``repro`` module holds it.

        Modules that imported the function by name keep their own
        reference, so each of them is patched too.
        """
        original = getattr(module, name)
        wrapper = self._wrapper(layer, original, measure)
        for module_name, loaded in list(sys.modules.items()):
            if not module_name.startswith("repro") or loaded is None:
                continue
            if getattr(loaded, name, None) is original:
                self._patches.append((loaded, name, original))
                setattr(loaded, name, wrapper)

    @contextmanager
    def attribute(self):
        """Collect this thread's layer self times inside the block."""
        sink: dict[str, float] = {}
        previous = getattr(self._local, "sink", None)
        self._local.sink = sink
        try:
            yield sink
        finally:
            self._local.sink = previous

    def wrap_batches(self, cls: type, name: str = "execute") -> None:
        """Attribute the layer times of ``cls.name(batch)`` to its tickets."""
        original = cls.__dict__[name]
        attribute = self.attribute
        ticket_layers = self.ticket_layers
        lock = self._lock

        def execute(worker, batch, *args, **kwargs):
            tickets = list(batch.tickets)
            with attribute() as sink:
                result = original(worker, batch, *args, **kwargs)
            with lock:
                for ticket in tickets:
                    ticket_layers[ticket] = sink
            return result

        execute.__wrapped__ = original
        self._patches.append((cls, name, original))
        setattr(cls, name, execute)

    def restore(self) -> None:
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    def __enter__(self) -> "LayerTracer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.restore()

    # ------------------------------------------------------------------
    def snapshot(self) -> dict[str, dict]:
        with self._lock:
            return {name: stats.as_dict() for name, stats in sorted(self._stats.items())}

    def reset(self) -> None:
        with self._lock:
            self._stats.clear()
            self.ticket_layers.clear()


# ----------------------------------------------------------------------
# The layers the benchmark times
# ----------------------------------------------------------------------
def _count_arg(args, kwargs, result):
    return float(args[1]), 0.0


def _forward_cost(args, kwargs, result):
    stacks, x = args[0], args[1]
    samples, rows = stacks[0][0].shape[0], x.shape[0]
    macs = sum(w.shape[1] * w.shape[2] for w, _ in stacks)
    return float(rows), 2.0 * samples * rows * macs


def _quantized_forward_cost(args, kwargs, result):
    network, x_codes, samples = args[0], args[1], args[2]
    rows = x_codes.shape[0]
    macs = sum(layer["mu_w"].size for layer in network.layers)
    return float(rows), 2.0 * samples * rows * macs


def _rows(args, kwargs, result):
    return float(args[1].shape[0]), 0.0


def install_inference_layers(tracer: LayerTracer) -> None:
    """Wrap the GRNG, weight-build, forward and serving-stack layers."""
    from repro.bnn import inference, quantized
    from repro.grng.bnnwallace import BnnWallaceGrng
    from repro.grng.rlf import ParallelRlfGrng
    from repro.serving.registry import ModelEntry
    from repro.serving.workers import ServingWorker

    tracer.wrap_method(BnnWallaceGrng, "generate", "grng.bnnwallace", _count_arg)
    # ParallelRlfGrng.generate standardises generate_codes' output, so the
    # codes call is where both the float and the fixed-point draws happen.
    tracer.wrap_method(ParallelRlfGrng, "generate_codes", "grng.rlf", _count_arg)
    tracer.wrap_function(inference, "stacked_epsilons", "bnn.epsilons")
    tracer.wrap_function(inference, "build_weight_stacks", "bnn.build")
    tracer.wrap_function(inference, "stacked_forward_stacks", "bnn.forward", _forward_cost)
    tracer.wrap_function(inference, "stacked_softmax_average", "bnn.softmax")
    qbn = quantized.QuantizedBayesianNetwork
    tracer.wrap_method(qbn, "sample_weight_stacks", "bnn.quantized.sample")
    tracer.wrap_method(qbn, "forward_stacked_codes", "bnn.quantized.forward", _quantized_forward_cost)
    tracer.wrap_method(ModelEntry, "build_weight_stack", "serving.stack_build")
    tracer.wrap_batches(ServingWorker)


def install_training_layers(tracer: LayerTracer) -> None:
    """Wrap the Bayes-by-Backprop step: layer forward/backward, loss, KL, Adam."""
    from repro.bnn import bayesian, losses
    from repro.bnn.optimizers import Adam

    layer = bayesian.BayesianDenseLayer
    tracer.wrap_method(layer, "forward", "train.forward", _rows)
    tracer.wrap_method(layer, "backward", "train.backward", _rows)
    tracer.wrap_method(bayesian.BayesianNetwork, "kl_divergence", "train.kl")
    tracer.wrap_function(losses, "cross_entropy_loss", "train.loss")
    tracer.wrap_method(Adam, "update", "train.update")
