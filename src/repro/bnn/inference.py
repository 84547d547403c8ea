"""Monte-Carlo ensemble inference (eq. 6) with pluggable GRNGs.

The output of a BNN is the expectation of the network function over the
weight posterior, approximated by averaging ``n_samples`` forward passes
each using freshly sampled weights (eqs. 3-6).  The epsilon stream may come
from any :class:`~repro.grng.base.Grng` — this is exactly the seam where
the paper's hardware GRNGs plug into the inference datapath, and it lets
the experiments measure end-task accuracy as a function of GRNG quality.

The float weight-sampling API is
:meth:`~repro.bnn.bayesian.BayesianNetwork.predict_proba` and its
per-sample reference
:meth:`~repro.bnn.bayesian.BayesianNetwork.predict_proba_loop`; this
module holds the kernels underneath:

* **Streamed** (:func:`streamed_logits`): like the paper's deep pipeline,
  the sampled network is never stored whole.  Each pass fills one
  pass-sized epsilon buffer, turns it into weights in place
  (``w = mu + sigma * eps``, eq. 2) and runs its forward pass.
* **Whole ensemble** (:func:`stacked_epsilons`,
  :func:`build_weight_stacks`, :func:`stacked_forward_stacks`): every
  pass's epsilons drawn as one block and every weight built, as the
  serving weight-stack cache shares one ensemble across requests.

Both consume the epsilon stream pass by pass in the same order as the
reference loop (then layer, weights before biases), so they agree for
*any* generator when it sits behind a
:class:`~repro.grng.stream.GrngStream` or is call-pattern invariant
(NumPy, CLT, CDF inversion, ...).

A third path samples pre-activations instead of weights
(:func:`local_reparam_logits`, reference
:func:`local_reparam_logits_loop`): ``sum(out_features)`` epsilons per
row-pass instead of every weight, with the same per-row output
distribution.  :class:`LocalReparamPredictor` serves it for fresh-ensemble
float models; the hardware path keeps sampling weights, as VIBNN does.
"""

from __future__ import annotations

import time

import numpy as np

from repro.bnn.activations import relu, softmax
from repro.bnn.bayesian import BayesianNetwork
from repro.errors import ConfigurationError
from repro.grng.base import Grng
from repro.obs import profile as _profile
from repro.utils.validation import check_positive


def split_epsilon_block(layers, block: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """Slice a ``(n_samples, eps_per_pass)`` block into per-layer stacks.

    Returns one ``(eps_w, eps_b)`` pair per layer with shapes
    ``(n_samples, in, out)`` and ``(n_samples, out)``, consuming the block
    columns in forward-pass order (layer by layer, weights before biases)
    — the same order the reference loop consumes a flat epsilon stream.
    """
    n_samples = block.shape[0]
    needed = sum(layer.mu_weights.size + layer.mu_bias.size for layer in layers)
    if block.shape[1] != needed:
        raise ConfigurationError(
            f"epsilon block has {block.shape[1]} columns, layers need {needed}"
        )
    out: list[tuple[np.ndarray, np.ndarray]] = []
    cursor = 0
    for layer in layers:
        w_count = layer.mu_weights.size
        b_count = layer.mu_bias.size
        eps_w = block[:, cursor : cursor + w_count].reshape(
            (n_samples,) + layer.mu_weights.shape
        )
        cursor += w_count
        eps_b = block[:, cursor : cursor + b_count].reshape(
            (n_samples,) + layer.mu_bias.shape
        )
        cursor += b_count
        out.append((eps_w, eps_b))
    return out


def draw_layer_epsilons(
    layers, n_samples: int, out: np.ndarray | None = None
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Draw stacked epsilons from each layer's internal NumPy stream.

    Per layer the draw order is weights-then-bias per sample — exactly the
    order ``layer.forward(sample=True)`` consumes its ``_eps_rng`` across
    ``n_samples`` sequential passes, so the stacked draw leaves every
    layer's stream in the same state as the reference loop and yields the
    same epsilons bit for bit.  Returns :func:`split_epsilon_block` views
    of ``out``, the ``(n_samples, eps_per_pass)`` block drawn into.
    """
    if out is None:
        width = sum(layer.mu_weights.size + layer.mu_bias.size for layer in layers)
        out = np.empty((n_samples, width))
    epsilons = split_epsilon_block(layers, out)
    for layer, (eps_w, eps_b) in zip(layers, epsilons):
        for index in range(n_samples):
            layer._eps_rng.standard_normal(out=eps_w[index])
            layer._eps_rng.standard_normal(out=eps_b[index])
    return epsilons


def stacked_epsilons(
    layers, n_samples: int, grng: Grng | None, out: np.ndarray | None = None
) -> list[tuple[np.ndarray, np.ndarray]]:
    """``n_samples`` passes' epsilons for ``layers``, drawn as one block.

    ``grng is None`` draws from each layer's internal NumPy stream
    (:func:`draw_layer_epsilons`); otherwise the
    ``(n_samples, eps_per_pass)`` block is filled through the
    :meth:`~repro.grng.base.Grng.fill` seam and split layer by layer
    (:func:`split_epsilon_block`); ``out`` is the block to fill.  This is
    the single place that encodes the epsilon-ordering contract shared
    by every Monte-Carlo path.
    """
    if grng is None:
        return draw_layer_epsilons(layers, n_samples, out)
    if out is None:
        out = np.empty((n_samples, sum(layer.weight_count() for layer in layers)))
    grng.fill(out)
    return split_epsilon_block(layers, out)


def layer_sigmas(layers) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per-layer ``(softplus(rho_w), softplus(rho_b))`` posterior stds."""
    return [(layer.sigma_weights(), layer.sigma_bias()) for layer in layers]


def build_weight_stacks(
    layers, epsilons, sigmas=None, out=None
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Sampled weight stacks ``w = mu + sigma * eps`` per layer (eq. 2).

    Each tensor is built as ``w = eps * sigma; w += mu``: one allocation,
    bit-identical to ``mu + sigma * eps`` (IEEE ``*`` and ``+`` commute).
    ``sigmas`` are precomputed :func:`layer_sigmas`; ``out`` is a
    per-layer ``(w, b)`` list to write into, and ``out=epsilons`` turns
    the epsilons into weights in place.  The result is an ensemble of
    ``S`` sampled networks for :func:`stacked_forward_stacks`; the
    serving weight-stack cache shares one across concurrent requests.
    """
    if sigmas is None:
        sigmas = layer_sigmas(layers)
    if out is None:
        out = [(None, None)] * len(layers)
    stacks = []
    for layer, (eps_w, eps_b), (sigma_w, sigma_b), (w, b) in zip(
        layers, epsilons, sigmas, out
    ):
        w = np.multiply(eps_w, sigma_w, out=w)
        w += layer.mu_weights
        b = np.multiply(eps_b, sigma_b, out=b)
        b += layer.mu_bias
        stacks.append((w, b))
    return stacks


def stacked_forward_stacks(stacks, x: np.ndarray) -> np.ndarray:
    """Run all Monte-Carlo passes of ``x`` off prebuilt weight stacks.

    ``stacks`` is the per-layer ``(w, b)`` list from
    :func:`build_weight_stacks` (a slice of a larger stack works too —
    the sample axis is the outer loop).  The passes run sample-outermost
    as 2-D GEMM slices, bit-identical to the reference loop's per-pass
    matmuls (a stacked 3-D matmul may tile differently) while keeping the
    per-pass working set at the loop path's cache-friendly size instead
    of an ``S``-times-larger hidden stack.  Returns logits of shape
    ``(S, batch, out)``.
    """
    _prof = _profile.ACTIVE
    _t0 = time.perf_counter() if _prof is not None else 0.0
    x = np.asarray(x, dtype=np.float64)
    in_features = stacks[0][0].shape[1]
    if x.ndim != 2 or x.shape[1] != in_features:
        raise ConfigurationError(
            f"expected input shape (batch, {in_features}), got {x.shape}"
        )
    n_samples = stacks[0][0].shape[0]
    last = len(stacks) - 1
    logits = np.empty((n_samples, x.shape[0], stacks[-1][0].shape[2]))
    for sample in range(n_samples):
        hidden = x
        for index, (weights, bias) in enumerate(stacks):
            pre = hidden @ weights[sample] + bias[sample]
            hidden = relu(pre) if index < last else pre
        logits[sample] = hidden
    if _prof is not None:
        # ops = MC pass-rows: one forward pass of one input row each.
        _prof.record(
            "bnn.stacked_forward",
            time.perf_counter() - _t0,
            ops=n_samples * x.shape[0],
        )
    return logits


def streamed_logits(layers, x: np.ndarray, n_samples: int, grng: Grng | None) -> np.ndarray:
    """Logits ``(n_samples, batch, out)`` of fresh MC passes, one at a time.

    Like VIBNN's pipeline (GRNG → eq. (2) weight updater → PE array), the
    sampled network is never stored whole: each pass fills one
    ``(1, eps_per_pass)`` buffer (:func:`stacked_epsilons`), turns it into
    weights in place (:func:`build_weight_stacks`; softplus once per call)
    and runs that pass (:func:`stacked_forward_stacks`).  The bytes equal
    a whole-ensemble build: same epsilon order, same 2-D GEMMs.
    """
    x = np.asarray(x, dtype=np.float64)
    sigmas = layer_sigmas(layers)
    buffer = np.empty((1, sum(layer.weight_count() for layer in layers)))
    passes = []
    for _ in range(n_samples):
        epsilons = stacked_epsilons(layers, 1, grng, out=buffer)
        stacks = build_weight_stacks(layers, epsilons, sigmas, out=epsilons)
        passes.append(stacked_forward_stacks(stacks, x))
    return np.concatenate(passes)


def local_reparam_variances(layers) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per-layer ``(sigma_w**2, sigma_b**2)`` posterior variances."""
    return [(np.square(sigma_w), np.square(sigma_b)) for sigma_w, sigma_b in layer_sigmas(layers)]


def _check_input(layers, x) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    in_features = layers[0].in_features
    if x.ndim != 2 or x.shape[1] != in_features:
        raise ConfigurationError(
            f"expected input shape (batch, {in_features}), got {x.shape}"
        )
    return x


def _row_pass_epsilons(grng: Grng, n_samples: int, rows: int, width: int) -> np.ndarray:
    """``(n_samples, rows, width)`` epsilons, one row's pass per stream unit.

    The stream is read in whole groups of ``grng.cycle`` passes, and
    inside a group row by row: a row's units of one group are
    consecutive, so an antithetic pair or a strata cycle runs along that
    row's own passes in a batch of any width.  A pass count that is not a
    multiple of the cycle still draws the last group whole and keeps its
    first passes, so every call starts on a cycle boundary.
    """
    cycle = grng.cycle
    groups = -(-n_samples // cycle)
    raw = np.empty(groups * cycle * rows * width)
    grng.fill(raw)
    return (
        raw.reshape(groups, rows, cycle, width)
        .transpose(0, 2, 1, 3)
        .reshape(groups * cycle, rows, width)[:n_samples]
    )


def local_reparam_logits(
    layers, x: np.ndarray, n_samples: int, grng: Grng, variances=None
) -> np.ndarray:
    """Logits ``(n_samples, batch, out)`` by local reparameterization.

    Instead of sampling weights, each layer samples its pre-activations
    (Kingma, Salimans & Welling 2015): for an input row ``h``,
    ``a = h·mu + mu_b + sqrt(h²·sigma² + sigma_b²)·eps``, which per row
    has exactly the output distribution of weight sampling, but needs
    ``sum(out_features)`` Gaussians per row-pass instead of every weight.

    Epsilons come through the :meth:`~repro.grng.base.Grng.fill` seam,
    ``batch · sum(out_features)`` per pass, for ``n_samples`` rounded up
    to whole ``grng.cycle`` groups: one row's pass is one contiguous unit
    (layer by layer), laid out by :func:`_row_pass_epsilons`, so calls
    whose pass counts are multiples of the cycle draw exactly what one
    call over their total does.  Layer 0's mean and standard deviation
    are computed once per call; every later layer is one stacked matmul
    over the passes, which NumPy computes slice by slice as the loop's
    2-D GEMMs.
    ``variances`` are precomputed :func:`local_reparam_variances`.
    Bit-identical to :func:`local_reparam_logits_loop`.
    """
    _prof = _profile.ACTIVE
    _t0 = time.perf_counter() if _prof is not None else 0.0
    x = _check_input(layers, x)
    if variances is None:
        variances = local_reparam_variances(layers)
    widths = [layer.out_features for layer in layers]
    eps = _row_pass_epsilons(grng, n_samples, x.shape[0], sum(widths))
    first, (var_w, var_b) = layers[0], variances[0]
    mean = x @ first.mu_weights + first.mu_bias
    std = np.sqrt((x * x) @ var_w + var_b)
    pre = eps[:, :, : widths[0]] * std
    pre += mean
    offset = widths[0]
    for layer, (var_w, var_b), width in zip(layers[1:], variances[1:], widths[1:]):
        hidden = relu(pre)
        pre = hidden @ layer.mu_weights
        var = (hidden * hidden) @ var_w
        pre += layer.mu_bias
        var += var_b
        np.sqrt(var, out=var)
        var *= eps[:, :, offset : offset + width]
        pre += var
        offset += width
    if _prof is not None:
        # ops = MC pass-rows: one forward pass of one input row each.
        _prof.record(
            "bnn.local_reparam", time.perf_counter() - _t0, ops=n_samples * x.shape[0]
        )
    return pre


def local_reparam_logits_loop(layers, x: np.ndarray, n_samples: int, grng: Grng) -> np.ndarray:
    """Per-pass reference of :func:`local_reparam_logits`.

    Each group of ``grng.cycle`` passes draws its ``(batch, cycle,
    sum(out_features))`` epsilons with ``generate`` (the last group
    whole, using its first passes), and each pass runs every layer from
    scratch, layer 0 included.
    """
    x = _check_input(layers, x)
    variances = local_reparam_variances(layers)
    width = sum(layer.out_features for layer in layers)
    last = len(layers) - 1
    logits = np.empty((n_samples, x.shape[0], layers[-1].out_features))
    cycle = grng.cycle
    for first in range(0, n_samples, cycle):
        block = grng.generate(x.shape[0] * cycle * width).reshape(x.shape[0], cycle, width)
        for index in range(min(cycle, n_samples - first)):
            eps, hidden, offset = block[:, index], x, 0
            for depth, (layer, (var_w, var_b)) in enumerate(zip(layers, variances)):
                mean = hidden @ layer.mu_weights + layer.mu_bias
                std = np.sqrt((hidden * hidden) @ var_w + var_b)
                pre = mean + std * eps[:, offset : offset + layer.out_features]
                offset += layer.out_features
                hidden = relu(pre) if depth < last else pre
            logits[first + index] = hidden
    return logits


class LocalReparamPredictor:
    """Fresh-ensemble float predictor on :func:`local_reparam_logits`.

    The served form of eq. (6) for float models that do not share weight
    stacks.  Posterior variances are read once, at construction (serving
    builds one predictor per model version); ``grng`` is advanced by
    every call.
    """

    def __init__(self, network: BayesianNetwork, grng: Grng) -> None:
        self.layers = network.layers
        self.grng = grng
        self.variances = local_reparam_variances(self.layers)

    def predict_proba(self, x: np.ndarray, n_samples: int) -> np.ndarray:
        """Eq. (6) over ``n_samples`` passes, averaged pass by pass."""
        check_positive("n_samples", n_samples)
        return stacked_softmax_average(
            local_reparam_logits(self.layers, x, n_samples, self.grng, self.variances)
        )


def stacked_softmax_average(logits: np.ndarray) -> np.ndarray:
    """Average ``softmax`` over the leading sample axis of a logit stack.

    The softmax is row-wise (so the stack shape is irrelevant to each
    row's result) and the sum runs slice by slice along the sample axis —
    bit-identical to a reference loop's ``total += softmax(logits_s)``
    sequential accumulation.
    """
    probs = softmax(logits)
    total = np.zeros(probs.shape[1:])
    for index in range(probs.shape[0]):
        total += probs[index]
    return total / probs.shape[0]

