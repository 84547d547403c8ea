"""Monte-Carlo ensemble inference (eq. 6) with pluggable GRNGs.

The output of a BNN is the expectation of the network function over the
weight posterior, approximated by averaging ``n_samples`` forward passes
(eqs. 3-6).  The epsilon stream may come from any
:class:`~repro.grng.base.Grng` — this is exactly the seam where the
paper's hardware GRNGs plug into the inference datapath, and it lets the
experiments measure end-task accuracy as a function of GRNG quality.

Two float kernels, each with its per-pass reference:

* **Local reparameterization** (:func:`local_reparam_logits`, reference
  :func:`local_reparam_logits_loop`): every fresh float ensemble.  Each
  layer samples its pre-activations instead of its weights,
  ``sum(out_features)`` epsilons per row-pass instead of every weight,
  with the same per-row output distribution.  It runs under
  :meth:`~repro.bnn.bayesian.BayesianNetwork.predict_proba` and
  :class:`LocalReparamPredictor`, and
  :meth:`~repro.bnn.bayesian.BayesianNetwork.train_step` samples the
  same way in training.
* **Whole ensemble** (:func:`stacked_epsilons`,
  :func:`build_weight_stacks`, :func:`stacked_forward_stacks`): every
  pass's weights sampled ``w = mu + sigma * eps`` (eq. 2), VIBNN's weight
  updater, as the serving weight-stack cache shares one ensemble across
  requests.  Its epsilons are drawn pass by pass, then layer, weights
  before biases.

The quantized and hardware paths keep sampling weights, as VIBNN does.
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


def stacked_epsilons(
    layers, n_samples: int, grng: Grng, out: np.ndarray | None = None
) -> list[tuple[np.ndarray, np.ndarray]]:
    """``n_samples`` passes' epsilons for ``layers``, drawn as one block.

    The ``(n_samples, eps_per_pass)`` block ``out`` is filled through the
    :meth:`~repro.grng.base.Grng.fill` seam and split layer by layer
    (:func:`split_epsilon_block`).  This is the single place that encodes
    the weight-sampling epsilon order.
    """
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


#: Most epsilons one chunk of :func:`local_reparam_logits` fills; a chunk
#: is whole passes, at least one.
CHUNK_EPSILONS = 1 << 16


def local_reparam_logits(
    layers, x: np.ndarray, n_samples: int, grng: Grng, variances=None
) -> np.ndarray:
    """Logits ``(n_samples, batch, out)`` by local reparameterization.

    Instead of sampling weights, each layer samples its pre-activations
    (Kingma, Salimans & Welling 2015): for an input row ``h``,
    ``a = h·mu + mu_b + sqrt(h²·sigma² + sigma_b²)·eps``, which per row
    has exactly the output distribution of weight sampling, but needs
    ``sum(out_features)`` Gaussians per row-pass instead of every weight.

    Epsilons come through the :meth:`~repro.grng.base.Grng.fill` seam as
    ``(passes, batch, sum(out_features))`` blocks: pass by pass, row by
    row, one row's pass one contiguous unit (layer by layer), so
    consecutive calls of any pass counts draw exactly what one call over
    their total does.  Layer 0's mean and standard deviation are computed
    once per call.  The passes then run in chunks of whole passes holding
    at most :data:`CHUNK_EPSILONS` epsilons, so the transient memory does
    not grow with ``n_samples``; consecutive fills equal one fill, and each
    later layer is one stacked matmul over a chunk's passes, which NumPy
    computes slice by slice as the loop's 2-D GEMMs.
    ``variances`` are precomputed :func:`local_reparam_variances`.
    Bit-identical to :func:`local_reparam_logits_loop`.
    """
    _prof = _profile.ACTIVE
    _t0 = time.perf_counter() if _prof is not None else 0.0
    x = _check_input(layers, x)
    if variances is None:
        variances = local_reparam_variances(layers)
    rows = x.shape[0]
    widths = [layer.out_features for layer in layers]
    per_row = sum(widths)
    chunk = max(1, CHUNK_EPSILONS // max(1, rows * per_row))
    first, (var_w, var_b) = layers[0], variances[0]
    mean = x @ first.mu_weights + first.mu_bias
    std = np.sqrt((x * x) @ var_w + var_b)
    logits = np.empty((n_samples, rows, widths[-1]))
    buffer = np.empty((min(chunk, n_samples), rows, per_row))
    for start in range(0, n_samples, chunk):
        eps = buffer[: n_samples - start]  # the last chunk may be short
        grng.fill(eps)
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
        logits[start : start + eps.shape[0]] = pre
    if _prof is not None:
        # ops = MC pass-rows: one forward pass of one input row each.
        _prof.record(
            "bnn.local_reparam", time.perf_counter() - _t0, ops=n_samples * rows
        )
    return logits


def local_reparam_logits_loop(layers, x: np.ndarray, n_samples: int, grng: Grng) -> np.ndarray:
    """Per-pass reference of :func:`local_reparam_logits`.

    Each pass draws its ``(batch, sum(out_features))`` epsilons with
    ``generate`` and runs every layer from scratch, layer 0 included.
    """
    x = _check_input(layers, x)
    variances = local_reparam_variances(layers)
    width = sum(layer.out_features for layer in layers)
    last = len(layers) - 1
    logits = np.empty((n_samples, x.shape[0], layers[-1].out_features))
    for sample in range(n_samples):
        eps = grng.generate(x.shape[0] * width).reshape(x.shape[0], width)
        hidden, offset = x, 0
        for depth, (layer, (var_w, var_b)) in enumerate(zip(layers, variances)):
            mean = hidden @ layer.mu_weights + layer.mu_bias
            std = np.sqrt((hidden * hidden) @ var_w + var_b)
            pre = mean + std * eps[:, offset : offset + layer.out_features]
            offset += layer.out_features
            hidden = relu(pre) if depth < last else pre
        logits[sample] = hidden
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

