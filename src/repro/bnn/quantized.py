"""Fixed-point BNN inference — the functional model of the FPGA datapath.

This is what the accelerator actually computes (§5.1-5.3): ``(mu, sigma)``
are stored as ``B``-bit codes, the weight updater forms
``w = mu + sigma * eps`` in fixed point, the MAC tree accumulates wide and
requantizes once, the bias is added and ReLU applied.  Tables 6-7's
"VIBNN (Hardware)" rows and the Fig. 18 bit-length sweep run through this
class; :mod:`repro.hw.accelerator` wraps it with cycle/resource accounting
and is tested to agree with it bit for bit.

Number formats
--------------
Weights and activations have very different dynamic ranges — trained
weight samples live in (-1, 1) while post-ReLU activations of a 784-input
layer reach several units — so a ``B``-bit datapath uses two binary-point
placements (standard fixed-point accelerator practice):

* weights / sigma / mu: ``Q0.(B-1)``  (range +-1, finest resolution);
* activations:          ``Q3.(B-4)``  (range +-8);
* biases: stored at the *accumulator* precision
  (``weight frac + activation frac`` fractional bits) and added before
  the single requantize shift, so tiny biases are not crushed by the
  coarse activation resolution.

The multiplier result carries ``frac_w + frac_a`` fractional bits; the
adder tree accumulates at full precision; one rounding shift returns to
the activation format.  This is bit-exact with what
:class:`repro.hw.pe.ProcessingElement` computes.

Epsilon sources
---------------
* An integer-code GRNG (:class:`~repro.grng.rlf.ParallelRlfGrng`): the
  8-bit popcount ``pc`` becomes ``eps ~= (pc - 128) / 8``.  The divisor 8
  approximates the binomial sigma ``sqrt(255/4) = 7.984`` so the hardware
  divides with a 3-bit shift — a 0.2% systematic sigma error that the
  experiments show is harmless.
* Any float GRNG (e.g. BNNWallace): epsilons are quantized to ``Q2.(B-3)``
  (range +-4 covers the Gaussian support that matters).
* ``None``: a :class:`~repro.grng.base.NumpyGrng` seeded from
  ``derive_seed(seed, "quantized-eps")`` (the "ideal sampler, quantized
  datapath" ablation used by the bit-length study).

The integer-vs-float dispatch lives in :class:`EpsilonSource`: the
capability is probed once at construction (``generate_codes(0)``), and a
per-draw failure in a code datapath *raises* — it never silently reroutes
the run onto the float-quantized path with different numerics.

Weight generator (Fig. 12)
--------------------------
The paper's weight generator is one GRNG feeding one eq.-(2) updater.
Here that is :meth:`QuantizedBayesianNetwork.sample_weight_stacks`: one
:meth:`EpsilonSource.draw` of every pass's epsilons, then the updater over
the whole stack.  Both the cycle-accounted
:class:`~repro.hw.accelerator.VibnnAccelerator` and the word-level
:meth:`~repro.hw.accelerator.DetailedDatapathSimulator.run_network_batch`
consume it.

Execution paths
---------------
:meth:`QuantizedBayesianNetwork.predict_proba` runs all ``n_samples``
stochastic passes as one stacked tensor computation fed by a single
epsilon block per pass set (:meth:`QuantizedBayesianNetwork.forward_stacked_codes`):
for ``B <= 8`` the eq.-(2) weight updater runs in ``int16`` (8-bit
operands never overflow it), wider datapaths and the biases in ``int64``;
:meth:`QuantizedBayesianNetwork.predict_proba_loop` keeps the per-pass
reference loop, and the equivalence tests hold the two bit-for-bit equal
for every registered generator behind a
:class:`~repro.grng.stream.GrngStream`.
"""

from __future__ import annotations

import math
import time

import numpy as np

from repro.bnn.activations import softmax
from repro.errors import ConfigurationError
from repro.fixedpoint import QFormat, requantize, saturate
from repro.grng.base import Grng, NumpyGrng
from repro.obs import profile as _profile
from repro.utils.seeding import derive_seed
from repro.utils.validation import check_positive

#: Right-shift used to standardise 255-trial binomial codes: 2**3 = 8
#: approximates sigma = sqrt(255/4) = 7.984.
RLF_SIGMA_SHIFT = 3
RLF_CODE_OFFSET = 128

#: Widest operand ``B`` whose stacked weight updater runs in ``int16``.
NARROW_BITS = 8

#: Integer bits (excluding sign) given to the activation format.
ACTIVATION_INTEGER_BITS = 3
#: Integer bits given to quantized float epsilons (+-4 covers N(0,1)).
EPSILON_INTEGER_BITS = 2


def weight_format(bit_length: int) -> QFormat:
    """``Q0.(B-1)``: full resolution for (-1, 1) weight samples."""
    return QFormat(integer_bits=0, frac_bits=bit_length - 1)


def activation_format(bit_length: int) -> QFormat:
    """``Q3.(B-4)``: +-8 range for accumulated activations."""
    frac = max(1, bit_length - 1 - ACTIVATION_INTEGER_BITS)
    return QFormat(integer_bits=ACTIVATION_INTEGER_BITS, frac_bits=frac)


def epsilon_format(bit_length: int) -> QFormat:
    """``Q2.(B-3)``: the format float epsilons are quantized into."""
    frac = max(1, bit_length - 1 - EPSILON_INTEGER_BITS)
    return QFormat(integer_bits=EPSILON_INTEGER_BITS, frac_bits=frac)


class EpsilonSource:
    """Capability-probed epsilon dispatch for the fixed-point datapath.

    The one place that decides whether a GRNG feeds the weight updater
    through its native integer codes (RLF-style: centred popcounts
    standardised by the :data:`RLF_SIGMA_SHIFT` right shift) or through
    float samples quantized into the ``Q2.(B-3)`` epsilon format.  The
    stacked updater and the per-pass reference loop of
    :class:`QuantizedBayesianNetwork` both draw through :meth:`draw`.

    The capability is probed **once at construction** with a free
    ``generate_codes(0)`` call (the count contract makes a zero draw
    side-effect free; generators without an integer datapath raise for any
    count).  Per-draw calls are *not* wrapped in ``try/except``: a
    code-capable generator whose ``generate_codes`` fails mid-run — a
    count-validation bug, an injected fault, a port-budget violation —
    surfaces the error instead of silently rerouting the run onto the
    float-quantized path with different numerics.

    Parameters
    ----------
    grng:
        The epsilon source.
    bit_length:
        Operand width ``B``; fixes the quantized-epsilon format.
    """

    def __init__(self, grng: Grng, bit_length: int) -> None:
        self.grng = grng
        self.eps_fmt = epsilon_format(bit_length)
        try:
            grng.generate_codes(0)
        except ConfigurationError:
            self.uses_codes = False
        else:
            self.uses_codes = True
        #: Fractional bits implied by the emitted codes — fixed for the
        #: lifetime of the source, like the hardware's wiring.
        self.frac_bits = (
            RLF_SIGMA_SHIFT if self.uses_codes else self.eps_fmt.frac_bits
        )

    def draw(self, shape: tuple[int, ...]) -> np.ndarray:
        """A ``shape`` block of epsilon codes carrying :attr:`frac_bits`
        fractional bits.

        One contiguous slice of the generator's stream in C order, so a
        block equals the concatenation of smaller draws for any
        call-pattern-invariant generator (every generator behind a
        :class:`~repro.grng.stream.GrngStream`).  The block is ``int16``
        when every epsilon provably fits eight bits — 8-bit popcount codes
        (checked with one OR over the block) or ``Q2.(B-3)`` epsilons with
        ``B <= 8`` — and ``int64`` otherwise.
        """
        count = math.prod(shape)
        if self.uses_codes:
            codes = self.grng.generate_codes(count).reshape(shape)
            if 0 <= np.bitwise_or.reduce(codes, axis=None) <= 0xFF:
                narrow = np.empty(codes.shape, dtype=np.int16)
                return np.subtract(codes, RLF_CODE_OFFSET, out=narrow, casting="unsafe")
            return codes - RLF_CODE_OFFSET
        eps = self.eps_fmt.quantize(self.grng.generate(count).reshape(shape))
        return eps.astype(np.int16) if self.eps_fmt.total_bits <= 8 else eps


class QuantizedBayesianNetwork:
    """Fixed-point MC inference over exported posterior parameters.

    Parameters
    ----------
    posterior:
        Output of :meth:`repro.bnn.bayesian.BayesianNetwork.posterior_parameters`.
    bit_length:
        Operand width ``B`` (the paper selects 8 via Fig. 18).
    grng:
        Epsilon source (see module docstring).
    seed:
        Seeds the NumPy epsilon stream used when ``grng`` is ``None``.
    """

    def __init__(
        self,
        posterior: list[dict[str, np.ndarray]],
        bit_length: int = 8,
        grng: Grng | None = None,
        seed: int = 0,
    ) -> None:
        if not posterior:
            raise ConfigurationError("posterior parameter list is empty")
        if bit_length < 4 or bit_length > 32:
            raise ConfigurationError(
                f"bit_length must be in 4..32, got {bit_length}"
            )
        self.bit_length = bit_length
        self.weight_fmt = weight_format(bit_length)
        self.act_fmt = activation_format(bit_length)
        self.eps_fmt = epsilon_format(bit_length)
        #: Fractional bits carried by the MAC accumulator (and biases).
        self.acc_frac_bits = self.weight_fmt.frac_bits + self.act_fmt.frac_bits
        if grng is None:
            grng = NumpyGrng(derive_seed(seed, "quantized-eps"))
        self.grng = grng
        self.layers = []
        acc_scale = 1 << self.acc_frac_bits
        for params in posterior:
            bias_w = np.round(params["mu_bias"] * acc_scale).astype(np.int64)
            self.layers.append(
                {
                    "mu_w": self.weight_fmt.quantize(params["mu_weights"]),
                    "sigma_w": self.weight_fmt.quantize(params["sigma_weights"]),
                    # Bias mean at accumulator precision; bias sigma stays in
                    # the weight format (it scales an epsilon like a weight).
                    "mu_b_acc": bias_w,
                    "sigma_b": self.weight_fmt.quantize(params["sigma_bias"]),
                }
            )
        self.layer_sizes = tuple(
            [self.layers[0]["mu_w"].shape[0]]
            + [layer["mu_w"].shape[1] for layer in self.layers]
        )
        #: Epsilon codes consumed per stochastic forward pass.
        self.eps_per_pass = sum(
            layer["mu_w"].size + layer["mu_b_acc"].size for layer in self.layers
        )
        # Capability-probed dispatch: probes generate_codes(0) once here;
        # per-draw failures propagate (no silent float fallback).
        self._eps = EpsilonSource(grng, bit_length)

    # ------------------------------------------------------------------
    # Epsilon handling / weight updater (eq. 2)
    # ------------------------------------------------------------------
    def _sample_layer_weights(self, layer: dict) -> tuple[np.ndarray, np.ndarray]:
        """Weight updater: ``w = mu + sigma * eps`` in fixed point.

        Returns weight codes (weight format) and bias codes at the
        accumulator precision.
        """
        w_size = layer["mu_w"].size
        b_size = layer["mu_b_acc"].size
        eps = self._eps.draw((w_size + b_size,))
        eps_frac = self._eps.frac_bits
        eps_w = eps[:w_size].reshape(layer["mu_w"].shape)
        eps_b = eps[w_size:]
        prod_w = layer["sigma_w"].astype(np.int64) * eps_w.astype(np.int64)
        delta_w = requantize(
            prod_w, self.weight_fmt.frac_bits + eps_frac, self.weight_fmt
        )
        w = saturate(layer["mu_w"] + delta_w, self.weight_fmt)
        # Bias noise: sigma_b (weight frac) * eps -> shift up to accumulator
        # precision, then add to the wide bias mean (no saturation needed:
        # the accumulator is wide).
        prod_b = layer["sigma_b"].astype(np.int64) * eps_b.astype(np.int64)
        shift = self.acc_frac_bits - (self.weight_fmt.frac_bits + eps_frac)
        if shift >= 0:
            delta_b = prod_b << shift
        else:
            delta_b = prod_b >> (-shift)
        b = layer["mu_b_acc"] + delta_b
        return w, b

    def _stacked_layer_weights(
        self, eps_block: np.ndarray
    ) -> list[tuple[np.ndarray, np.ndarray]]:
        """Apply the eq.-(2) updater to all passes' epsilons at once.

        ``eps_block`` has shape ``(n_samples, eps_per_pass)`` with row
        ``s`` holding pass ``s``'s epsilons in forward order (layer by
        layer, weights before biases) — the exact order the per-pass loop
        consumes the stream, so a call-pattern-invariant generator gives
        both paths identical epsilons.  Returns per-layer
        ``(w, b)`` stacks of shapes ``(S, in, out)`` and ``(S, out)``.
        """
        n_samples = eps_block.shape[0]
        eps_frac = self._eps.frac_bits
        shift = self.acc_frac_bits - (self.weight_fmt.frac_bits + eps_frac)
        # For B <= 8 and 8-bit epsilons (the int16 blocks draw
        # returns), |sigma * eps| <= 128 * 128 plus the rounding half fits
        # int16, so the weight updater runs at 16 bits.
        narrow = self.bit_length <= NARROW_BITS and eps_block.dtype == np.int16
        sampled = []
        cursor = 0
        for layer in self.layers:
            w_size = layer["mu_w"].size
            b_size = layer["mu_b_acc"].size
            eps_w = eps_block[:, cursor : cursor + w_size].reshape(
                (n_samples,) + layer["mu_w"].shape
            )
            cursor += w_size
            eps_b = eps_block[:, cursor : cursor + b_size]
            cursor += b_size
            if narrow:
                w = self._narrow_weights(layer, eps_w, eps_frac)
            else:
                prod_w = layer["sigma_w"].astype(np.int64)[None] * eps_w.astype(np.int64)
                delta_w = requantize(
                    prod_w, self.weight_fmt.frac_bits + eps_frac, self.weight_fmt
                )
                w = saturate(layer["mu_w"][None] + delta_w, self.weight_fmt)
            prod_b = layer["sigma_b"].astype(np.int64)[None] * eps_b.astype(np.int64)
            delta_b = prod_b << shift if shift >= 0 else prod_b >> (-shift)
            sampled.append((w, layer["mu_b_acc"][None] + delta_b))
        return sampled

    def _narrow_weights(
        self, layer: dict, eps_w: np.ndarray, eps_frac: int
    ) -> np.ndarray:
        """The eq.-(2) weight updater in ``int16``: same codes as the int64 path.

        ``requantize`` rounds half away from zero; on integers that is
        ``(p + half - (p < 0)) >> shift``.  Then saturate, add ``mu`` and
        saturate again, exactly as :meth:`_sample_layer_weights` does.
        """
        lo, hi = self.weight_fmt.min_int, self.weight_fmt.max_int
        w = layer["sigma_w"].astype(np.int16)[None] * eps_w
        if eps_frac > 0:
            negative = w < 0
            w += 1 << (eps_frac - 1)
            w -= negative
            w >>= eps_frac
        np.clip(w, lo, hi, out=w)
        w += layer["mu_w"].astype(np.int16)[None]
        return np.clip(w, lo, hi, out=w)

    def sample_weight_stacks(
        self, n_samples: int
    ) -> list[tuple[np.ndarray, np.ndarray]]:
        """The weight generator (Fig. 12): all ``n_samples`` passes' weights.

        Draws one ``(n_samples, eps_per_pass)`` epsilon block and applies
        the eq.-(2) updater to the whole stack: returns per-layer
        ``(w, b)`` of shapes ``(n_samples, in, out)`` (weight-format
        codes) and ``(n_samples, out)`` (accumulator-precision bias
        codes).  This is the weight stream both
        :meth:`forward_stacked_codes` and the detailed datapath's
        :meth:`~repro.hw.accelerator.DetailedDatapathSimulator.run_network_batch`
        consume, so the two models see identical sampled weights.
        """
        check_positive("n_samples", n_samples)
        eps_block = self._eps.draw((n_samples, self.eps_per_pass))
        return self._stacked_layer_weights(eps_block)

    # ------------------------------------------------------------------
    # Forward passes
    # ------------------------------------------------------------------
    def forward_sample_codes(self, x_codes: np.ndarray) -> np.ndarray:
        """One stochastic forward pass on activation-format codes."""
        if x_codes.ndim != 2 or x_codes.shape[1] != self.layer_sizes[0]:
            raise ConfigurationError(
                f"expected codes of shape (batch, {self.layer_sizes[0]}), got {x_codes.shape}"
            )
        hidden = x_codes.astype(np.int64)
        for index, layer in enumerate(self.layers):
            w, b = self._sample_layer_weights(layer)
            # MAC tree: full-precision accumulate, wide bias add, single
            # rounding shift back to the activation format.
            wide = hidden @ w.astype(np.int64) + b
            acc = requantize(wide, self.acc_frac_bits, self.act_fmt)
            if index < len(self.layers) - 1:
                hidden = np.maximum(acc, 0)  # ReLU on codes
            else:
                return acc
        raise ConfigurationError("no layers")  # pragma: no cover

    def forward_stacked_codes(
        self, x_codes: np.ndarray, n_samples: int, sampled=None
    ) -> np.ndarray:
        """All ``n_samples`` stochastic passes as one stacked integer computation.

        Draws every pass's epsilons as a single ``(n_samples,
        eps_per_pass)`` block (:meth:`sample_weight_stacks`), applies the
        eq.-(2) updater to the whole stack, and runs the MAC tree with a
        leading sample axis.  Bit-for-bit equal to ``n_samples``
        sequential :meth:`forward_sample_codes` calls whenever the epsilon
        stream is call-pattern invariant (any generator behind a
        :class:`~repro.grng.stream.GrngStream`; the default NumPy stream): every
        arithmetic step is the same exact integer operation, only batched.

        ``sampled`` optionally supplies prebuilt per-layer weight stacks
        (the :meth:`sample_weight_stacks` shape, or a sample-axis slice of
        one) instead of drawing fresh epsilons — the seam the serving
        weight-stack cache uses to share one sampled ensemble across
        requests.  ``n_samples`` must then match the stack depth.

        Returns logits codes of shape ``(n_samples, batch, out)``.
        """
        _prof = _profile.ACTIVE
        _t0 = time.perf_counter() if _prof is not None else 0.0
        if x_codes.ndim != 2 or x_codes.shape[1] != self.layer_sizes[0]:
            raise ConfigurationError(
                f"expected codes of shape (batch, {self.layer_sizes[0]}), got {x_codes.shape}"
            )
        if sampled is None:
            sampled = self.sample_weight_stacks(n_samples)
        elif sampled[0][0].shape[0] != n_samples:
            raise ConfigurationError(
                f"supplied weight stacks hold {sampled[0][0].shape[0]} samples, "
                f"expected {n_samples}"
            )
        batch = x_codes.shape[0]
        x64 = x_codes.astype(np.int64)
        hidden: np.ndarray | None = None  # None means "x shared across samples"
        last = len(sampled) - 1
        for index, (w, b) in enumerate(sampled):
            in_features, out_features = w.shape[1], w.shape[2]
            wide = np.empty((n_samples, batch, out_features), dtype=np.int64)
            # The MAC accumulates |codes| <= 2**(B-1) products of two
            # B-bit operands; when the exact sum provably fits a float64
            # mantissa the per-sample GEMMs run through BLAS on float64
            # views and cast back — same integers, ~an order of magnitude
            # faster than NumPy's int64 matmul.  Wider datapaths fall
            # back to the exact int64 matmul.
            blas_exact = (
                in_features * (1 << (self.bit_length - 1)) ** 2 < 2**53
            )
            if blas_exact:
                w_op = w.astype(np.float64)
                source_op = (
                    x64.astype(np.float64) if hidden is None
                    else hidden.astype(np.float64)
                )
            else:
                w_op = w
                source_op = x64 if hidden is None else hidden
            for sample in range(n_samples):
                source = source_op if hidden is None else source_op[sample]
                product = source @ w_op[sample]
                if blas_exact:
                    product = product.astype(np.int64)
                wide[sample] = product + b[sample, None, :]
            acc = requantize(wide, self.acc_frac_bits, self.act_fmt)
            if index < last:
                hidden = np.maximum(acc, 0)  # ReLU on codes
            else:
                if _prof is not None:
                    _prof.record(
                        "quantized.forward_stacked",
                        time.perf_counter() - _t0,
                        ops=n_samples * batch,
                    )
                return acc
        raise ConfigurationError("no layers")  # pragma: no cover

    def predict_proba(
        self, x: np.ndarray, n_samples: int = 10, sampled=None
    ) -> np.ndarray:
        """MC-averaged probabilities from the fixed-point datapath.

        Default execution is the stacked path
        (:meth:`forward_stacked_codes`, which ``sampled`` weight stacks
        are passed to); :meth:`predict_proba_loop` keeps the per-pass
        reference semantics and the equivalence tests hold the two
        bit-for-bit equal.
        """
        check_positive("n_samples", n_samples)
        x_codes = self.act_fmt.quantize(np.asarray(x, dtype=np.float64))
        logits_codes = self.forward_stacked_codes(x_codes, n_samples, sampled=sampled)
        total = np.zeros((x_codes.shape[0], self.layer_sizes[-1]))
        # Accumulate sample by sample: bit-identical to the reference
        # loop's sequential float accumulation.
        for sample in range(n_samples):
            total += softmax(self.act_fmt.dequantize(logits_codes[sample]))
        return total / n_samples

    def predict_proba_loop(self, x: np.ndarray, n_samples: int = 10) -> np.ndarray:
        """Reference loop: one :meth:`forward_sample_codes` per MC pass."""
        check_positive("n_samples", n_samples)
        x_codes = self.act_fmt.quantize(np.asarray(x, dtype=np.float64))
        total = np.zeros((x_codes.shape[0], self.layer_sizes[-1]))
        for _ in range(n_samples):
            logits = self.act_fmt.dequantize(self.forward_sample_codes(x_codes))
            total += softmax(logits)
        return total / n_samples

    def predict(self, x: np.ndarray, n_samples: int = 10) -> np.ndarray:
        """MC-averaged hard predictions."""
        return self.predict_proba(x, n_samples).argmax(axis=1)
