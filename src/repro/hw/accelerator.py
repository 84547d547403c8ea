"""The assembled VIBNN accelerator (Fig. 2).

Two simulation fidelities, sharing one datapath definition:

* **Vectorised functional path** — a
  :class:`~repro.bnn.quantized.QuantizedBayesianNetwork` built from the
  configuration's fixed-point format and GRNG, plus the cycle/resource
  models.  This is what the throughput/accuracy experiments run.
* **Detailed datapath path** (:class:`DetailedDatapathSimulator`) — drives
  the actual :class:`~repro.hw.pe.PeSet`, packed
  :class:`~repro.hw.memory.DualPortRam` IFMem/WPMem models word by word,
  checking the two-port budgets every cycle.  The tests assert it produces
  bit-identical activations to the vectorised path given the same sampled
  weights — the functional-equivalence proof that the architecture of §5
  really computes eq. (6).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from repro.bnn.quantized import QuantizedBayesianNetwork
from repro.errors import ConfigurationError
from repro.grng.base import Grng
from repro.grng.bnnwallace import BnnWallaceGrng
from repro.grng.rlf import ParallelRlfGrng
from repro.hw.config import ArchitectureConfig
from repro.hw.controller import NetworkSchedule, schedule_network
from repro.hw.memory import DoubleBufferedMemory, WeightParameterMemory
from repro.hw.packing import pack_word, pack_words, unpack_word, unpack_words
from repro.hw.pe import PeSet, stacked_accumulate, stacked_finish
from repro.hw.resources import full_design_resources, system_clock_mhz, system_power_mw
from repro.obs import profile as _profile
from repro.utils.validation import check_positive


def default_grng(config: ArchitectureConfig, seed: int = 0) -> Grng:
    """The GRNG a design point instantiates (one lane per weight lane)."""
    lanes = config.weights_per_cycle
    if config.grng_kind == "rlf":
        return ParallelRlfGrng(lanes=lanes, seed=seed)
    return BnnWallaceGrng(units=max(1, lanes // 4), pool_size=256, seed=seed)


@dataclass(frozen=True)
class InferenceResult:
    """Output of an accelerator inference run with performance accounting."""

    probabilities: np.ndarray
    predictions: np.ndarray
    n_images: int
    n_samples: int
    cycles: int
    seconds: float
    images_per_second: float
    joules: float
    images_per_joule: float


class VibnnAccelerator:
    """Cycle/energy-accounted fixed-point BNN inference engine.

    Parameters
    ----------
    config:
        The design point; ``ArchitectureConfig.paper()`` reproduces §6.4.
    posterior:
        Trained ``(mu, sigma)`` parameters from
        :meth:`repro.bnn.bayesian.BayesianNetwork.posterior_parameters`.
    seed:
        Seeds the on-chip GRNG.
    grng:
        Optional explicit epsilon source (overrides ``config.grng_kind``).
    """

    def __init__(
        self,
        config: ArchitectureConfig,
        posterior: list[dict[str, np.ndarray]],
        seed: int = 0,
        grng: Grng | None = None,
    ) -> None:
        self.config = config
        self.grng = grng if grng is not None else default_grng(config, seed)
        self.network = QuantizedBayesianNetwork(
            posterior, bit_length=config.bit_length, grng=self.grng, seed=seed
        )
        self.schedule: NetworkSchedule = schedule_network(
            config, self.network.layer_sizes
        )
        self.clock_mhz = system_clock_mhz(config)
        self.power_mw = system_power_mw(config)

    # ------------------------------------------------------------------
    @property
    def layer_sizes(self) -> tuple[int, ...]:
        return self.network.layer_sizes

    def resource_report(self):
        """Table-4 style resource summary for this design point."""
        return full_design_resources(self.config, self.layer_sizes)

    def infer(self, x: np.ndarray, n_samples: int = 1) -> InferenceResult:
        """Run MC inference and account cycles, time and energy.

        Routes through the functional model's stacked fixed-point path
        (:meth:`~repro.bnn.quantized.QuantizedBayesianNetwork.predict_proba`):
        all ``n_samples`` passes run as one stacked tensor computation fed
        by a single epsilon block drawn by the weight generator
        (:meth:`~repro.bnn.quantized.QuantizedBayesianNetwork.sample_weight_stacks`).
        The cycle/energy accounting models the hardware, not the host's
        execution strategy.  The rates are the steady-state
        :meth:`images_per_second` / :meth:`images_per_joule`, so an empty
        batch reports them too instead of dividing by zero seconds.
        """
        check_positive("n_samples", n_samples)
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2:
            raise ConfigurationError(f"x must be 2-D (batch, features), got {x.shape}")
        probabilities = self.network.predict_proba(x, n_samples=n_samples)
        predictions = probabilities.argmax(axis=1)
        cycles = self.schedule.cycles_per_image(n_samples) * x.shape[0]
        seconds = cycles / (self.clock_mhz * 1e6)
        return InferenceResult(
            probabilities=probabilities,
            predictions=predictions,
            n_images=x.shape[0],
            n_samples=n_samples,
            cycles=cycles,
            seconds=seconds,
            images_per_second=self.images_per_second(n_samples),
            joules=seconds * self.power_mw / 1e3,
            images_per_joule=self.images_per_joule(n_samples),
        )

    def images_per_second(self, n_samples: int = 1) -> float:
        """Steady-state throughput at the system clock (Table 5's metric)."""
        return self.schedule.images_per_second(n_samples)

    def images_per_joule(self, n_samples: int = 1) -> float:
        """Energy efficiency (Table 5's metric)."""
        return self.images_per_second(n_samples) / (self.power_mw / 1e3)


class DetailedDatapathSimulator:
    """Word-level simulation of layers on the PE array (Fig. 13).

    Drives packed IFMem words through PE-sets against distributed WPMems,
    enforcing every memory's two-port budget.  Sampled weights are
    supplied explicitly so results can be compared bit for bit with the
    vectorised datapath.

    Two execution granularities share the datapath definition:

    * :meth:`run_layer` / :meth:`run_network` — the word-by-word,
      per-image reference: every cycle is one Python iteration driving
      :class:`~repro.hw.pe.PeSet` objects and scalar pack/unpack.
    * :meth:`run_layer_batch` / :meth:`run_network_batch` — array-level
      lockstep kernels: all (passes × images × sets × S PEs) of a group
      run as one stacked contraction
      (:func:`~repro.hw.pe.stacked_accumulate`), words move through the
      memories in blocks that preserve the two-port budget and aggregate
      cycle accounting, and packing is vectorised.  Bit-identical to the
      per-image loop — the functional-equivalence proof of §5 at
      real-digits-scale image counts.
    """

    def __init__(self, config: ArchitectureConfig) -> None:
        self.config = config
        self.weight_fmt = config.weight_format
        self.act_fmt = config.activation_format
        self.pe_sets = [
            PeSet(config.pes_per_set, config.pe_inputs, self.weight_fmt, self.act_fmt)
            for _ in range(config.pe_sets)
        ]
        self.cycles = 0

    def run_layer(
        self,
        feature_codes: np.ndarray,
        weight_codes: np.ndarray,
        bias_codes: np.ndarray,
        *,
        apply_relu: bool,
    ) -> np.ndarray:
        """Compute one layer's activations for one image.

        ``feature_codes``: ``(in,)`` activation-format codes;
        ``weight_codes``: ``(in, out)`` weight-format codes;
        ``bias_codes``: ``(out,)`` codes at the accumulator precision
        (``frac_w + frac_a`` fractional bits), as produced by the
        quantized network's weight updater.  Returns ``(out,)``
        activation codes.
        """
        config = self.config
        in_features = feature_codes.shape[0]
        out_features = bias_codes.shape[0]
        if weight_codes.shape != (in_features, out_features):
            raise ConfigurationError(
                f"weight shape {weight_codes.shape} does not match "
                f"({in_features}, {out_features})"
            )
        n = config.pe_inputs
        m = config.total_pes
        iterations = math.ceil(in_features / n)
        groups = math.ceil(out_features / m)
        # Note: the write-back *throughput* constraint (T <= ceil(In/N)) is
        # checked by schedule_network; functionally this simulator serialises
        # the distributor writes, so any shape computes correctly here.
        # IFMem preload: one packed word per iteration chunk.
        ifmem = DoubleBufferedMemory(
            depth=max(iterations, groups * config.pe_sets),
            width_bits=config.ifmem_word_bits,
        )
        padded_in = iterations * n
        padded_features = np.zeros(padded_in, dtype=np.int64)
        padded_features[:in_features] = feature_codes
        words = [
            pack_word(padded_features[a * n : (a + 1) * n], config.bit_length)
            for a in range(iterations)
        ]
        ifmem.read_buffer.load(np.array(words, dtype=object))
        # WPMem preload: per set, per group, per iteration one packed word of
        # S * N weight codes (pre-sampled — the weight generator output).
        wpmem = WeightParameterMemory(
            pe_sets=config.pe_sets,
            depth=max(1, groups * iterations),
            word_bits=config.wpmem_word_bits,
        )
        padded_weights = np.zeros((padded_in, groups * m), dtype=np.int64)
        padded_weights[:in_features, :out_features] = weight_codes
        for set_index in range(config.pe_sets):
            set_words = []
            for group in range(groups):
                neuron_base = group * m + set_index * config.pes_per_set
                for iteration in range(iterations):
                    block = padded_weights[
                        iteration * n : (iteration + 1) * n,
                        neuron_base : neuron_base + config.pes_per_set,
                    ]
                    # Word layout: S PEs x N inputs, PE-major.
                    set_words.append(
                        pack_word(block.T.reshape(-1), config.bit_length)
                    )
            wpmem.load_set(set_index, set_words)
        padded_bias = np.zeros(groups * m, dtype=np.int64)
        padded_bias[:out_features] = bias_codes
        # ------------------------------------------------------------------
        outputs = np.zeros(groups * m, dtype=np.int64)
        for group in range(groups):
            for pe_set in self.pe_sets:
                pe_set.reset()
            for iteration in range(iterations):
                word = ifmem.read_buffer.read(iteration)
                features = unpack_word(word, config.bit_length, n)
                for set_index, pe_set in enumerate(self.pe_sets):
                    packed = wpmem.read_set_word(
                        set_index, group * iterations + iteration
                    )
                    weights = unpack_word(
                        packed, config.bit_length, config.pes_per_set * n
                    ).reshape(config.pes_per_set, n)
                    pe_set.accumulate(weights, features)
                ifmem.tick()
                wpmem.tick()
                self.cycles += 1
            for set_index, pe_set in enumerate(self.pe_sets):
                neuron_base = group * m + set_index * config.pes_per_set
                biases = padded_bias[
                    neuron_base : neuron_base + config.pes_per_set
                ]
                activations = pe_set.finish(biases, apply_relu=apply_relu)
                outputs[neuron_base : neuron_base + config.pes_per_set] = activations
                # Memory distributor: one packed word per set to the write
                # buffer (one write port per cycle).
                ifmem.write_buffer.write(
                    group * config.pe_sets + set_index,
                    pack_word(activations, config.bit_length),
                )
                ifmem.tick()
                wpmem.tick()
                self.cycles += 1
        return outputs[:out_features]

    def run_network(
        self,
        feature_codes: np.ndarray,
        sampled_layers: list[tuple[np.ndarray, np.ndarray]],
    ) -> np.ndarray:
        """Run all layers for one image given pre-sampled weight codes.

        ``sampled_layers`` is a list of ``(weight_codes, bias_codes)``; ReLU
        applies to every layer except the last (§5.1's PE activation).
        """
        if not sampled_layers:
            raise ConfigurationError("no layers supplied")
        hidden = np.asarray(feature_codes, dtype=np.int64)
        last = len(sampled_layers) - 1
        for index, (weights, biases) in enumerate(sampled_layers):
            hidden = self.run_layer(
                hidden, weights, biases, apply_relu=(index != last)
            )
        return hidden

    # ------------------------------------------------------------------
    # Batched (array-level lockstep) path
    # ------------------------------------------------------------------
    def run_layer_batch(
        self,
        feature_codes: np.ndarray,
        weight_codes: np.ndarray,
        bias_codes: np.ndarray,
        *,
        apply_relu: bool,
    ) -> np.ndarray:
        """One layer for a whole (passes × images) run batch.

        ``feature_codes``: ``(batch, in)`` activation codes shared across
        passes (the input layer) or ``(passes, batch, in)`` per-pass codes
        (hidden layers); ``weight_codes``: ``(passes, in, out)``;
        ``bias_codes``: ``(passes, out)`` at accumulator precision.
        Returns ``(passes, batch, out)`` activation codes, with element
        ``[p, b]`` bit-identical to
        ``run_layer(features[b], weights[p], biases[p])``.

        The memory models are driven per run at block granularity
        (:meth:`~repro.hw.memory.DualPortRam.read_block`), so every
        RAM's aggregate ``cycles``/``total_reads``/port-conflict
        behaviour — and this simulator's :attr:`cycles` — is identical to
        running the per-image loop over the batch; the arithmetic runs as
        one stacked contraction over the words actually read back.
        """
        config = self.config
        weight_codes = np.asarray(weight_codes, dtype=np.int64)
        bias_codes = np.asarray(bias_codes, dtype=np.int64)
        feature_codes = np.asarray(feature_codes, dtype=np.int64)
        if weight_codes.ndim != 3:
            raise ConfigurationError(
                f"weight_codes must be (passes, in, out), got {weight_codes.shape}"
            )
        passes, in_features, out_features = weight_codes.shape
        if bias_codes.shape != (passes, out_features):
            raise ConfigurationError(
                f"bias shape {bias_codes.shape} does not match "
                f"({passes}, {out_features})"
            )
        shared = feature_codes.ndim == 2
        if feature_codes.ndim not in (2, 3) or feature_codes.shape[-1] != in_features or (
            not shared and feature_codes.shape[0] != passes
        ):
            raise ConfigurationError(
                f"feature shape {feature_codes.shape} does not match "
                f"{passes} passes of {in_features} features"
            )
        batch = feature_codes.shape[-2]
        bits = config.bit_length
        n = config.pe_inputs
        s = config.pes_per_set
        t_sets = config.pe_sets
        m = config.total_pes
        iterations = math.ceil(in_features / n)
        groups = math.ceil(out_features / m)
        padded_in = iterations * n
        # ---- vectorised packing of every word the memories will serve.
        flat_features = feature_codes.reshape(-1, in_features)
        padded_features = np.zeros((flat_features.shape[0], padded_in), dtype=np.int64)
        padded_features[:, :in_features] = flat_features
        feature_words = pack_words(padded_features.reshape(-1, n), bits).reshape(
            flat_features.shape[0], iterations
        )
        padded_weights = np.zeros((passes, padded_in, groups * m), dtype=np.int64)
        padded_weights[:, :in_features, :out_features] = weight_codes
        # Word layout per set: S PEs x N inputs, PE-major (run_layer's
        # block.T.reshape(-1)) at address group * iterations + iteration.
        fields = padded_weights.reshape(
            passes, iterations, n, groups, t_sets, s
        ).transpose(0, 4, 3, 1, 5, 2)
        weight_words = pack_words(fields.reshape(-1, s * n), bits).reshape(
            passes, t_sets, groups * iterations
        )
        padded_bias = np.zeros((passes, groups * m), dtype=np.int64)
        padded_bias[:, :out_features] = bias_codes
        # ---- drive the memories run by run at block granularity.  One
        # memory instance serves the whole batch; its totals equal the sum
        # over the per-image loop's fresh-per-run instances.
        ifmem = DoubleBufferedMemory(
            depth=max(iterations, groups * t_sets),
            width_bits=config.ifmem_word_bits,
        )
        wpmem = WeightParameterMemory(
            pe_sets=t_sets,
            depth=max(1, groups * iterations),
            word_bits=config.wpmem_word_bits,
        )
        read_addresses = np.arange(iterations, dtype=np.int64)
        got_features = np.empty_like(feature_words)
        got_weights = np.empty_like(weight_words)
        for p in range(passes):
            for t in range(t_sets):
                wpmem.load_set(t, weight_words[p, t])
            for b in range(batch):
                row = b if shared else p * batch + b
                ifmem.read_buffer.load(feature_words[row])
                for g in range(groups):
                    words = ifmem.read_block(read_addresses)
                    if g == 0 and (p == 0 or not shared):
                        got_features[row] = words
                    set_words = wpmem.read_set_blocks(
                        g * iterations + read_addresses
                    )
                    if b == 0:
                        got_weights[
                            p, :, g * iterations : (g + 1) * iterations
                        ] = set_words
        # ---- unpack the words read back and run the stacked MAC/finish.
        f_codes = unpack_words(got_features.reshape(-1), bits, n).reshape(
            flat_features.shape[0], padded_in
        )
        w_fields = unpack_words(got_weights.reshape(-1), bits, s * n)
        w_full = w_fields.reshape(
            passes, t_sets, groups, iterations, s, n
        ).transpose(0, 3, 5, 2, 1, 4).reshape(passes, padded_in, groups * m)
        f_shaped = f_codes if shared else f_codes.reshape(passes, batch, padded_in)
        acc = stacked_accumulate(f_shaped, w_full, bits)
        acc_frac = self.weight_fmt.frac_bits + self.act_fmt.frac_bits
        outputs = stacked_finish(
            acc,
            padded_bias[:, None, :],
            acc_frac,
            self.act_fmt,
            apply_relu=apply_relu,
        )
        # ---- memory-distributor drain: one packed word per (group, set).
        out_words = pack_words(outputs.reshape(-1, s), bits).reshape(
            passes, batch, groups * t_sets
        )
        write_addresses = np.arange(groups * t_sets, dtype=np.int64)
        for p in range(passes):
            for b in range(batch):
                ifmem.write_block(write_addresses, out_words[p, b])
                wpmem.advance(groups * t_sets)
        self.cycles += passes * batch * groups * (iterations + t_sets)
        return outputs[:, :, :out_features]

    def run_network_batch(
        self,
        network: QuantizedBayesianNetwork,
        feature_codes: np.ndarray,
        n_samples: int,
    ) -> np.ndarray:
        """Push a whole image batch × MC passes through the detailed model.

        ``network`` supplies the sampled weights through its weight
        generator (:meth:`~repro.bnn.quantized.QuantizedBayesianNetwork.sample_weight_stacks`
        draws one epsilon block for all passes); ``feature_codes`` is the
        ``(batch, in)`` activation-code image batch.  Returns logits
        codes of shape ``(n_samples, batch, out)``, bit-identical both to
        the per-image :meth:`run_network` loop over the same weight
        stacks and to ``network.forward_stacked_codes`` on an identically
        seeded network — the §5-computes-eq.(6) equivalence at scale.
        """
        if network.bit_length != self.config.bit_length:
            raise ConfigurationError(
                f"network bit_length {network.bit_length} does not match "
                f"config bit_length {self.config.bit_length}"
            )
        feature_codes = np.asarray(feature_codes, dtype=np.int64)
        if feature_codes.ndim != 2 or feature_codes.shape[1] != network.layer_sizes[0]:
            raise ConfigurationError(
                f"expected codes of shape (batch, {network.layer_sizes[0]}), "
                f"got {feature_codes.shape}"
            )
        _prof = _profile.ACTIVE
        _t0 = time.perf_counter() if _prof is not None else 0.0
        sampled = network.sample_weight_stacks(n_samples)
        hidden = feature_codes
        last = len(sampled) - 1
        for index, (weights, biases) in enumerate(sampled):
            hidden = self.run_layer_batch(
                hidden, weights, biases, apply_relu=(index != last)
            )
        if _prof is not None:
            _prof.record(
                "hw.run_network_batch",
                time.perf_counter() - _t0,
                ops=feature_codes.shape[0],
            )
        return hidden
