"""Integration tests for the assembled accelerator.

The load-bearing checks:

* the detailed word-level datapath (PE sets + packed dual-port memories)
  computes bit-identical activations to the vectorised functional model;
* the accelerator's functional output matches
  :class:`~repro.bnn.quantized.QuantizedBayesianNetwork` exactly (same
  GRNG, same formats);
* cycle/energy accounting is consistent with the schedule.
"""

import numpy as np
import pytest

from repro.bnn import BayesianNetwork
from repro.bnn.quantized import QuantizedBayesianNetwork
from repro.errors import ConfigurationError
from repro.fixedpoint import requantize
from repro.grng import BnnWallaceGrng, GrngStream, ParallelRlfGrng
from repro.hw.accelerator import (
    DetailedDatapathSimulator,
    VibnnAccelerator,
    default_grng,
)
from repro.hw.config import ArchitectureConfig
from repro.hw.resources import system_clock_mhz

SMALL_CFG = ArchitectureConfig(pe_sets=2, pes_per_set=4, pe_inputs=4, bit_length=8)


def _tiny_posterior(seed=0, sizes=(12, 9, 4)):
    network = BayesianNetwork(sizes, seed=seed, initial_sigma=0.05)
    return network.posterior_parameters(), sizes


def _vectorised_layer(x_codes, w, b_acc, cfg, *, apply_relu):
    """Reference math shared with QuantizedBayesianNetwork.forward_sample_codes."""
    acc_frac = cfg.weight_format.frac_bits + cfg.activation_format.frac_bits
    wide = x_codes.astype(np.int64) @ w.astype(np.int64) + b_acc
    acc = requantize(wide, acc_frac, cfg.activation_format)
    return np.maximum(acc, 0) if apply_relu else acc


class TestDetailedDatapath:
    def test_layer_matches_vectorised_reference(self):
        rng = np.random.default_rng(0)
        w_fmt = SMALL_CFG.weight_format
        a_fmt = SMALL_CFG.activation_format
        acc_frac = w_fmt.frac_bits + a_fmt.frac_bits
        for in_f, out_f in [(4, 4), (10, 9), (16, 8), (7, 17)]:
            w = w_fmt.quantize(rng.uniform(-0.9, 0.9, (in_f, out_f)))
            b = np.round(rng.uniform(-0.5, 0.5, out_f) * (1 << acc_frac)).astype(np.int64)
            x = a_fmt.quantize(rng.uniform(0, 1, in_f))
            sim = DetailedDatapathSimulator(SMALL_CFG)
            got = sim.run_layer(x, w, b, apply_relu=True)
            want = _vectorised_layer(x[None, :], w, b, SMALL_CFG, apply_relu=True)[0]
            assert (got == want).all(), (in_f, out_f)

    def test_network_matches_functional_model(self):
        posterior, sizes = _tiny_posterior()
        grng = ParallelRlfGrng(lanes=8, seed=1)
        functional = QuantizedBayesianNetwork(posterior, bit_length=8, grng=grng, seed=1)
        x = np.random.default_rng(2).uniform(0, 1, (1, sizes[0]))
        x_codes = functional.act_fmt.quantize(x)
        # Sample the weights once through the functional model's updater...
        sampled = [functional._sample_layer_weights(layer) for layer in functional.layers]
        # ...and run them through BOTH datapaths.
        sim = DetailedDatapathSimulator(SMALL_CFG)
        detailed = sim.run_network(x_codes[0], sampled)
        hidden = x_codes
        for index, (w, b) in enumerate(sampled):
            hidden = _vectorised_layer(
                hidden, w, b, SMALL_CFG, apply_relu=(index < len(sampled) - 1)
            )
        assert (detailed == hidden[0]).all()

    def test_port_budgets_respected(self):
        # Runs without MemoryPortConflictError across several layer shapes.
        rng = np.random.default_rng(3)
        w_fmt = SMALL_CFG.weight_format
        a_fmt = SMALL_CFG.activation_format
        sim = DetailedDatapathSimulator(SMALL_CFG)
        for _ in range(3):
            w = w_fmt.quantize(rng.uniform(-0.9, 0.9, (12, 10)))
            b = np.zeros(10, dtype=np.int64)
            x = a_fmt.quantize(rng.uniform(0, 1, 12))
            sim.run_layer(x, w, b, apply_relu=True)
        assert sim.cycles > 0


class TestBatchedDetailedDatapath:
    def _random_layer(self, rng, passes, batch, in_f, out_f, *, shared):
        w_fmt = SMALL_CFG.weight_format
        a_fmt = SMALL_CFG.activation_format
        acc_frac = w_fmt.frac_bits + a_fmt.frac_bits
        weights = w_fmt.quantize(rng.uniform(-0.9, 0.9, (passes, in_f, out_f)))
        biases = np.round(
            rng.uniform(-0.5, 0.5, (passes, out_f)) * (1 << acc_frac)
        ).astype(np.int64)
        shape = (batch, in_f) if shared else (passes, batch, in_f)
        features = a_fmt.quantize(rng.uniform(0, 1, shape))
        return features, weights, biases

    @pytest.mark.parametrize("shared", [True, False])
    @pytest.mark.parametrize("in_f,out_f", [(4, 4), (10, 9), (16, 8), (7, 17)])
    def test_layer_batch_matches_per_run_loop(self, shared, in_f, out_f):
        rng = np.random.default_rng(5)
        passes, batch = 3, 4
        features, weights, biases = self._random_layer(
            rng, passes, batch, in_f, out_f, shared=shared
        )
        sim_batch = DetailedDatapathSimulator(SMALL_CFG)
        got = sim_batch.run_layer_batch(features, weights, biases, apply_relu=True)
        assert got.shape == (passes, batch, out_f)
        sim_loop = DetailedDatapathSimulator(SMALL_CFG)
        for p in range(passes):
            for b in range(batch):
                row = features[b] if shared else features[p, b]
                want = sim_loop.run_layer(
                    row, weights[p], biases[p], apply_relu=True
                )
                assert (got[p, b] == want).all(), (p, b)
        # Aggregate cycle accounting identical to the per-run loop.
        assert sim_batch.cycles == sim_loop.cycles

    def test_network_batch_matches_loop_and_functional(self):
        posterior, sizes = _tiny_posterior()
        x = np.random.default_rng(6).uniform(0, 1, (5, sizes[0]))
        for kind, make in [
            ("rlf", lambda: GrngStream(ParallelRlfGrng(lanes=8, seed=2))),
            ("bnnwallace", lambda: GrngStream(BnnWallaceGrng(units=4, pool_size=64, seed=2))),
        ]:
            nets = [
                QuantizedBayesianNetwork(posterior, bit_length=8, grng=make(), seed=2)
                for _ in range(3)
            ]
            x_codes = nets[0].act_fmt.quantize(x)
            n_samples = 3
            sim_batch = DetailedDatapathSimulator(SMALL_CFG)
            batched = sim_batch.run_network_batch(nets[0], x_codes, n_samples)
            sampled = nets[1].sample_weight_stacks(n_samples)
            sim_loop = DetailedDatapathSimulator(SMALL_CFG)
            for p in range(n_samples):
                per_pass = [(w[p], b[p]) for w, b in sampled]
                for image in range(x_codes.shape[0]):
                    want = sim_loop.run_network(x_codes[image], per_pass)
                    assert (batched[p, image] == want).all(), (kind, p, image)
            assert sim_batch.cycles == sim_loop.cycles, kind
            functional = nets[2].forward_stacked_codes(x_codes, n_samples)
            assert (batched == functional).all(), kind

    def test_validation(self):
        sim = DetailedDatapathSimulator(SMALL_CFG)
        with pytest.raises(ConfigurationError):
            sim.run_layer_batch(
                np.zeros((2, 4)), np.zeros((3, 4)), np.zeros((3, 2)), apply_relu=True
            )  # 2-D weights
        with pytest.raises(ConfigurationError):
            sim.run_layer_batch(
                np.zeros((2, 5)),
                np.zeros((3, 4, 2)),
                np.zeros((3, 2)),
                apply_relu=True,
            )  # feature width mismatch
        with pytest.raises(ConfigurationError):
            sim.run_layer_batch(
                np.zeros((2, 2, 4)),
                np.zeros((3, 4, 2)),
                np.zeros((3, 2)),
                apply_relu=True,
            )  # pass-count mismatch
        with pytest.raises(ConfigurationError):
            sim.run_layer_batch(
                np.zeros((2, 4)),
                np.zeros((3, 4, 2)),
                np.zeros((3, 3)),
                apply_relu=True,
            )  # bias mismatch
        posterior, sizes = _tiny_posterior()
        network = QuantizedBayesianNetwork(posterior, bit_length=4)
        with pytest.raises(ConfigurationError):
            sim.run_network_batch(network, np.zeros((2, sizes[0]), dtype=np.int64), 2)
        network8 = QuantizedBayesianNetwork(posterior, bit_length=8)
        with pytest.raises(ConfigurationError):
            sim.run_network_batch(network8, np.zeros(sizes[0], dtype=np.int64), 2)


class TestVibnnAccelerator:
    def test_matches_quantized_network_exactly(self):
        posterior, sizes = _tiny_posterior(seed=4)
        accelerator = VibnnAccelerator(SMALL_CFG, posterior, seed=7)
        reference = QuantizedBayesianNetwork(
            posterior,
            bit_length=SMALL_CFG.bit_length,
            grng=default_grng(SMALL_CFG, seed=7),
            seed=7,
        )
        x = np.random.default_rng(5).uniform(0, 1, (6, sizes[0]))
        got = accelerator.infer(x, n_samples=3)
        want = reference.predict_proba(x, n_samples=3)
        assert np.allclose(got.probabilities, want)

    def test_inference_result_accounting(self):
        posterior, sizes = _tiny_posterior(seed=6)
        accelerator = VibnnAccelerator(SMALL_CFG, posterior, seed=0)
        x = np.random.default_rng(6).uniform(0, 1, (4, sizes[0]))
        result = accelerator.infer(x, n_samples=2)
        assert result.n_images == 4
        assert result.cycles == accelerator.schedule.cycles_per_image(2) * 4
        assert result.images_per_second == pytest.approx(4 / result.seconds)
        assert result.images_per_joule == pytest.approx(4 / result.joules)

    def test_throughput_matches_schedule(self):
        posterior, _ = _tiny_posterior(seed=8)
        accelerator = VibnnAccelerator(SMALL_CFG, posterior, seed=0)
        assert accelerator.images_per_second() == pytest.approx(
            accelerator.schedule.images_per_second()
        )

    def test_rates_run_at_the_system_clock(self):
        # A configured clock above the system fmax is capped: the batch
        # accounting, the power model and the steady-state Table 5 rates
        # all run at the one system clock.
        cfg = ArchitectureConfig(
            pe_sets=2, pes_per_set=4, pe_inputs=4, bit_length=8, clock_mhz=150.0
        )
        posterior, sizes = _tiny_posterior(seed=8)
        accelerator = VibnnAccelerator(cfg, posterior, seed=0)
        clock = system_clock_mhz(cfg)
        assert accelerator.clock_mhz == clock < cfg.clock_mhz
        cycles = accelerator.schedule.cycles_per_image(2)
        assert accelerator.images_per_second(2) == pytest.approx(clock * 1e6 / cycles)
        x = np.random.default_rng(6).uniform(0, 1, (4, sizes[0]))
        result = accelerator.infer(x, n_samples=2)
        assert result.images_per_second == pytest.approx(accelerator.images_per_second(2))
        assert result.images_per_joule == pytest.approx(accelerator.images_per_joule(2))
        assert result.images_per_joule == pytest.approx(4 / result.joules)

    def test_empty_batch_reports_steady_state_rates(self):
        posterior, sizes = _tiny_posterior(seed=8)
        accelerator = VibnnAccelerator(SMALL_CFG, posterior, seed=0)
        result = accelerator.infer(np.zeros((0, sizes[0])), n_samples=3)
        assert result.probabilities.shape == (0, sizes[-1])
        assert result.predictions.shape == (0,)
        assert result.n_images == result.cycles == 0
        assert result.seconds == result.joules == 0.0
        assert result.images_per_second == accelerator.images_per_second(3)
        assert result.images_per_joule == accelerator.images_per_joule(3)

    def test_wallace_grng_design(self):
        cfg = ArchitectureConfig(
            pe_sets=2, pes_per_set=4, pe_inputs=4, bit_length=8, grng_kind="bnnwallace"
        )
        assert isinstance(default_grng(cfg, 0), BnnWallaceGrng)
        posterior, sizes = _tiny_posterior(seed=9)
        accelerator = VibnnAccelerator(cfg, posterior, seed=0)
        x = np.random.default_rng(7).uniform(0, 1, (2, sizes[0]))
        result = accelerator.infer(x)
        assert result.predictions.shape == (2,)

    def test_accuracy_close_to_float_model(self):
        # End-to-end sanity: the 8-bit accelerator should classify (almost)
        # as well as the float software BNN on an easy separable task.
        rng = np.random.default_rng(10)
        n = 120
        labels = rng.integers(0, 2, n)
        x = rng.normal(0, 0.3, (n, 12)) + labels[:, None] * 1.5
        network = BayesianNetwork((12, 8, 2), seed=11, initial_sigma=0.02)
        from repro.bnn import Adam, Trainer

        Trainer(network, Adam(5e-3), batch_size=16, epochs=30, seed=0).fit(x, labels)
        float_acc = (network.predict(x, n_samples=10) == labels).mean()
        accelerator = VibnnAccelerator(SMALL_CFG, network.posterior_parameters(), seed=0)
        hw_acc = (accelerator.infer(x, n_samples=10).predictions == labels).mean()
        assert float_acc > 0.9
        assert hw_acc > float_acc - 0.06

    def test_resource_report(self):
        posterior, _ = _tiny_posterior(seed=13)
        accelerator = VibnnAccelerator(SMALL_CFG, posterior, seed=0)
        report = accelerator.resource_report()
        assert report.alms > 0 and report.memory_bits > 0

    def test_input_validation(self):
        posterior, _ = _tiny_posterior(seed=12)
        accelerator = VibnnAccelerator(SMALL_CFG, posterior, seed=0)
        with pytest.raises(ConfigurationError):
            accelerator.infer(np.zeros(12))  # 1-D rejected
