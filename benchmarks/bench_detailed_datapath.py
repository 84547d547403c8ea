"""Benchmark: batched detailed datapath vs. the seed per-word loop.

Three bit-exactness gates (enforced in every mode, including ``--quick``)
and one speedup measurement:

1. **Batched-vs-loop-vs-functional equivalence** — on two design points
   (rlf and bnnwallace GRNGs),
   :meth:`~repro.hw.accelerator.DetailedDatapathSimulator.run_network_batch`
   must be bit-for-bit equal for every image/pass both to the per-image
   :meth:`~repro.hw.accelerator.DetailedDatapathSimulator.run_network`
   loop over the same sampled weight stacks and to
   :meth:`~repro.bnn.quantized.QuantizedBayesianNetwork.forward_stacked_codes`
   on an identically seeded network — the §5-computes-eq.(6) proof.  The
   simulators' aggregate cycle accounting must agree as well.
2. **Windowed faulty GRNGs vs. the per-cycle reference** — codes, state
   and incremental counts, for fault counts {0, 1, 4}.
3. **Closed-form pipeline report vs. the per-cycle while-loop** — exact
   equality for ``stall_every`` in {0, 1, 2, 7, 64}.
4. **Detailed-path speedup** on the digits 784-100-10 layer run: the
   batched path against the seed per-word loop, per (image × pass).
   Acceptance target >= 10x, enforced in full mode only.

Run:  PYTHONPATH=src python benchmarks/bench_detailed_datapath.py [--quick]
"""

from __future__ import annotations

import argparse
import pathlib
import sys
import time

import numpy as np

from repro.bnn.bayesian import BayesianNetwork
from repro.bnn.quantized import QuantizedBayesianNetwork
from repro.grng import BnnWallaceGrng, GrngStream, ParallelRlfGrng
from repro.hw.accelerator import DetailedDatapathSimulator
from repro.hw.config import ArchitectureConfig
from repro.hw.controller import schedule_network
from repro.hw.faults import FaultyBnnWallaceGrng, FaultyRlfGrng, random_seu_faults
from repro.hw.pipeline import closed_form_layer_pipeline, simulate_layer_pipeline
from repro.obs import BenchRecorder

RESULTS_DIR = pathlib.Path(__file__).parent / "results"

SMALL_CFG_KWARGS = dict(pe_sets=2, pes_per_set=4, pe_inputs=4, bit_length=8)


def _grng_for(kind: str, seed: int) -> GrngStream:
    if kind == "rlf":
        return GrngStream(ParallelRlfGrng(lanes=8, seed=seed))
    return GrngStream(BnnWallaceGrng(units=4, pool_size=64, seed=seed))


def check_batch_equivalence(quick: bool) -> None:
    """Gate 1: batched vs per-image detailed path vs functional model."""
    n_samples = 3 if quick else 6
    batch = 5 if quick else 10
    sizes = (12, 9, 4)
    posterior = BayesianNetwork(sizes, seed=0, initial_sigma=0.05).posterior_parameters()
    x = np.random.default_rng(2).uniform(0, 1, (batch, sizes[0]))
    print("== Batched detailed path: bit-for-bit equivalence gate")
    for kind in ("rlf", "bnnwallace"):
        config = ArchitectureConfig(grng_kind=kind, **SMALL_CFG_KWARGS)
        nets = [
            QuantizedBayesianNetwork(
                posterior, bit_length=8, grng=_grng_for(kind, seed=1), seed=1
            )
            for _ in range(3)
        ]
        x_codes = nets[0].act_fmt.quantize(x)
        sim_batch = DetailedDatapathSimulator(config)
        batched = sim_batch.run_network_batch(nets[0], x_codes, n_samples)
        # Per-image loop over the same weight stacks (identically seeded
        # GrngStream => identical epsilon block).
        sampled = nets[1].sample_weight_stacks(n_samples)
        sim_loop = DetailedDatapathSimulator(config)
        for p in range(n_samples):
            per_pass = [(w[p], b[p]) for w, b in sampled]
            for image in range(batch):
                reference = sim_loop.run_network(x_codes[image], per_pass)
                if not np.array_equal(batched[p, image], reference):
                    raise SystemExit(
                        f"FAIL: batched != per-image loop ({kind}, pass {p}, "
                        f"image {image})"
                    )
        if sim_batch.cycles != sim_loop.cycles:
            raise SystemExit(
                f"FAIL: cycle accounting diverged ({kind}): "
                f"batched {sim_batch.cycles} vs loop {sim_loop.cycles}"
            )
        functional = nets[2].forward_stacked_codes(x_codes, n_samples)
        if not np.array_equal(batched, functional):
            raise SystemExit(f"FAIL: batched != functional model ({kind})")
        print(
            f"  {kind:<12} batched == per-image loop == functional "
            f"({n_samples} passes x {batch} images, {sim_batch.cycles} cycles)"
        )
    print()


def check_fault_equivalence(quick: bool) -> None:
    """Gate 2: windowed faulty GRNGs vs the per-cycle reference."""
    count = 600 if quick else 5_000
    print("== Windowed faulty GRNGs: bit-exact vs per-cycle reference")
    for n_faults in (0, 1, 4):
        faults = random_seu_faults(n_faults, depth=255, seed=7)
        windowed = FaultyRlfGrng(faults, lanes=16, seed=3)
        loop = FaultyRlfGrng(faults, lanes=16, seed=3)
        same = np.array_equal(
            windowed.generate_codes(count), loop.generate_codes_loop(count)
        )
        state_same = (
            np.array_equal(windowed._grng.state, loop._grng.state)
            and np.array_equal(windowed._grng.counts, loop._grng.counts)
            and windowed._grng.head == loop._grng.head
        )
        if not (same and state_same):
            raise SystemExit(f"FAIL: faulty RLF windowed != loop ({n_faults} faults)")
        pool_faults = random_seu_faults(n_faults, depth=64, seed=9, binary=False)
        w_windowed = FaultyBnnWallaceGrng(pool_faults, units=4, pool_size=64, seed=3)
        w_loop = FaultyBnnWallaceGrng(pool_faults, units=4, pool_size=64, seed=3)
        w_same = np.array_equal(
            w_windowed.generate(count), w_loop.generate_loop(count)
        ) and np.array_equal(w_windowed._grng.pools, w_loop._grng.pools)
        if not w_same:
            raise SystemExit(
                f"FAIL: faulty Wallace windowed != loop ({n_faults} faults)"
            )
        print(f"  {n_faults} fault(s): rlf + wallace bit-exact over {count} samples")
    print()


def check_pipeline_closed_form() -> None:
    """Gate 3: closed-form pipeline report vs the per-cycle while-loop."""
    config = ArchitectureConfig(**SMALL_CFG_KWARGS)
    print("== Closed-form pipeline report: exact equality vs cycle loop")
    checked = 0
    for sizes in ((784, 100, 10), (130, 40, 12), (9, 5, 3)):
        for layer in schedule_network(config, sizes).layers:
            for stall_every in (0, 1, 2, 7, 64):
                loop = simulate_layer_pipeline(config, layer, stall_every=stall_every)
                closed = closed_form_layer_pipeline(
                    config, layer, stall_every=stall_every
                )
                if loop != closed:
                    raise SystemExit(
                        f"FAIL: closed form != loop for {sizes}, "
                        f"stall_every={stall_every}"
                    )
                checked += 1
    print(f"  {checked} (layer, stall_every) points exactly equal")
    print()


def bench_detailed_speedup(quick: bool) -> float:
    """Digits 784-100-10 detailed layer run: batched vs seed per-word loop."""
    sizes = (784, 100, 10)
    scalar_images = 1 if quick else 3
    batch = 20 if quick else 100
    n_samples = 2 if quick else 10
    config = ArchitectureConfig.paper()
    posterior = BayesianNetwork(sizes, seed=0).posterior_parameters()

    def network() -> QuantizedBayesianNetwork:
        return QuantizedBayesianNetwork(
            posterior,
            bit_length=8,
            grng=GrngStream(ParallelRlfGrng(lanes=64, seed=0)),
            seed=0,
        )

    net = network()
    x = np.random.default_rng(0).uniform(0, 1, (batch, sizes[0]))
    x_codes = net.act_fmt.quantize(x)
    print(
        f"== Detailed-datapath digits run ({'x'.join(map(str, sizes))}, "
        f"paper design point, rlf)"
    )
    sampled = network().sample_weight_stacks(1)
    per_pass = [(w[0], b[0]) for w, b in sampled]
    sim_loop = DetailedDatapathSimulator(config)
    start = time.perf_counter()
    for image in range(scalar_images):
        sim_loop.run_network(x_codes[image], per_pass)
    scalar_seconds = (time.perf_counter() - start) / scalar_images
    sim_batch = DetailedDatapathSimulator(config)
    start = time.perf_counter()
    sim_batch.run_network_batch(net, x_codes, n_samples)
    batched_seconds = (time.perf_counter() - start) / (batch * n_samples)
    speedup = scalar_seconds / batched_seconds
    print(f"{'per-word loop (seed path)':<40}{1.0 / scalar_seconds:>10.2f} img*pass/s")
    print(f"{'batched lockstep kernels':<40}{1.0 / batched_seconds:>10.2f} img*pass/s")
    print()
    print(f"detailed-path speedup: {speedup:.1f}x  (target >= 10x)")
    return speedup


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="CI smoke mode: tiny workloads, no absolute-speedup enforcement",
    )
    args = parser.parse_args(argv)
    recorder = BenchRecorder(
        "bench_detailed_datapath",
        mode="quick" if args.quick else "full",
        config={"quick": args.quick},
    )
    check_batch_equivalence(args.quick)  # SystemExit on mismatch
    check_fault_equivalence(args.quick)
    check_pipeline_closed_form()
    recorder.record("datapath_bit_exact", 1.0, unit="bool")
    speedup = bench_detailed_speedup(args.quick)
    recorder.record("detailed_speedup", speedup, unit="x")
    print(f"results written to {recorder.write(RESULTS_DIR)}")
    if not args.quick and speedup < 10.0:
        print(f"FAIL: detailed-path speedup {speedup:.1f}x below the 10x target")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
