"""Benchmark: streaming/batched sampling backend vs. the seed loop paths.

Two sections:

1. **GRNG samples/sec** — per generator, the pre-block-API call pattern
   (one ``step()`` per hardware cycle for the cycle-accurate generators,
   small per-pass ``generate`` calls for the software ones) against the
   block path (:meth:`~repro.grng.base.Grng.generate_block` /
   :class:`~repro.grng.stream.GrngStream`).
2. **MC-predictions/sec on the digits workload** — the seed inference
   path (:meth:`~repro.bnn.bayesian.BayesianNetwork.predict_proba_loop`
   fed by per-cycle generation, exactly the seed's semantics) against the default path
   (block-buffered epsilons streamed one MC pass at a time through one
   pass-sized epsilon/weight buffer).

The headline number is the digits-workload MC-inference speedup with the
paper's BNNWallace generator supplying the epsilons — the configuration
the paper's throughput story is about.  The acceptance target for the
batched backend is >= 5x over the seed loop path.

Two structural checks ride along: the streamed MC path (one pass-sized
epsilon/weight buffer) must emit the same bytes as the whole-ensemble
composition, and its peak transient allocation of one N=16 call is
recorded (``mc_peak_transient_bytes``).

Run:  PYTHONPATH=src python benchmarks/bench_batched_inference.py [--quick]

``--quick`` shrinks the workloads for CI smoke runs (seconds, not
minutes); the speedups it reports are noisier but the structure is
identical.  Exit code is non-zero if the BNNWallace block kernel is not
byte-equal to its per-cycle step loop or the streamed MC path is not
byte-equal to the whole-ensemble composition (every mode), or if the
headline speedup misses the 5x target (ignored in --quick mode, which
exists to catch crashes, not regressions in absolute throughput).
"""

from __future__ import annotations

import argparse
import pathlib
import sys
import time
import tracemalloc

import numpy as np

from repro.bnn.bayesian import BayesianNetwork
from repro.bnn.inference import (
    split_epsilon_block,
    stacked_forward_stacks,
    stacked_softmax_average,
)
from repro.datasets import load_digits_split
from repro.grng import BnnWallaceGrng, GrngStream, NumpyGrng, ParallelRlfGrng
from repro.grng.base import Grng
from repro.obs import BenchRecorder

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


class StepLoopGrng(Grng):
    """The seed's per-cycle generation path, for old-vs-new comparisons.

    Before the block API, ``generate`` on the cycle-accurate generators
    assembled its output from one ``step()`` call per hardware cycle; the
    vectorised block paths replaced that loop.  This adapter reproduces
    the old call pattern on top of the unchanged ``step()`` kernel so the
    benchmark can measure what the seed code actually did.
    """

    def __init__(self, source) -> None:
        self.source = source

    def generate(self, count: int) -> np.ndarray:
        count = self._check_count(count)
        if count == 0:
            return np.empty(0)
        chunks = []
        have = 0
        while have < count:
            chunk = np.asarray(self.source.step(), dtype=np.float64)
            if hasattr(self.source, "width"):  # RLF emits integer codes
                from repro.grng.rlf import standardize_codes

                chunk = standardize_codes(chunk, self.source.width)
            chunks.append(chunk)
            have += chunk.size
        return np.concatenate(chunks)[:count]


def _rate(fn, min_seconds: float) -> float:
    """Calls/sec of ``fn`` over at least ``min_seconds`` of wall clock."""
    fn()  # warm-up
    calls = 0
    start = time.perf_counter()
    while True:
        fn()
        calls += 1
        elapsed = time.perf_counter() - start
        if elapsed >= min_seconds:
            return calls / elapsed


def check_bnnwallace_bit_exact() -> bool:
    """The scheduled ``generate`` kernel vs the per-cycle ``step`` loop.

    Byte equality of every emitted number and of the final pools, over
    split calls that stop mid-window and cross schedule-period edges.
    """
    print("== BNNWallace kernel: scheduled generate vs per-cycle step loop")
    exact = True
    for units, pool_size in ((8, 256), (16, 256), (3, 1024)):
        fast = BnnWallaceGrng(units=units, pool_size=pool_size, seed=0)
        loop = BnnWallaceGrng(units=units, pool_size=pool_size, seed=0)
        period = units * 4 * pool_size
        ok = all(
            fast.generate(count).tobytes() == loop.generate_loop(count).tobytes()
            for count in (1, 5_000, period, 2 * period + 7)
        ) and fast.pools.tobytes() == loop.pools.tobytes()
        exact &= ok
        print(f"  {units:>2} units x {pool_size:<5} {'bit-exact' if ok else 'MISMATCH'}")
    print()
    return exact


def check_streamed_bit_exact() -> bool:
    """Streamed MC inference vs the whole-ensemble composition.

    The reference draws every pass's epsilons as one block, builds every
    sampled weight as ``mu + sigma * eps`` and then runs every pass; the
    streamed path must emit the same bytes through its one pass-sized
    buffer.
    """
    print("== MC inference: streamed vs whole-ensemble composition")
    network = BayesianNetwork((784, 100, 10), seed=0)
    x = np.random.default_rng(0).random((8, 784))
    n_samples = 6
    exact = True
    streams = (
        ("bnnwallace", lambda: GrngStream(BnnWallaceGrng(units=8, pool_size=256, seed=0))),
        ("rlf", lambda: GrngStream(ParallelRlfGrng(lanes=64, seed=0))),
    )
    for name, make in streams:
        streamed = network.predict_proba(x, n_samples, grng=make())
        block = make().generate_block((n_samples, network.weight_count()))
        stacks = [
            (
                layer.mu_weights + layer.sigma_weights() * eps_w,
                layer.mu_bias + layer.sigma_bias() * eps_b,
            )
            for layer, (eps_w, eps_b) in zip(
                network.layers, split_epsilon_block(network.layers, block)
            )
        ]
        oracle = stacked_softmax_average(stacked_forward_stacks(stacks, x))
        ok = streamed.tobytes() == oracle.tobytes()
        exact &= ok
        print(f"  {name:<11}{'bit-exact' if ok else 'MISMATCH'}")
    print()
    return exact


def measure_peak_transient() -> int:
    """Peak bytes allocated during one N=16 one-row BNNWallace MC call."""
    network = BayesianNetwork((784, 100, 10), seed=0)
    grng = GrngStream(BnnWallaceGrng(units=8, pool_size=256, seed=0))
    x = np.random.default_rng(0).random((1, 784))
    network.predict_proba(x, 16, grng=grng)  # warm-up
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        network.predict_proba(x, 16, grng=grng)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    per_pass = network.weight_count() * 8
    print(
        f"== MC call peak transient (784-100-10, N=16, 1 row): {peak:,} B "
        f"= {peak / per_pass:.2f} x one pass of float64 epsilons"
    )
    print()
    return peak


def bench_grng_throughput(quick: bool) -> dict[str, float]:
    """Samples/sec of each generator's block path, keyed by generator."""
    block = 20_000 if quick else 200_000
    seconds = 0.2 if quick else 1.0
    print(f"== GRNG throughput (block of {block:,} samples)")
    print(f"{'generator':<22}{'seed path':>14}{'block path':>14}{'speedup':>9}")
    rows = [
        (
            "bnnwallace",
            lambda: StepLoopGrng(BnnWallaceGrng(units=8, pool_size=256, seed=0)),
            lambda: BnnWallaceGrng(units=8, pool_size=256, seed=0),
        ),
        (
            "rlf (64 lanes)",
            lambda: StepLoopGrng(ParallelRlfGrng(lanes=64, seed=0)),
            lambda: ParallelRlfGrng(lanes=64, seed=0),
        ),
        (
            "numpy (256/call)",
            lambda: _Chunked(NumpyGrng(0), 256),
            lambda: NumpyGrng(0),
        ),
    ]
    rates = {}
    for name, make_old, make_new in rows:
        old_gen, new_gen = make_old(), make_new()
        old = _rate(lambda: old_gen.generate(block), seconds) * block
        new = _rate(lambda: new_gen.generate_block((block,)), seconds) * block
        rates[name] = new
        print(f"{name:<22}{old:>12,.0f}/s{new:>12,.0f}/s{new / old:>8.1f}x")
    print()
    return rates


class _Chunked(Grng):
    """Serve a block as many small ``generate`` calls (old call pattern)."""

    def __init__(self, source: Grng, chunk: int) -> None:
        self.source = source
        self.chunk = chunk

    def generate(self, count: int) -> np.ndarray:
        count = self._check_count(count)
        parts = [
            self.source.generate(min(self.chunk, count - done))
            for done in range(0, count, self.chunk)
        ]
        return np.concatenate(parts) if parts else np.empty(0)


def bench_mc_inference(quick: bool) -> float:
    """Digits-workload MC inference; returns the headline speedup."""
    n_test = 100 if quick else 400
    n_samples = 10 if quick else 30
    seconds = 0.3 if quick else 2.0
    _, _, x_test, _ = load_digits_split(
        n_train=10, n_test=n_test, seed=0
    )
    network = BayesianNetwork((784, 100, 10), seed=0)
    print(
        f"== MC inference, digits workload "
        f"({n_test} images, 784-100-10, N={n_samples})"
    )
    print(f"{'configuration':<34}{'pred/s':>10}{'eps-sam/s':>14}")

    eps = network.weight_count() * n_samples

    def measure(label: str, grng: Grng, loop: bool) -> float:
        predict = network.predict_proba_loop if loop else network.predict_proba
        rate = _rate(lambda: predict(x_test, n_samples, grng=grng), seconds)
        print(f"{label:<34}{rate:>10.2f}{rate * eps:>12,.0f}/s")
        return rate

    results: dict[str, float] = {}
    configs = [
        (
            "bnnwallace seed loop path",
            lambda: StepLoopGrng(BnnWallaceGrng(units=8, pool_size=256, seed=0)),
            True,
        ),
        (
            "bnnwallace batched block path",
            lambda: GrngStream(BnnWallaceGrng(units=8, pool_size=256, seed=0)),
            False,
        ),
        (
            "rlf seed loop path",
            lambda: StepLoopGrng(ParallelRlfGrng(lanes=64, seed=0)),
            True,
        ),
        (
            "rlf batched block path",
            lambda: GrngStream(ParallelRlfGrng(lanes=64, seed=0)),
            False,
        ),
        ("numpy loop path", lambda: NumpyGrng(0), True),
        ("numpy batched block path", lambda: NumpyGrng(0), False),
    ]
    for label, make, loop in configs:
        results[label] = measure(label, make(), loop)

    headline = results["bnnwallace batched block path"] / results[
        "bnnwallace seed loop path"
    ]
    rlf_speedup = results["rlf batched block path"] / results["rlf seed loop path"]
    numpy_speedup = results["numpy batched block path"] / results["numpy loop path"]
    print()
    print(f"bnnwallace MC-inference speedup (headline): {headline:.1f}x  (target >= 5x)")
    print(f"rlf MC-inference speedup:                   {rlf_speedup:.1f}x")
    print(f"numpy same-generator loop-vs-batched:       {numpy_speedup:.2f}x")
    return headline


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="CI smoke mode: tiny workloads, no speedup enforcement",
    )
    args = parser.parse_args(argv)
    recorder = BenchRecorder(
        "bench_batched_inference",
        mode="quick" if args.quick else "full",
        config={"quick": args.quick},
    )
    bit_exact = check_bnnwallace_bit_exact()
    recorder.record("bnnwallace_kernel_bit_exact", 1.0 if bit_exact else 0.0, unit="bool")
    streamed_exact = check_streamed_bit_exact()
    recorder.record("mc_streamed_bit_exact", 1.0 if streamed_exact else 0.0, unit="bool")
    recorder.record(
        "mc_peak_transient_bytes", measure_peak_transient(), unit="B", direction="lower"
    )
    rates = bench_grng_throughput(args.quick)
    recorder.record("bnnwallace_block_eps_per_s", rates["bnnwallace"], unit="1/s")
    headline = bench_mc_inference(args.quick)
    recorder.record("mc_inference_speedup", headline, unit="x")
    print(f"results written to {recorder.write(RESULTS_DIR)}")
    if not bit_exact:
        print("FAIL: BNNWallace generate differs from its per-cycle step loop")
        return 1
    if not streamed_exact:
        print("FAIL: streamed MC inference differs from the whole-ensemble composition")
        return 1
    if not args.quick and headline < 5.0:
        print(f"FAIL: headline speedup {headline:.1f}x below the 5x target")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
