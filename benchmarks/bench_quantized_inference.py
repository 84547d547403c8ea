"""Benchmark: stacked fixed-point MC inference vs. the seed loop path.

Three sections:

1. **RLF kernel gate** — one serve-mix-sized block of RLF codes (16 MC
   passes of 784-100-10, 1,272,160 codes) drawn through the head-bit
   recurrence kernel (:meth:`~repro.grng.rlf.ParallelRlfGrng.generate_codes`)
   and through the per-cycle ``step()`` loop
   (:meth:`~repro.grng.rlf.ParallelRlfGrng.generate_codes_loop`) must
   agree in codes, state, counts and head (``rlf_kernel_bit_exact``);
   both rates are printed in M eps/s.  Enforced in every mode.
2. **Equivalence gate** — for every registered GRNG (behind a
   :class:`~repro.grng.stream.GrngStream`, which makes the epsilon stream
   call-pattern invariant) plus the NumPy fallback, the stacked path
   (:meth:`~repro.bnn.quantized.QuantizedBayesianNetwork.predict_proba`)
   must equal the per-pass reference
   (:meth:`~repro.bnn.quantized.QuantizedBayesianNetwork.predict_proba_loop`)
   **bit for bit**.  Enforced in every mode, including ``--quick``.
3. **MC-inference speedup on the digits workload** — 784-100-10,
   ``bit_length=8``: the seed path (one forward pass per MC sample with
   epsilons generated one hardware cycle at a time — exactly the seed's
   call pattern) against the stacked path (all passes as one tensor
   computation fed by a single epsilon block through
   ``EpsilonSource.draw``).  The headline is the RLF-GRNG configuration — the paper's
   hardware design — with a >= 5x acceptance target; the current
   loop path (block epsilons from the RLF kernel) is reported as a
   secondary ratio for context.

Run:  PYTHONPATH=src python benchmarks/bench_quantized_inference.py [--quick]

``--quick`` shrinks the workloads for CI smoke runs; the two bit-exactness
gates still apply, the absolute-speedup gate does not (CI machines are
noisy).
"""

from __future__ import annotations

import argparse
import pathlib
import sys
import time

import numpy as np

from repro.bnn.bayesian import BayesianNetwork
from repro.bnn.quantized import QuantizedBayesianNetwork
from repro.datasets import load_digits_split
from repro.grng import BnnWallaceGrng, GrngStream, ParallelRlfGrng
from repro.grng.base import Grng
from repro.grng.factory import available_grngs, make_grng
from repro.grng.rlf import standardize_codes
from repro.obs import BenchRecorder

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


class StepLoopGrng(Grng):
    """The seed's per-cycle generation path, for old-vs-new comparisons.

    Before block-sized draws, epsilon draws on the cycle-accurate
    generators assembled their output from one ``step()`` call per
    hardware cycle.  This adapter reproduces that call pattern on top of
    the unchanged ``step()`` kernels so the benchmark can measure what the
    seed code actually did — for both the integer-code datapath (RLF) and
    the float datapath (BNNWallace).
    """

    def __init__(self, source) -> None:
        self.source = source

    def _steps(self, count: int) -> np.ndarray:
        chunks = []
        have = 0
        while have < count:
            chunk = np.atleast_1d(np.asarray(self.source.step()))
            chunks.append(chunk)
            have += chunk.size
        return np.concatenate(chunks)[:count]

    def generate_codes(self, count: int) -> np.ndarray:
        count = self._check_count(count)
        if not hasattr(self.source, "counts"):  # float-only source
            return super().generate_codes(count)
        if count == 0:
            return np.empty(0, dtype=np.int64)
        return self._steps(count).astype(np.int64)

    def generate(self, count: int) -> np.ndarray:
        count = self._check_count(count)
        if count == 0:
            return np.empty(0)
        out = self._steps(count).astype(np.float64)
        if hasattr(self.source, "width"):  # RLF emits integer codes
            out = standardize_codes(out, self.source.width)
        return out


#: Codes in one serve-mix stack build: 16 passes of 784-100-10's epsilons.
RLF_GATE_CODES = 16 * (784 * 100 + 100 + 100 * 10 + 10)


def check_rlf_kernel() -> bool:
    """The RLF block kernel vs the per-cycle ``step()`` loop on one block."""
    print(f"== RLF kernel: generate_codes vs per-cycle step loop ({RLF_GATE_CODES:,} codes)")
    fast = ParallelRlfGrng(lanes=64, seed=0)
    loop = ParallelRlfGrng(lanes=64, seed=0)
    start = time.perf_counter()
    codes = fast.generate_codes(RLF_GATE_CODES)
    fast_s = time.perf_counter() - start
    start = time.perf_counter()
    reference = loop.generate_codes_loop(RLF_GATE_CODES)
    loop_s = time.perf_counter() - start
    checks = {
        "codes": np.array_equal(codes, reference),
        "state": np.array_equal(fast.state, loop.state),
        "counts": np.array_equal(fast.counts, loop.counts),
        "head": fast.head == loop.head,
    }
    for name, ok in checks.items():
        print(f"  {name:<8} {'bit-exact' if ok else 'MISMATCH'}")
    print(f"  kernel {RLF_GATE_CODES / fast_s / 1e6:8.1f} M eps/s")
    print(f"  loop   {RLF_GATE_CODES / loop_s / 1e6:8.1f} M eps/s")
    print()
    return all(checks.values())


def check_equivalence(quick: bool) -> None:
    """Stacked-vs-loop bit-for-bit gate for every registered generator."""
    n_samples = 5 if quick else 9
    network = BayesianNetwork((10, 8, 4), seed=0, initial_sigma=0.05)
    posterior = network.posterior_parameters()
    x = np.random.default_rng(0).random((12, 10))
    print("== Stacked-vs-loop bit-for-bit equivalence (GrngStream-wrapped)")
    names = available_grngs() + [None]
    for name in names:
        if name is None:
            stacked = QuantizedBayesianNetwork(posterior, bit_length=8, seed=3)
            loop = QuantizedBayesianNetwork(posterior, bit_length=8, seed=3)
        else:
            stacked = QuantizedBayesianNetwork(
                posterior,
                bit_length=8,
                grng=GrngStream(make_grng(name, 5), block_size=4096),
            )
            loop = QuantizedBayesianNetwork(
                posterior,
                bit_length=8,
                grng=GrngStream(make_grng(name, 5), block_size=4096),
            )
        same = np.array_equal(
            stacked.predict_proba(x, n_samples=n_samples),
            loop.predict_proba_loop(x, n_samples=n_samples),
        )
        label = name if name is not None else "(numpy fallback)"
        print(f"  {label:<18} {'bit-for-bit' if same else 'MISMATCH'}")
        if not same:
            raise SystemExit(f"FAIL: stacked != loop for {label}")
    print()


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


def bench_mc_inference(quick: bool) -> float:
    """Digits-workload fixed-point MC inference; returns headline speedup."""
    n_test = 100 if quick else 400
    n_samples = 10 if quick else 30
    seconds = 0.3 if quick else 2.0
    _, _, x_test, _ = load_digits_split(n_train=10, n_test=n_test, seed=0)
    network = BayesianNetwork((784, 100, 10), seed=0)
    posterior = network.posterior_parameters()
    print(
        f"== Fixed-point MC inference, digits workload "
        f"({n_test} images, 784-100-10, N={n_samples}, bit_length=8)"
    )
    print(f"{'configuration':<40}{'pred/s':>10}")

    def quantized(grng) -> QuantizedBayesianNetwork:
        return QuantizedBayesianNetwork(posterior, bit_length=8, grng=grng, seed=0)

    configs = [
        (
            "rlf seed loop path (per-cycle eps)",
            lambda: quantized(StepLoopGrng(ParallelRlfGrng(lanes=64, seed=0))),
            "loop",
        ),
        (
            "rlf loop path (block eps)",
            lambda: quantized(GrngStream(ParallelRlfGrng(lanes=64, seed=0))),
            "loop",
        ),
        (
            "rlf stacked block path",
            lambda: quantized(GrngStream(ParallelRlfGrng(lanes=64, seed=0))),
            "stacked",
        ),
        (
            "bnnwallace seed loop path (per-cycle eps)",
            lambda: quantized(
                StepLoopGrng(BnnWallaceGrng(units=8, pool_size=256, seed=0))
            ),
            "loop",
        ),
        (
            "bnnwallace stacked block path",
            lambda: quantized(GrngStream(BnnWallaceGrng(units=8, pool_size=256, seed=0))),
            "stacked",
        ),
    ]
    results: dict[str, float] = {}
    for label, make, path in configs:
        model = make()
        if path == "stacked":
            fn = lambda: model.predict_proba(x_test, n_samples=n_samples)  # noqa: E731
        else:
            fn = lambda: model.predict_proba_loop(x_test, n_samples=n_samples)  # noqa: E731
        rate = _rate(fn, seconds)
        results[label] = rate
        print(f"{label:<40}{rate:>10.2f}")

    headline = (
        results["rlf stacked block path"]
        / results["rlf seed loop path (per-cycle eps)"]
    )
    loop_ratio = (
        results["rlf stacked block path"] / results["rlf loop path (block eps)"]
    )
    wallace = (
        results["bnnwallace stacked block path"]
        / results["bnnwallace seed loop path (per-cycle eps)"]
    )
    print()
    print(f"rlf MC-inference speedup vs seed path (headline): {headline:.1f}x  (target >= 5x)")
    print(f"rlf stacked vs current loop path:                 {loop_ratio:.1f}x")
    print(f"bnnwallace MC-inference speedup vs seed path:     {wallace:.1f}x")
    return headline


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="CI smoke mode: tiny workloads, no absolute-speedup enforcement",
    )
    args = parser.parse_args(argv)
    recorder = BenchRecorder(
        "bench_quantized_inference",
        mode="quick" if args.quick else "full",
        config={"quick": args.quick},
    )
    rlf_exact = check_rlf_kernel()
    recorder.record("rlf_kernel_bit_exact", 1.0 if rlf_exact else 0.0, unit="bool")
    if not rlf_exact:
        print(f"results written to {recorder.write(RESULTS_DIR)}")
        print("FAIL: RLF generate_codes differs from its per-cycle step loop")
        return 1
    check_equivalence(args.quick)  # SystemExit on mismatch
    recorder.record("stacked_bit_exact", 1.0, unit="bool")
    headline = bench_mc_inference(args.quick)
    recorder.record("quantized_speedup", headline, unit="x")
    print(f"results written to {recorder.write(RESULTS_DIR)}")
    if not args.quick and headline < 5.0:
        print(f"FAIL: headline speedup {headline:.1f}x below the 5x target")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
