"""Benchmark: GRNG quality degradation under SeMem/pool stuck-at faults.

A failure-injection sweep (reproduction extension): how many stuck SeMem
rows can the RLF-GRNG tolerate before the Table 1 stability metrics leave
their clean band, and does the quality suite detect faults reliably?

The fault count x seed detection sweep runs on the windowed fault path
(stuck-row re-pinning between calls of the
:class:`~repro.grng.rlf.RlfWindowKernel` head-bit recurrence, each window
ending at the first write onto a stuck row), which is what makes
half-million-sample cells across the whole grid tractable — the
silent-corruption check at sweep scale.  Dense fault loads cut windows
to a few cycles each, so their cost is the kernel's per-call setup.
"""

import numpy as np

from repro.grng.quality import stability_error
from repro.hw.faults import FaultyRlfGrng, StuckAtFault, random_seu_faults


def _mu_error_with_faults(n_faults: int, seed: int = 0, samples: int = 10_000) -> float:
    faults = [StuckAtFault(location, 1) for location in range(n_faults)]
    grng = FaultyRlfGrng(faults, lanes=16, seed=seed)
    return stability_error(grng.generate(samples)).mu_error


def test_fault_injection_sweep(benchmark, results_dir):
    def sweep():
        return {n: _mu_error_with_faults(n) for n in (0, 4, 16, 64)}

    errors = benchmark.pedantic(sweep, rounds=1, iterations=1)
    lines = ["Fault injection: stuck-at-1 SeMem rows vs RLF mu error", ""]
    for n, err in errors.items():
        lines.append(f"  {n:3d} stuck rows -> mu error {err:.4f}")
    rendered = "\n".join(lines) + "\n"
    (results_dir / "fault_injection.txt").write_text(rendered)
    print()
    print(rendered)
    # Degradation must grow with fault count and be detectable well before
    # half the SeMem is dead.
    assert errors[64] > errors[0] + 1.0
    assert errors[16] > errors[0]


def test_windowed_fault_sweep_detection_rate(benchmark, results_dir):
    """Fault count x seed sweep on the windowed path: detection rate.

    A fault is *detected* when the faulty run's stability metrics leave
    twice the clean band (the max clean-seed mu/sigma error).  Random
    binary pins are the hard case — about half land on the bit's expected
    value — so single-fault detection is partial by nature; the gate is
    that dense fault loads never corrupt silently.
    """
    fault_counts = (1, 4, 16, 64)
    seeds = tuple(range(6))
    samples = 500_000

    def sweep():
        clean = {
            seed: stability_error(
                FaultyRlfGrng([], lanes=64, seed=seed).generate(samples)
            )
            for seed in seeds
        }
        mu_band = max(result.mu_error for result in clean.values())
        sigma_band = max(result.sigma_error for result in clean.values())
        rates = {}
        for count in fault_counts:
            detected = 0
            for seed in seeds:
                faults = random_seu_faults(count, depth=255, seed=100 + seed)
                result = stability_error(
                    FaultyRlfGrng(faults, lanes=64, seed=seed).generate(samples)
                )
                if result.mu_error > 2 * mu_band or result.sigma_error > 2 * sigma_band:
                    detected += 1
            rates[count] = detected / len(seeds)
        return mu_band, sigma_band, rates

    mu_band, sigma_band, rates = benchmark.pedantic(sweep, rounds=1, iterations=1)
    lines = [
        "Windowed fault sweep: SEU count x seed -> quality-metric detection rate",
        f"  ({len(seeds)} seeds, {samples} samples/cell; clean band "
        f"mu<{mu_band:.4f} sigma<{sigma_band:.4f}, threshold 2x band)",
        "",
    ]
    for count, rate in rates.items():
        lines.append(f"  {count:3d} random stuck rows -> detected {rate:5.0%}")
    rendered = "\n".join(lines) + "\n"
    (results_dir / "fault_sweep_detection.txt").write_text(rendered)
    print()
    print(rendered)
    # Dense fault loads must never corrupt silently, and detection must
    # not degrade as the fault load grows.
    assert rates[16] == 1.0
    assert rates[64] == 1.0
    assert rates[64] >= rates[1]


def test_random_seu_faults_detectable(benchmark):
    def run():
        faults = random_seu_faults(32, depth=255, seed=1)
        grng = FaultyRlfGrng(faults, lanes=16, seed=1)
        return stability_error(grng.generate(10_000))

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    # Random upsets bias less than aligned stuck-at-1 (half pin to their
    # expected value) but must still not corrupt sigma silently.
    assert np.isfinite(result.sigma_error)
