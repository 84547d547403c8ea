"""Table 5 — throughput and energy efficiency on the MNIST-scale network.

The paper's four configurations:

* CPU (Intel i7-6700k) — substituted by a *measured* NumPy BNN forward
  pass with sampled weights on this host, with energy from an assumed
  91 W package power (documented substitution; the paper's absolute
  CPU/GPU numbers are not reproducible off the authors' testbed), plus
  two measured Monte-Carlo rows: weight sampling and local
  reparameterization;
* GPU (Nvidia GTX 1070) — no GPU here, so the paper's reported value is
  carried as a reference row;
* both FPGA designs — the calibrated cycle/power models.

Expected shape: FPGA >> GPU > CPU on images/s and images/J, with the
RLF-based design the most energy-efficient.
"""

from __future__ import annotations

import time

from repro.bnn.bayesian import BayesianNetwork
from repro.bnn.inference import (
    LocalReparamPredictor,
    build_weight_stacks,
    stacked_epsilons,
    stacked_forward_stacks,
    stacked_softmax_average,
)
from repro.experiments.common import render_table, scaled
from repro.grng.base import NumpyGrng
from repro.grng.stream import GrngStream
from repro.hw.config import ArchitectureConfig
from repro.hw.controller import schedule_network
from repro.hw.resources import system_power_mw
from repro.utils.seeding import generator_from_seed

PAPER = {
    "Intel i7-6700k": (10_478.1, 115.1),
    "Nvidia GTX1070": (27_988.1, 186.6),
    "RLF-based FPGA": (321_543.4, 52_694.8),
    "BNNWallace-based FPGA": (321_543.4, 37_722.1),
}

CPU_PACKAGE_WATTS = 91.0  # i7-6700k TDP, used for the measured-CPU energy row

LOCAL_REPARAM_ROW = "Intel i7-6700k local-reparameterization MC (measured here)"


def _timed_throughput(fn, per_call: int, seconds: float) -> float:
    """Warm up ``fn`` once, then call it repeatedly for ``seconds``,
    counting ``per_call`` units per call; returns units per second."""
    fn()  # warm-up
    units = 0
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        fn()
        units += per_call
    elapsed = time.perf_counter() - start
    return units / elapsed


def _measure_cpu_weight_sampling_throughput(
    layer_sizes: tuple[int, ...], seconds: float, n_samples: int
) -> float:
    """Measured throughput of weight-sampling MC, in forward-pass
    equivalents per second (``batch * n_samples`` per call).

    Every pass samples every weight ``w = mu + sigma * eps`` (eq. 2) from a
    block-buffered GRNG through the whole-ensemble kernels, then runs its
    forward pass; ``n_samples=1`` is one sampled network per image.
    """
    network = BayesianNetwork(layer_sizes, seed=0)
    grng = GrngStream(NumpyGrng(0))
    batch = 64
    x = generator_from_seed(0).random((batch, layer_sizes[0]))

    def predict():
        epsilons = stacked_epsilons(network.layers, n_samples, grng)
        stacks = build_weight_stacks(network.layers, epsilons, out=epsilons)
        return stacked_softmax_average(stacked_forward_stacks(stacks, x))

    return _timed_throughput(predict, batch * n_samples, seconds)


def _measure_cpu_local_reparam_throughput(
    layer_sizes: tuple[int, ...], seconds: float, n_samples: int = 10
) -> float:
    """Measured throughput of local-reparameterization MC, in the
    weight-sampling rows' forward-pass equivalents per second.

    Each pass samples the pre-activations (``sum(out_features)`` epsilons
    per row) instead of the weights, from the same block-buffered GRNG.
    """
    network = BayesianNetwork(layer_sizes, seed=0)
    predictor = LocalReparamPredictor(network, GrngStream(NumpyGrng(0)))
    batch = 64
    x = generator_from_seed(0).random((batch, layer_sizes[0]))
    return _timed_throughput(
        lambda: predictor.predict_proba(x, n_samples), batch * n_samples, seconds
    )


def run(layer_sizes: tuple[int, ...] = (784, 200, 200, 10), measure_seconds: float | None = None) -> dict:
    """Throughput/energy for all four Table 5 configurations."""
    measure_seconds = (
        measure_seconds if measure_seconds is not None else scaled(1.0, 5.0)
    )
    cpu_ips = _measure_cpu_weight_sampling_throughput(layer_sizes, measure_seconds, 1)
    cpu_mc_ips = _measure_cpu_weight_sampling_throughput(layer_sizes, measure_seconds, 10)
    cpu_local_ips = _measure_cpu_local_reparam_throughput(layer_sizes, measure_seconds)
    rows = {
        "Intel i7-6700k (measured here)": (cpu_ips, cpu_ips / CPU_PACKAGE_WATTS),
        "Intel i7-6700k weight-sampling MC (measured here)": (
            cpu_mc_ips,
            cpu_mc_ips / CPU_PACKAGE_WATTS,
        ),
        LOCAL_REPARAM_ROW: (cpu_local_ips, cpu_local_ips / CPU_PACKAGE_WATTS),
        "Nvidia GTX1070 (paper reference)": PAPER["Nvidia GTX1070"],
    }
    for kind, label in (("rlf", "RLF-based FPGA"), ("bnnwallace", "BNNWallace-based FPGA")):
        config = ArchitectureConfig.paper(kind)
        ips = schedule_network(config, layer_sizes).images_per_second()
        watts = system_power_mw(config) / 1e3
        rows[f"{label} (model)"] = (ips, ips / watts)
    return {"layer_sizes": layer_sizes, "rows": rows}


def render(result: dict) -> str:
    table_rows = []
    paper_by_prefix = {
        "Intel": PAPER["Intel i7-6700k"],
        "Nvidia": PAPER["Nvidia GTX1070"],
        "RLF": PAPER["RLF-based FPGA"],
        "BNNWallace": PAPER["BNNWallace-based FPGA"],
    }
    for label, (ips, ipj) in result["rows"].items():
        if " MC " in label:
            # Forward-pass equivalents/s — not comparable to the paper's
            # per-image CPU number, so no paper columns for these rows.
            paper_ips, paper_ipj = "-", "-"
        else:
            prefix = label.split("-")[0].split(" ")[0]
            paper_ips, paper_ipj = paper_by_prefix.get(prefix, ("-", "-"))
        table_rows.append([label, ips, ipj, paper_ips, paper_ipj])
    return render_table(
        "Table 5: Throughput (images/s) and energy efficiency (images/J)",
        ["Configuration", "img/s (ours)", "img/J (ours)", "img/s (paper)", "img/J (paper)"],
        table_rows,
        note=(
            "CPU rows measured on this host (NumPy), energy at an assumed "
            f"{CPU_PACKAGE_WATTS:.0f} W package power; GPU row carried from the paper. "
            "The first CPU row samples one network per image; the weight-sampling MC "
            "row runs 10 passes, every weight sampled per pass (eq. 2) from a "
            "block-buffered GRNG (forward-pass equivalents/s). "
            "The local-reparameterization row, in the same units and also at 10 "
            "passes, samples each "
            "row's pre-activations instead of the weights: sum(out_features) "
            "Gaussians per row-pass instead of every weight, the float serving path. "
            "Expected shape, over the per-image rows: FPGA >> GPU > CPU in images/J; "
            "RLF design most efficient."
        ),
    )
