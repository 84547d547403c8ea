"""Global controller: layer scheduling and cycle accounting (§3, §5.5).

The PEs are time-multiplexed over the network (§3).  For a layer with
``In`` inputs and ``Out`` neurons on an array of ``M = T * S`` PEs with
``N``-input MAC trees:

* each neuron needs ``iterations = ceil(In / N)`` accumulate cycles;
* the array processes ``groups = ceil(Out / M)`` batches of neurons;
* per layer the pipeline refills (weight-generator stages + PE stages)
  and the final group's ``T`` output words drain to the IFMem.

The drain overlaps the next layer's first iterations through the memory
distributor's buffering; the residual non-overlapped drain is modelled as
``ceil(T / 2)`` cycles (calibration constant, documented in
EXPERIMENTS.md — with it, the paper design point lands within 0.4% of the
published 321,543.4 images/s at the default 100 MHz system clock).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.errors import SchedulingError
from repro.hw.config import ArchitectureConfig
from repro.hw.pe import PE_PIPELINE_STAGES
from repro.hw.resources import system_clock_mhz

#: Pipeline registers between GRNG -> updater and updater -> PE (§5.5).
WEIGHT_GENERATOR_PIPELINE_STAGES = 2


@dataclass(frozen=True)
class LayerSchedule:
    """Cycle budget of one fully connected layer on the array."""

    in_features: int
    out_features: int
    iterations: int          # accumulate cycles per neuron group
    groups: int              # neuron batches over the PE array
    fill_cycles: int         # pipeline refill at layer start
    drain_cycles: int        # non-overlapped output write-back

    @property
    def compute_cycles(self) -> int:
        return self.iterations * self.groups

    @property
    def total_cycles(self) -> int:
        return self.compute_cycles + self.fill_cycles + self.drain_cycles

    @property
    def mac_utilization(self) -> float:
        """Useful MACs / available MAC slots during compute cycles."""
        return (self.in_features * self.out_features) / (
            self.compute_cycles * self._array_macs
        )

    # Set by schedule_network; stored privately to keep the dataclass frozen.
    _array_macs: int = 1


@dataclass(frozen=True)
class NetworkSchedule:
    """Cycle budget of a full forward pass (one Monte-Carlo sample)."""

    config: ArchitectureConfig
    layers: tuple[LayerSchedule, ...]

    @property
    def cycles_per_sample(self) -> int:
        """Cycles for one stochastic forward pass of one image."""
        return sum(layer.total_cycles for layer in self.layers)

    def cycles_per_image(self, n_samples: int = 1) -> int:
        """Cycles for one image at ``n_samples`` MC samples (eq. 6)."""
        if n_samples < 1:
            raise SchedulingError(f"n_samples must be >= 1, got {n_samples}")
        return self.cycles_per_sample * n_samples

    def images_per_second(self, n_samples: int = 1) -> float:
        """Throughput at the system clock the design closes timing at
        (:func:`~repro.hw.resources.system_clock_mhz`: the configured
        clock, capped by the PE and GRNG fmax)."""
        return system_clock_mhz(self.config) * 1e6 / self.cycles_per_image(n_samples)

    @property
    def gaussian_samples_per_image(self) -> int:
        """GRNG numbers consumed per forward pass (weights + biases)."""
        total = 0
        for layer in self.layers:
            total += layer.in_features * layer.out_features + layer.out_features
        return total


def schedule_network(
    config: ArchitectureConfig, layer_sizes: tuple[int, ...]
) -> NetworkSchedule:
    """Schedule a feed-forward topology onto a design point.

    Raises :class:`~repro.errors.SchedulingError` if the topology is
    malformed or the write-back constraint cannot hold.
    """
    if len(layer_sizes) < 2:
        raise SchedulingError("need at least input and output layer sizes")
    if any(size < 1 for size in layer_sizes):
        raise SchedulingError(f"layer sizes must be >= 1, got {layer_sizes}")
    min_in = min(layer_sizes[:-1])
    if not config.writeback_feasible(min_in):
        raise SchedulingError(
            f"write-back infeasible: T={config.pe_sets} > "
            f"ceil(MinIn/N)={math.ceil(min_in / config.pe_inputs)}"
        )
    fill = PE_PIPELINE_STAGES + WEIGHT_GENERATOR_PIPELINE_STAGES
    drain = math.ceil(config.pe_sets / 2)
    layers = []
    for in_features, out_features in zip(layer_sizes[:-1], layer_sizes[1:]):
        layers.append(
            LayerSchedule(
                in_features=in_features,
                out_features=out_features,
                iterations=math.ceil(in_features / config.pe_inputs),
                groups=math.ceil(out_features / config.total_pes),
                fill_cycles=fill,
                drain_cycles=drain,
                _array_macs=config.total_pes * config.pe_inputs,
            )
        )
    return NetworkSchedule(config=config, layers=tuple(layers))
