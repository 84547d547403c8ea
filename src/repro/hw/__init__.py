"""VIBNN accelerator models (systems S15-S21).

Functional + cycle-level simulation of the Fig. 2 architecture together
with analytic resource / power / clock models calibrated against the
paper's published design points:

* :mod:`~repro.hw.config` — architecture parameters ``(T, S, N, B)`` and
  the joint PE/memory constraints of eqs. (14)-(15);
* :mod:`~repro.hw.memory` — 2-port RAM / ROM models with per-cycle port
  accounting, double-buffered IFMems, distributed WPMems;
* :mod:`~repro.hw.pe` — the N-input PE (MAC tree, accumulator, bias,
  ReLU; 3-stage pipeline) and PE-sets;
* :mod:`~repro.hw.controller` — layer scheduling and cycle counting;
* :mod:`~repro.hw.accelerator` — the assembled VIBNN, functionally
  bit-exact with :class:`repro.bnn.quantized.QuantizedBayesianNetwork`,
  whose :meth:`~repro.bnn.quantized.QuantizedBayesianNetwork.sample_weight_stacks`
  is the weight generator (GRNG + eq. (2) updater, Fig. 12);
* :mod:`~repro.hw.resources` — ALM / register / memory-bit / DSP, power
  and fmax models (Tables 2, 4, 5);
* :mod:`~repro.hw.design_space` — the §5.4 joint-optimization explorer.
"""

from repro.hw.accelerator import InferenceResult, VibnnAccelerator
from repro.hw.config import ArchitectureConfig
from repro.hw.controller import LayerSchedule, NetworkSchedule, schedule_network
from repro.hw.design_space import DesignPoint, explore_design_space
from repro.hw.faults import FaultyBnnWallaceGrng, FaultyRlfGrng, StuckAtFault, random_seu_faults
from repro.hw.memory import DoubleBufferedMemory, DualPortRam, Rom, WeightParameterMemory
from repro.hw.pe import PeSet, ProcessingElement
from repro.hw.pipeline import PipelineReport, simulate_layer_pipeline
from repro.hw.resources import (
    GRNG_KINDS,
    FullDesignReport,
    GrngResourceReport,
    full_design_resources,
    grng_resources,
    system_power_mw,
)

__all__ = [
    "InferenceResult",
    "VibnnAccelerator",
    "ArchitectureConfig",
    "LayerSchedule",
    "NetworkSchedule",
    "schedule_network",
    "DesignPoint",
    "explore_design_space",
    "DoubleBufferedMemory",
    "DualPortRam",
    "Rom",
    "WeightParameterMemory",
    "PeSet",
    "ProcessingElement",
    "PipelineReport",
    "simulate_layer_pipeline",
    "FaultyBnnWallaceGrng",
    "FaultyRlfGrng",
    "StuckAtFault",
    "random_seu_faults",
    "GRNG_KINDS",
    "FullDesignReport",
    "GrngResourceReport",
    "full_design_resources",
    "grng_resources",
    "system_power_mw",
]
