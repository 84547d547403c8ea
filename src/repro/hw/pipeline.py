"""Cycle-accurate occupancy model of the §5.5 two-tier pipeline.

The deep pipeline is: GRNG -> [tier-1 register] -> weight updater ->
[tier-2 registers] -> PE multiply -> PE accumulate -> PE bias/ReLU.  This
module pushes every MAC operation of a layer through those stages cycle by
cycle, which validates the analytic schedule's fill constant
(:data:`repro.hw.pe.PE_PIPELINE_STAGES` +
:data:`repro.hw.controller.WEIGHT_GENERATOR_PIPELINE_STAGES`) and
lets stall sensitivity be studied (e.g. a WPMem refill bubble every ``k``
cycles).

The tokens carry no data — functional correctness is covered by
:class:`repro.hw.accelerator.DetailedDatapathSimulator`; this model is
about *when*, not *what*.

Two fidelities of the same model:

* :func:`simulate_layer_pipeline` — the per-cycle while-loop reference.
* :func:`closed_form_layer_pipeline` — the fill + stall algebra, exactly
  equal to the loop (tested across a grid of ``stall_every`` values) and
  O(1), so occupancy studies over large design/stall grids don't pay a
  Python cycle loop per point.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.hw.config import ArchitectureConfig
from repro.hw.controller import WEIGHT_GENERATOR_PIPELINE_STAGES, LayerSchedule
from repro.hw.pe import PE_PIPELINE_STAGES

#: Stage names, issue end first.  GRNG and updater occupy the two
#: weight-generator stages; the PE occupies three (§5.5).
STAGE_NAMES = (
    "grng",
    "weight_updater",
    "pe_multiply",
    "pe_accumulate",
    "pe_bias_relu",
)

PIPELINE_DEPTH = len(STAGE_NAMES)

assert PIPELINE_DEPTH == PE_PIPELINE_STAGES + WEIGHT_GENERATOR_PIPELINE_STAGES


@dataclass(frozen=True)
class PipelineReport:
    """Result of pushing one layer's operation stream through the pipeline."""

    operations: int
    cycles: int
    stall_cycles: int
    stage_busy_cycles: dict[str, int]

    @property
    def occupancy(self) -> float:
        """Mean fraction of stages busy per cycle (pipeline utilisation)."""
        total_busy = sum(self.stage_busy_cycles.values())
        return total_busy / (self.cycles * PIPELINE_DEPTH) if self.cycles else 0.0

    @property
    def fill_overhead_cycles(self) -> int:
        """Cycles beyond one-per-operation — the schedule's fill constant."""
        return self.cycles - self.operations


def simulate_layer_pipeline(
    config: ArchitectureConfig,
    layer: LayerSchedule,
    *,
    stall_every: int = 0,
) -> PipelineReport:
    """Push ``layer``'s MAC-iteration stream through the two-tier pipeline.

    One token per (group, iteration) — the whole PE array works in
    lockstep, so array width does not add tokens.  ``stall_every > 0``
    inserts one issue bubble every that many issued operations (a memory
    refill hiccup); the report shows the cycle cost.
    """
    if stall_every < 0:
        raise ConfigurationError(f"stall_every must be >= 0, got {stall_every}")
    operations = layer.compute_cycles
    if operations < 1:
        raise ConfigurationError("layer has no compute operations")
    stages: list[bool] = [False] * PIPELINE_DEPTH
    busy = {name: 0 for name in STAGE_NAMES}
    issued = 0
    retired = 0
    cycles = 0
    stall_cycles = 0
    since_stall = 0
    while retired < operations:
        cycles += 1
        # Retire from the last stage.
        if stages[-1]:
            retired += 1
        # Shift the pipeline one stage down (no structural hazards: every
        # stage accepts a new token each cycle).
        for index in range(PIPELINE_DEPTH - 1, 0, -1):
            stages[index] = stages[index - 1]
        # Issue a new token unless stalled or done.
        issue = issued < operations
        if issue and stall_every and since_stall == stall_every:
            issue = False
            stall_cycles += 1
            since_stall = 0
        stages[0] = issue
        if issue:
            issued += 1
            since_stall += 1
        for name, token in zip(STAGE_NAMES, stages):
            if token:
                busy[name] += 1
    return PipelineReport(
        operations=operations,
        cycles=cycles,
        stall_cycles=stall_cycles,
        stage_busy_cycles=busy,
    )


def closed_form_layer_pipeline(
    config: ArchitectureConfig,
    layer: LayerSchedule,
    *,
    stall_every: int = 0,
) -> PipelineReport:
    """Closed-form :func:`simulate_layer_pipeline`, exact for every input.

    The while-loop's behaviour collapses to fill + stall algebra:

    * every token passes each stage exactly once (no structural hazards),
      so each stage is busy for exactly ``operations`` cycles;
    * one bubble is inserted after every ``stall_every`` issues *while
      issues remain*, so ``stalls = (operations - 1) // stall_every``;
    * the last token issues at cycle ``operations + stalls`` and retires
      ``PIPELINE_DEPTH`` cycles later, which is also when the loop exits.
    """
    if stall_every < 0:
        raise ConfigurationError(f"stall_every must be >= 0, got {stall_every}")
    operations = layer.compute_cycles
    if operations < 1:
        raise ConfigurationError("layer has no compute operations")
    stall_cycles = (operations - 1) // stall_every if stall_every else 0
    return PipelineReport(
        operations=operations,
        cycles=operations + stall_cycles + PIPELINE_DEPTH,
        stall_cycles=stall_cycles,
        stage_busy_cycles={name: operations for name in STAGE_NAMES},
    )
