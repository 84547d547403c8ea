"""Fault injection for the hardware GRNG models.

Failure-injection study: what happens to sample quality when SeMem bits or
Wallace pool entries develop stuck-at faults?  The RLF design's state is a
255-bit linear-feedback vector — a stuck bit both biases the popcount and
corrupts the feedback stream — while a stuck Wallace pool entry keeps
re-entering the orthogonal mixing.  These injectors let the test suite and
benches quantify the degradation and check that quality metrics *detect*
the faults (a silent-corruption check for the quality suite itself).

Both injectors run windowed: stuck-row re-pinning is folded into the
block kernels of the clean generators (the head-bit recurrence of
:class:`~repro.grng.rlf.RlfWindowKernel` for the RLF SeMem, the
per-period gather/scatter schedule of
:meth:`~repro.grng.bnnwallace.BnnWallaceGrng.generate` for the Wallace
pools), with each window cut at the first write landing on a stuck row
(RLF windows have no other bound: the kernel advances any number of
cycles per call).  Up to that write every per-cycle re-pin is a no-op (a
pinned row only changes value when written), so pinning once at the
window start and once after the cut reproduces the per-cycle loop bit for
bit — state, incremental counts and emitted codes.  The per-cycle loops are kept as
tested references (:meth:`FaultyRlfGrng.generate_codes_loop`,
:meth:`FaultyBnnWallaceGrng.generate_loop`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError
from repro.grng.base import Grng
from repro.grng.bnnwallace import BnnWallaceGrng
from repro.grng.rlf import ParallelRlfGrng
from repro.utils.seeding import spawn_generator


@dataclass(frozen=True)
class StuckAtFault:
    """One stuck-at fault: a memory location pinned to a value."""

    location: int
    value: float  # 0/1 for bit memories; any finite float for Wallace pools


class FaultyRlfGrng(Grng):
    """RLF-GRNG with stuck-at faults injected into SeMem positions.

    ``faults`` pin whole SeMem *words* (one bit per lane, matching the
    physical layout: a defective RAM row hits every lane at once).
    """

    def __init__(
        self,
        faults: list[StuckAtFault],
        lanes: int = 64,
        seed: int = 0,
    ) -> None:
        self._grng = ParallelRlfGrng(lanes=lanes, seed=seed)
        for fault in faults:
            if not 0 <= fault.location < self._grng.width:
                raise ConfigurationError(
                    f"fault location {fault.location} outside SeMem depth "
                    f"{self._grng.width}"
                )
            if fault.value not in (0, 1):
                raise ConfigurationError("SeMem faults must pin to 0 or 1")
        self.faults = list(faults)
        self._stuck_rows = np.array(
            sorted({fault.location for fault in faults}), dtype=np.int64
        )

    def _apply_faults(self) -> None:
        grng = self._grng
        for fault in self.faults:
            row = grng.state[fault.location]
            delta = int(fault.value) - row.astype(np.int64)
            grng.counts += delta
            grng.state[fault.location] = int(fault.value)

    def generate_codes(self, count: int) -> np.ndarray:
        """Windowed path: stuck-row re-pinning folded into the block kernel.

        Bit-exact with :meth:`generate_codes_loop` (state, counts, codes):
        pins are applied at every window start, and each window ends at
        the first tap write onto a stuck row — the only event that makes
        an intermediate per-cycle pin observable.  Without faults the
        whole request is one window.
        """
        count = self._check_count(count)
        if count == 0:
            return np.empty(0, dtype=np.int64)
        grng = self._grng
        kernel = grng._kernel
        lanes = grng.lanes
        cycles = -(-count // lanes)
        raw = np.empty((cycles, lanes), dtype=kernel.code_dtype)
        done = 0
        while done < cycles:
            self._apply_faults()
            window = kernel.cycles_until_write(
                grng.head, self._stuck_rows, cycles - done
            )
            block, grng.head = kernel.advance(
                grng.state, grng.counts, grng.head, window
            )
            raw[done : done + window] = block
            done += window
        return grng._multiplex_block(raw).reshape(-1)[:count].astype(np.int64)

    def generate_codes_loop(self, count: int) -> np.ndarray:
        """Per-cycle reference: re-pin the stuck rows before every read."""
        count = self._check_count(count)
        if count == 0:
            return np.empty(0, dtype=np.int64)
        lanes = self._grng.lanes
        cycles = -(-count // lanes)
        out = np.empty(cycles * lanes, dtype=np.int64)
        for i in range(cycles):
            self._apply_faults()      # the row is stuck before every read
            out[i * lanes : (i + 1) * lanes] = self._grng.step()
        return out[:count]

    def generate(self, count: int) -> np.ndarray:
        from repro.grng.rlf import standardize_codes

        return standardize_codes(self.generate_codes(count), self._grng.width)


class FaultyBnnWallaceGrng(Grng):
    """BNNWallace-GRNG with stuck pool entries (unit 0's pool).

    A stuck entry keeps feeding the same value into every transform that
    reads it; because the transform is orthogonal and energy-preserving,
    a large stuck value inflates the output variance persistently — the
    signature the quality suite must catch.  Pin values must be finite:
    a NaN/inf pin would poison every downstream quality metric with no
    signal, so it is rejected at construction.
    """

    def __init__(
        self,
        faults: list[StuckAtFault],
        units: int = 8,
        pool_size: int = 256,
        seed: int = 0,
    ) -> None:
        self._grng = BnnWallaceGrng(units=units, pool_size=pool_size, seed=seed)
        for fault in faults:
            if not 0 <= fault.location < pool_size:
                raise ConfigurationError(
                    f"fault location {fault.location} outside pool size {pool_size}"
                )
            if not math.isfinite(fault.value):
                raise ConfigurationError(
                    f"pool fault values must be finite, got {fault.value!r} "
                    f"at location {fault.location}"
                )
        self.faults = list(faults)
        self._ends = self._grng._cut_after({fault.location for fault in faults})

    def _apply_faults(self) -> None:
        for fault in self.faults:
            self._grng.pools[0, fault.location] = fault.value

    def generate(self, count: int) -> np.ndarray:
        """Scheduled path, bit-exact with :meth:`generate_loop`.

        Rides the clean generator's schedule, re-pinning before every
        window, with each window also cut after the first cycle whose slot
        group holds a stuck entry: a window never reads a slot it wrote,
        so until that write lands every per-cycle re-pin is a no-op.
        """
        return self._grng._generate(
            self._check_count(count), ends=self._ends, pin=self._apply_faults
        )

    def generate_loop(self, count: int) -> np.ndarray:
        """Per-cycle reference: re-pin the stuck entries before every cycle."""
        count = self._check_count(count)
        if count == 0:
            return np.empty(0)
        per_cycle = self._grng.units * 4
        cycles = -(-count // per_cycle)
        out = np.empty(cycles * per_cycle)
        for i in range(cycles):
            self._apply_faults()
            out[i * per_cycle : (i + 1) * per_cycle] = self._grng.step()
        return out[:count]


def random_seu_faults(
    count: int, depth: int, seed: int = 0, *, binary: bool = True
) -> list[StuckAtFault]:
    """Random single-event-upset style stuck-at faults over ``depth`` rows.

    Locations are distinct, so ``count`` may not exceed ``depth`` — a
    larger request raises instead of silently capping the fault load.
    """
    if count < 0 or depth < 1:
        raise ConfigurationError("count must be >= 0 and depth >= 1")
    if count > depth:
        raise ConfigurationError(
            f"cannot place {count} distinct faults over {depth} rows"
        )
    rng = spawn_generator(seed, "seu-faults")
    locations = rng.choice(depth, size=count, replace=False)
    return [
        StuckAtFault(
            location=int(loc),
            value=float(rng.integers(0, 2)) if binary else float(rng.normal(0, 3)),
        )
        for loc in locations
    ]
