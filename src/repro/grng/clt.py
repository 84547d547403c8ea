"""Central-limit-theorem GRNGs (§2.3 category 2, §4.1.1 reference design).

Two flavours:

* :class:`BinomialLfsrGrng` — the binomial approximation method that
  motivates the RLF design: clock a maximal-length LFSR and emit its
  popcount, which follows ``B(n, 1/2) ~= N(n/2, n/4)``.  This is the
  "LFSR + full-width parallel counter" reference whose hardware cost
  (huge register file + 120-full-adder counter) §4.1.2 sets out to remove;
  it is *functionally* the predecessor of the RLF-GRNG.
* :class:`CentralLimitGrng` — the classic sum-of-uniforms (Irwin–Hall)
  transformation method, the general CLT baseline.
"""

from __future__ import annotations

import math

import numpy as np

from repro.errors import ConfigurationError
from repro.grng.base import Grng
from repro.grng.rlf import RlfWindowKernel, standardize_codes
from repro.rng.parallel_counter import ParallelCounter
from repro.utils.bitops import bits_to_int
from repro.utils.seeding import spawn_generator


class BinomialLfsrGrng(Grng):
    """Popcount of a shifting LFSR: the §4.1.1 binomial method.

    Uses the paper's :class:`~repro.rng.lfsr.ShiftHeadLfsr` structure with
    the 255-entry tap set, stepped twice per emitted sample to mirror the
    double-step RLF (so the two designs are sample-for-sample comparable).

    Block draws run through the same kernel as the RLF-GRNG
    (:class:`~repro.grng.rlf.RlfWindowKernel`, one lane, one kernel cycle
    per emitted sample): the eq.-(9) shifting update with 1-based tap
    registers equals the stationary-state head-pointer update
    ``x(h + t) ^= x(h)`` with the taps as offsets (the equivalence the RLF
    tests prove bit for bit), and the popcount is shift-invariant, so the
    head-bit recurrence reproduces the per-step loop exactly while
    advancing ``min(taps)`` LFSR steps per vector XOR.
    :meth:`state_register` reconstructs the equivalent shifting-register
    view for tests and inspection.
    """

    def __init__(
        self,
        seed: int = 0,
        width: int = 255,
        inject_taps: tuple[int, ...] = (250, 252, 253),
        steps_per_sample: int = 2,
    ) -> None:
        if steps_per_sample < 1:
            raise ConfigurationError(
                f"steps_per_sample must be >= 1, got {steps_per_sample}"
            )
        rng = spawn_generator(seed, "binomial-lfsr")
        # Seed every state bit; a short seed would start the popcount far
        # from the binomial mean and take ~width cycles to mix in.
        bits = rng.integers(0, 2, size=width, dtype=np.uint8)
        if not bits.any():
            bits[0] = 1
        taps = tuple(sorted(inject_taps))
        for tap in taps:
            if not 1 <= tap < width:
                raise ConfigurationError(
                    f"inject tap {tap} must be in 1..{width - 1}"
                )
        # Stationary head-pointer representation: bit i of the integer
        # state (register i + 1) lives at array position (head + i) % width.
        self._state = bits[:, None].copy()  # (width, 1): one lane
        self._head = 0
        self._counts = np.array([int(bits.sum())], dtype=np.int64)
        # One kernel cycle = `steps_per_sample` LFSR steps, then a sample.
        self._kernel = RlfWindowKernel(width, taps, stride=steps_per_sample)
        self.width = width
        self.inject_taps = taps
        #: Cost of the naive realisation this class models (motivates RLF).
        self.parallel_counter = ParallelCounter(width)

    def state_register(self) -> int:
        """Current state as the shifting LFSR's integer register view."""
        rotated = np.roll(self._state[:, 0], -self._head)
        return int(bits_to_int(rotated))

    def generate_codes(self, count: int) -> np.ndarray:
        count = self._check_count(count)
        if count == 0:
            return np.empty(0, dtype=np.int64)
        block, self._head = self._kernel.advance(
            self._state, self._counts, self._head, count
        )
        return block[:, 0].astype(np.int64)

    def generate(self, count: int) -> np.ndarray:
        return standardize_codes(self.generate_codes(count), self.width)


class CentralLimitGrng(Grng):
    """Sum of ``k`` uniforms, standardized (Irwin–Hall approximation).

    ``sum(U_i) - k/2`` has variance ``k/12``; ``k = 12`` gives the classic
    "add twelve uniforms" generator.  Tail accuracy improves with ``k``.
    """

    def __init__(self, seed: int = 0, terms: int = 12) -> None:
        if terms < 2:
            raise ConfigurationError(f"terms must be >= 2, got {terms}")
        self.terms = terms
        self._rng = spawn_generator(seed, "central-limit")

    def generate(self, count: int) -> np.ndarray:
        count = self._check_count(count)
        total = self._rng.random((count, self.terms)).sum(axis=1)
        return (total - self.terms / 2.0) / math.sqrt(self.terms / 12.0)
