"""RAM-based Linear Feedback GRNG (RLF-GRNG), §4.1 of the paper.

The binomial method: a 255-bit maximal-length linear-feedback state has
i.i.d.-looking balanced bits, so its population count follows
``B(255, 1/2) ~= N(127.5, 63.75)`` (eq. 8 holds: 255 > 9).  One Gaussian
sample per cycle is simply the number of ones in the state.

The three hardware ideas reproduced here:

1. **RLF logic** (eq. 10, Fig. 3b/4): keep the state stationary in RAM (the
   *SeMem*) and move a head pointer instead of shifting 255 registers.  For
   each tap ``t``: ``x(h+t) ^= x(h)``, then advance ``h``.
   :class:`RlfLogic.single_step` implements this and is proven bit-exact
   against :class:`~repro.rng.lfsr.ShiftHeadLfsr` in the tests.
2. **Combined double-step update** (eqs. 12a-e, Fig. 5): two consecutive
   single steps merged into one cycle.  The five updated taps span offsets
   250..254, the two heads are ``h`` and ``h+1``, and the per-cycle output
   delta widens from +-3 to +-5, improving sample quality.  The buffer
   register carries the tap values across cycles so that steady state needs
   only 2 RAM reads (the two next head bits) and 2 RAM writes (the two
   updated taps leaving the buffer) per cycle — within the paper's claimed
   3-read/2-write budget — and the 3-block modulo-3 RAM banking (Fig. 6)
   never sees more than 2 accesses per block per cycle.
   :class:`RamTrace` records and checks this invariant every cycle.
3. **Incremental parallel counter** (Fig. 7): the popcount is not recomputed
   from 255 bits; the PC sums only the updated taps and accumulates the
   difference into a result register.  The initial popcount plays the role
   of the Initialization ROM contents in Fig. 8.

:class:`ParallelRlfGrng` vectorises ``m`` lanes sharing one indexer (one
SeMem word holds one bit per lane, exactly the Fig. 8 organisation) and
applies the rotating 4-way output multiplexers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.errors import ConfigurationError, MemoryPortConflictError
from repro.grng.base import Grng
from repro.utils.bitops import int_to_bits
from repro.utils.seeding import spawn_generator

RLF_WIDTH = 255
"""State width of the paper's RLF-GRNG (8-bit output codes)."""

RLF_INJECT_TAPS = (250, 252, 253)
"""Injection offsets quoted in §4.1.2 (from the 255-entry tap table)."""

#: The combined two-step update of eqs. (12a)-(12e): pairs of
#: (tap offset to update, head offset whose bit is XORed in).  Offset 253
#: appears twice because eq. (12d) XORs both heads into it.
DOUBLE_STEP_OPS: tuple[tuple[int, int], ...] = (
    (250, 0),
    (251, 1),
    (252, 0),
    (253, 0),
    (253, 1),
    (254, 1),
)

RAM_BLOCKS = 3
RAM_PORTS_PER_BLOCK = 2


class RlfWindowKernel:
    """Vectorised multi-cycle advance of RAM-based linear-feedback state.

    The per-cycle kernel (:meth:`ParallelRlfGrng._advance`) is exact but
    pays ~10 small NumPy calls per cycle.  This kernel instead follows the
    one bit every single step reads — the head bit — with all lanes packed
    into ``uint64`` words (one word holds 64 lanes of one step):

    * **Recurrence.**  With single-step taps ``T`` and width ``W``, the
      position read at step ``k`` was last read ``W`` steps earlier and has
      since been XORed with the head bits of steps ``k - t``, so the head
      bits obey ``r[k] = r[k - W] ^ XOR_{t in T} r[k - t]``.  The smallest
      lag is ``min(T)`` (250 for the paper's taps), so one vector XOR per
      tap advances ``min(T)`` steps of every lane at once.
    * **Codes.**  Just before step ``k`` the bit at head offset ``t`` is
      ``x_t = r[k + t - W] ^ XOR_{t' in T, t' > t} r[k + t - t']``, and the
      step changes the popcount by ``r[k] * sum_t (1 - 2 x_t)``.  The
      per-cycle sums are counted bit-sliced on the packed words, spread to
      one :attr:`code_dtype` field per lane (a byte for ``W <= 255``) and
      prefix-summed as ``uint64`` words: wrapping word arithmetic is exact
      field by field because every final count fits its field.
    * **Canonical state.**  ``state``, ``counts`` and ``head`` stay the
      generator's state (``step()`` and the fault injectors write them).
      Each call derives the ``W`` head bits that produced ``state`` by
      inverting the triangular map ``x = (I + A) r`` over GF(2) —
      ``(I + A)^-1 = (I + A)(I + A^2)(I + A^4)...``, and ``A^(2^i)`` is
      ``A`` with every shift scaled by ``2^i`` — and writes the final
      state back.

    ``stride`` single steps make one cycle (2 for the double-step design
    of eqs. 12a-e, which equals two single steps whenever
    :func:`double_step_ops` accepts the taps); a cycle emits the popcount
    after its last step.
    """

    def __init__(self, width: int, taps: tuple[int, ...], stride: int) -> None:
        if width > 0xFFFF:
            raise ConfigurationError(f"width must be <= 65535, got {width}")
        self.width = width
        self.taps = tuple(sorted(int(tap) for tap in taps))
        self.stride = stride
        #: Field type of one lane's code: the popcount never exceeds ``width``.
        self.code_dtype = np.min_scalar_type(width)
        # Shift sets of the inverse-map factors (I + A^(2^i)): A XORs in
        # the virtual head bit W - t positions further on, for each tap t.
        shifts = sorted(width - tap for tap in self.taps)
        self._solve_shifts: list[list[int]] = []
        scale = 1
        while scale * shifts[0] < width:
            self._solve_shifts.append([s * scale for s in shifts if s * scale < width])
            scale *= 2

    def cycles_until_write(self, head: int, rows: np.ndarray, window: int) -> int:
        """Cycles until (and including) the first tap write landing on ``rows``.

        ``rows`` holds state positions (sorted or not); the result is the
        largest window ``w <= window`` such that only its *final* cycle
        writes to one of them (``window`` itself when none do).  The fault
        injectors use this to bound windows at the first write onto a
        stuck row — the only event that makes a per-cycle re-pin
        observable — while keeping the write-position algebra with the
        kernel that owns it: single step ``k`` writes ``head + k + t``.
        """
        rows = np.asarray(rows, dtype=np.int64)
        if rows.size == 0:
            return window
        taps = np.array(self.taps, dtype=np.int64)
        first_step = int(((rows[:, None] - head - taps[None, :]) % self.width).min())
        return min(window, first_step // self.stride + 1)

    def advance(
        self, state: np.ndarray, counts: np.ndarray, head: int, cycles: int
    ) -> tuple[np.ndarray, int]:
        """Advance ``cycles`` cycles; return ``(per-cycle counts, new head)``.

        ``state`` (``(width, lanes)`` 0/1 ``uint8``) and ``counts``
        (``(lanes,)`` ``int64``) are updated in place; the returned block
        has shape ``(cycles, lanes)`` and dtype :attr:`code_dtype`, with
        row ``j`` equal to the lane popcounts after cycle ``j`` — exactly
        the sequence repeated single-cycle advances would produce.
        """
        width, taps, stride = self.width, self.taps, self.stride
        lanes = state.shape[1]
        if cycles == 0:
            return np.empty((0, lanes), dtype=self.code_dtype), head
        words = -(-lanes // 64)
        steps = cycles * stride
        # Head bits: rows [0, W) are the virtual bits behind `state`,
        # row W + k is the bit step k reads.
        bits = np.empty((width + steps, words), dtype=np.uint64)
        packed = np.zeros((width, words * 8), dtype=np.uint8)
        used = -(-lanes // 8)
        packed[: width - head, :used] = np.packbits(state[head:], axis=1, bitorder="little")
        packed[width - head :, :used] = np.packbits(state[:head], axis=1, bitorder="little")
        virtual = packed.view(np.uint64)
        for shifts in self._solve_shifts:
            before = virtual.copy()
            for shift in shifts:
                virtual[: width - shift] ^= before[shift:]
        bits[:width] = virtual
        for first in range(width, width + steps, taps[0]):
            last = min(first + taps[0], width + steps)
            out = bits[first:last]
            np.copyto(out, bits[first - width : last - width])
            for tap in taps:
                np.bitwise_xor(out, bits[first - tap : last - tap], out=out)
        heads = bits[width:]
        # Step k's popcount delta is |T| * r - 2 * (number of taps holding
        # a one that r flips to zero); both counts are summed per cycle.
        flips = []
        for index, tap in enumerate(taps):
            x = bits[tap : tap + steps].copy()
            for later in taps[index + 1 :]:
                x ^= bits[width + tap - later : width + tap - later + steps]
            flips.append((x & heads).reshape(cycles, stride, words))
        per_cycle = heads.reshape(cycles, stride, words)
        reads = _bit_count([per_cycle[:, j] for j in range(stride)])
        ones_lost = _bit_count([f[:, j] for f in flips for j in range(stride)])
        delta = self._spread(reads[0], used)
        for digit, plane in enumerate(reads[1:], 1):
            delta += self._spread(plane, used) << np.uint64(digit)
        delta *= np.uint64(len(taps))
        for digit, plane in enumerate(ones_lost):
            delta -= self._spread(plane, used) << np.uint64(digit + 1)
        base = np.zeros(delta.shape[1] * 8 // self.code_dtype.itemsize, dtype=self.code_dtype)
        base[:lanes] = counts
        delta[0] += base.view(np.uint64)
        block = np.cumsum(delta, axis=0, out=delta).view(self.code_dtype)[:, :lanes]
        counts[:] = block[-1]
        # Final state: x_j = r[K + j - W] ^ XOR_{t > j} r[K + j - t].
        final = bits[steps : steps + width].copy()
        for tap in taps:
            final[:tap] ^= bits[steps + width - tap : steps + width]
        rows = np.unpackbits(final.view(np.uint8), axis=1, count=lanes, bitorder="little")
        head = (head + steps) % width
        state[head:] = rows[: width - head]
        state[:head] = rows[width - head :]
        return block, head

    def _spread(self, plane: np.ndarray, lane_bytes: int) -> np.ndarray:
        """Packed lane bits -> ``uint64`` words of one :attr:`code_dtype` field per lane."""
        used = np.ascontiguousarray(plane.view(np.uint8)[:, :lane_bytes])
        fields = np.unpackbits(used.reshape(-1), bitorder="little")
        return fields.astype(self.code_dtype, copy=False).view(np.uint64).reshape(len(plane), -1)


def _bit_count(planes: list[np.ndarray]) -> list[np.ndarray]:
    """Bit-sliced sum of 0/1 bit planes: the binary digits, least significant first."""
    digits: list[np.ndarray] = []
    for added, plane in enumerate(planes, 1):
        carry = plane
        for index, digit in enumerate(digits):
            digits[index], carry = digit ^ carry, digit & carry
        if added.bit_length() > len(digits):
            digits.append(carry)
    return digits


def double_step_ops(width: int, inject_taps: tuple[int, ...]) -> tuple[tuple[int, int], ...]:
    """Merge two consecutive eq.-(10) updates into one cycle's operations.

    Step one (head ``h``) XORs ``x(h)`` into every ``x(h+t)``; step two
    (head ``h+1``) XORs ``x(h+1)`` into every ``x(h+t+1)``.  The merge is
    valid only if neither head position is itself updated, i.e. every tap
    satisfies ``2 <= t <= width - 2``; for the paper's 255-bit taps this
    reproduces eqs. (12a)-(12e) exactly (see :data:`DOUBLE_STEP_OPS`).
    """
    for tap in inject_taps:
        if not 2 <= tap <= width - 2:
            raise ConfigurationError(
                f"tap {tap} cannot be double-stepped in a width-{width} RLF"
            )
    first = tuple((tap, 0) for tap in inject_taps)
    second = tuple(((tap + 1) % width, 1) for tap in inject_taps)
    return tuple(sorted(first + second))


@dataclass
class RamTrace:
    """Per-cycle RAM access bookkeeping for the 3-block SeMem scheme.

    The Fig. 6 scheme stores seed bit ``i`` in block ``i % 3``.  Each block
    is a 2-port RAM, so at most :data:`RAM_PORTS_PER_BLOCK` accesses may
    target one block in one cycle; :meth:`end_cycle` enforces this.
    """

    blocks: int = RAM_BLOCKS
    ports_per_block: int = RAM_PORTS_PER_BLOCK
    cycle_reads: int = 0
    cycle_writes: int = 0
    total_reads: int = 0
    total_writes: int = 0
    cycles: int = 0
    _block_accesses: dict[int, int] = field(default_factory=dict)

    def begin_cycle(self) -> None:
        self.cycle_reads = 0
        self.cycle_writes = 0
        self._block_accesses = {}

    def read(self, position: int) -> None:
        self.cycle_reads += 1
        self.total_reads += 1
        self._bump(position)

    def write(self, position: int) -> None:
        self.cycle_writes += 1
        self.total_writes += 1
        self._bump(position)

    def _bump(self, position: int) -> None:
        block = position % self.blocks
        self._block_accesses[block] = self._block_accesses.get(block, 0) + 1

    def end_cycle(self) -> None:
        self.cycles += 1
        for block, accesses in self._block_accesses.items():
            if accesses > self.ports_per_block:
                raise MemoryPortConflictError(
                    f"block {block} saw {accesses} accesses in one cycle "
                    f"(2-port RAM allows {self.ports_per_block})"
                )

    @property
    def reads_per_cycle(self) -> float:
        return self.total_reads / self.cycles if self.cycles else 0.0

    @property
    def writes_per_cycle(self) -> float:
        return self.total_writes / self.cycles if self.cycles else 0.0


class RlfLogic:
    """One lane of RAM-based linear feedback with an incremental popcount.

    Parameters
    ----------
    width:
        State size in bits; the paper's design uses 255 (8-bit output).
    inject_taps:
        Feedback injection offsets relative to the head (eq. 10).
    seed_bits:
        Initial state as an integer (LSB = position 0) or an array of 0/1.
        Must be non-zero — the all-zero state is a fixed point of any
        XOR-linear update.
    track_ram:
        Record the steady-state RAM access pattern in :attr:`ram_trace`
        and enforce the 3-block port budget each cycle.
    """

    def __init__(
        self,
        width: int = RLF_WIDTH,
        inject_taps: tuple[int, ...] = RLF_INJECT_TAPS,
        seed_bits: "int | np.ndarray" = 1,
        *,
        track_ram: bool = False,
    ) -> None:
        if width < 8:
            raise ConfigurationError(f"width must be >= 8, got {width}")
        self.width = width
        self.inject_taps = tuple(sorted(inject_taps))
        for tap in self.inject_taps:
            if not 0 < tap < width:
                raise ConfigurationError(f"tap offset {tap} outside 1..{width - 1}")
        if isinstance(seed_bits, (int, np.integer)):
            state = int_to_bits(int(seed_bits), width)
        else:
            state = np.asarray(seed_bits, dtype=np.uint8).copy()
            if state.shape != (width,):
                raise ConfigurationError(
                    f"seed_bits must have shape ({width},), got {state.shape}"
                )
        if not state.any():
            raise ConfigurationError("RLF seed must be non-zero")
        self.state = state
        self.head = 0
        self._double_ops: tuple[tuple[int, int], ...] | None = None
        # Incremental result register: seeded from the precomputed popcount,
        # the software analog of the Initialization ROM of Fig. 8.
        self.count = int(state.sum())
        self.ram_trace: RamTrace | None = RamTrace() if track_ram else None

    # ------------------------------------------------------------------
    def _xor_into(self, tap_offset: int, head_offset: int) -> int:
        """Apply ``x(h+t) ^= x(h+ho)``; return the popcount delta (-1/0/+1)."""
        pos = (self.head + tap_offset) % self.width
        src = (self.head + head_offset) % self.width
        before = int(self.state[pos])
        self.state[pos] ^= self.state[src]
        return int(self.state[pos]) - before

    def single_step(self) -> int:
        """One eq.-(10) update (head advances by 1); returns the new count.

        This is the unoptimized one-step-per-cycle form whose output delta
        is bounded by the number of taps (+-3 for the 255-bit design).
        """
        delta = 0
        for tap in self.inject_taps:
            delta += self._xor_into(tap, 0)
        self.head = (self.head + 1) % self.width
        self.count += delta
        return self.count

    def step(self) -> int:
        """One combined double-step cycle (eqs. 12a-e); returns the new count.

        Equivalent to two :meth:`single_step` calls — the tests assert this
        bit for bit — but executed as one cycle with the buffered-register
        RAM schedule.
        """
        if self._double_ops is None:
            self._double_ops = double_step_ops(self.width, self.inject_taps)
        trace = self.ram_trace
        if trace is not None:
            trace.begin_cycle()
            # Steady state: the buffer register already holds the five tap
            # values and both head bits; only the next cycle's two head bits
            # are fetched, and the two updated taps that leave the buffer
            # are written back.
            trace.read((self.head + 2) % self.width)
            trace.read((self.head + 3) % self.width)
        delta = 0
        for tap_offset, head_offset in self._double_ops:
            delta += self._xor_into(tap_offset, head_offset)
        if trace is not None:
            trace.write((self.head + 250) % self.width)
            trace.write((self.head + 251) % self.width)
            trace.end_cycle()
        self.head = (self.head + 2) % self.width
        self.count += delta
        return self.count

    def popcount(self) -> int:
        """Recompute the popcount from the full state (test oracle only).

        The hardware never does this — it maintains :attr:`count`
        incrementally; tests assert both always agree.
        """
        return int(self.state.sum())

    @classmethod
    def from_seed(cls, seed: int, **kwargs) -> "RlfLogic":
        """Construct with a random non-zero state drawn from ``seed``."""
        width = kwargs.pop("width", RLF_WIDTH)
        rng = spawn_generator(seed, "rlf-lane")
        bits = rng.integers(0, 2, size=width, dtype=np.uint8)
        if not bits.any():
            bits[0] = 1
        return cls(width=width, seed_bits=bits, **kwargs)


def standardize_codes(codes: np.ndarray, width: int) -> np.ndarray:
    """Map binomial popcount codes to approximately ``N(0, 1)`` floats.

    ``B(width, 1/2)`` has mean ``width/2`` and variance ``width/4``.
    """
    mean = width / 2.0
    sigma = math.sqrt(width / 4.0)
    return (np.asarray(codes, dtype=np.float64) - mean) / sigma


class RlfGrng(Grng):
    """Single-lane RLF-GRNG: one 8-bit Gaussian code per cycle.

    Note: a single lane's output is a bounded-increment random walk (the
    per-cycle delta is at most +-5), so *consecutive* samples from one lane
    are correlated.  The deployed configuration is
    :class:`ParallelRlfGrng`, where consumers draw round-robin across many
    lanes; this class exists for unit tests and single-stream analysis.
    """

    def __init__(
        self,
        seed: int = 0,
        width: int = RLF_WIDTH,
        *,
        double_step: bool = True,
        track_ram: bool = False,
    ) -> None:
        self._logic = RlfLogic.from_seed(seed, width=width, track_ram=track_ram)
        self._double_step = double_step

    @property
    def logic(self) -> RlfLogic:
        return self._logic

    def generate_codes(self, count: int) -> np.ndarray:
        count = self._check_count(count)
        step = self._logic.step if self._double_step else self._logic.single_step
        return np.fromiter((step() for _ in range(count)), dtype=np.int64, count=count)

    def generate(self, count: int) -> np.ndarray:
        return standardize_codes(self.generate_codes(count), self._logic.width)


class ParallelRlfGrng(Grng):
    """The Fig. 8 parallel RLF-GRNG: ``lanes`` LF-updaters, one shared indexer.

    The SeMem is modelled as a ``(width, lanes)`` bit matrix — one RAM word
    per seed position, one bit per lane — so a single address stream (the
    shared indexer/controller) drives every lane, exactly the property that
    makes the design cheap to parallelise.  Outputs pass through rotating
    4-way multiplexers ("selected sequentially to four outputs, with
    different orders") before being handed to consumers.

    ``lanes`` must be a multiple of 4 to fill the output multiplexers.
    """

    def __init__(
        self,
        lanes: int = 64,
        seed: int = 0,
        width: int = RLF_WIDTH,
        inject_taps: tuple[int, ...] = RLF_INJECT_TAPS,
        *,
        double_step: bool = True,
        multiplex_outputs: bool = True,
    ) -> None:
        if lanes <= 0 or lanes % 4 != 0:
            raise ConfigurationError(f"lanes must be a positive multiple of 4, got {lanes}")
        if width < 8:
            raise ConfigurationError(f"width must be >= 8, got {width}")
        self.lanes = lanes
        self.width = width
        self.inject_taps = tuple(sorted(inject_taps))
        for tap in self.inject_taps:
            if not 0 < tap < width:
                raise ConfigurationError(f"tap offset {tap} outside 1..{width - 1}")
        self._double_ops = double_step_ops(width, self.inject_taps)
        self._double_step = double_step
        self._multiplex = multiplex_outputs
        rng = spawn_generator(seed, "parallel-rlf")
        state = rng.integers(0, 2, size=(width, lanes), dtype=np.uint8)
        # An all-zero lane would be stuck at zero forever; flip one bit.
        dead = ~state.any(axis=0)
        state[0, dead] = 1
        self.state = state
        self.head = 0
        self.counts = state.sum(axis=0).astype(np.int64)  # Initialization ROM
        self.cycle = 0
        # Gathered form of the cycle's XOR schedule: the written tap
        # positions never coincide with the head positions that source the
        # XORs, so one cycle's sequential op list collapses to a single
        # gather/XOR/scatter — distinct written taps, each XORed with the
        # parity of its head sources.  This is the cycle kernel of
        # :meth:`step`, the per-cycle reference the block path is held to.
        ops = self._double_ops if double_step else tuple((t, 0) for t in self.inject_taps)
        head_count = 2 if double_step else 1
        taps = sorted({tap for tap, _ in ops})
        parity = np.zeros((len(taps), head_count), dtype=np.uint8)
        for tap, head_offset in ops:
            parity[taps.index(tap), head_offset] ^= 1
        self._cycle_taps = np.array(taps, dtype=np.int64)
        self._cycle_parity = parity
        self._head_offsets = np.arange(head_count, dtype=np.int64)
        self._head_stride = 2 if double_step else 1
        # Block draws follow the head-bit recurrence instead (see
        # RlfWindowKernel); a double-step cycle is two single steps.
        self._kernel = RlfWindowKernel(width, self.inject_taps, self._head_stride)

    # ------------------------------------------------------------------
    def _advance(self) -> None:
        """One cycle's state update (gathered XOR kernel); no output."""
        pos = (self.head + self._cycle_taps) % self.width
        heads = self.state[(self.head + self._head_offsets) % self.width]
        # XOR each written tap with the parity-selected head bits.
        xor_vec = self._cycle_parity[:, 0, None] * heads[0]
        for h in range(1, heads.shape[0]):
            xor_vec = xor_vec ^ (self._cycle_parity[:, h, None] * heads[h])
        rows = self.state[pos]
        updated = rows ^ xor_vec
        self.state[pos] = updated
        self.counts += updated.sum(axis=0, dtype=np.int64) - rows.sum(
            axis=0, dtype=np.int64
        )
        self.head = (self.head + self._head_stride) % self.width

    def step(self) -> np.ndarray:
        """Advance one cycle; return the per-lane codes after multiplexing."""
        self._advance()
        codes = self.counts.copy()
        if self._multiplex:
            rotation = self.cycle % 4
            grouped = codes.reshape(-1, 4)
            codes = np.roll(grouped, rotation, axis=1).reshape(-1)
        self.cycle += 1
        return codes

    def _multiplex_block(self, raw: np.ndarray) -> np.ndarray:
        """Apply the rotating 4-way output muxes to a ``(cycles, lanes)`` block.

        Mutates ``raw`` in place, advances :attr:`cycle` by the block
        length, and returns ``raw`` — the hoisted-out-of-the-cycle-loop
        form of :meth:`step`'s per-cycle rotation, shared by the clean
        block path and the fault injector.  A group of four lanes is one
        word of four code fields, and rolling the group by ``k`` lanes
        rotates that word left by ``k`` fields; every fourth row shares a
        rotation.
        """
        if self._multiplex:
            field = 8 * raw.itemsize
            groups = raw.view(np.dtype(f"u{raw.itemsize * 4}"))
            for rotation in range(1, 4):
                rows = groups[(rotation - self.cycle) % 4 :: 4]
                shift = field * rotation
                rows[...] = (rows << shift) | (rows >> (4 * field - shift))
        self.cycle += raw.shape[0]
        return raw

    def generate_codes(self, count: int) -> np.ndarray:
        """Block path: the head-bit recurrence kernel, then the muxes.

        Bit-exact with :meth:`generate_codes_loop` (codes, state, counts,
        head): :class:`RlfWindowKernel` advances every cycle the request
        needs in one call, and the per-cycle output copy and rotating
        4-way multiplexers are hoisted out of the cycle loop and applied
        to the whole ``(cycles, lanes)`` block.
        """
        count = self._check_count(count)
        cycles = -(-count // self.lanes)
        raw, self.head = self._kernel.advance(self.state, self.counts, self.head, cycles)
        return self._multiplex_block(raw).reshape(-1)[:count].astype(np.int64)

    def generate_codes_loop(self, count: int) -> np.ndarray:
        """Per-cycle reference: one :meth:`step` per cycle."""
        count = self._check_count(count)
        cycles = -(-count // self.lanes)
        out = np.empty((cycles, self.lanes), dtype=np.int64)
        for cycle in range(cycles):
            out[cycle] = self.step()
        return out.reshape(-1)[:count]

    def generate(self, count: int) -> np.ndarray:
        return standardize_codes(self.generate_codes(count), self.width)
