"""BNN-oriented Wallace GRNG (§4.2.2) and the Wallace-NSS ablation.

Hardware Wallace has two classic drawbacks: the pool must be large (memory)
and outputs correlate unless many transform passes are run (latency).  The
paper's fix is **sharing and shifting**: ``N`` Wallace Units each own a
small pool, and every generated quadruple is written back *one unit over*
(unit ``i`` writes into unit ``i+1 mod N``'s pool).  Generated numbers
therefore flow through all units, the small pools behave as one large pool
(stability of ``(mu, sigma)``), and cross-unit mixing breaks the
correlations — with *no* extra transform loops and no address-randomising
RNG.

:class:`WallaceNssGrng` is the paper's straw man ("hardware Wallace NSS"):
one unit, sequential addressing, no sharing/shifting, no multi-loop.  Each
pool slot group then evolves by repeatedly applying the same orthogonal
matrix — a deterministic orbit — which is why Fig. 15 shows it failing
every randomness test.
"""

from __future__ import annotations

import functools
from bisect import bisect_right
from typing import Callable, Iterable

import numpy as np

from repro.errors import ConfigurationError
from repro.grng.base import Grng
from repro.grng.wallace import hadamard_transform
from repro.utils.seeding import spawn_generator


class BnnWallaceGrng(Grng):
    """The proposed hardware Wallace generator with sharing and shifting.

    Parameters
    ----------
    units:
        Number of Wallace Units operating in lockstep (the paper's
        evaluation uses 8; with 64 parallel outputs, 16).
    pool_size:
        Gaussians per unit pool (paper: 256).  Must be a multiple of 4.
    seed:
        Seeds the initial pools (drawn from a software sampler, as in the
        paper's setup).

    Per cycle each unit reads four consecutive numbers from its own pool at
    a shared address counter, applies eq. (13), emits the four results, and
    writes them into the *next* unit's pool at the same addresses.  The
    address phase advances by one every cycle, so consecutive passes over
    the pool group different quadruples — without this the pass-to-pass
    grouping repeats and the output stream carries a strong correlation at
    the pool-pass lag (measured: lag-8192 autocorrelation 0.24 with a
    wrap-only phase vs 0.01 with the per-cycle phase; see the quality
    benches).  In hardware this is one extra increment on the shared
    address counter.
    """

    def __init__(self, units: int = 8, pool_size: int = 256, seed: int = 0) -> None:
        if units < 1:
            raise ConfigurationError(f"units must be >= 1, got {units}")
        if pool_size < 8 or pool_size % 4 != 0:
            raise ConfigurationError(
                f"pool_size must be a multiple of 4 and >= 8, got {pool_size}"
            )
        self.units = units
        self.pool_size = pool_size
        self.pools = spawn_generator(seed, "bnnwallace-pools").standard_normal(
            (units, pool_size)
        )
        self._addr = 0
        self._phase = 0

    @property
    def total_pool_size(self) -> int:
        """Memory footprint in numbers — ``units * pool_size``.

        The sharing scheme makes this behave like one pool of the same
        total size, the source of the paper's "2X memory savings".
        """
        return self.units * self.pool_size

    def _slots(self) -> np.ndarray:
        """The four pool addresses every unit touches this cycle."""
        base = self._addr + self._phase
        return (base + np.arange(4)) % self.pool_size

    def step(self) -> np.ndarray:
        """One cycle: returns ``units * 4`` freshly generated numbers."""
        slots = self._slots()
        quads = self.pools[:, slots]                      # (units, 4) reads
        generated = hadamard_transform(quads)             # eq. (13)
        # Sharing and shifting: the concatenated output stream is shifted by
        # ONE NUMBER before write-back, so each unit stores three of its own
        # outputs plus one from its neighbour.  Quadruples are thereby split
        # across units every cycle — the mixing that makes the small pools
        # act as one large pool.
        shifted = np.roll(generated.reshape(-1), 1).reshape(self.units, 4)
        self.pools[:, slots] = shifted
        self._addr += 4
        if self._addr >= self.pool_size:
            self._addr = 0
        self._phase = (self._phase + 1) % self.pool_size
        return generated.reshape(-1)

    def generate(self, count: int) -> np.ndarray:
        """Scheduled block path, bit-exact with :meth:`generate_loop`."""
        return self._generate(self._check_count(count))

    def _generate(
        self,
        count: int,
        ends: tuple[int, ...] | None = None,
        pin: Callable[[], None] | None = None,
    ) -> np.ndarray:
        """Run whole cycles as dependency-free windows of :func:`_schedule`.

        No cycle in a window reads a slot written earlier in the same
        window, so each window is one gather from the pre-window pools,
        eq. (13) on the gathered quadruples, and one scatter of the
        shifted write-backs.  The fault injector's hooks: ``ends`` refines
        the schedule's window ends (see :meth:`_cut_after`) and ``pin``
        runs before every window.  ``count`` is already validated.
        """
        if count == 0:
            return np.empty(0)
        units, pool_size = self.units, self.pool_size
        schedule_ends, gather, scatter = _schedule(units, pool_size)
        ends = ends or schedule_ends
        cycles = -(-count // (4 * units))
        out = np.empty((cycles * units, 4))
        flat = self.pools.reshape(-1)
        phase = self._phase
        row = 0
        while row < out.shape[0]:
            if pin is not None:
                pin()
            stop = min(ends[bisect_right(ends, phase)], phase + (out.shape[0] - row) // units)
            cols = slice(phase * units, stop * units)
            q = np.take(flat, gather[:, cols])
            t = q[0] + q[1]
            t += q[2]
            t += q[3]
            t *= 0.5
            rows = out[row : row + cols.stop - cols.start]
            np.subtract(t, q[0], out=rows[:, 0])
            np.subtract(t, q[1], out=rows[:, 1])
            np.subtract(q[2], t, out=rows[:, 2])
            np.subtract(q[3], t, out=rows[:, 3])
            flat[scatter[cols]] = rows
            row += rows.shape[0]
            phase = stop % pool_size
        self._phase = phase
        self._addr = 4 * (phase % (pool_size // 4))
        return out.reshape(-1)[:count]

    def _cut_after(self, slots: Iterable[int]) -> tuple[int, ...]:
        """Schedule window ends plus a cut after every cycle touching ``slots``."""
        ends, gather, _ = _schedule(self.units, self.pool_size)
        touches = np.isin(gather[:, :: self.units], list(slots)).any(axis=0)
        return tuple(sorted(set(ends).union((np.flatnonzero(touches) + 1).tolist())))

    def generate_loop(self, count: int) -> np.ndarray:
        """Per-cycle reference: one :meth:`step` per hardware cycle."""
        return _step_loop(self.step, self._check_count(count), 4 * self.units)


@functools.lru_cache(maxsize=None)
def _schedule(units: int, pool_size: int) -> tuple[tuple[int, ...], np.ndarray, np.ndarray]:
    """One period of :class:`BnnWallaceGrng` cycles as gather/scatter windows.

    Cycle ``c`` touches slots ``5c .. 5c+3 (mod pool_size)`` of every unit
    (address counter ``4c``, phase ``c``), and ``(addr, phase)`` returns to
    ``(0, 0)`` after ``pool_size`` cycles, so the slot sequence is periodic.
    Returns the cycle at which each greedy window ends — a window ends at
    the first cycle reading a slot written earlier in it — and two index
    arrays into ``pools.reshape(-1)``: a quad-major ``(4, pool_size *
    units)`` gather whose column ``c * units + u`` reads unit ``u``'s
    quadruple of cycle ``c``, and the matching ``(pool_size * units, 4)``
    scatter in output-stream order with the one-number shift of
    :meth:`BnnWallaceGrng.step` folded in (row-major, so the write-back
    takes the contiguous output rows directly).  Cached and read-only:
    serving builds a fresh generator for every weight stack.
    """
    slots = (5 * np.arange(pool_size)[:, None] + np.arange(4)) % pool_size
    ends: list[int] = []
    written = np.zeros(pool_size, dtype=bool)
    for cycle, group in enumerate(slots):
        if written[group].any():
            ends.append(cycle)
            written[:] = False
        written[group] = True
    ends.append(pool_size)
    # reads[c, 4u + j] is unit u's j-th read of cycle c; result m of a
    # cycle is written back where result m + 1 was read from.
    reads = (np.arange(units)[:, None] * pool_size + slots[:, None, :]).reshape(pool_size, -1)
    gather = np.ascontiguousarray(reads.reshape(-1, 4).T, dtype=np.int64)
    scatter = np.roll(reads, -1, axis=1).reshape(-1, 4).astype(np.int64)
    gather.flags.writeable = False
    scatter.flags.writeable = False
    return tuple(ends), gather, scatter


class WallaceNssGrng(Grng):
    """Hardware Wallace with No Sharing and no Shifting — the ablation.

    A single unit reads fixed, sequentially addressed quadruples and writes
    the transforms back in place, with no multi-loop pass.  Slot group ``g``
    then evolves as ``x_{k+1} = A x_k`` for the fixed orthogonal ``A`` of
    eq. (13): a deterministic, norm-preserving orbit.  Output quality is
    catastrophically bad (Fig. 15: passes no randomness tests), which is the
    point of the ablation.
    """

    def __init__(self, pool_size: int = 256, seed: int = 0) -> None:
        if pool_size < 8 or pool_size % 4 != 0:
            raise ConfigurationError(
                f"pool_size must be a multiple of 4 and >= 8, got {pool_size}"
            )
        self.pool_size = pool_size
        self.pool = spawn_generator(seed, "wallace-nss-pool").standard_normal(pool_size)
        self._addr = 0

    def step(self) -> np.ndarray:
        """One cycle: transform the next fixed quadruple in place."""
        slots = np.arange(self._addr, self._addr + 4) % self.pool_size
        generated = hadamard_transform(self.pool[slots])
        self.pool[slots] = generated
        self._addr = (self._addr + 4) % self.pool_size
        return generated

    def generate(self, count: int) -> np.ndarray:
        """Block path, bit-exact with :meth:`generate_loop`.

        One pass over the pool transforms fixed, disjoint quadruples, so
        the run from the address counter to the pool end is a single
        :func:`hadamard_transform` call; passes chain one after another.
        """
        count = self._check_count(count)
        if count == 0:
            return np.empty(0)
        groups = self.pool.reshape(-1, 4)
        out = np.empty((-(-count // 4), 4))
        done = 0
        while done < out.shape[0]:
            first = self._addr // 4
            stop = min(groups.shape[0], first + out.shape[0] - done)
            block = hadamard_transform(groups[first:stop])
            groups[first:stop] = block
            out[done : done + len(block)] = block
            done += len(block)
            self._addr = 4 * (stop % groups.shape[0])
        return out.reshape(-1)[:count]

    def generate_loop(self, count: int) -> np.ndarray:
        """Per-cycle reference: one :meth:`step` per quadruple."""
        return _step_loop(self.step, self._check_count(count), 4)


def _step_loop(step: Callable[[], np.ndarray], count: int, per_cycle: int) -> np.ndarray:
    """The first ``count`` numbers of ``-(-count // per_cycle)`` ``step()`` calls."""
    cycles = [step() for _ in range(-(-count // per_cycle))]
    return np.concatenate(cycles)[:count] if cycles else np.empty(0)
