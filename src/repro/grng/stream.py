"""Streaming/batched sampling backend: :class:`GrngStream`.

The paper's hardware thesis is throughput: the GRNGs must feed
``eps_per_pass`` Gaussian numbers per forward pass fast enough to keep the
PE array busy.  The software analogue of that datapath is one large draw
per consumer call — consumers ask for large contiguous blocks instead of
many small draws, so Python call overhead amortises over thousands of
samples.  :class:`GrngStream` wraps *any* generator with an internal block
buffer: the source is always drawn in fixed ``block_size`` chunks, and
requests of any size are served from the buffer.  Its primitive is
:meth:`GrngStream.fill` (write a whole block in place); ``generate``
allocates and fills.  Two properties follow:

1. **Throughput** — per-call overhead of the source is paid once per
   ``block_size`` samples, not once per request.
2. **Call-pattern invariance** — the concatenated output stream depends
   only on the seed and ``block_size``, never on how consumers chop
   their requests.  This is what makes the batched Monte-Carlo predictor
   bit-for-bit equivalent to the reference per-pass loop for *every*
   generator, including those (Wallace, Box–Muller) whose raw streams
   change when a request is split.
"""

from __future__ import annotations

import time

import numpy as np

from repro.errors import ConfigurationError
from repro.grng.base import Grng
from repro.obs import profile as _profile
from repro.utils.validation import check_count


class GrngStream(Grng):
    """Buffered streaming front-end over any :class:`~repro.grng.base.Grng`.

    Parameters
    ----------
    source:
        The wrapped generator.  Its stream is consumed in fixed
        ``block_size`` chunks regardless of the request pattern.
    block_size:
        Samples drawn from the source per refill.  Larger blocks amortise
        more per-call overhead at the price of latency/memory; with the
        default (64 Ki samples = 512 KiB of float64) the paper's
        MNIST-scale network (784-200-200-10, ~199k epsilons per forward
        pass) costs 3-4 source refills per pass.

    Float samples and integer codes are buffered independently, so a
    stream can serve both the software (:meth:`generate`) and hardware
    (:meth:`generate_codes`) datapaths of the same source.
    """

    def __init__(self, source: Grng, block_size: int = 65536) -> None:
        if not isinstance(source, Grng):
            raise ConfigurationError(
                f"source must be a Grng, got {type(source).__name__}"
            )
        if isinstance(source, GrngStream):
            raise ConfigurationError("refusing to stack GrngStream on GrngStream")
        block_size = check_count("block_size", block_size)
        if block_size < 1:
            raise ConfigurationError(f"block_size must be >= 1, got {block_size}")
        self.source = source
        self.block_size = block_size
        #: Number of source refills issued so far (floats + codes).
        self.refills = 0
        self._buffer = np.empty(0)
        self._pos = 0
        self._code_buffer = np.empty(0, dtype=np.int64)
        self._code_pos = 0

    # ------------------------------------------------------------------
    @property
    def buffered(self) -> int:
        """Float samples currently sitting in the buffer."""
        return self._buffer.size - self._pos

    def generate(self, count: int) -> np.ndarray:
        count = self._check_count(count)
        out = np.empty(count)
        self.fill(out)
        return out

    def fill(self, out: np.ndarray) -> None:
        _prof = _profile.ACTIVE
        _t0 = time.perf_counter() if _prof is not None else 0.0
        out = self._check_out(out)
        contiguous = out.flags.c_contiguous
        flat = out.reshape(-1) if contiguous else np.empty(out.size)
        self._buffer, self._pos = self._serve(
            flat, self._buffer, self._pos, self.source.generate
        )
        if not contiguous:
            out[...] = flat.reshape(out.shape)
        if _prof is not None:
            _prof.record("grng.fill", time.perf_counter() - _t0, ops=out.size)

    def generate_codes(self, count: int) -> np.ndarray:
        count = self._check_count(count)
        if count == 0:
            # Capability probe passthrough: a zero-count request consults
            # the source (free by the count contract) so a stream over a
            # float-only generator raises here exactly like the source
            # would, instead of masquerading as code-capable until the
            # first real draw fails mid-inference.
            self.source.generate_codes(0)
            return np.empty(0, dtype=np.int64)
        out = np.empty(count, dtype=np.int64)
        self._code_buffer, self._code_pos = self._serve(
            out, self._code_buffer, self._code_pos, self.source.generate_codes
        )
        return out

    def _serve(self, dest, buffer, pos, refill):
        """Serve ``dest.size`` values from ``buffer``, refilling in fixed
        ``block_size`` chunks; returns the updated ``(buffer, pos)``.

        The float (:meth:`fill`) and code (:meth:`generate_codes`) datapaths
        share this loop so the refill accounting cannot diverge.
        """
        cursor = 0
        while cursor < dest.size:
            if pos >= buffer.size:
                buffer = refill(self.block_size)
                pos = 0
                self.refills += 1
            take = min(dest.size - cursor, buffer.size - pos)
            dest[cursor : cursor + take] = buffer[pos : pos + take]
            pos += take
            cursor += take
        return buffer, pos
