"""Streaming/batched sampling backend: :class:`GrngStream` and its remaps.

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

Variance-reduced epsilon streams
--------------------------------
Monte-Carlo inference averages eq. (6) over ``N`` forward passes; the
estimator's variance — not the per-sample quality — is what limits how
small ``N`` can be.  Two classic variance-reduction schemes slot in
*behind the same seam*, as drop-in :class:`GrngStream` subclasses whose
``fill`` emits the source stream in fixed ``period``-sample units (one
unit = one forward pass worth of epsilons, so unit ``s`` is exactly the
epsilon vector of MC pass ``s``):

* :class:`AntitheticGrngStream` — **sign-flip pairing**: unit ``2k`` is a
  fresh source draw ``z_k`` and unit ``2k + 1`` is ``-z_k``.  Each pair of
  passes cancels exactly in the epsilon block (``eps_{2k} + eps_{2k+1} ==
  0`` element-wise, so the pair-mean epsilon — and with it the mean weight
  perturbation ``sigma * eps`` — vanishes identically), which strips the
  odd-order terms out of the estimator error.
* :class:`StratifiedGrngStream` — **strata remap** (Latin-hypercube along
  the sample axis): source samples are mapped to uniforms with the normal
  CDF, squeezed into one of ``strata`` equiprobable slices per component,
  and mapped back with the inverse CDF.  Per component, a fresh random
  permutation each cycle assigns every one of ``strata`` consecutive
  passes to a distinct slice — each pass's epsilon vector keeps exact
  ``N(0,1)`` marginals (the stratum of any single pass is uniformly
  random), while across a cycle every component's samples are spread
  evenly over the distribution instead of clumping.

Both emit a stream that is a pure function of ``(seed(s), period)`` —
call-pattern invariant like the plain stream — and neither has an integer
code datapath (the remap only exists in the float domain), so the
fixed-point :class:`~repro.bnn.quantized.EpsilonSource` probe routes them
onto the quantized-float path automatically.
"""

from __future__ import annotations

import time
from abc import abstractmethod

import numpy as np

from repro.errors import ConfigurationError
from repro.grng.base import Grng
from repro.obs import profile as _profile
from repro.utils.seeding import spawn_generator
from repro.utils.validation import check_count, check_positive

#: Registered variance-reduction modes for epsilon streams; ``"plain"`` is
#: the unmodified :class:`GrngStream`.
VARIANCE_REDUCTIONS = ("plain", "antithetic", "stratified")
#: :attr:`~repro.grng.base.Grng.cycle` of each mode's :func:`make_stream`
#: stream (the stratified one's ``strata``).
VARIANCE_REDUCTION_CYCLES = {"plain": 1, "antithetic": 2, "stratified": 8}


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


class PeriodicRemapStream(GrngStream):
    """Base class for variance-reduced streams built on a period remap.

    The output stream is produced in fixed ``period``-sample **units**
    (consumers set ``period`` to their epsilons-per-forward-pass, so unit
    ``s`` is MC pass ``s``'s epsilon vector); :meth:`_next_unit` maps draws
    of the buffered source stream into the next unit.  Serving any request
    pattern from the internal unit buffer keeps the output call-pattern
    invariant — a pure function of the seeds and ``period`` — exactly like
    the plain :class:`GrngStream`.

    The remap only exists in the float domain, so the integer code
    datapath raises for every count (including the ``generate_codes(0)``
    capability probe), which routes fixed-point consumers onto their
    quantized-float epsilon path.
    """

    def __init__(self, source: Grng, period: int, block_size: int = 65536) -> None:
        super().__init__(source, block_size)
        check_positive("period", period)
        self.period = int(period)
        self._unit_buffer = np.empty(0)
        self._unit_pos = 0

    # ------------------------------------------------------------------
    def _draw_source(self, count: int) -> np.ndarray:
        """``count`` raw source samples via the buffered base stream."""
        out = np.empty(count)
        self._buffer, self._pos = self._serve(
            out, self._buffer, self._pos, self.source.generate
        )
        return out

    @abstractmethod
    def _next_unit(self) -> np.ndarray:
        """Produce the next emission unit (``period`` samples, or a
        multiple for schemes that pair units)."""

    def fill(self, out: np.ndarray) -> None:
        _prof = _profile.ACTIVE
        _t0 = time.perf_counter() if _prof is not None else 0.0
        out = self._check_out(out)
        contiguous = out.flags.c_contiguous
        flat = out.reshape(-1) if contiguous else np.empty(out.size)
        cursor = 0
        while cursor < flat.size:
            if self._unit_pos >= self._unit_buffer.size:
                self._unit_buffer = self._next_unit()
                self._unit_pos = 0
            take = min(flat.size - cursor, self._unit_buffer.size - self._unit_pos)
            flat[cursor : cursor + take] = self._unit_buffer[
                self._unit_pos : self._unit_pos + take
            ]
            self._unit_pos += take
            cursor += take
        if not contiguous:
            out[...] = flat.reshape(out.shape)
        if _prof is not None:
            _prof.record("grng.fill", time.perf_counter() - _t0, ops=out.size)

    # ------------------------------------------------------------------
    # No integer code datapath: the remap is float-only.
    # ------------------------------------------------------------------
    def generate_codes(self, count: int) -> np.ndarray:
        raise ConfigurationError(
            f"{type(self).__name__} has no integer code datapath: the "
            "variance-reduction remap only exists for float samples"
        )


class AntitheticGrngStream(PeriodicRemapStream):
    """Sign-flip pairing: pass ``2k+1``'s epsilons are ``-``(pass ``2k``'s).

    Each emission pair ``(z, -z)`` draws ``period`` source samples once and
    emits them twice, so an ``N``-pass block costs ``N/2`` passes worth of
    source draws *and* cancels exactly: ``eps[2k] + eps[2k+1] == 0``
    element-wise, hence the scaled perturbations ``sigma * eps`` of a pair
    are exact IEEE negatives of each other (sign symmetry), the pair-mean
    epsilon is exactly zero, and every odd function of the weight
    perturbation drops out of the two-pass average.
    """

    cycle = 2

    def _next_unit(self) -> np.ndarray:
        z = self._draw_source(self.period)
        return np.concatenate([z, -z])


class StratifiedGrngStream(PeriodicRemapStream):
    """Latin-hypercube strata remap along the sample (pass) axis.

    Source samples are mapped to uniforms ``u = Phi(z)``, squeezed into an
    equiprobable stratum ``(k + u) / strata``, and mapped back with
    ``Phi^{-1}``.  Component ``j`` of pass ``s`` uses stratum
    ``perm_j(s mod strata)`` where each component draws a fresh random
    permutation per ``strata``-pass cycle (seeded by ``seed``, so the
    stream is reproducible).  Two properties follow:

    * **Exact marginals** — any single pass's stratum assignment is
      uniformly random over the strata, so each emitted epsilon is exactly
      the source's ``Phi^{-1}(U(0,1))`` distribution (``N(0,1)`` for an
      ideal source): the estimator stays unbiased for every ``N``.
    * **Variance reduction** — across one cycle every component visits
      every stratum exactly once, so per-component sample means concentrate
      like stratified sampling instead of iid sampling.
    """

    def __init__(
        self,
        source: Grng,
        period: int,
        strata: int = 8,
        seed: int = 0,
        block_size: int = 65536,
    ) -> None:
        super().__init__(source, period, block_size)
        check_positive("strata", strata)
        self.strata = self.cycle = int(strata)
        self._perm_rng = spawn_generator(seed, "stratified-stream")
        self._cycle_row = 0
        self._perms: np.ndarray | None = None

    def _next_unit(self) -> np.ndarray:
        from scipy.special import ndtr, ndtri

        if self._cycle_row == 0:
            # One random permutation of the strata per component, redrawn
            # each cycle: column j of the (strata, period) matrix is the
            # stratum schedule of component j for the next `strata` passes.
            self._perms = np.argsort(
                self._perm_rng.random((self.strata, self.period)), axis=0
            )
        strata_row = self._perms[self._cycle_row]
        self._cycle_row = (self._cycle_row + 1) % self.strata
        z = self._draw_source(self.period)
        uniforms = np.clip(ndtr(z), np.finfo(np.float64).tiny, 1.0 - 1e-16)
        squeezed = (strata_row + uniforms) / self.strata
        return ndtri(np.clip(squeezed, np.finfo(np.float64).tiny, 1.0 - 1e-16))


def make_stream(
    source: Grng,
    *,
    variance_reduction: str = "plain",
    period: int = 1,
    seed: int = 0,
    block_size: int = 65536,
) -> GrngStream:
    """Buffered stream over ``source`` with the named variance reduction.

    ``period`` is the emission-unit length (epsilons per forward pass);
    it is ignored by the plain stream.  ``seed`` only feeds the stratified
    stream's permutation generator.
    """
    if variance_reduction == "plain":
        return GrngStream(source, block_size=block_size)
    if variance_reduction == "antithetic":
        return AntitheticGrngStream(source, period, block_size=block_size)
    if variance_reduction == "stratified":
        return StratifiedGrngStream(
            source,
            period,
            strata=VARIANCE_REDUCTION_CYCLES["stratified"],
            seed=seed,
            block_size=block_size,
        )
    raise ConfigurationError(
        f"unknown variance reduction {variance_reduction!r}; "
        f"expected one of {', '.join(VARIANCE_REDUCTIONS)}"
    )
