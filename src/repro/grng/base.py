"""Common interface for Gaussian random number generators.

Every generator produces *standardized* samples (target ``N(0, 1)``) from
:meth:`Grng.generate`; hardware-oriented generators additionally expose
their native integer codes via :meth:`Grng.generate_codes` so the
fixed-point weight updater (:mod:`repro.hw.weight_generator`) can consume
them without a float round trip.

Block API
---------
:meth:`Grng.generate_block` and :meth:`Grng.fill` form the *block-sampling
seam*: consumers that need many samples (the batched Monte-Carlo predictor,
the accelerator's weight generator, the throughput benches) request one
large block instead of issuing many small :meth:`Grng.generate` calls.
The base-class defaults reduce blocks to a single bulk ``generate`` call,
so every generator supports the seam; generators with a vectorised native
path (:class:`~repro.grng.rlf.ParallelRlfGrng`,
:class:`~repro.grng.bnnwallace.BnnWallaceGrng`) override the bulk path
itself, and :class:`~repro.grng.stream.GrngStream` adds buffering on top.

The integer datapath has the same seam: :meth:`Grng.generate_codes_block`
and :meth:`Grng.fill_codes` reduce to one bulk :meth:`Grng.generate_codes`
call, so the fixed-point inference stack (the stacked
:class:`~repro.bnn.quantized.QuantizedBayesianNetwork` path, the
accelerator's :class:`~repro.hw.weight_generator.WeightGenerator`) draws
all its epsilon codes as one block.  On a generator without an integer
datapath every code method raises
:class:`~repro.errors.ConfigurationError` — for *any* count, including 0,
which is what lets consumers probe the capability once with a free
``generate_codes(0)`` call instead of swallowing errors per draw.

Count contract
--------------
``count`` must be a non-negative integer everywhere.  ``count == 0`` is
valid and uniformly returns an empty array (shape ``(0,)`` for flat
requests) — it never raises and never trips a downstream reshape.
Negative or non-integral counts raise
:class:`~repro.errors.ConfigurationError`.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

from repro.errors import ConfigurationError
from repro.utils.validation import check_count


class Grng(ABC):
    """Abstract Gaussian random number generator."""

    #: Consecutive stream units that a variance-reduction remap pairs or
    #: stratifies together (:mod:`repro.grng.stream`); 1 for every
    #: generator without one.
    cycle = 1

    @abstractmethod
    def generate(self, count: int) -> np.ndarray:
        """Return ``count`` samples targeting the standard normal.

        ``count == 0`` returns an empty ``(0,)`` array.
        """

    def generate_codes(self, count: int) -> np.ndarray:
        """Native integer codes, for generators with a hardware datapath.

        Generators without an integer datapath raise
        :class:`~repro.errors.ConfigurationError` for every ``count``
        (including 0), so ``generate_codes(0)`` is a side-effect-free
        capability probe: it consumes no stream on a code-capable
        generator and raises on one without the datapath.
        """
        raise ConfigurationError(
            f"{type(self).__name__} has no integer code datapath"
        )

    # ------------------------------------------------------------------
    # Block-sampling seam
    # ------------------------------------------------------------------
    def generate_block(self, shape: "int | tuple[int, ...]") -> np.ndarray:
        """Return a block of samples with the given ``shape``.

        The block is a single contiguous slice of the generator's output
        stream in C order: ``generate_block((m, n))`` on a fresh generator
        equals ``generate(m * n).reshape(m, n)`` on an identically seeded
        one.  A zero-sized shape returns an empty array of that shape.
        """
        shape = self._check_shape(shape)
        count = int(np.prod(shape, dtype=np.int64)) if shape else 1
        return self.generate(count).reshape(shape)

    def fill(self, out: np.ndarray) -> None:
        """Fill ``out`` in place with the next ``out.size`` samples.

        The values written are the same contiguous stream slice that
        :meth:`generate_block` with ``out.shape`` would return.  Accepts
        non-contiguous views; a zero-sized array is a no-op.  ``out``
        must be an ndarray — writing into a converted copy of a list
        would silently drop the samples.
        """
        out = self._check_out(out)
        if out.size == 0:
            return
        out[...] = self.generate(out.size).reshape(out.shape)

    # ------------------------------------------------------------------
    # Code-block seam (integer datapath)
    # ------------------------------------------------------------------
    def generate_codes_block(self, shape: "int | tuple[int, ...]") -> np.ndarray:
        """Return a block of integer codes with the given ``shape``.

        The code analogue of :meth:`generate_block`: one contiguous slice
        of the generator's *code* stream in C order, so
        ``generate_codes_block((m, n))`` on a fresh generator equals
        ``generate_codes(m * n).reshape(m, n)`` on an identically seeded
        one.  Raises :class:`~repro.errors.ConfigurationError` on
        generators without an integer datapath — for zero-sized shapes
        too, matching the ``generate_codes(0)`` capability probe.
        """
        shape = self._check_shape(shape)
        count = int(np.prod(shape, dtype=np.int64)) if shape else 1
        return self.generate_codes(count).reshape(shape)

    def fill_codes(self, out: np.ndarray) -> None:
        """Fill ``out`` in place with the next ``out.size`` codes.

        Writes the same contiguous code-stream slice that
        :meth:`generate_codes_block` with ``out.shape`` would return.
        ``out`` must be a writable signed-integer ndarray.  Like the rest
        of the code API this raises on generators without an integer
        datapath even for zero-sized targets.
        """
        out = self._check_code_out(out)
        out[...] = self.generate_codes(out.size).reshape(out.shape)

    # ------------------------------------------------------------------
    @staticmethod
    def _check_code_out(out: np.ndarray) -> np.ndarray:
        """Require a writable signed-integer ndarray target for code fills."""
        if not isinstance(out, np.ndarray):
            raise ConfigurationError(
                f"fill_codes target must be an ndarray, got {type(out).__name__}"
            )
        if not np.issubdtype(out.dtype, np.signedinteger):
            raise ConfigurationError(
                f"fill_codes target must have a signed integer dtype, got {out.dtype}"
            )
        if not out.flags.writeable:
            raise ConfigurationError("fill_codes target must be writable")
        return out

    @staticmethod
    def _check_out(out: np.ndarray) -> np.ndarray:
        """Require a writable floating-point ndarray target for in-place fills."""
        if not isinstance(out, np.ndarray):
            raise ConfigurationError(
                f"fill target must be an ndarray, got {type(out).__name__}"
            )
        if not np.issubdtype(out.dtype, np.floating):
            raise ConfigurationError(
                f"fill target must have a floating dtype, got {out.dtype}"
            )
        if not out.flags.writeable:
            raise ConfigurationError("fill target must be writable")
        return out

    @staticmethod
    def _check_count(count: int) -> int:
        """Validate the uniform count contract; return a plain ``int``."""
        return check_count("sample count", count)

    @staticmethod
    def _check_shape(shape: "int | tuple[int, ...]") -> tuple[int, ...]:
        """Normalise a block shape: ints promote to 1-tuples, dims >= 0."""
        if isinstance(shape, (int, np.integer)):
            shape = (int(shape),)
        elif isinstance(shape, (str, bytes)):
            raise ConfigurationError(
                f"block shape must be an int or tuple of ints, got {shape!r}"
            )
        try:
            dims = tuple(shape)
        except TypeError:
            raise ConfigurationError(
                f"block shape must be an int or tuple of ints, got {shape!r}"
            ) from None
        for dim in dims:
            if isinstance(dim, bool) or not isinstance(dim, (int, np.integer)):
                raise ConfigurationError(
                    f"block shape dimensions must be integers, got {shape!r}"
                )
            if dim < 0:
                raise ConfigurationError(
                    f"block shape dimensions must be >= 0, got {shape}"
                )
        return tuple(int(dim) for dim in dims)


class NumpyGrng(Grng):
    """Ground-truth generator backed by NumPy's PCG64 — the "software" line.

    Used as the reference distribution in quality tests and as the
    initial-pool source for the Wallace generators (the paper seeds Wallace
    pools from a software sampler as well).
    """

    def __init__(self, seed: int = 0) -> None:
        self._rng = np.random.default_rng(seed)

    def generate(self, count: int) -> np.ndarray:
        count = self._check_count(count)
        return self._rng.standard_normal(count)
