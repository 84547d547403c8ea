"""Common interface for Gaussian random number generators.

Every generator produces *standardized* samples (target ``N(0, 1)``) from
:meth:`Grng.generate`; hardware-oriented generators additionally expose
their native integer codes via :meth:`Grng.generate_codes` so the
fixed-point weight updater
(:meth:`~repro.bnn.quantized.QuantizedBayesianNetwork.sample_weight_stacks`)
can consume them without a float round trip.

The seam
--------
A generator has three entry points: :meth:`Grng.generate` (``count``
floats), :meth:`Grng.fill` (write ``out.size`` floats into ``out`` in
place) and :meth:`Grng.generate_codes` (``count`` integer codes).
Consumers that need many samples (the Monte-Carlo predictors, the
quantized weight updater, the throughput benches) ask for one large draw
and reshape it, instead of issuing many small calls.  Generators with a
vectorised native path (:class:`~repro.grng.rlf.ParallelRlfGrng`,
:class:`~repro.grng.bnnwallace.BnnWallaceGrng`) override ``generate``
itself, and :class:`~repro.grng.stream.GrngStream` adds buffering on top.

On a generator without an integer datapath :meth:`Grng.generate_codes`
raises :class:`~repro.errors.ConfigurationError` — for *any* count,
including 0, which is what lets consumers probe the capability once with
a free ``generate_codes(0)`` call instead of swallowing errors per draw.

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

    def fill(self, out: np.ndarray) -> None:
        """Fill ``out`` in place with the next ``out.size`` samples.

        The values written are the same contiguous stream slice that
        ``generate(out.size).reshape(out.shape)`` would return.  Accepts
        non-contiguous views; a zero-sized array is a no-op.  ``out``
        must be an ndarray — writing into a converted copy of a list
        would silently drop the samples.
        """
        out = self._check_out(out)
        if out.size == 0:
            return
        out[...] = self.generate(out.size).reshape(out.shape)

    # ------------------------------------------------------------------
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
