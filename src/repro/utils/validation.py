"""Parameter-validation helpers shared across the library.

All raise :class:`repro.errors.ConfigurationError` with a message that names
the offending parameter, so constructor failures are self-explanatory.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError


def check_positive(name: str, value: float) -> None:
    """Require ``value > 0``."""
    if not value > 0:
        raise ConfigurationError(f"{name} must be positive, got {value!r}")


def check_count(name: str, value: int) -> int:
    """Require a non-negative integral count; return it as a plain ``int``.

    Unlike :func:`check_positive`, zero is allowed — a zero count is the
    uniform "empty request" contract of the GRNG block API (every generator
    returns an empty array rather than erroring or tripping a downstream
    reshape).
    """
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ConfigurationError(f"{name} must be an integer, got {value!r}")
    if value < 0:
        raise ConfigurationError(f"{name} must be >= 0, got {value!r}")
    return int(value)


def check_probability(name: str, value: float) -> None:
    """Require a probability strictly inside (0, 1)."""
    if not (0.0 < value < 1.0):
        raise ConfigurationError(f"{name} must be in (0, 1), got {value!r}")
