"""Bit-level helpers used by the LFSR / RLF / fixed-point models.

The hardware models in :mod:`repro.rng` and :mod:`repro.grng` manipulate
registers both as Python integers (fast paths) and as NumPy bit vectors
(parallel lanes).  These helpers keep the two representations consistent:
bit index 0 is always the least-significant bit of the integer form.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError


def popcount(value: int) -> int:
    """Number of set bits in a non-negative integer.

    >>> popcount(0b1011)
    3
    """
    if value < 0:
        raise ConfigurationError(f"popcount requires a non-negative value, got {value}")
    return int(value).bit_count()


def int_to_bits(value: int, width: int) -> np.ndarray:
    """Expand ``value`` into a ``uint8`` array of ``width`` bits, LSB first.

    >>> int_to_bits(0b110, 4).tolist()
    [0, 1, 1, 0]
    """
    if width <= 0:
        raise ConfigurationError(f"width must be positive, got {width}")
    if value < 0 or value >= (1 << width):
        raise ConfigurationError(f"value {value} does not fit in {width} bits")
    return np.array([(value >> i) & 1 for i in range(width)], dtype=np.uint8)


def bits_to_int(bits: np.ndarray) -> int:
    """Inverse of :func:`int_to_bits` (LSB-first bit array to integer)."""
    result = 0
    for i, bit in enumerate(np.asarray(bits, dtype=np.uint8)):
        if bit:
            result |= 1 << i
    return result


def rotate_left(value: int, shift: int, width: int) -> int:
    """Rotate a ``width``-bit integer left by ``shift`` positions."""
    if width <= 0:
        raise ConfigurationError(f"width must be positive, got {width}")
    shift %= width
    mask = (1 << width) - 1
    value &= mask
    return ((value << shift) | (value >> (width - shift))) & mask


def bit_length_for(max_value: int) -> int:
    """Smallest number of bits able to represent ``max_value`` distinct values.

    Used when sizing counters and address buses, e.g. a 255-entry SeMem
    needs ``bit_length_for(255) == 8`` address bits.
    """
    if max_value <= 0:
        raise ConfigurationError(f"max_value must be positive, got {max_value}")
    return int(max_value).bit_length()
