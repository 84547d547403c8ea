"""Shared small utilities: bit manipulation, validation, seeding."""

from repro.utils.bitops import (
    bit_length_for,
    bits_to_int,
    int_to_bits,
    popcount,
    rotate_left,
)
from repro.utils.seeding import derive_seed, spawn_generator
from repro.utils.validation import (
    check_positive,
    check_probability,
)

__all__ = [
    "bit_length_for",
    "bits_to_int",
    "int_to_bits",
    "popcount",
    "rotate_left",
    "derive_seed",
    "spawn_generator",
    "check_positive",
    "check_probability",
]
