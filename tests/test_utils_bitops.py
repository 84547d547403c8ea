"""Unit tests for repro.utils.bitops."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.utils.bitops import (
    bit_length_for,
    bits_to_int,
    int_to_bits,
    popcount,
    rotate_left,
)


class TestPopcount:
    def test_zero(self):
        assert popcount(0) == 0

    def test_known_values(self):
        assert popcount(0b1011) == 3
        assert popcount(0xFF) == 8
        assert popcount(1 << 200) == 1

    def test_negative_rejected(self):
        with pytest.raises(ConfigurationError):
            popcount(-1)

    @given(st.integers(min_value=0, max_value=2**128))
    def test_matches_bin_count(self, value):
        assert popcount(value) == bin(value).count("1")


class TestIntBitsRoundtrip:
    def test_lsb_first(self):
        assert int_to_bits(0b110, 4).tolist() == [0, 1, 1, 0]

    def test_bits_to_int(self):
        assert bits_to_int(np.array([0, 1, 1, 0])) == 0b110

    def test_width_too_small(self):
        with pytest.raises(ConfigurationError):
            int_to_bits(16, 4)

    def test_negative_value(self):
        with pytest.raises(ConfigurationError):
            int_to_bits(-1, 4)

    def test_zero_width(self):
        with pytest.raises(ConfigurationError):
            int_to_bits(0, 0)

    @given(st.integers(min_value=0, max_value=2**64 - 1))
    def test_roundtrip(self, value):
        assert bits_to_int(int_to_bits(value, 64)) == value


class TestRotate:
    def test_rotate_left_basic(self):
        assert rotate_left(0b0001, 1, 4) == 0b0010

    def test_rotate_left_wraps(self):
        assert rotate_left(0b1000, 1, 4) == 0b0001

    def test_full_rotation_identity(self):
        assert rotate_left(0b1011, 8, 8) == 0b1011

    @given(
        st.integers(min_value=0, max_value=255),
        st.integers(min_value=0, max_value=64),
    )
    def test_popcount_invariant(self, value, shift):
        assert popcount(rotate_left(value, shift, 8)) == popcount(value)


class TestBitLengthFor:
    def test_known(self):
        assert bit_length_for(255) == 8
        assert bit_length_for(256) == 9
        assert bit_length_for(1) == 1

    def test_nonpositive(self):
        with pytest.raises(ConfigurationError):
            bit_length_for(0)
