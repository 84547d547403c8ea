"""Unit tests for repro.fixedpoint.ops."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import FixedPointOverflowError
from repro.fixedpoint import QFormat, requantize, saturate

FMT = QFormat(2, 5)


class TestSaturate:
    def test_in_range_untouched(self):
        assert saturate(np.array([5, -5]), FMT).tolist() == [5, -5]

    def test_clamps(self):
        assert saturate(np.array([1000, -1000]), FMT).tolist() == [127, -128]

    def test_strict_raises(self):
        with pytest.raises(FixedPointOverflowError):
            saturate(np.array([1000]), FMT, strict=True)

    def test_strict_ok_in_range(self):
        saturate(np.array([127, -128]), FMT, strict=True)


class TestRequantize:
    def test_identity_shift(self):
        assert requantize(np.array([10]), FMT.frac_bits, FMT)[0] == 10

    def test_rounds_half_away_from_zero(self):
        # One extra frac bit: code 3 (=1.5 ulp) rounds to 2; -3 to -2.
        out = requantize(np.array([3, -3]), FMT.frac_bits + 1, FMT)
        assert out.tolist() == [2, -2]

    def test_left_shift_exact(self):
        out = requantize(np.array([3]), FMT.frac_bits - 2, FMT)
        assert out[0] == 12

    @given(st.integers(min_value=-(2**30), max_value=2**30))
    def test_requantize_close_to_float_division(self, wide):
        out = requantize(np.array([wide]), 2 * FMT.frac_bits, FMT)[0]
        expected = np.clip(round(wide / FMT.scale), FMT.min_int, FMT.max_int)
        assert abs(int(out) - int(expected)) <= 1  # ties may differ in direction
