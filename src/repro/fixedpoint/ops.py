"""Saturating fixed-point operations on integer code arrays.

These model the arithmetic units of §5.1: the MAC multipliers produce
double-width products, the adder tree accumulates at full precision, and
results are requantized (shifted right with rounding, then saturated) when
written back to the ``B``-bit datapath.  Keeping the intermediate
accumulation wide matches FPGA adder-tree behaviour, where only the final
writeback narrows the word.
"""

from __future__ import annotations

import numpy as np

from repro.errors import FixedPointOverflowError
from repro.fixedpoint.qformat import QFormat


def saturate(codes: np.ndarray, fmt: QFormat, *, strict: bool = False) -> np.ndarray:
    """Clamp integer codes into the representable range of ``fmt``.

    With ``strict=True`` an out-of-range code raises
    :class:`~repro.errors.FixedPointOverflowError` instead of clamping —
    useful in tests that assert a datapath never overflows.
    """
    arr = np.asarray(codes, dtype=np.int64)
    if strict:
        bad = (arr > fmt.max_int) | (arr < fmt.min_int)
        if np.any(bad):
            worst = arr[bad].flat[0]
            raise FixedPointOverflowError(
                f"code {int(worst)} outside [{fmt.min_int}, {fmt.max_int}] for {fmt}"
            )
    return np.clip(arr, fmt.min_int, fmt.max_int)


def requantize(codes: np.ndarray, from_frac_bits: int, fmt: QFormat) -> np.ndarray:
    """Shift codes from ``from_frac_bits`` fractional bits to ``fmt``.

    Rounds half away from zero and saturates.  ``from_frac_bits`` may be
    smaller than ``fmt.frac_bits`` (a left shift, exact).
    """
    arr = np.asarray(codes, dtype=np.int64)
    shift = from_frac_bits - fmt.frac_bits
    if shift == 0:
        out = arr
    elif shift > 0:
        half = np.int64(1) << (shift - 1)
        out = np.where(
            arr >= 0,
            (arr + half) >> shift,
            -((-arr + half) >> shift),
        )
    else:
        out = arr << (-shift)
    return saturate(out, fmt)
