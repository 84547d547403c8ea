"""Fixed-point arithmetic substrate (system S1).

VIBNN's datapath uses narrow fixed-point operands (8-bit after the
bit-length optimization of §5.2 / Fig. 18).  This package provides:

* :class:`~repro.fixedpoint.qformat.QFormat` — a signed Qm.n format
  descriptor with quantize/dequantize and range queries;
* :mod:`~repro.fixedpoint.ops` — saturation and rounding requantization on
  integer arrays, mirroring what the FPGA's LUT-based ALUs compute.
"""

from repro.fixedpoint.qformat import QFormat
from repro.fixedpoint.ops import (
    saturate,
    requantize,
)

__all__ = [
    "QFormat",
    "saturate",
    "requantize",
]
