"""Gaussian random number generators (systems S3-S9).

This package implements the paper's two proposed hardware GRNGs and every
baseline they are compared against:

* :class:`~repro.grng.rlf.RlfGrng` / :class:`~repro.grng.rlf.ParallelRlfGrng`
  — the RAM-based Linear Feedback GRNG of §4.1 (binomial popcount method,
  incremental parallel counter, 3-block RAM scheme);
* :class:`~repro.grng.bnnwallace.BnnWallaceGrng` — the BNN-oriented Wallace
  GRNG of §4.2 with the sharing-and-shifting scheme, plus the
  :class:`~repro.grng.bnnwallace.WallaceNssGrng` ablation (no sharing, no
  shifting — the design the paper shows failing every randomness test);
* :class:`~repro.grng.wallace.SoftwareWallaceGrng` — the software Wallace
  method with configurable pool size (Table 1's 256/1024/4096 rows);
* the four-category taxonomy of §2.3 as baselines: CDF inversion
  (:mod:`~repro.grng.cdf_inversion`), CLT transformation
  (:mod:`~repro.grng.clt`), rejection (:mod:`~repro.grng.ziggurat`), and
  recursion (Wallace), plus Box–Muller (:mod:`~repro.grng.box_muller`);
* :mod:`~repro.grng.quality` — stability error, Wald–Wolfowitz runs test,
  KS / chi-square tests, autocorrelation (Table 1 and Fig. 15 metrics);
* :mod:`~repro.grng.stream` — :class:`~repro.grng.stream.GrngStream`, the
  buffered streaming front-end that feeds the batched Monte-Carlo
  predictors and the quantized weight updater from one large-block draw
  path.
"""

from repro.grng.base import Grng, NumpyGrng
from repro.grng.bnnwallace import BnnWallaceGrng, WallaceNssGrng
from repro.grng.box_muller import BoxMullerGrng
from repro.grng.cdf_inversion import CdfInversionGrng
from repro.grng.clt import BinomialLfsrGrng, CentralLimitGrng
from repro.grng.factory import available_grngs, make_grng
from repro.grng.lut_icdf import LutIcdfGrng
from repro.grng.rlf import ParallelRlfGrng, RlfGrng, RlfLogic
from repro.grng.stream import GrngStream
from repro.grng.wallace import SoftwareWallaceGrng, hadamard_transform
from repro.grng.ziggurat import ZigguratGrng

__all__ = [
    "Grng",
    "NumpyGrng",
    "GrngStream",
    "BoxMullerGrng",
    "CdfInversionGrng",
    "BinomialLfsrGrng",
    "CentralLimitGrng",
    "BnnWallaceGrng",
    "WallaceNssGrng",
    "ParallelRlfGrng",
    "RlfGrng",
    "RlfLogic",
    "SoftwareWallaceGrng",
    "hadamard_transform",
    "LutIcdfGrng",
    "ZigguratGrng",
    "available_grngs",
    "make_grng",
]
