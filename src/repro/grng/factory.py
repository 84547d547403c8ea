"""Name-based GRNG registry used by benches, examples and the CLI-ish tools.

The names mirror the rows of Table 1 and Fig. 15 so experiment code can
say ``make_grng("wallace-4096", seed)`` and stay readable.
"""

from __future__ import annotations

from typing import Callable

from repro.errors import ConfigurationError
from repro.grng.base import Grng, NumpyGrng
from repro.grng.bnnwallace import BnnWallaceGrng, WallaceNssGrng
from repro.grng.box_muller import BoxMullerGrng
from repro.grng.cdf_inversion import CdfInversionGrng
from repro.grng.clt import BinomialLfsrGrng, CentralLimitGrng
from repro.grng.lut_icdf import LutIcdfGrng
from repro.grng.rlf import ParallelRlfGrng, RlfGrng
from repro.grng.wallace import SoftwareWallaceGrng
from repro.grng.ziggurat import ZigguratGrng

_REGISTRY: dict[str, Callable[[int], Grng]] = {
    "numpy": lambda seed: NumpyGrng(seed),
    "rlf": lambda seed: ParallelRlfGrng(lanes=64, seed=seed),
    "rlf-single": lambda seed: RlfGrng(seed),
    "rlf-single-step": lambda seed: ParallelRlfGrng(lanes=64, seed=seed, double_step=False),
    "bnnwallace": lambda seed: BnnWallaceGrng(units=8, pool_size=256, seed=seed),
    "wallace-nss": lambda seed: WallaceNssGrng(pool_size=256, seed=seed),
    "wallace-256": lambda seed: SoftwareWallaceGrng(pool_size=256, seed=seed),
    "wallace-1024": lambda seed: SoftwareWallaceGrng(pool_size=1024, seed=seed),
    "wallace-4096": lambda seed: SoftwareWallaceGrng(pool_size=4096, seed=seed),
    "box-muller": lambda seed: BoxMullerGrng(seed),
    "ziggurat": lambda seed: ZigguratGrng(seed),
    "cdf-inversion": lambda seed: CdfInversionGrng(seed),
    "clt-12": lambda seed: CentralLimitGrng(seed, terms=12),
    "binomial-lfsr": lambda seed: BinomialLfsrGrng(seed),
    "lut-icdf": lambda seed: LutIcdfGrng(segments=256, seed=seed),
}


def available_grngs() -> list[str]:
    """Sorted registry names."""
    return sorted(_REGISTRY)


def make_grng(name: str, seed: int = 0) -> Grng:
    """Instantiate a registered generator by name.

    >>> make_grng("bnnwallace", seed=1)  # doctest: +ELLIPSIS
    <repro.grng.bnnwallace.BnnWallaceGrng object at ...>
    """
    try:
        factory = _REGISTRY[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown GRNG {name!r}; available: {', '.join(available_grngs())}"
        ) from None
    return factory(seed)
