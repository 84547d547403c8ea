"""Software Wallace GRNG (§4.2.1) — the recursion-method baseline.

Wallace's method keeps a pool of Gaussian numbers and refreshes it with
orthogonal linear maps: a linear combination of Gaussians is Gaussian, so
the pool stays normal forever.  The 4x4 transform of eq. (13),

    ``t = (x1 + x2 + x3 + x4) / 2``
    ``x' = (t - x1, t - x2, x3 - t, x4 - t)``

is ``(1/2) H x`` for the Hadamard matrix printed in the paper; it is
*orthogonal*, so the pool's empirical second moment is exactly preserved —
the method's stability error is inherited from the finite initial pool,
which is why Table 1's error shrinks as the pool grows.

The software generator follows Wallace's original recipe: per generation
pass the pool is visited in a random permutation, groups of four are
transformed in place, and ``transform_passes`` full passes ("multi-loop
transformations") are applied before a pool's worth of numbers is emitted.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError
from repro.grng.base import Grng
from repro.utils.seeding import spawn_generator

#: The paper's 4x4 Hadamard matrix, scaled by 1/2 to make it orthogonal.
HADAMARD_4 = np.array(
    [
        [-1, 1, 1, 1],
        [1, -1, 1, 1],
        [-1, -1, 1, -1],
        [-1, -1, -1, 1],
    ],
    dtype=np.float64,
)


def hadamard_transform(quad: np.ndarray) -> np.ndarray:
    """Apply eq. (13) to one or more quadruples.

    ``quad`` has shape ``(..., 4)``; the transform is applied along the last
    axis using only additions and a halving, as the hardware does.
    """
    quad = np.asarray(quad, dtype=np.float64)
    if quad.shape[-1] != 4:
        raise ConfigurationError(f"quadruples required, got shape {quad.shape}")
    t = quad.sum(axis=-1, keepdims=True) / 2.0
    out = np.empty_like(quad)
    out[..., 0] = t[..., 0] - quad[..., 0]
    out[..., 1] = t[..., 0] - quad[..., 1]
    out[..., 2] = quad[..., 2] - t[..., 0]
    out[..., 3] = quad[..., 3] - t[..., 0]
    return out


class SoftwareWallaceGrng(Grng):
    """Wallace's method with a configurable pool (Table 1's software rows).

    Parameters
    ----------
    pool_size:
        Number of Gaussians in the pool; must be a multiple of 4.
        Table 1 evaluates 256, 1024 and 4096.
    transform_passes:
        Full random-permutation passes between emitted generations (the
        "multi-loop transformations"; Wallace's reference implementation
        uses 2).
    seed:
        Seeds both the initial pool and the permutation stream.
    """

    def __init__(self, pool_size: int = 1024, seed: int = 0, transform_passes: int = 2) -> None:
        if pool_size < 8 or pool_size % 4 != 0:
            raise ConfigurationError(
                f"pool_size must be a multiple of 4 and >= 8, got {pool_size}"
            )
        if transform_passes < 1:
            raise ConfigurationError(
                f"transform_passes must be >= 1, got {transform_passes}"
            )
        self.pool_size = pool_size
        self.transform_passes = transform_passes
        self._perm_rng = spawn_generator(seed, "wallace-perm")
        self.pool = spawn_generator(seed, "wallace-pool").standard_normal(pool_size)

    def _one_pass(self) -> None:
        order = self._perm_rng.permutation(self.pool_size)
        groups = self.pool[order].reshape(-1, 4)
        self.pool[order] = hadamard_transform(groups).reshape(-1)

    def refresh(self) -> None:
        """Run the configured number of multi-loop passes over the pool."""
        for _ in range(self.transform_passes):
            self._one_pass()

    def generate(self, count: int) -> np.ndarray:
        count = self._check_count(count)
        chunks: list[np.ndarray] = []
        remaining = count
        while remaining > 0:
            self.refresh()
            take = min(remaining, self.pool_size)
            chunks.append(self.pool[:take].copy())
            remaining -= take
        if not chunks:
            return np.empty(0)
        return np.concatenate(chunks)
