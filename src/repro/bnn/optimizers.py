"""First-order optimizers operating on lists of parameter arrays in place.

Training happens offline on the host (§2.2: "the network is trained
offline ... using high performance computing platforms"), so these are
plain NumPy implementations.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError
from repro.utils.validation import check_positive


class Adam:
    """Adam (Kingma & Ba) with bias correction."""

    def __init__(
        self,
        learning_rate: float = 1e-3,
        beta1: float = 0.9,
        beta2: float = 0.999,
        epsilon: float = 1e-8,
    ) -> None:
        check_positive("learning_rate", learning_rate)
        if not 0.0 <= beta1 < 1.0 or not 0.0 <= beta2 < 1.0:
            raise ConfigurationError("betas must be in [0, 1)")
        check_positive("epsilon", epsilon)
        self.learning_rate = learning_rate
        self.beta1 = beta1
        self.beta2 = beta2
        self.epsilon = epsilon
        self._m: dict[int, np.ndarray] = {}
        self._v: dict[int, np.ndarray] = {}
        self._scratch: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        self._t = 0

    def update(self, params: list[np.ndarray], grads: list[np.ndarray]) -> None:
        """Apply one Adam step; ``params`` are modified in place.

        All intermediates land in per-slot scratch buffers, so a training
        step allocates nothing here after the first call.  The operation
        order matches the textbook formulation term for term —
        ``m += (1-b1)(g-m)``, ``v += (1-b2)(g^2-v)``,
        ``param -= (lr_t * m) / (sqrt(v) + eps)`` — so the updates are
        bit-identical to the allocating version.
        """
        if len(params) != len(grads):
            raise ConfigurationError("params and grads length mismatch")
        self._t += 1
        lr_t = self.learning_rate * (
            np.sqrt(1.0 - self.beta2**self._t) / (1.0 - self.beta1**self._t)
        )
        for index, (param, grad) in enumerate(zip(params, grads)):
            if param.shape != grad.shape:
                raise ConfigurationError(
                    f"param/grad shape mismatch at {index}: {param.shape} vs {grad.shape}"
                )
            # .get instead of setdefault: setdefault would build its
            # zeros_like default eagerly on every step.
            m = self._m.get(index)
            if m is None:
                m = self._m[index] = np.zeros_like(param)
            v = self._v.get(index)
            if v is None:
                v = self._v[index] = np.zeros_like(param)
            buffers = self._scratch.get(index)
            if buffers is None:
                buffers = self._scratch[index] = (
                    np.empty_like(param),
                    np.empty_like(param),
                )
            scratch, update = buffers
            # m += (1 - beta1) * (grad - m)
            np.subtract(grad, m, out=scratch)
            scratch *= 1.0 - self.beta1
            m += scratch
            # v += (1 - beta2) * (grad**2 - v)
            np.square(grad, out=scratch)
            scratch -= v
            scratch *= 1.0 - self.beta2
            v += scratch
            # param -= (lr_t * m) / (sqrt(v) + epsilon)
            np.sqrt(v, out=scratch)
            scratch += self.epsilon
            np.multiply(m, lr_t, out=update)
            update /= scratch
            param -= update
