"""Activation functions and their derivatives.

The accelerator implements only ReLU (§5.1); softmax runs on the host for
classification read-out, and sigmoid/softplus appear inside the variational
parameterisation (``sigma = softplus(rho)``, ``d sigma / d rho =
sigmoid(rho)``).
"""

from __future__ import annotations

import numpy as np


def relu(x: np.ndarray) -> np.ndarray:
    """Rectified linear unit, the PE's final pipeline stage."""
    return np.maximum(x, 0.0)


def relu_grad(x: np.ndarray) -> np.ndarray:
    """Derivative of ReLU w.r.t. its input (1 where ``x > 0``)."""
    return (x > 0.0).astype(x.dtype)


def softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise softmax, numerically stabilised by max subtraction."""
    shifted = logits - logits.max(axis=-1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=-1, keepdims=True)


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Logistic sigmoid, computed stably for large ``|x|``."""
    out = np.empty_like(x, dtype=np.float64)
    positive = x >= 0
    out[positive] = 1.0 / (1.0 + np.exp(-x[positive]))
    exp_x = np.exp(x[~positive])
    out[~positive] = exp_x / (1.0 + exp_x)
    return out


def softplus(x: np.ndarray) -> np.ndarray:
    """``ln(1 + exp(x))`` — the paper's sigma parameterisation (eq. 2).

    Computed as ``max(x, 0) + log1p(exp(-|x|))`` to avoid overflow, in
    place in the result buffer with ``max(x, 0)`` the only temporary (IEEE
    ``+`` commutes, so the bits match the expression form).
    """
    out = np.array(x, dtype=np.float64)
    np.abs(out, out=out)
    np.negative(out, out=out)
    np.exp(out, out=out)
    np.log1p(out, out=out)
    out += np.maximum(x, 0.0)
    return out


def inverse_softplus(y: np.ndarray) -> np.ndarray:
    """Inverse of :func:`softplus` for ``y > 0``: ``ln(exp(y) - 1)``.

    Used when initialising ``rho`` from a desired initial ``sigma``.
    """
    y = np.asarray(y, dtype=np.float64)
    # For large y, expm1(y) overflows harmlessly into inf -> log gives y.
    with np.errstate(over="ignore"):
        return np.where(y > 30.0, y, np.log(np.expm1(np.clip(y, 1e-12, None))))
