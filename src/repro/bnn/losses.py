"""Loss functions (value + gradient w.r.t. logits)."""

from __future__ import annotations

import numpy as np

from repro.bnn.activations import softmax
from repro.errors import ConfigurationError


def cross_entropy_loss(logits: np.ndarray, labels: np.ndarray) -> tuple[float, np.ndarray]:
    """Softmax cross-entropy: mean loss and gradient w.r.t. the logits.

    Parameters
    ----------
    logits:
        Shape ``(batch, classes)`` raw network outputs.
    labels:
        Integer class indices, shape ``(batch,)``.

    Returns
    -------
    (loss, grad):
        ``loss`` is the batch-mean negative log-likelihood; ``grad`` has the
        same shape as ``logits`` and already includes the ``1/batch``
        factor.
    """
    logits = np.asarray(logits, dtype=np.float64)
    labels = np.asarray(labels)
    if logits.ndim != 2:
        raise ConfigurationError(f"logits must be 2-D, got shape {logits.shape}")
    batch = logits.shape[0]
    if labels.shape != (batch,):
        raise ConfigurationError(
            f"labels shape {labels.shape} does not match batch size {batch}"
        )
    if labels.min() < 0 or labels.max() >= logits.shape[1]:
        raise ConfigurationError("labels outside the class range")
    probs = softmax(logits)
    picked = probs[np.arange(batch), labels]
    loss = float(-np.log(np.clip(picked, 1e-300, None)).mean())
    grad = probs.copy()
    grad[np.arange(batch), labels] -= 1.0
    grad /= batch
    return loss, grad

