"""Classification metrics used across the experiments."""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError


def accuracy(predictions: np.ndarray, labels: np.ndarray) -> float:
    """Fraction of correct hard predictions."""
    predictions = np.asarray(predictions)
    labels = np.asarray(labels)
    if predictions.shape != labels.shape:
        raise ConfigurationError(
            f"shape mismatch: predictions {predictions.shape} vs labels {labels.shape}"
        )
    if predictions.size == 0:
        raise ConfigurationError("cannot compute accuracy of empty arrays")
    return float((predictions == labels).mean())


def expected_calibration_error(
    probabilities: np.ndarray, labels: np.ndarray, bins: int = 10
) -> float:
    """ECE — how trustworthy the predicted confidences are.

    The BNN's key selling point (§1) is calibrated uncertainty; this metric
    backs the small-data experiments with a quantitative check.
    """
    if bins < 1:
        raise ConfigurationError(f"bins must be >= 1, got {bins}")
    probabilities = np.asarray(probabilities, dtype=np.float64)
    labels = np.asarray(labels)
    confidences = probabilities.max(axis=1)
    predictions = probabilities.argmax(axis=1)
    correct = predictions == labels
    edges = np.linspace(0.0, 1.0, bins + 1)
    ece = 0.0
    for low, high in zip(edges[:-1], edges[1:]):
        mask = (confidences > low) & (confidences <= high)
        if not mask.any():
            continue
        gap = abs(correct[mask].mean() - confidences[mask].mean())
        ece += mask.mean() * gap
    return float(ece)
