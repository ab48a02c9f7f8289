"""Huber loss for outlier-tolerant estimation."""

from __future__ import annotations

import numpy as np


def huber(norm, delta):
    """Huber loss and IRLS weight for a residual norm.

    Quadratic (0.5 n^2) for n <= delta and linear (delta (n - delta/2))
    beyond; the weight min(1, delta/n) reweights squared residuals so the
    weighted quadratic majorizes the true loss.
    """
    if delta <= 0.0:
        raise ValueError("huber delta must be positive")
    norm = abs(float(norm))
    if norm <= delta:
        return 0.5 * norm * norm, 1.0
    return delta * (norm - 0.5 * delta), delta / norm


def huber_loss_many(norms, delta):
    norms = np.abs(np.asarray(norms, dtype=float))
    quad = norms <= delta
    out = np.where(quad, 0.5 * norms * norms, delta * (norms - 0.5 * delta))
    return out


def huber_weight_many(norms, delta):
    norms = np.abs(np.asarray(norms, dtype=float))
    return np.where(norms <= delta, 1.0, delta / np.maximum(norms, 1e-300))
