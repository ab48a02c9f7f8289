"""Huber loss for outlier-tolerant estimation.

Of a residual norm n: quadratic (0.5 n^2) for n <= delta and linear
(delta (n - delta/2)) beyond. The IRLS weight min(1, delta/n) reweights
squared residuals so the weighted quadratic majorizes the true loss.
"""

from __future__ import annotations

import numpy as np


def huber_loss_many(norms, delta):
    norms = np.abs(np.asarray(norms, dtype=float))
    quad = norms <= delta
    out = np.where(quad, 0.5 * norms * norms, delta * (norms - 0.5 * delta))
    return out


def huber_weight_many(norms, delta):
    norms = np.abs(np.asarray(norms, dtype=float))
    return np.where(norms <= delta, 1.0, delta / np.maximum(norms, 1e-300))
