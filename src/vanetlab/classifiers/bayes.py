"""Gaussian naive Bayes on raw features.

Per class: empirical prior, per-feature mean and variance. Every
variance is widened by VAR_SMOOTHING_FACTOR (1e-9) times the largest
feature variance so constant features stay finite in log space. Score is the
normalized posterior of the malicious class.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from .base import Classifier

VAR_SMOOTHING_FACTOR = 1e-9


class GaussianNaiveBayes(Classifier):
    kind = "GNB"
    threshold = 0.5

    def __init__(self):
        super().__init__()
        self.log_priors: Optional[np.ndarray] = None  # [class0, class1]
        self.means: Optional[np.ndarray] = None  # (2, n_features)
        self.variances: Optional[np.ndarray] = None  # (2, n_features)
        self.epsilon: float = 0.0

    def _fit(self, X: np.ndarray, y: np.ndarray) -> None:
        # finite entries near the float maximum can overflow the sums
        with np.errstate(over="ignore", invalid="ignore"):
            var = X.var(axis=0)
            max_var = float(var.max())
            self.epsilon = VAR_SMOOTHING_FACTOR * max_var if max_var > 0 else VAR_SMOOTHING_FACTOR
            parts = [X[y == c] for c in (0, 1)]
            means = np.stack([rows.mean(axis=0) for rows in parts])
            variances = np.stack([rows.var(axis=0) + self.epsilon for rows in parts])
        # an overflowing feature makes epsilon, and so every variance,
        # infinite: look for it by its own statistics first
        for finite in (np.isfinite(var) & np.isfinite(means).all(axis=0),
                       np.isfinite(variances).all(axis=0)):
            bad = np.flatnonzero(~finite)
            if bad.size:
                raise ValueError(
                    f"feature {bad[0]}: class mean, variance or epsilon overflows float64")
        n = X.shape[0]
        self.log_priors = np.array([math.log(rows.shape[0] / n) for rows in parts])
        self.means = means
        self.variances = variances

    def _joint(self, X: np.ndarray) -> np.ndarray:
        """(N, 2) log P(C=c) + sum_i log N(x_i | mean, var) of rows
        already checked by _check_ready."""
        out = np.empty((X.shape[0], 2))
        for c in (0, 1):
            diff = X - self.means[c]
            ll = -0.5 * (
                np.log(2.0 * math.pi * self.variances[c])
                + diff * diff / self.variances[c]
            ).sum(axis=1)
            out[:, c] = self.log_priors[c] + ll
        return out

    def _score(self, X: np.ndarray) -> np.ndarray:
        joint = self._joint(X)
        return np.exp(joint[:, 1] - np.logaddexp(joint[:, 0], joint[:, 1]))
