"""Logistic regression trained by full-batch gradient descent on the
L2-regularized log-loss. The bias is not regularized. Features are
standardized internally; score is the sigmoid probability.

The fit runs gradient-only epochs: the loss itself is never needed to
take a step. The margins are a fixed-order sum over the features and
the gradient a numpy row sum over the feature columns, so no product
goes through BLAS and the fitted w and b are the same on any BLAS
build.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .base import Classifier, Standardizer, sigmoid

STEP = 0.1
EPOCHS = 500
L2 = 1e-4


def margins(Xt: np.ndarray, w: np.ndarray, b: float) -> np.ndarray:
    """z = X w + b, with X given as its feature columns Xt = X.T, summed
    feature by feature from zero."""
    z = np.zeros(Xt.shape[1])
    for f in range(Xt.shape[0]):
        z += Xt[f] * w[f]
    return z + b


def gradient(
    w: np.ndarray, b: float, Xt: np.ndarray, y: np.ndarray, l2: float
) -> tuple[np.ndarray, float]:
    """(dloss/dw, dloss/db) of the regularized mean log-loss
    mean(log(1 + e^z) - y z) + (l2 / 2) ||w||^2, X given as Xt = X.T."""
    residual = sigmoid(margins(Xt, w, b)) - y
    grad_w = (Xt * residual).sum(axis=1) / Xt.shape[1] + l2 * w
    return grad_w, float(residual.mean())


class LogisticRegression(Classifier):
    kind = "LR"
    threshold = 0.5

    def __init__(self):
        super().__init__()
        self.standardizer = Standardizer()
        self.w: Optional[np.ndarray] = None
        self.b: float = 0.0

    def _fit(self, X: np.ndarray, y: np.ndarray) -> None:
        # C order, so each feature column is contiguous for the row sums
        Xt = np.ascontiguousarray(self.standardizer.fit(X).transform(X).T)
        yf = y.astype(np.float64)
        self.w = np.zeros(X.shape[1])
        self.b = 0.0
        for _ in range(EPOCHS):
            grad_w, grad_b = gradient(self.w, self.b, Xt, yf, L2)
            self.w = self.w - STEP * grad_w
            self.b = self.b - STEP * grad_b

    def _score(self, X: np.ndarray) -> np.ndarray:
        return sigmoid(margins(self.standardizer.transform(X).T, self.w, self.b))
