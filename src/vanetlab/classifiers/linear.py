"""Logistic regression trained by full-batch gradient descent on the
L2-regularized log-loss. The bias is not regularized. Features are
standardized internally; score is the sigmoid probability.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .base import Classifier, Standardizer, sigmoid


def loss_and_grad(
    w: np.ndarray, b: float, X: np.ndarray, y: np.ndarray, l2: float
) -> tuple[float, np.ndarray, float]:
    """(loss, dloss/dw, dloss/db) of the regularized mean log-loss.

    loss = mean(log(1 + e^z) - y z) + (l2 / 2) ||w||^2 with z = Xw + b.
    """
    z = X @ w + b
    loss = float(np.mean(np.logaddexp(0.0, z) - y * z)) + 0.5 * l2 * float(w @ w)
    residual = sigmoid(z) - y
    grad_w = X.T @ residual / X.shape[0] + l2 * w
    grad_b = float(residual.mean())
    return loss, grad_w, grad_b


class LogisticRegression(Classifier):
    kind = "LR"
    threshold = 0.5
    fitted = ("standardizer", "w", "b")

    def __init__(
        self,
        step: float = 0.1,
        epochs: int = 500,
        l2: float = 1e-4,
    ):
        super().__init__()
        if step <= 0 or epochs < 1 or l2 < 0:
            raise ValueError("step and epochs must be positive, l2 non-negative")
        self.step = step
        self.epochs = epochs
        self.l2 = l2
        self.standardizer = Standardizer()
        self.w: Optional[np.ndarray] = None
        self.b: float = 0.0
        self.loss_history: list[float] = []

    def _fit(self, X: np.ndarray, y: np.ndarray) -> None:
        Xs = self.standardizer.fit(X).transform(X)
        yf = y.astype(np.float64)
        self.w = np.zeros(X.shape[1])
        self.b = 0.0
        self.loss_history = []
        for _ in range(self.epochs):
            loss, grad_w, grad_b = loss_and_grad(self.w, self.b, Xs, yf, self.l2)
            self.loss_history.append(loss)
            self.w = self.w - self.step * grad_w
            self.b = self.b - self.step * grad_b
        final_loss, _, _ = loss_and_grad(self.w, self.b, Xs, yf, self.l2)
        self.loss_history.append(final_loss)

    def _score(self, X: np.ndarray) -> np.ndarray:
        Xs = self.standardizer.transform(X)
        return sigmoid(Xs @ self.w + self.b)
