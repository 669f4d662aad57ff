"""Gradient boosting for binary log-loss.

The ensemble is F(x) = F0 + lr * sum of stage trees, F0 the prior
log-odds. Each stage fits a squared-error tree to the negative gradient
y - sigmoid(F) and replaces leaf means with a single Newton step
sum(residual) / sum(p*(1-p)) over the leaf. Score is sigmoid(F).
"""

from __future__ import annotations

import math

import numpy as np

from .base import Classifier, sigmoid
from .tree import grow_tree, tree_apply

P_HAT_CLIP = 1e-6


def log_loss(y: np.ndarray, raw: np.ndarray) -> float:
    """Mean binomial deviance of raw scores F against {0,1} labels."""
    return float(np.mean(np.logaddexp(0.0, raw) - y * raw))


class GradientBoosting(Classifier):
    kind = "GB"
    threshold = 0.5
    fitted = ("f0", "trees")

    def __init__(
        self,
        n_estimators: int = 50,
        learning_rate: float = 0.1,
        max_depth: int = 10,
    ):
        super().__init__()
        if n_estimators < 1 or learning_rate <= 0 or max_depth < 1:
            raise ValueError("n_estimators, learning_rate and max_depth must be positive")
        self.n_estimators = n_estimators
        self.learning_rate = learning_rate
        self.max_depth = max_depth
        self.f0: float = 0.0
        self.trees: list[dict] = []
        self.loss_history: list[float] = []

    def _fit(self, X: np.ndarray, y: np.ndarray) -> None:
        yf = y.astype(np.float64)
        p_hat = min(max(float(yf.mean()), P_HAT_CLIP), 1.0 - P_HAT_CLIP)
        self.f0 = math.log(p_hat / (1.0 - p_hat))
        raw = np.full(X.shape[0], self.f0)
        self.trees = []
        self.loss_history = [log_loss(yf, raw)]
        for _ in range(self.n_estimators):
            p = sigmoid(raw)
            residual = yf - p
            weight = p * (1.0 - p)

            def newton_leaf(idx: np.ndarray) -> float:
                den = float(weight[idx].sum())
                if den < 1e-150:
                    return 0.0
                return float(residual[idx].sum()) / den

            tree = grow_tree(
                X,
                residual,
                max_depth=self.max_depth,
                leaf_value=newton_leaf,
            )
            self.trees.append(tree)
            raw = raw + self.learning_rate * tree_apply(tree, X)
            self.loss_history.append(log_loss(yf, raw))

    def _raw(self, X: np.ndarray) -> np.ndarray:
        """F(x) of rows already checked by _check_ready."""
        raw = np.full(X.shape[0], self.f0)
        for tree in self.trees:
            raw += self.learning_rate * tree_apply(tree, X)
        return raw

    def decision_function(self, X) -> np.ndarray:
        return self._raw(self._check_ready(X))

    def _score(self, X: np.ndarray) -> np.ndarray:
        return sigmoid(self._raw(X))
