"""Gradient boosting for binary log-loss.

The ensemble is F(x) = F0 + lr * sum of stage trees, F0 the prior
log-odds. Each stage fits a squared-error tree to the negative gradient
y - sigmoid(F) and replaces leaf means with a single Newton step
sum(residual) / sum(p*(1-p)) over the leaf. Score is sigmoid(F).

All stages grow through one `SortTrie` of the training rows: a node that
an earlier stage reached by the same splits is searched without being
sorted again, and the trees are the same as sorting every node afresh.
"""

from __future__ import annotations

import math

import numpy as np

from .base import Classifier, sigmoid
from .tree import SortTrie, grow_tree, tree_apply

P_HAT_CLIP = 1e-6

N_ESTIMATORS = 50
LEARNING_RATE = 0.1
MAX_DEPTH = 10


class GradientBoosting(Classifier):
    kind = "GB"
    threshold = 0.5

    def __init__(self):
        super().__init__()
        self.f0: float = 0.0
        self.trees: list[dict] = []

    def _fit(self, X: np.ndarray, y: np.ndarray) -> None:
        yf = y.astype(np.float64)
        p_hat = min(max(float(yf.mean()), P_HAT_CLIP), 1.0 - P_HAT_CLIP)
        self.f0 = math.log(p_hat / (1.0 - p_hat))
        raw = np.full(X.shape[0], self.f0)
        self.trees = []
        trie = SortTrie(X)
        for _ in range(N_ESTIMATORS):
            p = sigmoid(raw)
            residual = yf - p
            weight = p * (1.0 - p)

            def newton_leaf(idx: np.ndarray) -> float:
                den = float(weight[idx].sum())
                if den < 1e-150:
                    return 0.0
                return float(residual[idx].sum()) / den

            tree = grow_tree(trie, residual, max_depth=MAX_DEPTH, leaf_value=newton_leaf)
            self.trees.append(tree)
            raw = raw + LEARNING_RATE * tree_apply(tree, X)

    def _raw(self, X: np.ndarray) -> np.ndarray:
        """F(x) of rows already checked by _check_ready."""
        raw = np.full(X.shape[0], self.f0)
        for tree in self.trees:
            raw += LEARNING_RATE * tree_apply(tree, X)
        return raw

    def _score(self, X: np.ndarray) -> np.ndarray:
        return sigmoid(self._raw(X))
