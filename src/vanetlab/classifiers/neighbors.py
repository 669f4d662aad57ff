"""k-nearest-neighbor voting over standardized features.

Distance ties resolve to the lower training-row index. A split vote
goes to the class with the smaller summed neighbor distance, then to
normal. Score is the malicious fraction of the neighborhood, so for odd
k the majority label coincides with score >= 0.5.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .base import Classifier, Standardizer


class KNearestNeighbors(Classifier):
    kind = "KNN"
    threshold = 0.5
    fitted = ("standardizer", "train_X", "train_y")

    def __init__(self, k: int = 5):
        super().__init__()
        if k < 1:
            raise ValueError("k must be positive")
        self.k = k
        self.standardizer = Standardizer()
        self.train_X: Optional[np.ndarray] = None
        self.train_y: Optional[np.ndarray] = None

    def _fit(self, X: np.ndarray, y: np.ndarray) -> None:
        self.train_X = self.standardizer.fit(X).transform(X)
        self.train_y = y.copy()

    def _neighbors(self, Xs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(indices, distances) of the k nearest per query row.

        The k-th smallest squared distance comes from a partition; only the
        rows not above it are then stably sorted, so the k kept are those a
        full stable argsort would keep: ties go to the lower row index, and
        NaN distances sort last (Standardizer.fit rejects the overflowing
        features that would produce them).
        """
        k = min(self.k, self.train_X.shape[0])
        idx = np.empty((Xs.shape[0], k), dtype=np.int64)
        dist = np.empty((Xs.shape[0], k))
        for q in range(Xs.shape[0]):
            diff = self.train_X - Xs[q]
            d2 = (diff * diff).sum(axis=1)
            near = np.flatnonzero(~(d2 > np.partition(d2, k - 1)[k - 1]))
            order = near[np.argsort(d2[near], kind="stable")[:k]]
            idx[q] = order
            dist[q] = np.sqrt(d2[order])
        return idx, dist

    def _score(self, X: np.ndarray) -> np.ndarray:
        idx, _ = self._neighbors(self.standardizer.transform(X))
        return self.train_y[idx].mean(axis=1)

    def classify(self, X) -> tuple[np.ndarray, np.ndarray]:
        """Majority labels and scores from one neighbor search."""
        X = self._check_ready(X)
        idx, dist = self._neighbors(self.standardizer.transform(X))
        labels = self.train_y[idx]
        pos = labels.sum(axis=1)
        neg = labels.shape[1] - pos
        out = (pos > neg).astype(np.int64)
        for q in np.flatnonzero(pos == neg):
            pos_dist = float(dist[q][labels[q] == 1].sum())
            neg_dist = float(dist[q][labels[q] == 0].sum())
            out[q] = 1 if pos_dist < neg_dist else 0
        return out, labels.mean(axis=1)
