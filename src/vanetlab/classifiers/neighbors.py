"""k-nearest-neighbor voting over standardized features.

Each query votes over its K nearest training rows, or every row when
there are fewer. Distance ties resolve to the lower training-row index.
A split vote goes to the class with the smaller summed neighbor
distance, then to normal. Score is the malicious fraction of the
neighborhood, so for an odd count the majority label coincides with
score >= 0.5.

Squared distances come from base.sq_dists, a bounded block of query
rows at a time, so each distance is the same fixed-order sum whatever
the feature count, the block or the host's BLAS.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .base import Classifier, Standardizer, row_blocks, sq_dists

K = 5


class KNearestNeighbors(Classifier):
    kind = "KNN"
    threshold = 0.5

    def __init__(self):
        super().__init__()
        self.standardizer = Standardizer()
        self.train_X: Optional[np.ndarray] = None
        self.train_y: Optional[np.ndarray] = None

    def _fit(self, X: np.ndarray, y: np.ndarray) -> None:
        self.train_X = self.standardizer.fit(X).transform(X)
        self.train_y = y.copy()

    def _neighbors(self, Xs: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
        """(indices, distances) of the k nearest per query row, k clamped
        to the training rows.

        The k-th smallest squared distance comes from a partition; only the
        rows not above it are then stably sorted, so the k kept are those a
        full stable argsort would keep: ties go to the lower row index, and
        NaN distances sort last (Standardizer.fit rejects the overflowing
        features that would produce them).
        """
        n = self.train_X.shape[0]
        k = min(k, n)
        idx = np.empty((Xs.shape[0], k), dtype=np.int64)
        dist = np.empty((Xs.shape[0], k))
        for blk in row_blocks(Xs.shape[0], n):
            for q, d2 in enumerate(sq_dists(Xs[blk], self.train_X), blk.start):
                near = np.flatnonzero(~(d2 > np.partition(d2, k - 1)[k - 1]))
                order = near[np.argsort(d2[near], kind="stable")[:k]]
                idx[q] = order
                dist[q] = np.sqrt(d2[order])
            del d2  # a row's view would keep its block alive into the next
        return idx, dist

    def _score(self, X: np.ndarray) -> np.ndarray:
        idx, _ = self._neighbors(self.standardizer.transform(X), K)
        return self.train_y[idx].mean(axis=1)

    def classify(self, X) -> tuple[np.ndarray, np.ndarray]:
        """Majority labels and scores from one neighbor search."""
        X = self._check_ready(X)
        idx, dist = self._neighbors(self.standardizer.transform(X), K)
        labels = self.train_y[idx]
        pos = labels.sum(axis=1)
        neg = labels.shape[1] - pos
        out = (pos > neg).astype(np.int64)
        for q in np.flatnonzero(pos == neg):
            pos_dist = float(dist[q][labels[q] == 1].sum())
            neg_dist = float(dist[q][labels[q] == 0].sum())
            out[q] = 1 if pos_dist < neg_dist else 0
        return out, labels.mean(axis=1)
