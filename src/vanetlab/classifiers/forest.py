"""Random forest: bagged gini trees with per-split feature subsampling.

The predicted label is the majority vote over trees; score is the
fraction of trees voting malicious. With an even tree count an exact
50/50 vote resolves to normal, encoded by the decision threshold
(n_trees // 2 + 1) / n_trees.
"""

from __future__ import annotations

import random

import numpy as np

from ..engine import substream
from .base import Classifier
from .tree import grow_tree, tree_apply

_RF_TREE_KEY = 211


def bootstrap_rows(rng: random.Random, n: int) -> np.ndarray:
    """`[rng.randrange(n) for _ in range(n)]` from a few bulk draws.

    CPython's randrange(n) takes the top n.bit_length() bits of one
    32-bit Mersenne Twister word per try and rejects values >= n. Here
    the same rule is applied to words from getrandbits, which fills its
    result with words in draw order from the least significant end. Each
    round draws one word per row still missing, never more words than
    randrange would take, so the rows and every later draw match. Valid
    for n < 2**32.
    """
    shift = 32 - n.bit_length()
    kept = []
    need = n
    while need:
        bits = rng.getrandbits(32 * need).to_bytes(4 * need, "little")
        tries = np.frombuffer(bits, dtype="<u4") >> shift
        kept.append(tries[tries < n])
        need -= kept[-1].size
    return np.concatenate(kept).astype(np.int64)


class RandomForest(Classifier):
    kind = "RF"
    fitted = {"trees": list}

    def __init__(
        self,
        n_trees: int = 100,
        max_features: int = 2,
        bootstrap: bool = True,
        seed: int = 0,
    ):
        super().__init__()
        if n_trees < 1 or max_features < 1:
            raise ValueError("n_trees and max_features must be positive")
        self.n_trees = n_trees
        self.max_features = max_features
        self.bootstrap = bootstrap
        self.seed = seed
        self.threshold = (n_trees // 2 + 1) / n_trees
        self.trees: list[dict] = []

    def _fit(self, X: np.ndarray, y: np.ndarray) -> None:
        n = X.shape[0]
        self.trees = []
        for i in range(self.n_trees):
            rng = substream(self.seed, _RF_TREE_KEY, i)
            if self.bootstrap:
                rows = bootstrap_rows(rng, n)
                Xb, yb = X[rows], y[rows]
            else:
                Xb, yb = X, y
            tree = grow_tree(
                Xb,
                yb,
                criterion="gini",
                max_depth=None,
                max_features=min(self.max_features, X.shape[1]),
                rng=rng,
            )
            self.trees.append(tree)

    def _score(self, X: np.ndarray) -> np.ndarray:
        votes = np.stack([tree_apply(t, X) for t in self.trees])
        return votes.sum(axis=0) / self.n_trees
