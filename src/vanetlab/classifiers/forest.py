"""Random forest: bagged gini trees with per-split feature subsampling.

The predicted label is the majority vote over trees; score is the
fraction of trees voting malicious. With an even tree count an exact
50/50 vote resolves to normal, encoded by the decision threshold
(n_trees // 2 + 1) / n_trees.

Tree i draws its bootstrap and then its per-node feature orders from its
own substream (seed, 211, i). `tree.grow_forest` grows the trees side by
side, one batched split search per step over the next node of every
tree. A gini score is a formula of integer label counts, so the batch
finds each node's split exactly as that node alone would, and each tree
takes its draws in its own depth-first order: the trees equal those of
growing each tree by itself.
"""

from __future__ import annotations

import random

import numpy as np

from ..engine import substream
from .base import Classifier
from .tree import grow_forest, tree_apply

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
    fitted = ("trees",)

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
        rngs = [substream(self.seed, _RF_TREE_KEY, i) for i in range(self.n_trees)]
        # drawn lazily, as the grower reaches each group of trees
        row_sets = (bootstrap_rows(rng, n) if self.bootstrap else np.arange(n) for rng in rngs)
        self.trees = grow_forest(X, y, row_sets, rngs, min(self.max_features, X.shape[1]))

    def _score(self, X: np.ndarray) -> np.ndarray:
        votes = np.stack([tree_apply(t, X) for t in self.trees])
        return votes.sum(axis=0) / self.n_trees
