"""Binary CART grown greedily, shared by the forest (gini) and the
boosting stages (squared error with caller-supplied leaf values).

Nodes are plain dicts so trees serialize to JSON as-is:
  leaf     {"value": v}
  internal {"feature": f, "threshold": t, "left": n, "right": n}

A node splits while it is impure and a candidate threshold exists, even
when the best achievable gain is zero; parity-style targets need those
splits to become separable deeper down. Ties between candidate splits
resolve to the earliest feature in walk order, then the smallest
threshold, so growth is deterministic for a fixed walk order.
"""

from __future__ import annotations

import random
from typing import Callable, Optional

import numpy as np


def _split_candidates_mse(ks: np.ndarray, t_sorted: np.ndarray) -> np.ndarray:
    """Weighted child SSE for every boundary k in ks (rows [:k] go left)."""
    m = t_sorted.shape[0]
    cum_t = np.cumsum(t_sorted)
    cum_t2 = np.cumsum(t_sorted * t_sorted)
    total_t = cum_t[-1]
    total_t2 = cum_t2[-1]
    lt = cum_t[ks - 1]
    lt2 = cum_t2[ks - 1]
    nl = ks.astype(np.float64)
    nr = m - nl
    sse_l = lt2 - lt * lt / nl
    sse_r = (total_t2 - lt2) - (total_t - lt) * (total_t - lt) / nr
    return sse_l + sse_r


def _split_candidates_gini(ks: np.ndarray, y_sorted: np.ndarray) -> np.ndarray:
    """Weighted child gini (times node size) for every boundary k in ks."""
    m = y_sorted.shape[0]
    cum_pos = np.cumsum(y_sorted)
    total_pos = cum_pos[-1]
    pl = cum_pos[ks - 1].astype(np.float64)
    nl = ks.astype(np.float64)
    nr = m - nl
    pr = total_pos - pl
    gini_l = nl - (pl * pl + (nl - pl) * (nl - pl)) / nl
    gini_r = nr - (pr * pr + (nr - pr) * (nr - pr)) / nr
    return gini_l + gini_r


def _best_split(
    X: np.ndarray,
    t: np.ndarray,
    idx: np.ndarray,
    criterion: str,
    max_features: Optional[int],
    rng: Optional[random.Random],
    constant: np.ndarray,
):
    """Best (feature, threshold, left_idx, right_idx) in the node, or None.

    Walks features in a per-node shuffled order when an rng is given;
    constant features do not count toward the max_features budget.
    `constant` flags the features constant over the whole tree, which
    are skipped without being sorted.
    """
    n_features = X.shape[1]
    order = list(range(n_features))
    if rng is not None:
        rng.shuffle(order)
    budget = n_features if max_features is None else max_features

    best = None  # (score, feature, threshold, sort_order, k)
    examined = 0
    for f in order:
        if examined >= budget:
            break
        if constant[f]:
            continue
        col = X[idx, f]
        sort_order = np.argsort(col, kind="stable")
        col_sorted = col[sort_order]
        if col_sorted[0] == col_sorted[-1]:
            continue
        examined += 1
        # boundaries between distinct values; a non-constant column has one
        ks = np.nonzero(col_sorted[1:] != col_sorted[:-1])[0] + 1
        t_sorted = t[idx[sort_order]]
        if criterion == "mse":
            scores = _split_candidates_mse(ks, t_sorted)
        else:
            scores = _split_candidates_gini(ks, t_sorted)
        j = int(np.argmin(scores))
        if best is None or scores[j] < best[0]:
            k = int(ks[j])
            thr = (col_sorted[k - 1] + col_sorted[k]) / 2.0
            if thr >= col_sorted[k]:
                thr = float(col_sorted[k - 1])
            best = (float(scores[j]), f, float(thr), sort_order, k)
    if best is None:
        return None
    _, f, thr, sort_order, k = best
    left = idx[sort_order[:k]]
    right = idx[sort_order[k:]]
    return f, thr, left, right


def grow_tree(
    X: np.ndarray,
    t: np.ndarray,
    *,
    criterion: str,
    max_depth: Optional[int],
    max_features: Optional[int] = None,
    rng: Optional[random.Random] = None,
    leaf_value: Optional[Callable[[np.ndarray], float]] = None,
) -> dict:
    if criterion not in ("gini", "mse"):
        raise ValueError(f"unknown criterion {criterion!r}")

    def default_leaf(idx: np.ndarray) -> float:
        vals = t[idx]
        if criterion == "gini":
            return 1.0 if 2 * int(vals.sum()) > idx.shape[0] else 0.0
        return float(vals.mean())

    value_of = leaf_value or default_leaf
    # a feature constant over the root rows is constant in every node
    constant = X.min(axis=0) == X.max(axis=0)
    root: dict = {}
    stack = [(root, np.arange(X.shape[0]), 0)]
    while stack:
        node, idx, depth = stack.pop()
        vals = t[idx]
        pure = bool((vals == vals[0]).all())
        can_split = (
            not pure
            and (max_depth is None or depth < max_depth)
        )
        split = (
            _best_split(X, t, idx, criterion, max_features, rng, constant)
            if can_split
            else None
        )
        if split is None:
            node["value"] = value_of(idx)
            continue
        f, thr, left_idx, right_idx = split
        left: dict = {}
        right: dict = {}
        node["feature"] = f
        node["threshold"] = thr
        node["left"] = left
        node["right"] = right
        stack.append((right, right_idx, depth + 1))
        stack.append((left, left_idx, depth + 1))
    return root


def tree_apply(node: dict, X: np.ndarray) -> np.ndarray:
    """Leaf value per row, evaluated by index-set descent."""
    out = np.empty(X.shape[0], dtype=np.float64)
    stack = [(node, np.arange(X.shape[0]))]
    while stack:
        nd, idx = stack.pop()
        if idx.shape[0] == 0:
            continue
        if "value" in nd:
            out[idx] = nd["value"]
            continue
        mask = X[idx, nd["feature"]] <= nd["threshold"]
        stack.append((nd["left"], idx[mask]))
        stack.append((nd["right"], idx[~mask]))
    return out
