"""The per-node growers that `tree.grow_forest` and `tree.SortTrie`
replaced, kept as the references their differential tests compare
against: one tree at a time, one node at a time, each examined feature
sorted and scored on its own, nothing shared between trees.
"""

import random

import numpy as np


def _gini_candidates(ks: np.ndarray, y_sorted: np.ndarray) -> np.ndarray:
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


def _best_gini_split(X, y, idx, max_features, rng, constant):
    """Best (feature, threshold, left_idx, right_idx) in the node, or None.

    Walks features in a per-node shuffled order; constant features do
    not count toward the max_features budget. `constant` flags the
    features constant over the whole tree, skipped without being sorted.
    """
    order = list(range(X.shape[1]))
    rng.shuffle(order)
    best = None  # (score, feature, threshold, sort_order, k)
    examined = 0
    for f in order:
        if examined >= max_features:
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
        scores = _gini_candidates(ks, y[idx[sort_order]])
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
    return f, thr, idx[sort_order[:k]], idx[sort_order[k:]]


def grow_gini_tree(X: np.ndarray, y: np.ndarray, max_features: int, rng: random.Random) -> dict:
    """The gini tree of (X, y), grown depth first, left child first."""
    constant = X.min(axis=0) == X.max(axis=0)
    root: dict = {}
    stack = [(root, np.arange(X.shape[0]))]
    while stack:
        node, idx = stack.pop()
        vals = y[idx]
        pure = bool((vals == vals[0]).all())
        split = None if pure else _best_gini_split(X, y, idx, max_features, rng, constant)
        if split is None:
            node["value"] = 1.0 if 2 * int(vals.sum()) > idx.shape[0] else 0.0
            continue
        f, thr, left_idx, right_idx = split
        left: dict = {}
        right: dict = {}
        node["feature"] = f
        node["threshold"] = thr
        node["left"] = left
        node["right"] = right
        stack.append((right, right_idx))
        stack.append((left, left_idx))
    return root


def _mse_candidates(ks: np.ndarray, t_sorted: np.ndarray) -> np.ndarray:
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


def _best_mse_split(X, t, idx, constant):
    """Best (feature, threshold, left_idx, right_idx) in the node, or None.

    Walks features in index order. `constant` flags the features
    constant over the whole tree, which are skipped without being sorted.
    """
    best = None  # (score, feature, threshold, sort_order, k)
    for f in range(X.shape[1]):
        if constant[f]:
            continue
        col = X[idx, f]
        sort_order = np.argsort(col, kind="stable")
        col_sorted = col[sort_order]
        if col_sorted[0] == col_sorted[-1]:
            continue
        # boundaries between distinct values; a non-constant column has one
        ks = np.nonzero(col_sorted[1:] != col_sorted[:-1])[0] + 1
        scores = _mse_candidates(ks, t[idx[sort_order]])
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
    return f, thr, idx[sort_order[:k]], idx[sort_order[k:]]


def grow_mse_tree(X: np.ndarray, t: np.ndarray, max_depth: int, leaf_value) -> dict:
    """The squared-error tree of targets t, grown depth first, left child
    first; a leaf holds leaf_value(row indices)."""
    constant = X.min(axis=0) == X.max(axis=0)
    root: dict = {}
    stack = [(root, np.arange(X.shape[0]), 0)]
    while stack:
        node, idx, depth = stack.pop()
        vals = t[idx]
        pure = bool((vals == vals[0]).all())
        can_split = not pure and depth < max_depth
        split = _best_mse_split(X, t, idx, constant) if can_split else None
        if split is None:
            node["value"] = leaf_value(idx)
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
