"""Binary CART grown greedily: gini trees for the forest, grown side by
side in lockstep, and squared-error trees with caller-supplied leaf
values for the boosting stages, grown one node at a time.

Nodes are plain dicts so trees serialize to JSON as-is:
  leaf     {"value": v}
  internal {"feature": f, "threshold": t, "left": n, "right": n}

A node splits while it is impure and a candidate threshold exists, even
when the best achievable gain is zero; parity-style targets need those
splits to become separable deeper down. Ties between candidate splits
resolve to the earliest feature in walk order, then the smallest
threshold, so growth is deterministic for a fixed walk order.

`grow_forest` grows each tree depth first, left child first, and each
step takes the next node of every unfinished tree. Per feature, one sort
of the key (node, value rank, label) over all those nodes' rows gives
every node's label counts left of every boundary between its adjacent
distinct values, as a prefix sum minus the node's base. The gini score
of a boundary is a fixed formula of four integer counts, so it is the
same float whatever order the rows are in or are summed in, and the
batch scores every node exactly as a search of that node alone would.
Each node then walks its features in its own tree's `rng.shuffle`
order, draws taken in that tree's depth-first order as a lone tree
would take them, so trees, thresholds and every later draw are the same
as growing the trees one by one. Squared-error scores are float prefix
sums, which depend on summation order, so `grow_tree` stays per node.
"""

from __future__ import annotations

import itertools
import random
from typing import Callable, Iterable

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


def _best_split(X: np.ndarray, t: np.ndarray, idx: np.ndarray, constant: np.ndarray):
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
        scores = _split_candidates_mse(ks, t[idx[sort_order]])
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
    max_depth: int,
    leaf_value: Callable[[np.ndarray], float],
) -> dict:
    """The squared-error tree of targets t; a leaf holds
    leaf_value(row indices)."""
    # a feature constant over the root rows is constant in every node
    constant = X.min(axis=0) == X.max(axis=0)
    root: dict = {}
    stack = [(root, np.arange(X.shape[0]), 0)]
    while stack:
        node, idx, depth = stack.pop()
        vals = t[idx]
        pure = bool((vals == vals[0]).all())
        can_split = not pure and depth < max_depth
        split = _best_split(X, t, idx, constant) if can_split else None
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


# Trees grown side by side. A step's arrays hold up to this many times
# the training rows, so the cap bounds the working set. On the default
# 1200-row training split (2-core x86 host), 25 trees add about 1 MB to
# the pipeline's peak RSS, and 50 about 2 MB for about a tenth less time.
_LOCKSTEP_TREES = 25


def grow_forest(
    X: np.ndarray,
    y: np.ndarray,
    row_sets: Iterable[np.ndarray],
    rngs: Iterable[random.Random],
    max_features: int,
) -> list[dict]:
    """The gini tree of (X[rows], y[rows]) for each rows in row_sets.

    Every node that can split shuffles the feature order with its tree's
    rng and examines the first max_features features that vary over its
    rows. y holds 0/1 labels; rows may repeat a row id (a bootstrap).
    row_sets and rngs are read one group of trees at a time, so a lazy
    row_sets holds only that group's rows.
    """
    n_features = X.shape[1]
    # per feature, each row's rank among the column's distinct values
    ranks = np.empty((n_features, X.shape[0]), dtype=np.int64)
    values = []
    for f in range(n_features):
        uniq, ranks[f] = np.unique(X[:, f], return_inverse=True)
        values.append(uniq.tolist())
    y = np.asarray(y, dtype=np.int8)
    trees: list[dict] = []
    pairs = zip(row_sets, rngs)
    while group := list(itertools.islice(pairs, _LOCKSTEP_TREES)):
        trees += _grow_lockstep(ranks, values, y, group, max_features)
    return trees


def _node(rows: np.ndarray, n_pos: int, stack: list) -> dict:
    """A leaf if rows are pure, else a node pushed on stack to be split."""
    node: dict = {}
    if n_pos == 0 or n_pos == rows.shape[0]:
        node["value"] = float(n_pos > 0)
    else:
        stack.append((node, rows, n_pos))
    return node


def _cut(a: np.ndarray, lengths: np.ndarray) -> list[np.ndarray]:
    """a cut into consecutive pieces of the given lengths."""
    ends = np.cumsum(lengths).tolist()
    return [a[end - k:end] for end, k in zip(ends, lengths.tolist())]


def _gini(n: np.ndarray, p: np.ndarray) -> np.ndarray:
    """n - (p*p + (n - p)*(n - p)) / n, the gini impurity times size of a
    side of n rows with p positives, in a new array."""
    g = n - p
    g *= g
    g += p * p
    g /= n
    return np.subtract(n, g, out=g)


def _grow_lockstep(ranks, values, y, group, max_features) -> list[dict]:
    """The trees of one group of (rows, rng) pairs, grown side by side."""
    n_features = len(values)
    varying = [f for f in range(n_features) if len(values[f]) > 1]
    stacks: list[list] = [[] for _ in group]
    roots = [
        _node(np.asarray(rows, dtype=np.int32), int(y[rows].sum()), stack)
        for (rows, _), stack in zip(group, stacks)
    ]
    live = [i for i, stack in enumerate(stacks) if stack]
    while live:
        # the next node of every unfinished tree, rows laid end to end
        popped = [stacks[i].pop() for i in live]
        n = len(popped)
        sizes = [rows.shape[0] for _, rows, _ in popped]
        size = np.array(sizes)
        n_pos = np.array([npos for _, _, npos in popped])
        rows = np.concatenate([rows for _, rows, _ in popped])
        labels = y[rows]
        start = np.cumsum(size) - size
        base = np.cumsum(n_pos) - n_pos  # positives in the nodes before
        seg = np.repeat(np.arange(n), size)
        # per feature and node: least score, and the value ranks either
        # side of its first boundary at that score; -1 if none
        score = np.zeros((n_features, n))
        lo = np.full((n_features, n), -1)
        hi = np.full((n_features, n), -1)
        for f in varying:
            nv = len(values[f])
            # one sort of (node, value rank, label) groups each node's rows
            # by value; the labels' prefix sum counts positives
            key = ((seg * nv + ranks[f, rows]) << 1) | labels
            key.sort()
            cum_pos = key & 1
            np.cumsum(cum_pos, out=cum_pos)
            key >>= 1
            change = key[1:] != key[:-1]
            change[start[1:] - 1] = False  # a node's first row is no boundary
            b = np.flatnonzero(change) + 1  # first row right of each boundary
            if not b.size:
                continue
            owner = seg[b]  # each boundary's node
            nl = (b - start[owner]).astype(np.float64)
            pl = (cum_pos[b - 1] - base[owner]).astype(np.float64)
            s = _gini(nl, pl)
            s += _gini(size[owner] - nl, n_pos[owner] - pl)
            # each node's first minimum, boundaries in ascending value order
            firsts = np.flatnonzero(np.diff(owner, prepend=-1))
            nodes = owner[firsts]
            score[f, nodes] = np.minimum.reduceat(s, firsts)
            hits = np.flatnonzero(s == score[f, owner])
            at = b[hits[np.searchsorted(owner[hits], nodes)]]
            lo[f, nodes] = key[at - 1] - nodes * nv
            hi[f, nodes] = key[at] - nodes * nv

        # each node walks its features as a lone tree would
        feature = np.zeros(n, dtype=np.int64)
        cut = np.full(n, -1)
        splits = []
        for p, (i, (node, _, npos), sc, lo_p, hi_p) in enumerate(
            zip(live, popped, score.T.tolist(), lo.T.tolist(), hi.T.tolist())
        ):
            order = list(range(n_features))
            group[i][1].shuffle(order)
            best = None
            examined = 0
            for f in order:
                if examined >= max_features:
                    break
                if lo_p[f] < 0:
                    continue  # constant in the node: costs no budget
                examined += 1
                if best is None or sc[f] < sc[best]:
                    best = f
            if best is None:
                node["value"] = 1.0 if 2 * npos > sizes[p] else 0.0
                continue
            v_lo, v_hi = values[best][lo_p[best]], values[best][hi_p[best]]
            thr = (v_lo + v_hi) / 2.0
            if thr >= v_hi:
                thr = v_lo
            feature[p], cut[p] = best, lo_p[best]
            splits.append((p, i, node, best, thr))

        # rows ranked above the cut go right; each side keeps row order
        right = ranks[feature[seg], rows] > cut[seg]
        right_n = np.bincount(seg[right], minlength=n)
        right_pos = np.bincount(seg[right], weights=labels[right], minlength=n).astype(np.int64)
        lefts = _cut(rows[~right], size - right_n)
        rights = _cut(rows[right], right_n)
        left_pos, right_pos = (n_pos - right_pos).tolist(), right_pos.tolist()
        for p, i, node, f, thr in splits:
            # right pushed first, so the left subtree is grown first
            r = _node(rights[p], right_pos[p], stacks[i])
            node["feature"] = f
            node["threshold"] = thr
            node["left"] = _node(lefts[p], left_pos[p], stacks[i])
            node["right"] = r
        live = [i for i in live if stacks[i]]
    return roots


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
