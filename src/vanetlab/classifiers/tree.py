"""Binary CART grown greedily: gini trees for the forest, grown side by
side in lockstep, and squared-error trees with caller-supplied leaf
values for the boosting stages, which share their node sorts.

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
as growing the trees one by one.

`grow_tree` searches one node at a time, since squared-error scores are
float prefix sums, which depend on summation order. What a search needs
of a node's rows alone (their stable order by each feature, the
boundaries between distinct values, the thresholds) sits in a
`SortTrie`, keyed by the path of splits from the root, so the boosting
stages, whose targets change but whose splits mostly repeat, sort each
node they reach once per fit (Mehta, Agrawal & Rissanen, "SLIQ", EDBT
1996; Chen & Guestrin, "XGBoost", KDD 2016, 4.1). A search then only
gathers its targets in each order and takes the prefix sums and scores:
the same operations on the same operands in the same order as sorting
the node afresh, so trees are bit-for-bit the same.
"""

from __future__ import annotations

import itertools
import random
from typing import Callable, Iterable

import numpy as np


# Bytes of node sorts a SortTrie keeps for later trees. The GB fit on the
# default 1200-row training split keeps all 29 nodes it searches in about
# 0.2 MB; a fit whose stages all split differently stops keeping nodes
# here, and sorts each later node for its own search alone.
SORT_BYTES = 1 << 22


class _NodeSorts:
    """A node's rows in stable value order of each feature that varies over
    them, and what a squared-error search needs of every boundary k between
    adjacent distinct values (a feature's rows [:k] go left). Every array
    here depends on the rows alone, so every tree that reaches the node
    can use them; only the targets change.

    `order` holds one row per feature. Each other array holds one entry
    per boundary, the features' boundaries laid end to end, those of
    feature position p at [seg[p], seg[p + 1]): `nl` and `nr` count the
    rows left and right of it (so `nl` is k), `thr` is its threshold,
    and `at` and `ends` index its last left row and its feature's last
    row in prefix sums over `order` flattened.
    """

    __slots__ = ("features", "order", "seg", "at", "ends", "nl", "nr", "thr", "nbytes")

    def __init__(self, X: np.ndarray, rows: np.ndarray, varying: list[int]):
        m = rows.shape[0]
        self.features: list[int] = []
        orders, ks, thrs = [], [], []
        for f in varying:
            col = X[rows, f]
            sort_order = np.argsort(col, kind="stable")
            col_sorted = col[sort_order]
            if col_sorted[0] == col_sorted[-1]:
                continue
            k = np.nonzero(col_sorted[1:] != col_sorted[:-1])[0] + 1
            lo, hi = col_sorted[k - 1], col_sorted[k]
            thr = (lo + hi) / 2.0
            # a midpoint that rounds onto the upper value falls back to the lower
            thrs.append(np.where(thr >= hi, lo, thr))
            self.features.append(f)
            orders.append(rows[sort_order])
            ks.append(k)
        counts = [k.size for k in ks]
        self.seg = np.cumsum([0] + counts).tolist()
        self.order = np.array(orders, dtype=rows.dtype).reshape(len(orders), m)
        k = np.concatenate([np.empty(0, dtype=np.intp), *ks])
        self.nl = k.astype(np.float64)
        self.nr = m - self.nl
        starts = np.repeat(np.arange(len(ks)) * m, counts)
        self.at = starts + k - 1
        self.ends = starts + (m - 1)
        self.thr = np.concatenate([np.empty(0), *thrs])
        self.nbytes = sum(a.nbytes for a in (self.order, self.at, self.ends, self.nl, self.nr, self.thr))

    def best(self, t: np.ndarray):
        """(feature position, boundary index) of the least weighted child
        SSE under targets t, or None if no feature varies.

        Scores every boundary of every feature at once; each row of the
        axis-1 prefix sums is the same sequential scan as a 1-D cumsum of
        that feature's sorted targets. Features are walked in index order
        and a later one wins only with a strictly smaller score.
        """
        if not self.features:
            return None
        t_sorted = t[self.order]
        cum_t = np.cumsum(t_sorted, axis=1).ravel()
        cum_t2 = np.cumsum(t_sorted * t_sorted, axis=1).ravel()
        total_t = cum_t[self.ends]
        total_t2 = cum_t2[self.ends]
        lt = cum_t[self.at]
        lt2 = cum_t2[self.at]
        sse_l = lt2 - lt * lt / self.nl
        sse_r = (total_t2 - lt2) - (total_t - lt) * (total_t - lt) / self.nr
        scores = sse_l + sse_r
        best = None  # (score, feature position, boundary index)
        for p, (a, b) in enumerate(zip(self.seg, self.seg[1:])):
            j = int(np.argmin(scores[a:b]))
            if best is None or scores[a + j] < best[0]:
                best = (scores[a + j], p, a + j)
        return best[1:]


class _TrieNode:
    """A node's rows, its sorts once kept, and its children once a split
    reached them, keyed by the split's (feature, k)."""

    __slots__ = ("rows", "sorts", "children")

    def __init__(self, rows: np.ndarray):
        self.rows = rows
        self.sorts: _NodeSorts | None = None
        self.children: dict[tuple[int, int], tuple[_TrieNode, _TrieNode]] = {}


class SortTrie:
    """The node sorts of one training matrix, shared by the trees grown on it.

    Trees of different targets often split a node the same way, so they
    reach the same row sets; each is sorted once per trie, not once per
    tree. A node's sorts are kept while the kept bytes stay within
    SORT_BYTES; past that they serve one search and are dropped. Only a
    kept node keeps its children, whose rows are views of its sorted rows.
    """

    def __init__(self, X: np.ndarray):
        self.X = X
        # a feature constant over the root rows is constant in every node
        self.varying = np.flatnonzero(X.min(axis=0) != X.max(axis=0)).tolist()
        self.kept_bytes = 0
        self.root = _TrieNode(np.arange(X.shape[0]))

    def split(self, node: _TrieNode, t: np.ndarray):
        """Best (feature, threshold, left, right) of node under targets t,
        or None; left and right are the children's trie nodes."""
        sorts = node.sorts
        if sorts is None:
            sorts = _NodeSorts(self.X, node.rows, self.varying)
            if self.kept_bytes + sorts.nbytes <= SORT_BYTES:
                self.kept_bytes += sorts.nbytes
                node.sorts = sorts
        best = sorts.best(t)
        if best is None:
            return None
        p, b = best
        f, k = sorts.features[p], int(sorts.nl[b])
        children = node.children.get((f, k))
        if children is None:
            order = sorts.order[p]
            children = (_TrieNode(order[:k]), _TrieNode(order[k:]))
            if node.sorts is not None:
                node.children[(f, k)] = children
        return f, float(sorts.thr[b]), *children


def grow_tree(
    trie: SortTrie,
    t: np.ndarray,
    *,
    max_depth: int,
    leaf_value: Callable[[np.ndarray], float],
) -> dict:
    """The squared-error tree of targets t on the rows trie sorts; a leaf
    holds leaf_value(row indices). The trie's node sorts are shared with
    the other trees grown on the same rows."""
    root: dict = {}
    stack = [(root, trie.root, 0)]
    while stack:
        node, tnode, depth = stack.pop()
        idx = tnode.rows
        vals = t[idx]
        pure = bool((vals == vals[0]).all())
        can_split = not pure and depth < max_depth
        split = trie.split(tnode, t) if can_split else None
        if split is None:
            node["value"] = leaf_value(idx)
            continue
        f, thr, left_tnode, right_tnode = split
        left: dict = {}
        right: dict = {}
        node["feature"] = f
        node["threshold"] = thr
        node["left"] = left
        node["right"] = right
        stack.append((right, right_tnode, depth + 1))
        stack.append((left, left_tnode, depth + 1))
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
