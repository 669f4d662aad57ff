"""Model-by-model behavioral tests.

Each classifier is checked against an independent reference: exhaustive
neighbor search for KNN, closed-form Gaussian densities for GNB, finite
differences for the LR gradient, the KKT optimality conditions for the
SVM dual, hand-built stub trees for the vote rules of the ensemble
models, and the per-node gini grower of `tree_reference` for the
forest's lockstep grower.
"""

import collections
import hashlib
import inspect
import json
import logging
import math

import numpy as np
import pytest
from tree_reference import grow_gini_tree

from vanetlab.classifiers import (
    KINDS,
    GaussianNaiveBayes,
    GradientBoosting,
    KNearestNeighbors,
    LogisticRegression,
    RandomForest,
    Standardizer,
    SupportVectorMachine,
    as_arrays,
    log_loss,
    loss_and_grad,
    make,
    rbf_kernel,
    sigmoid,
)
from vanetlab.classifiers import base
from vanetlab.classifiers.base import check_labels, check_matrix
from vanetlab.classifiers.forest import bootstrap_rows
from vanetlab.classifiers.tree import grow_forest, grow_tree, tree_apply
from vanetlab.dataset import Dataset, DatasetRow
from vanetlab.engine import substream
from vanetlab.errors import (
    SingleClassTraining,
    UntrainedModel,
    WidthMismatch,
)


def gauss_clusters(seed, n_per_class, sigma, mean0=10.0, mean1=40.0, dims=4):
    rng = substream(seed, 3)

    def cluster(mean, cnt):
        return [[rng.gauss(mean, sigma) for _ in range(dims)] for _ in range(cnt)]

    X = np.array(cluster(mean0, n_per_class) + cluster(mean1, n_per_class))
    y = np.array([0] * n_per_class + [1] * n_per_class)
    return X, y


@pytest.fixture(scope="module")
def separable400():
    return gauss_clusters(seed=7, n_per_class=200, sigma=2.0)


@pytest.fixture(scope="module")
def svm_forty():
    """Forty points loose enough for SMO to settle within its cap."""
    return gauss_clusters(seed=101, n_per_class=20, sigma=6.0)


# -- KNN ---------------------------------------------------------------------


def knn_oracle(train_X, train_y, query, k):
    """Plain-loop nearest neighbors with the same tie conventions."""
    d2 = [(float(((train_X[i] - query) ** 2).sum()), i) for i in range(len(train_X))]
    d2.sort(key=lambda t: (t[0], t[1]))
    chosen = d2[:k]
    labels = [int(train_y[i]) for _, i in chosen]
    pos = sum(labels)
    neg = k - pos
    score = pos / k
    if pos != neg:
        label = 1 if pos > neg else 0
    else:
        pos_d = sum(math.sqrt(d) for (d, i) in chosen if train_y[i] == 1)
        neg_d = sum(math.sqrt(d) for (d, i) in chosen if train_y[i] == 0)
        label = 1 if pos_d < neg_d else 0
    return label, score


def test_knn_matches_exhaustive_oracle(separable400):
    X, y = separable400
    model = KNearestNeighbors(k=5).fit(X, y)
    rng = substream(13, 2)
    probes = np.array([[rng.gauss(25.0, 15.0) for _ in range(4)] for _ in range(30)])
    probes = np.vstack([probes, X[:10]])  # include exact training points
    got_labels = model.predict(probes)
    got_scores = model.score(probes)
    train_std = model.standardizer.transform(X)
    for q in range(probes.shape[0]):
        qs = model.standardizer.transform(probes[q:q + 1])[0]
        label, score = knn_oracle(train_std, y, qs, 5)
        assert got_labels[q] == label
        assert got_scores[q] == pytest.approx(score, abs=1e-12)


def knn_neighbors_full_sort(train_X, Xs, k):
    """The full stable argsort per query that the partition search replaced."""
    k = min(k, train_X.shape[0])
    idx = np.empty((Xs.shape[0], k), dtype=np.int64)
    dist = np.empty((Xs.shape[0], k))
    for q in range(Xs.shape[0]):
        diff = train_X - Xs[q]
        d2 = (diff * diff).sum(axis=1)
        order = np.argsort(d2, kind="stable")[:k]
        idx[q] = order
        dist[q] = np.sqrt(d2[order])
    return idx, dist


@pytest.mark.parametrize("k", [1, 5, 8, 30, 64, 90])
def test_knn_neighbors_match_full_stable_sort(k):
    """Same rows and distances as a full stable argsort, down to which of
    several rows tied at the k-th distance are kept; k == n_train (64)
    and k > n_train (the clamp) included."""
    rng = substream(15, 2)
    # a 4 x 4 integer grid: every point repeats, with mixed labels
    X = np.array([[rng.randrange(4), rng.randrange(4)] for _ in range(60)], dtype=float)
    X = np.vstack([X, X[:4]])  # and some rows duplicated outright
    y = np.array([rng.randrange(2) for _ in range(X.shape[0])])
    model = KNearestNeighbors(k=k).fit(X, y)
    grid = np.array([[a / 2, b / 2] for a in range(-1, 9) for b in range(-1, 9)])
    queries = model.standardizer.transform(grid)
    idx, dist = model._neighbors(queries)
    want_idx, want_dist = knn_neighbors_full_sort(model.train_X, queries, k)
    assert np.array_equal(idx, want_idx)
    assert np.array_equal(dist, want_dist)
    if k < X.shape[0]:
        # the cut falls inside a group of tied rows with both labels
        straddled = 0
        for q in range(queries.shape[0]):
            tied = np.flatnonzero(np.sqrt(((model.train_X - queries[q]) ** 2).sum(axis=1))
                                  == dist[q, -1])
            straddled += np.setdiff1d(tied, idx[q]).size > 0 and np.unique(y[tied]).size == 2
        assert straddled > 0


@pytest.mark.parametrize("nan_rows", [[3, 7], list(range(40))])
def test_knn_neighbors_match_full_stable_sort_with_nan_distances(nan_rows, separable400):
    """NaN distances sort last, as in the full sort, also when the k-th
    nearest distance is itself NaN."""
    X, y = separable400
    model = KNearestNeighbors(k=5).fit(X[::10], y[::10])
    model.train_X[nan_rows] = np.nan
    queries = model.standardizer.transform(X[5::20])
    idx, dist = model._neighbors(queries)
    want_idx, want_dist = knn_neighbors_full_sort(model.train_X, queries, 5)
    assert np.array_equal(idx, want_idx)
    assert np.array_equal(dist, want_dist, equal_nan=True)


def knn_vote_loop(model, X):
    """The per-row majority vote that classify's numpy vote replaced."""
    idx, dist = model._neighbors(model.standardizer.transform(X))
    labels = model.train_y[idx]
    out = np.empty(X.shape[0], dtype=np.int64)
    k = labels.shape[1]
    for q in range(X.shape[0]):
        pos = int(labels[q].sum())
        neg = k - pos
        if pos != neg:
            out[q] = 1 if pos > neg else 0
        else:
            pos_dist = float(dist[q][labels[q] == 1].sum())
            neg_dist = float(dist[q][labels[q] == 0].sum())
            out[q] = 1 if pos_dist < neg_dist else 0
    return out, labels.mean(axis=1)


def knn_grid(k):
    """The 4 x 4 integer grid of repeated points with mixed labels."""
    rng = substream(15, 2)
    X = np.array([[rng.randrange(4), rng.randrange(4)] for _ in range(60)], dtype=float)
    X = np.vstack([X, X[:4]])
    y = np.array([rng.randrange(2) for _ in range(X.shape[0])])
    grid = np.array([[a / 2, b / 2] for a in range(-1, 9) for b in range(-1, 9)])
    return KNearestNeighbors(k=k).fit(X, y), grid


def knn_nan(separable400):
    """k = 4 over 40 rows of which 38 are NaN: two finite, two NaN distances."""
    X, y = separable400
    model = KNearestNeighbors(k=4).fit(X[::10], y[::10])
    model.train_X[list(range(38))] = np.nan
    return model, X[5::20]


KNN_CASES = {
    "grid-k2": lambda sep: knn_grid(2),
    "grid-k8": lambda sep: knn_grid(8),
    "nan-k4": knn_nan,
}


@pytest.mark.parametrize("case", sorted(KNN_CASES))
def test_knn_classify_matches_the_per_row_vote(case, separable400):
    """One neighbor search gives the labels of the per-row vote, split
    votes and NaN distance sums included, and the scores of `score`."""
    model, queries = KNN_CASES[case](separable400)
    labels, scores = model.classify(queries)
    want_labels, want_scores = knn_vote_loop(model, queries)
    assert labels.dtype == np.int64
    assert np.array_equal(labels, want_labels)
    assert np.array_equal(scores, want_scores)
    assert np.array_equal(scores, model.score(queries))
    assert np.array_equal(labels, model.predict(queries))
    assert (scores == 0.5).any()  # the fixture exercises the split-vote rule


def test_knn_split_vote_goes_to_nearer_class():
    X = np.array([[1.0], [-1.0], [3.0], [-3.0]])
    model = KNearestNeighbors(k=4)
    # malicious pair is closer to the query
    model.fit(X, np.array([1, 1, 0, 0]))
    assert model.predict(np.array([[0.0]]))[0] == 1
    # same geometry, roles reversed
    model.fit(X, np.array([0, 0, 1, 1]))
    assert model.predict(np.array([[0.0]]))[0] == 0


def test_knn_split_vote_equal_distance_goes_normal():
    X = np.array([[1.0], [-1.0]])
    model = KNearestNeighbors(k=2).fit(X, np.array([1, 0]))
    assert model.predict(np.array([[0.0]]))[0] == 0


def test_knn_coincident_points_majority():
    X = np.array([[2.0, 2.0]] * 5)
    y = np.array([1, 1, 1, 0, 0])
    model = KNearestNeighbors(k=5).fit(X, y)
    assert model.predict(X[:1])[0] == 1
    assert model.score(X[:1])[0] == pytest.approx(0.6)


def test_knn_k_clamps_to_training_size():
    X = np.array([[0.0], [1.0], [10.0]])
    y = np.array([0, 0, 1])
    model = KNearestNeighbors(k=5).fit(X, y)
    assert model.predict(np.array([[9.0]]))[0] == 0  # all 3 vote, majority 0
    assert model.score(np.array([[9.0]]))[0] == pytest.approx(1 / 3)


def test_knn_feature_rescaling_is_absorbed(separable400):
    X, y = separable400
    rng = substream(14, 2)
    probes = np.array([[rng.gauss(25.0, 15.0) for _ in range(4)] for _ in range(20)])
    a = KNearestNeighbors().fit(X, y)
    b = KNearestNeighbors().fit(X * 3.7, y)
    assert np.array_equal(a.predict(probes), b.predict(probes * 3.7))
    assert np.allclose(a.score(probes), b.score(probes * 3.7))


# -- Gaussian naive Bayes -----------------------------------------------------


def test_gnb_closed_form_three_rows():
    X = np.array([[1.0, 10.0], [3.0, 14.0], [20.0, 2.0]])
    y = np.array([0, 0, 1])
    model = GaussianNaiveBayes().fit(X, y)

    total_var = X.var(axis=0)
    eps = 1e-9 * float(total_var.max())
    assert model.epsilon == pytest.approx(eps, rel=1e-12)

    def log_gauss(x, mean, var):
        return -0.5 * (math.log(2 * math.pi * var) + (x - mean) ** 2 / var)

    query = np.array([[2.0, 11.0]])
    joint = model.log_joint(query)[0]
    # class 0: two rows, empirical means/variances plus smoothing
    expect0 = math.log(2 / 3)
    expect0 += log_gauss(2.0, 2.0, 1.0 + eps)
    expect0 += log_gauss(11.0, 12.0, 4.0 + eps)
    expect1 = math.log(1 / 3)
    expect1 += log_gauss(2.0, 20.0, 0.0 + eps)
    expect1 += log_gauss(11.0, 2.0, 0.0 + eps)
    assert joint[0] == pytest.approx(expect0, abs=1e-12)
    assert joint[1] == pytest.approx(expect1, abs=1e-12)


def test_gnb_posteriors_sum_to_one(separable400):
    X, y = separable400
    model = GaussianNaiveBayes().fit(X, y)
    joint = model.log_joint(X[::20])
    norm = np.logaddexp(joint[:, 0], joint[:, 1])
    total = np.exp(joint[:, 0] - norm) + np.exp(joint[:, 1] - norm)
    assert np.allclose(total, 1.0, atol=1e-12)
    assert np.allclose(model.score(X[::20]), np.exp(joint[:, 1] - norm))


def test_gnb_symmetric_query_scores_half():
    X = np.array([[-1.0], [1.0], [1.0], [3.0]])
    y = np.array([0, 0, 1, 1])
    model = GaussianNaiveBayes().fit(X, y)
    assert model.score(np.array([[1.0]]))[0] == pytest.approx(0.5, abs=1e-12)


def test_gnb_zero_variance_stays_finite():
    X = np.array([[5.0, 1.0], [5.0, 2.0], [5.0, 9.0], [5.0, 10.0]])
    y = np.array([0, 0, 1, 1])
    model = GaussianNaiveBayes().fit(X, y)
    scores = model.score(X)
    assert np.isfinite(scores).all()
    assert model.predict(X).tolist() == [0, 0, 1, 1]


# -- logistic regression ------------------------------------------------------


def test_lr_gradient_matches_finite_differences():
    rng = substream(21, 4)
    X = np.array([[rng.gauss(0, 1) for _ in range(3)] for _ in range(40)])
    y = np.array([rng.randint(0, 1) for _ in range(40)], dtype=np.float64)
    w = np.array([0.3, -0.7, 0.2])
    b = 0.1
    l2 = 1e-3
    loss, grad_w, grad_b = loss_and_grad(w, b, X, y, l2)
    h = 1e-6
    for j in range(3):
        wp, wm = w.copy(), w.copy()
        wp[j] += h
        wm[j] -= h
        fd = (loss_and_grad(wp, b, X, y, l2)[0] - loss_and_grad(wm, b, X, y, l2)[0]) / (2 * h)
        assert grad_w[j] == pytest.approx(fd, rel=1e-4)
    fd_b = (loss_and_grad(w, b + h, X, y, l2)[0] - loss_and_grad(w, b - h, X, y, l2)[0]) / (2 * h)
    assert grad_b == pytest.approx(fd_b, rel=1e-4)


def test_lr_loss_history_descends(separable400):
    X, y = separable400
    model = LogisticRegression().fit(X, y)
    hist = model.loss_history
    assert len(hist) == model.epochs + 1
    for earlier, later in zip(hist, hist[1:]):
        assert later <= earlier + 1e-9


def test_sigmoid_identities():
    assert sigmoid(np.array([0.0]))[0] == 0.5
    z = np.linspace(-30, 30, 13)
    assert np.allclose(sigmoid(z) + sigmoid(-z), 1.0, atol=1e-15)
    assert sigmoid(np.array([800.0]))[0] == 1.0  # no overflow
    assert sigmoid(np.array([-800.0]))[0] == 0.0


# -- SVM ----------------------------------------------------------------------


def reconstruct_alphas(model, X):
    """Full alpha vector, zero for rows the model did not retain."""
    Xs = model.standardizer.transform(X)
    alpha = np.zeros(X.shape[0])
    for svx, a in zip(model.sv_X, model.sv_alpha):
        hits = np.where((np.abs(Xs - svx) < 1e-12).all(axis=1))[0]
        assert hits.size == 1
        alpha[hits[0]] = a
    return alpha


def assert_kkt(model, X, y):
    """Every point's margin obeys the KKT condition of its alpha to tol."""
    alpha = reconstruct_alphas(model, X)
    margins = (2.0 * y - 1.0) * model.decision_function(X)
    slack = model.tol + 1e-6
    for a, m in zip(alpha, margins):
        if a < 1e-12:
            assert m >= 1.0 - slack
        elif a > model.C - 1e-12:
            assert m <= 1.0 + slack
        else:
            assert abs(m - 1.0) <= slack


def test_svm_satisfies_kkt_conditions(svm_forty):
    X, y = svm_forty
    model = SupportVectorMachine().fit(X, y)
    assert model.converged
    assert_kkt(model, X, y)


def test_svm_converges_on_training_split_sized_overlap():
    """1200 overlapping rows, the size of the default training split."""
    X, y = gauss_clusters(seed=23, n_per_class=600, sigma=15.0)
    model = SupportVectorMachine().fit(X, y)
    assert model.converged
    assert model.sweeps_run < model.max_iter
    assert 0 < model.sv_alpha.size < X.shape[0]
    assert_kkt(model, X, y)


def test_svm_fully_fits_xor():
    X = np.array([[0.0, 0.0], [1.0, 1.0], [0.0, 1.0], [1.0, 0.0]])
    y = np.array([0, 0, 1, 1])
    model = SupportVectorMachine().fit(X, y)
    assert model.predict(X).tolist() == [0, 0, 1, 1]
    # the four points are fully symmetric, so the offset vanishes and
    # the margins come in equal and opposite pairs
    assert model.b == pytest.approx(0.0, abs=1e-9)
    d = model.decision_function(X)
    assert d[0] == pytest.approx(d[1], abs=1e-9)
    assert d[2] == pytest.approx(-d[0], abs=1e-9)


def test_rbf_kernel_values():
    A = np.array([[0.0, 0.0], [3.0, 4.0]])
    K = rbf_kernel(A, A, gamma=0.1)
    assert K[0, 0] == K[1, 1] == 1.0
    assert K[0, 1] == pytest.approx(math.exp(-0.1 * 25.0), rel=1e-12)
    assert K[0, 1] == K[1, 0]


def test_svm_duplicate_non_support_row_barely_moves(svm_forty):
    X, y = svm_forty
    base = SupportVectorMachine().fit(X, y)
    alpha = reconstruct_alphas(base, X)
    idx = int(np.where(alpha < 1e-12)[0][0])
    X2 = np.vstack([X, X[idx]])
    y2 = np.append(y, y[idx])
    again = SupportVectorMachine().fit(X2, y2)
    assert np.array_equal(base.predict(X), again.predict(X))
    rng = substream(55, 9)
    probes = np.array([[rng.gauss(25.0, 12.0) for _ in range(4)] for _ in range(50)])
    drift = np.abs(base.decision_function(probes) - again.decision_function(probes))
    assert drift.max() < 0.05


def test_svm_flags_nonconvergence_and_still_predicts(caplog):
    rng = substream(0, 5)
    n = 80
    X = np.array([[rng.gauss(0, 1), rng.gauss(0, 1)] for _ in range(n)])
    y = np.array([1 if rng.random() < 0.5 else 0 for _ in range(n)])
    model = SupportVectorMachine(max_iter=3)
    with caplog.at_level(logging.WARNING, logger="vanetlab.svm"):
        model.fit(X, y)
    assert not model.converged
    assert model.sweeps_run == model.max_iter
    assert "iteration cap" in caplog.text
    pred = model.predict(X)
    assert pred.shape == (n,)
    assert set(pred.tolist()) <= {0, 1}


# -- CART trees ---------------------------------------------------------------


def constant_first_rows():
    """90 rows whose column 0 is constant, with noisy parity labels."""
    rng = substream(31, 4)
    X = np.array([[5.0, rng.randrange(6), rng.gauss(0, 1)] for _ in range(90)])
    y = np.array([int(row[1] % 2 == 0) ^ (rng.random() < 0.2) for row in X])
    return X, y


def test_grow_tree_skips_a_constant_column_walked_first():
    """Skipping the root-constant column changes neither the tree nor the
    draws: the per-node shuffle still runs and the constant column still
    costs no budget. Pinned before the skip existed."""
    X, y = constant_first_rows()
    order = [0, 1, 2]
    substream(0, 1).shuffle(order)
    assert order[0] == 0  # the root walks the constant column first
    rng = substream(0, 1)
    (tree,) = grow_forest(X, y, [np.arange(len(y))], [rng], max_features=1)
    text = json.dumps(tree, sort_keys=True)
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == (
        "deef8616c1eafd25be9868fe2cb2afec0d043a3d82007dab19fda5ae687f5c8c")
    assert rng.random() == 0.6880757343025422
    assert '"feature": 0' not in text
    # without an rng the walk is 0, 1, 2: the constant column always leads
    t = y - 0.5
    tree = grow_tree(X, t, max_depth=4, leaf_value=lambda idx: float(t[idx].mean()))
    text = json.dumps(tree, sort_keys=True)
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == (
        "4694cfd1915b1aef6e20199f0b52674de602feb87ed5a90c32e9cdb59b8fe6bf")


# a few values, with both zeros and two adjacent floats whose midpoint
# rounds onto the upper one, so the threshold falls back to the lower
TIED_VALUES = [-1.5, -0.0, 0.0, 0.25, 1.0 + 2**-52, 1.0 + 2**-51, 3.0, 1e300]


def forest_case(seed):
    """A small seeded forest input: (X, y, max_features, bootstrap, n_trees)."""
    rng = substream(seed, 41)
    width = rng.randint(1, 6)
    n = rng.randint(2, 40)
    columns = []
    for _ in range(width):
        shape = rng.randrange(3)
        if shape == 0:  # heavy ties
            pool = TIED_VALUES[:rng.randint(2, len(TIED_VALUES))]
            columns.append([rng.choice(pool) for _ in range(n)])
        elif shape == 1:  # one odd row: constant in bootstraps that miss it
            column = [2.0] * n
            column[rng.randrange(n)] = -7.0
            columns.append(column)
        else:
            columns.append([rng.uniform(-5.0, 5.0) for _ in range(n)])
    X = np.array(columns).T
    y = np.array([rng.randrange(2) for _ in range(n)])
    # a row twice more under both labels: a node of its copies cannot split
    dup = rng.randrange(n)
    X = np.vstack([X, X[dup], X[dup]])
    y = np.concatenate([y, [0, 1]])
    return X, y, rng.randint(1, width), rng.random() < 0.7, rng.choice((1, 2, 7))


def test_grow_forest_matches_the_per_node_grower():
    """Lockstep growth gives every tree and every tree's next draw exactly
    as growing each tree alone, node by node, does."""
    seen = collections.Counter()
    for seed in range(200):
        X, y, max_features, bootstrap, n_trees = forest_case(seed)
        n, width = X.shape
        got_rngs = [substream(seed, 211, i) for i in range(n_trees)]
        want_rngs = [substream(seed, 211, i) for i in range(n_trees)]
        row_sets = [bootstrap_rows(rng, n) if bootstrap else np.arange(n) for rng in got_rngs]
        want = []
        for rng in want_rngs:
            rows = bootstrap_rows(rng, n) if bootstrap else np.arange(n)
            want.append(grow_gini_tree(X[rows], y[rows], max_features, rng))
        got = grow_forest(X, y, row_sets, got_rngs, max_features)
        assert json.dumps(got) == json.dumps(want), f"case {seed}"
        assert [r.random() for r in got_rngs] == [r.random() for r in want_rngs], f"case {seed}"
        seen[f"width {width}"] += 1
        seen[f"trees {n_trees}"] += 1
        seen[f"bootstrap {bootstrap}"] += 1
        seen["max_features 1"] += max_features == 1
        seen["max_features F"] += max_features == width
        spans = {tuple(np.ptp(X[rows], axis=0) == 0) for rows in row_sets}
        seen["constant in some trees only"] += any(len({c[f] for c in spans}) == 2
                                                  for f in range(width))
    assert all(seen[f"width {w}"] for w in range(1, 7))
    assert all(seen[f"trees {t}"] for t in (1, 2, 7))
    assert seen["bootstrap True"] and seen["bootstrap False"]
    assert seen["max_features 1"] and seen["max_features F"]
    assert seen["constant in some trees only"]


# -- random forest ------------------------------------------------------------


def stub_forest(trees, n_features=2):
    """A forest of the given hand-built trees, as if fitted."""
    model = RandomForest(n_trees=len(trees))
    model.trees, model.n_features_ = trees, n_features
    return model


def test_rf_label_is_majority_of_tree_votes(separable400):
    X, y = separable400
    model = RandomForest(n_trees=9, seed=3).fit(X, y)
    votes = np.stack([tree_apply(t, X[::10]) for t in model.trees])
    majority = (votes.sum(axis=0) >= 5).astype(int)
    assert np.array_equal(model.predict(X[::10]), majority)
    assert np.allclose(model.score(X[::10]), votes.sum(axis=0) / 9)


def test_rf_stub_votes_follow_threshold_rule():
    two_one = stub_forest([{"value": 1.0}, {"value": 1.0}, {"value": 0.0}])
    X = np.zeros((1, 2))
    assert two_one.score(X)[0] == pytest.approx(2 / 3)
    assert two_one.threshold == pytest.approx(2 / 3)
    assert two_one.predict(X)[0] == 1


def test_rf_even_split_vote_goes_normal():
    half = stub_forest([{"value": 1.0}, {"value": 0.0}])
    X = np.zeros((1, 2))
    assert half.score(X)[0] == 0.5
    assert half.predict(X)[0] == 0  # threshold (2//2+1)/2 = 1.0
    quarters = stub_forest([{"value": 1.0}, {"value": 1.0}, {"value": 0.0}, {"value": 0.0}])
    assert quarters.predict(X)[0] == 0


def test_rf_unanimous_stub_forest():
    model = stub_forest([{"value": 1.0}] * 5)
    assert model.predict(np.zeros((3, 2))).tolist() == [1, 1, 1]


def test_rf_fits_training_data(separable400):
    X, y = separable400
    model = RandomForest(seed=5).fit(X, y)
    assert (model.predict(X) == y).mean() >= 0.99


def test_rf_seed_determinism(separable400):
    X, y = separable400
    a = RandomForest(n_trees=10, seed=5).fit(X, y)
    b = RandomForest(n_trees=10, seed=5).fit(X, y)
    assert a.trees == b.trees
    c = RandomForest(n_trees=10, seed=6).fit(X, y)
    assert c.trees != a.trees


@pytest.mark.parametrize("n", [1, 2, 7, 1000, 1024, 1025, 1200, 4096])
def test_rf_bootstrap_rows_match_randrange(n):
    """The bulk draw gives randrange's rows and leaves the generator where
    randrange would: this pins a CPython detail of `random`."""
    for seed in range(20):
        want_rng, got_rng = substream(seed, 211, n), substream(seed, 211, n)
        want = [want_rng.randrange(n) for _ in range(n)]
        got = bootstrap_rows(got_rng, n)
        assert got.dtype == np.int64
        assert got.tolist() == want
        assert got_rng.random() == want_rng.random()


# -- gradient boosting --------------------------------------------------------


def test_gb_prior_is_log_odds():
    X = np.array([[float(i)] for i in range(100)])
    y = np.array([1] * 90 + [0] * 10)
    model = GradientBoosting(n_estimators=1).fit(X, y)
    assert model.f0 == pytest.approx(math.log(9.0), rel=1e-12)


def test_gb_fits_xor_with_shallow_trees():
    X = np.array([[0.0, 0.0], [1.0, 1.0], [0.0, 1.0], [1.0, 0.0]])
    y = np.array([0, 0, 1, 1])
    model = GradientBoosting(max_depth=2).fit(X, y)
    assert model.predict(X).tolist() == [0, 0, 1, 1]


def test_gb_loss_history_descends_and_matches_decision(separable400):
    X, y = separable400
    model = GradientBoosting().fit(X, y)
    hist = model.loss_history
    assert len(hist) == model.n_estimators + 1
    for earlier, later in zip(hist, hist[1:]):
        assert later <= earlier + 1e-12
    yf = y.astype(np.float64)
    assert hist[-1] == pytest.approx(log_loss(yf, model.decision_function(X)), abs=1e-12)
    assert hist[0] == pytest.approx(log_loss(yf, np.full(len(y), model.f0)), abs=1e-12)


# -- cross-model contract -----------------------------------------------------


ALL_KINDS = list(KINDS)


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_every_model_fits_separated_clusters(kind, separable400):
    X, y = separable400
    model = make(kind).fit(X, y)
    assert (model.predict(X) == y).mean() >= 0.95


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_label_equals_score_against_threshold(kind, separable400):
    X, y = separable400
    model = make(kind).fit(X, y)
    probes = X[::7]
    expected = (model.score(probes) >= model.threshold).astype(np.int64)
    assert np.array_equal(model.predict(probes), expected)


def overlap120():
    """Two overlapping clusters and 80 probes between them."""
    X, y = gauss_clusters(seed=21, n_per_class=60, sigma=9.0)
    rng = substream(22, 2)
    return X, y, np.array([[rng.gauss(25.0, 12.0) for _ in range(4)] for _ in range(80)])


# SHA-256 of json.dumps([predict, score]) on overlap120's probes, taken
# before classify existed; the KNN and RF extras have even k and an even
# tree count, so their split votes and threshold ties are covered too.
CLASSIFY_SHA256 = {
    "GB": "a24b1e28894cf9afebf1a47b81b4f82cf7687b3d9c40a2b3b60c9e925b8d4e6d",
    "RF": "8cc0c01cf203038084168237697d80a93b5a604ea62ebd64d53e7900b610a464",
    "SVM": "d4a408bb4d429b8d0aac14f17df70f6609e49b9e6caa00ae988b880f5b5db1c0",
    "KNN": "72c356531c59a6a208874dec8b6766ee133ea14b6923a597cba5fd43c2e0b7cb",
    "GNB": "4986d8bb63f2f080709506a404f0a3d60b93844c6b30f9bc69e4e9f415c1738e",
    "LR": "5eb76becd53079382cc09f36ac2ac558a6d88b614b6fcd49143c3a759bcf3e5a",
    "KNN-k4": "d33de4a2d0517f608b46cd25d47b808f8111f80fd58cf7893392f97b20faa748",
    "RF-10": "43739e9f1abf50196038c283992ebc405c28be7c364ee358bd983680bc806bf0",
}
CLASSIFY_MODELS = {
    **{kind: lambda kind=kind: make(kind) for kind in KINDS},
    "KNN-k4": lambda: KNearestNeighbors(k=4),
    "RF-10": lambda: RandomForest(n_trees=10, seed=3),
}


@pytest.mark.parametrize("case", sorted(CLASSIFY_MODELS))
def test_classify_matches_pinned_predict_and_score(case):
    X, y, probes = overlap120()
    model = CLASSIFY_MODELS[case]().fit(X, y)
    labels, scores = model.classify(probes)
    text = json.dumps([labels.tolist(), scores.tolist()], sort_keys=True)
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == CLASSIFY_SHA256[case]
    assert np.array_equal(labels, model.predict(probes))
    assert np.array_equal(scores, model.score(probes))


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_untrained_and_width_errors(kind, separable400):
    X, y = separable400
    model = make(kind)
    with pytest.raises(UntrainedModel):
        model.predict(X)
    with pytest.raises(UntrainedModel):
        model.classify(X)
    with pytest.raises(UntrainedModel):
        model.to_state()
    model.fit(X, y)
    with pytest.raises(WidthMismatch):
        model.predict(X[:, :3])
    with pytest.raises(WidthMismatch):
        model.classify(X[:, :3])


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_score_and_classify_check_their_input_once(kind, separable400, monkeypatch):
    X, y = separable400
    model = make(kind).fit(X, y)
    calls = []

    def counting(X):
        calls.append(1)
        return check_matrix(X)

    monkeypatch.setattr(base, "check_matrix", counting)
    for method in (model.score, model.classify):
        calls.clear()
        method(X[:5])
        assert len(calls) == 1, method.__name__


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_single_class_training_rejected(kind):
    X = np.arange(20, dtype=np.float64).reshape(10, 2)
    with pytest.raises(SingleClassTraining):
        make(kind).fit(X, np.ones(10, dtype=np.int64))


def test_check_matrix_rejects_bad_shapes_and_values():
    with pytest.raises(ValueError):
        check_matrix(np.zeros(5))
    with pytest.raises(ValueError):
        check_matrix(np.array([[1.0, np.nan]]))
    with pytest.raises(ValueError):
        check_matrix(np.array([[np.inf, 0.0]]))


def test_check_labels_rejects_bad_vectors():
    with pytest.raises(ValueError):
        check_labels([0, 1, 2], 3)
    with pytest.raises(ValueError):
        check_labels([0, 1], 3)
    with pytest.raises(SingleClassTraining):
        check_labels([1, 1, 1], 3)


def test_standardizer_formula_and_zero_variance():
    X = np.array([[1.0, 7.0], [3.0, 7.0], [5.0, 7.0]])
    s = Standardizer().fit(X)
    assert np.allclose(s.mean, [3.0, 7.0])
    assert np.allclose(s.std, [math.sqrt(8 / 3), 1.0])  # zero-var pinned to 1
    out = s.transform(X)
    assert np.allclose(out[:, 0] * s.std[0] + s.mean[0], X[:, 0])
    assert np.allclose(out[:, 1], 0.0)
    with pytest.raises(UntrainedModel):
        Standardizer().transform(X)


@pytest.mark.parametrize("kind", ["KNN", "SVM", "LR"])
def test_standardizing_models_reject_overflowing_features(kind):
    """Finite rows whose mean overflows float64 are rejected at fit, not
    standardized into NaN."""
    X = np.array([[1.7e308], [1.7e308], [1.0], [2.0]])
    with pytest.raises(ValueError, match="feature 0"):
        make(kind).fit(X, np.array([1, 1, 0, 0]))


@pytest.mark.parametrize("X, feature", [
    ([[1.7e308], [1.7e308], [1.0], [2.0]], 0),  # means overflow
    ([[1.0, 1e300], [2.0, -1e300], [3.0, 1.0], [4.0, 2.0]], 1),  # variance only
], ids=["mean", "variance"])
def test_gnb_rejects_overflowing_features(X, feature):
    """GNB fits raw features: a class mean or variance that overflows
    (and with it epsilon, which widens every variance) is rejected at fit,
    named by the feature that overflowed, instead of scoring NaN."""
    with pytest.raises(ValueError, match=f"feature {feature}:"):
        GaussianNaiveBayes().fit(np.array(X), np.array([1, 1, 0, 0]))


def test_standardizer_names_the_feature_whose_std_overflows():
    X = np.array([[1.0, 1e300], [2.0, -1e300], [3.0, 1.0], [4.0, 2.0]])
    with pytest.raises(ValueError, match="feature 1"):
        Standardizer().fit(X)


# attributes a fit sets that to_state leaves out on purpose: diagnostics of
# the fit, and RF's threshold, which n_trees determines
UNSAVED = {
    "GB": {"loss_history"},
    "RF": {"threshold"},
    "SVM": {"sweeps_run"},
    "KNN": set(),
    "GNB": set(),
    "LR": {"loss_history"},
}


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_to_state_names_every_fitted_attribute(kind, separable400):
    """Each attribute of a fitted model is a constructor parameter, in
    `fitted`, n_features_ or a named diagnostic, so an attribute a later fit
    adds cannot drop out of the pinned state unnoticed."""
    model = make(kind).fit(*separable400)
    params = set(inspect.signature(type(model)).parameters)
    assert set(vars(model)) - params - set(model.fitted) == {"n_features_"} | UNSAVED[kind]
    assert set(model.to_state()) == {"kind", "n_features", *params, *model.fitted}


# SHA-256 of json.dumps(state, sort_keys=True) of each kind fitted on separable400
STATE_SHA256 = {
    "GB": "d032ef3e696741f6136dd808a97f25ca794aed4e7b3330a49c316a4ead1eeb27",
    "RF": "7a4405ba85da56f716e0d213442a2e44a96ac8df1db98ca29a5ecfc8c81abcd6",
    "SVM": "a91a4ea85aaba23d4053cfa6688e58d6f53b82419117e910192264760355c6ae",
    "KNN": "58df4b5a0ec0749331f0fd9a0567d696b96945e70cd99b85688a60ea302b31aa",
    "GNB": "4a97770c2c62b06517d89c82b2f75cd692ce37d6b59b547abf56e8bf98dc1a01",
    "LR": "6bd13f4180914700e8bca8c03ed62383ef1f99a698e1033ed23214bb80dd8337",
}


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_saved_state_matches_its_pinned_digest(kind, separable400):
    text = json.dumps(make(kind).fit(*separable400).to_state(), sort_keys=True)
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == STATE_SHA256[kind]


def test_make_rejects_unknown_kind():
    with pytest.raises(ValueError):
        make("PERCEPTRON")
    assert isinstance(make("GB"), GradientBoosting)


def test_as_arrays_shapes():
    ds = Dataset([
        DatasetRow(167837953, 167837954, 49153, 9, 1),
        DatasetRow(167837955, 167837956, 49154, 9, 0),
    ])
    X, y = as_arrays(ds)
    assert X.shape == (2, 4)
    assert X.dtype == np.float64
    assert y.tolist() == [1, 0]
    assert X[0].tolist() == [167837953.0, 167837954.0, 49153.0, 9.0]
