"""Model-by-model behavioral tests.

Each classifier is checked against an independent reference: exhaustive
neighbor search for KNN, closed-form Gaussian densities for GNB, finite
differences for the LR gradient, the KKT optimality conditions for the
SVM dual, a per-pair Python sum for the squared distances that the SVM
kernel and KNN share, hand-built stub trees for the vote rules of the
ensemble models, and the per-node growers of `tree_reference` for the
forest's lockstep grower and the boosting stages' shared node sorts.
"""

import collections
import inspect
import json
import logging
import math
import tracemalloc

import numpy as np
import pytest
from model_state import SAVED, state
from pins import (
    CLASSIFY_EXTRAS,
    classify_case,
    constant_column_trees,
    gauss_clusters,
    load,
    saved_state,
    separable_clusters,
)
from tree_reference import grow_gini_tree, grow_mse_tree

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
    make,
    sigmoid,
)
from vanetlab.classifiers import base, boosting, forest, linear, neighbors, svm, tree
from vanetlab.classifiers.base import check_labels, check_matrix, sq_dists
from vanetlab.classifiers.forest import bootstrap_rows
from vanetlab.classifiers.tree import SortTrie, grow_forest, grow_tree, tree_apply
from vanetlab.dataset import DatasetRow
from vanetlab.engine import substream
from vanetlab.errors import DataError, VanetlabError


LEARNING = load()["learning"]


@pytest.fixture(scope="module")
def separable400():
    return separable_clusters()


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
    model = KNearestNeighbors().fit(X, y)
    rng = substream(13, 2)
    probes = np.array([[rng.gauss(25.0, 15.0) for _ in range(4)] for _ in range(30)])
    probes = np.vstack([probes, X[:10]])  # include exact training points
    got_labels = model.classify(probes)[0]
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
        d2 = np.zeros(train_X.shape[0])
        for f in range(train_X.shape[1]):
            d2 += (train_X[:, f] - Xs[q, f]) ** 2
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
    model = KNearestNeighbors().fit(X, y)
    grid = np.array([[a / 2, b / 2] for a in range(-1, 9) for b in range(-1, 9)])
    queries = model.standardizer.transform(grid)
    idx, dist = model._neighbors(queries, k)
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
    model = KNearestNeighbors().fit(X[::10], y[::10])
    model.train_X[nan_rows] = np.nan
    queries = model.standardizer.transform(X[5::20])
    idx, dist = model._neighbors(queries, 5)
    want_idx, want_dist = knn_neighbors_full_sort(model.train_X, queries, 5)
    assert np.array_equal(idx, want_idx)
    assert np.array_equal(dist, want_dist, equal_nan=True)


def knn_vote_loop(model, X):
    """The per-row majority vote that classify's numpy vote replaced."""
    idx, dist = model._neighbors(model.standardizer.transform(X), neighbors.K)
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


def knn_grid(_separable400):
    """The 4 x 4 integer grid of repeated points with mixed labels."""
    rng = substream(15, 2)
    X = np.array([[rng.randrange(4), rng.randrange(4)] for _ in range(60)], dtype=float)
    X = np.vstack([X, X[:4]])
    y = np.array([rng.randrange(2) for _ in range(X.shape[0])])
    grid = np.array([[a / 2, b / 2] for a in range(-1, 9) for b in range(-1, 9)])
    return KNearestNeighbors().fit(X, y), grid


def knn_nan(separable400):
    """40 rows of which 38 are NaN: at K = 4, two finite, two NaN distances."""
    X, y = separable400
    model = KNearestNeighbors().fit(X[::10], y[::10])
    model.train_X[list(range(38))] = np.nan
    return model, X[5::20]


# case -> (K, the model and its queries)
KNN_CASES = {
    "grid-k2": (2, knn_grid),
    "grid-k8": (8, knn_grid),
    "nan-k4": (4, knn_nan),
}


@pytest.mark.parametrize("case", sorted(KNN_CASES))
def test_knn_classify_matches_the_per_row_vote(case, separable400, monkeypatch):
    """One neighbor search gives the labels of the per-row vote, split
    votes and NaN distance sums included, and the scores of `score`."""
    k, build = KNN_CASES[case]
    monkeypatch.setattr(neighbors, "K", k)
    model, queries = build(separable400)
    labels, scores = model.classify(queries)
    want_labels, want_scores = knn_vote_loop(model, queries)
    assert labels.dtype == np.int64
    assert np.array_equal(labels, want_labels)
    assert np.array_equal(scores, want_scores)
    assert np.array_equal(scores, model.score(queries))
    assert (scores == 0.5).any()  # the fixture exercises the split-vote rule


def test_knn_split_vote_goes_to_nearer_class():
    """At the fixed K = 5 a vote splits only when k is clamped to an even
    training size, 4 rows here or 2 below. These unpatched cases are why
    KNN keeps its own classify rather than the base score >= 0.5 rule."""
    X = np.array([[1.0], [-1.0], [3.0], [-3.0]])
    model = make("KNN")
    # malicious pair is closer to the query
    model.fit(X, np.array([1, 1, 0, 0]))
    assert model.classify(np.array([[0.0]]))[0][0] == 1
    # same geometry, roles reversed
    model.fit(X, np.array([0, 0, 1, 1]))
    assert model.classify(np.array([[0.0]]))[0][0] == 0


def test_knn_split_vote_equal_distance_goes_normal():
    X = np.array([[1.0], [-1.0]])
    model = make("KNN").fit(X, np.array([1, 0]))
    assert model.score(np.array([[0.0]]))[0] == 0.5  # >= threshold, yet
    assert model.classify(np.array([[0.0]]))[0][0] == 0


def test_knn_coincident_points_majority():
    X = np.array([[2.0, 2.0]] * 5)
    y = np.array([1, 1, 1, 0, 0])
    model = KNearestNeighbors().fit(X, y)
    assert model.classify(X[:1])[0][0] == 1
    assert model.score(X[:1])[0] == pytest.approx(0.6)


def test_knn_k_clamps_to_training_size():
    X = np.array([[0.0], [1.0], [10.0]])
    y = np.array([0, 0, 1])
    model = KNearestNeighbors().fit(X, y)
    assert model.classify(np.array([[9.0]]))[0][0] == 0  # all 3 vote, majority 0
    assert model.score(np.array([[9.0]]))[0] == pytest.approx(1 / 3)


def test_knn_feature_rescaling_is_absorbed(separable400):
    X, y = separable400
    rng = substream(14, 2)
    probes = np.array([[rng.gauss(25.0, 15.0) for _ in range(4)] for _ in range(20)])
    a = KNearestNeighbors().fit(X, y)
    b = KNearestNeighbors().fit(X * 3.7, y)
    assert np.array_equal(a.classify(probes)[0], b.classify(probes * 3.7)[0])
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
    joint = model._joint(query)[0]
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
    joint = model._joint(X[::20])
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
    assert model.classify(X)[0].tolist() == [0, 0, 1, 1]


# -- logistic regression ------------------------------------------------------


def log_loss(y, raw):
    """Mean binomial deviance of raw scores against {0,1} labels."""
    return float(np.mean(np.logaddexp(0.0, raw) - y * raw))


def lr_loss(w, b, X, y, l2):
    """The regularized mean log-loss whose gradient linear.gradient takes."""
    return log_loss(y, X @ w + b) + 0.5 * l2 * float(w @ w)


def test_lr_gradient_matches_finite_differences():
    rng = substream(21, 4)
    X = np.array([[rng.gauss(0, 1) for _ in range(3)] for _ in range(40)])
    y = np.array([rng.randint(0, 1) for _ in range(40)], dtype=np.float64)
    w = np.array([0.3, -0.7, 0.2])
    b = 0.1
    l2 = 1e-3
    grad_w, grad_b = linear.gradient(w, b, X.T.copy(), y, l2)
    h = 1e-6
    for j in range(3):
        wp, wm = w.copy(), w.copy()
        wp[j] += h
        wm[j] -= h
        fd = (lr_loss(wp, b, X, y, l2) - lr_loss(wm, b, X, y, l2)) / (2 * h)
        assert grad_w[j] == pytest.approx(fd, rel=1e-4)
    fd_b = (lr_loss(w, b + h, X, y, l2) - lr_loss(w, b - h, X, y, l2)) / (2 * h)
    assert grad_b == pytest.approx(fd_b, rel=1e-4)


def test_lr_loss_history_descends(separable400):
    """Replays the fit's recurrence: the loss falls between the sampled
    epochs, and the replay ends on the model's w and b bit for bit."""
    X, y = separable400
    model = LogisticRegression().fit(X, y)
    Xs = model.standardizer.transform(X)
    Xt, yf = Xs.T.copy(), y.astype(np.float64)
    w, b = np.zeros(X.shape[1]), 0.0
    history = [lr_loss(w, b, Xs, yf, linear.L2)]
    for epoch in range(1, linear.EPOCHS + 1):
        grad_w, grad_b = linear.gradient(w, b, Xt, yf, linear.L2)
        w = w - linear.STEP * grad_w
        b = b - linear.STEP * grad_b
        if epoch in (1, 10, 100, linear.EPOCHS):
            history.append(lr_loss(w, b, Xs, yf, linear.L2))
    assert all(later < earlier for earlier, later in zip(history, history[1:])), history
    assert w.tobytes() == model.w.tobytes()
    assert np.float64(b).tobytes() == np.float64(model.b).tobytes()


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
    margins = (2.0 * y - 1.0) * model.score(X)
    slack = svm.TOL + 1e-6
    for a, m in zip(alpha, margins):
        if a < 1e-12:
            assert m >= 1.0 - slack
        elif a > svm.C - 1e-12:
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
    assert model.sweeps_run < svm.MAX_ITER
    assert 0 < model.sv_alpha.size < X.shape[0]
    assert_kkt(model, X, y)


def test_svm_fully_fits_xor():
    X = np.array([[0.0, 0.0], [1.0, 1.0], [0.0, 1.0], [1.0, 0.0]])
    y = np.array([0, 0, 1, 1])
    model = SupportVectorMachine().fit(X, y)
    assert model.classify(X)[0].tolist() == [0, 0, 1, 1]
    # the four points are fully symmetric, so the offset vanishes and
    # the margins come in equal and opposite pairs
    assert model.b == pytest.approx(0.0, abs=1e-9)
    d = model.score(X)
    assert d[0] == pytest.approx(d[1], abs=1e-9)
    assert d[2] == pytest.approx(-d[0], abs=1e-9)


def test_sq_dists_values():
    A = np.array([[0.0, 0.0], [3.0, 4.0]])
    assert sq_dists(A, A).tolist() == [[0.0, 25.0], [25.0, 0.0]]
    K = svm.rbf_rows(A, A)
    assert K[0, 0] == K[1, 1] == 1.0
    assert K[0, 1] == pytest.approx(math.exp(-svm.GAMMA * 25.0), rel=1e-12)
    assert K[0, 1] == K[1, 0]


def pair_reference(a, b):
    """(d2, kernel value) of one row pair: the fixed-order sum from zero in
    Python floats, then numpy's exp, the one step left to a ufunc."""
    d2 = 0.0
    for x, z in zip(a.tolist(), b.tolist()):
        d2 += (x - z) * (x - z)
    return d2, float(np.exp(-svm.GAMMA * d2))


def dist_case(seed):
    """(A, B) for the differential test; B holds near-copies of A's first
    rows, or is A itself, the fit's case."""
    rng = np.random.default_rng(seed)
    width = int(rng.integers(1, 13))
    m = 1 if seed % 10 == 0 else int(rng.integers(2, 25))
    scale = 10.0 ** rng.uniform(-2, 1)
    A = rng.normal(0.0, scale, (m, width))
    if seed % 3 == 0:
        return A, A
    B = rng.normal(0.0, scale, (int(rng.integers(1, 25)), width))
    k = min(m, B.shape[0]) // 2
    B[:k] = A[:k] * (1.0 + rng.normal(0.0, 1e-12, (k, width)))
    return A, B


def test_sq_dists_and_rbf_rows_match_a_per_pair_reference():
    seen = collections.Counter()
    for seed in range(200):
        A, B = dist_case(seed)
        D, K = sq_dists(A, B), svm.rbf_rows(A, B)
        want = [[pair_reference(a, b) for b in B] for a in A]
        want_D = np.array([[d2 for d2, _ in row] for row in want]).reshape(D.shape)
        want_K = np.array([[k for _, k in row] for row in want]).reshape(K.shape)
        assert np.array_equal(D.view(np.int64), want_D.view(np.int64)), f"case {seed}"
        assert np.array_equal(K.view(np.int64), want_K.view(np.int64)), f"case {seed}"
        # the diagonal of A against itself, or B's near-copies of A's rows
        near = np.arange(A.shape[0] if A is B else min(A.shape[0], B.shape[0]) // 2)
        assert (K[near, near] == 1.0).all(), f"case {seed}"
        seen[f"width {A.shape[1]}"] += 1
        seen["A is B" if A is B else "A is not B"] += 1
        seen["one row"] += A.shape[0] == 1 or B.shape[0] == 1
        seen["near-duplicate at kernel 1"] += bool((D[near, near] > 0.0).any())
        seen["kernel strictly inside (0, 1)"] += bool(((K > 0.0) & (K < 1.0)).any())
    assert all(seen[f"width {w}"] for w in range(1, 13)), seen
    assert all(seen[name] for name in ("A is B", "A is not B", "one row",
                                       "near-duplicate at kernel 1",
                                       "kernel strictly inside (0, 1)")), seen


def traced_peak(fn):
    """Peak bytes that fn() allocates beyond what was live before it.
    numpy reports its buffers to tracemalloc, so this is the same on
    every host."""
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        if not tracing:
            tracemalloc.stop()


def test_svm_fit_peak_memory_is_the_kernel_rows_it_reads(monkeypatch):
    """The fit keeps only the rows SMO asked for; the kernel matrix it
    no longer builds would be 11.0 MiB here."""
    X, y = gauss_clusters(seed=23, n_per_class=600, sigma=15.0)
    n = X.shape[0]
    SupportVectorMachine().fit(X[::60], y[::60])  # first-call allocations
    asked = []
    rbf_rows = svm.rbf_rows

    def counted(A, B):
        asked.append(A.shape[0])
        return rbf_rows(A, B)

    monkeypatch.setattr(svm, "rbf_rows", counted)
    peak = traced_peak(lambda: SupportVectorMachine().fit(X, y))
    assert len(set(asked)) == 1 and sum(asked) < n // 4
    # the rows, plus the solver's and sq_dists' n-long working vectors
    assert peak <= (sum(asked) + 32) * n * 8
    assert peak < n * n * 8 // 4


@pytest.mark.parametrize("kind", ["SVM", "KNN"])
def test_classify_allocates_about_one_row_block_beyond_its_output(kind):
    X, y = gauss_clusters(seed=23, n_per_class=600, sigma=15.0)
    probes = gauss_clusters(seed=24, n_per_class=400, sigma=15.0)[0]
    model = make(kind).fit(X, y)
    model.classify(probes[:5])  # first-call allocations
    peak = traced_peak(lambda: model.classify(probes))
    # labels and scores, then sq_dists' two block arrays and numpy's
    # ufunc buffers, under 0.25 MiB with every per-row array
    assert peak <= 16 * probes.shape[0] + 2 * base.ROW_BLOCK_BYTES + (1 << 18)


@pytest.mark.parametrize("budget", [1, 8 * 37, 1 << 14])
def test_row_blocks_leave_svm_and_knn_outputs_unchanged(budget, separable400, monkeypatch):
    """Any block size gives the same labels and scores, bit for bit."""
    X, y = separable400
    probes = gauss_clusters(seed=29, n_per_class=50, sigma=12.0, mean0=20.0, mean1=30.0)[0]
    models = [make("SVM").fit(X, y), make("KNN").fit(X, y)]
    want = [model.classify(probes) for model in models]
    monkeypatch.setattr(base, "ROW_BLOCK_BYTES", budget)
    for model, (labels, scores) in zip(models, want):
        got_labels, got_scores = model.classify(probes)
        assert np.array_equal(got_labels, labels), model.kind
        assert got_scores.tobytes() == scores.tobytes(), model.kind


def test_svm_duplicate_non_support_row_barely_moves(svm_forty):
    X, y = svm_forty
    base = SupportVectorMachine().fit(X, y)
    alpha = reconstruct_alphas(base, X)
    idx = int(np.where(alpha < 1e-12)[0][0])
    X2 = np.vstack([X, X[idx]])
    y2 = np.append(y, y[idx])
    again = SupportVectorMachine().fit(X2, y2)
    assert np.array_equal(base.classify(X)[0], again.classify(X)[0])
    rng = substream(55, 9)
    probes = np.array([[rng.gauss(25.0, 12.0) for _ in range(4)] for _ in range(50)])
    drift = np.abs(base.score(probes) - again.score(probes))
    assert drift.max() < 0.05


def test_svm_flags_nonconvergence_and_still_predicts(caplog, monkeypatch):
    rng = substream(0, 5)
    n = 80
    X = np.array([[rng.gauss(0, 1), rng.gauss(0, 1)] for _ in range(n)])
    y = np.array([1 if rng.random() < 0.5 else 0 for _ in range(n)])
    monkeypatch.setattr(svm, "MAX_ITER", 3)
    model = SupportVectorMachine()
    with caplog.at_level(logging.WARNING, logger="vanetlab.svm"):
        model.fit(X, y)
    assert not model.converged
    assert model.sweeps_run == 3
    assert "iteration cap" in caplog.text
    pred = model.classify(X)[0]
    assert pred.shape == (n,)
    assert set(pred.tolist()) <= {0, 1}


# -- CART trees ---------------------------------------------------------------


def test_grow_tree_skips_a_constant_column_walked_first():
    """Skipping the root-constant column changes neither the tree nor the
    draws: the per-node shuffle still runs and the constant column still
    costs no budget. Pinned before the skip existed."""
    order = [0, 1, 2]
    substream(0, 1).shuffle(order)
    assert order[0] == 0  # the root walks the constant column first
    pinned, forest_text = constant_column_trees()
    assert pinned == LEARNING["constant-column trees"]
    assert '"feature": 0' not in forest_text


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


def float_hex(node):
    """node with every float as its hex form, exact to the bit (and sign)."""
    if isinstance(node, dict):
        return {key: float_hex(v) for key, v in node.items()}
    return node.hex() if isinstance(node, float) else node


def boosting_case(seed):
    """A small seeded boosting input: (X, y, stages, drawn, max_depth).

    Columns hold few distinct integers (nodes repeat across stages), tied
    values, one constant value or all-distinct floats. A stage's targets
    are the log-loss residuals of labels y, or, when drawn is a list, its
    entry for the stage, drawn from a few values, so some nodes are pure
    and some scores tie.
    """
    rng = substream(seed, 43)
    width = rng.randint(1, 6)
    n = rng.randint(2, 60)
    columns = []
    for _ in range(width):
        shape = rng.randrange(4)
        if shape == 0:
            hi = rng.randint(1, 4)
            columns.append([float(rng.randint(0, hi)) for _ in range(n)])
        elif shape == 1:
            pool = TIED_VALUES[:rng.randint(2, len(TIED_VALUES))]
            columns.append([rng.choice(pool) for _ in range(n)])
        elif shape == 2:
            columns.append([2.0] * n)
        else:
            columns.append([rng.uniform(-5.0, 5.0) for _ in range(n)])
    X = np.array(columns).T
    y = np.array([float(rng.randrange(2)) for _ in range(n)])
    stages = rng.randint(3, 10)
    drawn = None
    if rng.random() < 0.5:
        drawn = [np.array([rng.choice((-1.0, 0.0, 0.5, 1.0)) for _ in range(n)])
                 for _ in range(stages)]
    return X, y, stages, drawn, rng.randint(1, 6)


def test_shared_node_sorts_match_the_per_node_grower(monkeypatch):
    """Stages of changing targets grown through one SortTrie give every
    tree, threshold, leaf value and leaf row order exactly as the per-node
    grower, which shares nothing between trees, does."""
    counts = collections.Counter()
    build, split = tree._NodeSorts.__init__, SortTrie.split

    def counted_build(self, *args):
        counts["builds"] += 1
        build(self, *args)

    def counted_split(self, *args):
        counts["searches"] += 1
        return split(self, *args)

    monkeypatch.setattr(tree._NodeSorts, "__init__", counted_build)
    monkeypatch.setattr(SortTrie, "split", counted_split)
    seen = collections.Counter()
    for seed in range(200):
        X, y, stages, drawn, max_depth = boosting_case(seed)
        n, width = X.shape
        trie = SortTrie(X)
        raw = np.zeros(n)
        before = counts.copy()
        for stage in range(stages):
            t = drawn[stage] if drawn else y - sigmoid(raw)
            got_leaves, want_leaves = [], []

            def leaf(leaves):
                def value(idx):
                    leaves.append(idx.tolist())
                    return float(t[idx].sum())
                return value

            got = grow_tree(trie, t, max_depth=max_depth, leaf_value=leaf(got_leaves))
            want = grow_mse_tree(X, t, max_depth, leaf(want_leaves))
            assert float_hex(got) == float_hex(want), f"case {seed} stage {stage}"
            assert got_leaves == want_leaves, f"case {seed} stage {stage}"
            raw = raw + 0.5 * tree_apply(want, X)
        seen[f"width {width}"] += 1
        seen["drawn" if drawn else "residuals"] += 1
        seen["constant column"] += bool((np.ptp(X, axis=0) == 0).any())
        seen["distinct floats"] += any(np.unique(c).size == n > 4 for c in X.T)
        seen["hits"] += counts["builds"] - before["builds"] < counts["searches"] - before["searches"]
    assert all(seen[f"width {w}"] for w in range(1, 7))
    assert seen["residuals"] and seen["drawn"]
    assert seen["constant column"] and seen["distinct floats"]
    # most cases search some node again without sorting it again
    assert seen["hits"] > 100, seen
    assert counts["builds"] < counts["searches"], counts


# -- random forest ------------------------------------------------------------


def stub_forest(monkeypatch, trees, n_features=2):
    """A forest of the given hand-built trees, as if fitted."""
    monkeypatch.setattr(forest, "N_TREES", len(trees))
    model = RandomForest()
    model.trees, model.n_features_ = trees, n_features
    return model


def test_rf_label_is_majority_of_tree_votes(separable400, monkeypatch):
    X, y = separable400
    monkeypatch.setattr(forest, "N_TREES", 9)
    model = RandomForest(seed=3).fit(X, y)
    votes = np.stack([tree_apply(t, X[::10]) for t in model.trees])
    majority = (votes.sum(axis=0) >= 5).astype(int)
    assert np.array_equal(model.classify(X[::10])[0], majority)
    assert np.allclose(model.score(X[::10]), votes.sum(axis=0) / 9)


def test_rf_stub_votes_follow_threshold_rule(monkeypatch):
    two_one = stub_forest(monkeypatch, [{"value": 1.0}, {"value": 1.0}, {"value": 0.0}])
    X = np.zeros((1, 2))
    assert two_one.score(X)[0] == pytest.approx(2 / 3)
    assert two_one.threshold == pytest.approx(2 / 3)
    assert two_one.classify(X)[0][0] == 1


def test_rf_even_split_vote_goes_normal(monkeypatch):
    half = stub_forest(monkeypatch, [{"value": 1.0}, {"value": 0.0}])
    X = np.zeros((1, 2))
    assert half.score(X)[0] == 0.5
    assert half.classify(X)[0][0] == 0  # threshold (2//2+1)/2 = 1.0
    quarters = stub_forest(monkeypatch, [{"value": 1.0}] * 2 + [{"value": 0.0}] * 2)
    assert quarters.classify(X)[0][0] == 0


def test_rf_unanimous_stub_forest(monkeypatch):
    model = stub_forest(monkeypatch, [{"value": 1.0}] * 5)
    assert model.classify(np.zeros((3, 2)))[0].tolist() == [1, 1, 1]


def test_rf_fits_training_data(separable400):
    X, y = separable400
    model = RandomForest(seed=5).fit(X, y)
    assert (model.classify(X)[0] == y).mean() >= 0.99


def test_rf_seed_determinism(separable400, monkeypatch):
    X, y = separable400
    monkeypatch.setattr(forest, "N_TREES", 10)
    a = RandomForest(seed=5).fit(X, y)
    b = RandomForest(seed=5).fit(X, y)
    assert a.trees == b.trees
    c = RandomForest(seed=6).fit(X, y)
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


def test_gb_prior_is_log_odds(monkeypatch):
    X = np.array([[float(i)] for i in range(100)])
    y = np.array([1] * 90 + [0] * 10)
    monkeypatch.setattr(boosting, "N_ESTIMATORS", 1)
    model = GradientBoosting().fit(X, y)
    assert model.f0 == pytest.approx(math.log(9.0), rel=1e-12)


def test_gb_fits_xor_with_shallow_trees(monkeypatch):
    X = np.array([[0.0, 0.0], [1.0, 1.0], [0.0, 1.0], [1.0, 0.0]])
    y = np.array([0, 0, 1, 1])
    monkeypatch.setattr(boosting, "MAX_DEPTH", 2)
    model = GradientBoosting().fit(X, y)
    assert model.classify(X)[0].tolist() == [0, 0, 1, 1]


def test_gb_loss_history_descends_and_matches_decision(separable400):
    """Replaying the fitted stages from the prior, each one lowers the
    training loss, and the replay ends on the model's own raw score."""
    X, y = separable400
    model = GradientBoosting().fit(X, y)
    assert len(model.trees) == boosting.N_ESTIMATORS
    yf = y.astype(np.float64)
    raw = np.full(len(y), model.f0)
    hist = [log_loss(yf, raw)]
    for t in model.trees:
        raw = raw + boosting.LEARNING_RATE * tree_apply(t, X)
        hist.append(log_loss(yf, raw))
    for earlier, later in zip(hist, hist[1:]):
        assert later <= earlier + 1e-12
    assert hist[-1] < hist[0]
    assert np.array_equal(raw, model._raw(X))


# -- cross-model contract -----------------------------------------------------


ALL_KINDS = list(KINDS)


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_every_model_fits_separated_clusters(kind, separable400):
    X, y = separable400
    model = make(kind).fit(X, y)
    assert (model.classify(X)[0] == y).mean() >= 0.95


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_label_equals_score_against_threshold(kind, separable400):
    X, y = separable400
    model = make(kind).fit(X, y)
    probes = X[::7]
    expected = (model.score(probes) >= model.threshold).astype(np.int64)
    assert np.array_equal(model.classify(probes)[0], expected)


@pytest.mark.parametrize("case", sorted([*KINDS, *CLASSIFY_EXTRAS]))
def test_classify_matches_pinned_predict_and_score(case):
    digest, scores, scored = classify_case(case)
    assert digest == LEARNING["classify"][case]
    assert np.array_equal(scores, scored)


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_untrained_and_width_errors(kind, separable400):
    X, y = separable400
    model = make(kind)
    with pytest.raises(VanetlabError, match=f"{kind}: classify/score before fit") as exc:
        model.score(X)
    assert exc.value.exit_code == 4
    with pytest.raises(VanetlabError, match=f"{kind}: classify/score before fit") as exc:
        model.classify(X)
    assert exc.value.exit_code == 4
    model.fit(X, y)
    with pytest.raises(VanetlabError, match=f"{kind}: fit width 4, got 3") as exc:
        model.score(X[:, :3])
    assert exc.value.exit_code == 4
    with pytest.raises(VanetlabError, match=f"{kind}: fit width 4, got 3") as exc:
        model.classify(X[:, :3])
    assert exc.value.exit_code == 4


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
    with pytest.raises(DataError, match="training labels contain a single class"):
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
    with pytest.raises(DataError, match="training labels contain a single class"):
        check_labels([1, 1, 1], 3)


def test_standardizer_formula_and_zero_variance():
    X = np.array([[1.0, 7.0], [3.0, 7.0], [5.0, 7.0]])
    s = Standardizer().fit(X)
    assert np.allclose(s.mean, [3.0, 7.0])
    assert np.allclose(s.std, [math.sqrt(8 / 3), 1.0])  # zero-var pinned to 1
    out = s.transform(X)
    assert np.allclose(out[:, 0] * s.std[0] + s.mean[0], X[:, 0])
    assert np.allclose(out[:, 1], 0.0)
    with pytest.raises(VanetlabError, match="standardizer used before fit") as exc:
        Standardizer().transform(X)
    assert exc.value.exit_code == 4


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


# attributes a model holds that its record leaves out on purpose: diagnostics
# of the fit, and RF's seed and threshold, which the saved trees and
# N_TREES determine
UNSAVED = {
    "GB": set(),
    "RF": {"seed", "threshold"},
    "SVM": {"sweeps_run"},
    "KNN": set(),
    "GNB": set(),
    "LR": set(),
}


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_to_state_names_every_fitted_attribute(kind, separable400):
    """Each attribute of a fitted model is in SAVED, n_features_ or
    named above, so an attribute a later fit adds cannot drop out of the
    pinned state unnoticed."""
    model = make(kind).fit(*separable400)
    assert set(vars(model)) - set(SAVED[kind]) == {"n_features_"} | UNSAVED[kind]
    assert set(state(model)) == {"kind", "n_features", *SAVED[kind]}


def test_only_the_forest_seed_is_settable():
    """Every other setting of every model is a module constant."""
    params = {kind: list(inspect.signature(make(kind).__class__).parameters) for kind in KINDS}
    assert params == {kind: ["seed"] if kind == "RF" else [] for kind in KINDS}


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_saved_state_matches_its_pinned_digest(kind, separable400):
    assert saved_state(kind, *separable400) == LEARNING["states"][kind]


def test_make_rejects_unknown_kind():
    with pytest.raises(ValueError):
        make("PERCEPTRON")
    assert isinstance(make("GB"), GradientBoosting)


def test_as_arrays_shapes():
    X, y = as_arrays([
        DatasetRow(167837953, 167837954, 49153, 9, 1),
        DatasetRow(167837955, 167837956, 49154, 9, 0),
    ])
    assert X.shape == (2, 4)
    assert X.dtype == np.float64
    assert y.tolist() == [1, 0]
    assert X[0].tolist() == [167837953.0, 167837954.0, 49153.0, 9.0]
