"""Model-by-model behavioral tests.

Each classifier is checked against an independent reference: exhaustive
neighbor search for KNN, closed-form Gaussian densities for GNB, finite
differences for the LR gradient, the KKT optimality conditions for the
SVM dual, and hand-built stub trees for the vote rules of the ensemble
models.
"""

import json
import logging
import math

import numpy as np
import pytest

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
    load_model,
    log_loss,
    loss_and_grad,
    make,
    rbf_kernel,
    save_model,
    sigmoid,
)
from vanetlab.classifiers.base import check_labels, check_matrix
from vanetlab.classifiers.tree import tree_apply
from vanetlab.dataset import Dataset, DatasetRow
from vanetlab.engine import substream
from vanetlab.errors import (
    SchemaError,
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


# -- random forest ------------------------------------------------------------


def rf_state(trees, n_trees, n_features=2):
    return {
        "kind": "RF",
        "n_trees": n_trees,
        "max_features": 2,
        "bootstrap": True,
        "seed": 0,
        "n_features": n_features,
        "trees": trees,
    }


def test_rf_label_is_majority_of_tree_votes(separable400):
    X, y = separable400
    model = RandomForest(n_trees=9, seed=3).fit(X, y)
    votes = np.stack([tree_apply(t, X[::10]) for t in model.trees])
    majority = (votes.sum(axis=0) >= 5).astype(int)
    assert np.array_equal(model.predict(X[::10]), majority)
    assert np.allclose(model.score(X[::10]), votes.sum(axis=0) / 9)


def test_rf_stub_votes_follow_threshold_rule():
    two_one = RandomForest.from_state(
        rf_state([{"value": 1.0}, {"value": 1.0}, {"value": 0.0}], 3))
    X = np.zeros((1, 2))
    assert two_one.score(X)[0] == pytest.approx(2 / 3)
    assert two_one.threshold == pytest.approx(2 / 3)
    assert two_one.predict(X)[0] == 1


def test_rf_even_split_vote_goes_normal():
    half = RandomForest.from_state(rf_state([{"value": 1.0}, {"value": 0.0}], 2))
    X = np.zeros((1, 2))
    assert half.score(X)[0] == 0.5
    assert half.predict(X)[0] == 0  # threshold (2//2+1)/2 = 1.0
    quarters = RandomForest.from_state(
        rf_state([{"value": 1.0}, {"value": 1.0}, {"value": 0.0}, {"value": 0.0}], 4))
    assert quarters.predict(X)[0] == 0


def test_rf_unanimous_stub_forest():
    model = RandomForest.from_state(rf_state([{"value": 1.0}] * 5, 5))
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


def test_gb_loads_a_state_that_still_carries_a_seed(separable400):
    X, y = separable400
    model = GradientBoosting(n_estimators=3).fit(X, y)
    again = GradientBoosting.from_state({**model.to_state(), "seed": 0})
    assert "seed" not in again.to_state()
    assert np.array_equal(again.score(X), model.score(X))


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


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_untrained_and_width_errors(kind, separable400):
    X, y = separable400
    model = make(kind)
    with pytest.raises(UntrainedModel):
        model.predict(X)
    model.fit(X, y)
    with pytest.raises(WidthMismatch):
        model.predict(X[:, :3])


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
    again = Standardizer.from_state(s.to_state())
    assert np.allclose(again.transform(X), out)
    with pytest.raises(UntrainedModel):
        Standardizer().transform(X)


@pytest.mark.parametrize("kind", ["KNN", "SVM", "LR"])
def test_standardizing_models_reject_overflowing_features(kind):
    """Finite rows whose mean overflows float64 are rejected at fit, not
    standardized into NaN."""
    X = np.array([[1.7e308], [1.7e308], [1.0], [2.0]])
    with pytest.raises(ValueError, match="feature 0"):
        make(kind).fit(X, np.array([1, 1, 0, 0]))


def test_standardizer_names_the_feature_whose_std_overflows():
    X = np.array([[1.0, 1e300], [2.0, -1e300], [3.0, 1.0], [4.0, 2.0]])
    with pytest.raises(ValueError, match="feature 1"):
        Standardizer().fit(X)


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_persistence_round_trip(kind, separable400, tmp_path):
    X, y = separable400
    model = make(kind).fit(X, y)
    path = tmp_path / f"{kind}.json"
    save_model(model, path)
    again = load_model(path)
    assert type(again) is type(model)
    probes = np.vstack([X[::9], X[::9] + 0.5])
    assert np.array_equal(model.predict(probes), again.predict(probes))
    assert np.allclose(model.score(probes), again.score(probes), atol=0.0)


def test_load_model_rejects_unknown_kind(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"kind": "XGB"}\n')
    with pytest.raises(SchemaError):
        load_model(path)


@pytest.mark.parametrize("case", ["LR-without-fields", "SVM-with-max_passes", "not-JSON"])
def test_load_model_rejects_malformed_state(case, separable400, tmp_path):
    path = tmp_path / "old.json"
    if case == "LR-without-fields":
        path.write_text('{"kind": "LR"}\n')
    elif case == "SVM-with-max_passes":  # saved before the rename to max_iter
        state = make("SVM").fit(*separable400).to_state()
        state["max_passes"] = state.pop("max_iter")
        path.write_text(json.dumps(state) + "\n")
    else:
        path.write_text('{"kind": "LR", \n')
    with pytest.raises(SchemaError, match="old.json"):
        load_model(path)


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
