"""Confusion-matrix, scalar-metric, and ROC/AUC tests.

The published operating point for the boosted model (tpr 0.86713287,
fpr 0.02116402) is used as a numeric anchor: the matching integer
confusion matrix is re-derived here from the rates alone, then every
scalar metric and the trapezoid area are checked against independently
computed closed forms.
"""

import math
import random
import re

import pytest

from vanetlab.errors import DataError, VanetlabError
from vanetlab.metrics import (
    auc_trapezoid,
    compute_metrics,
    confusion,
    evaluate_scores,
    roc_points,
    single_point_auc,
)

GB_TPR = 0.86713287
GB_FPR = 0.02116402


def test_confusion_enumerates_all_four_cells():
    pred = [1, 0, 1, 0]
    truth = [1, 1, 0, 0]
    assert confusion(pred, truth) == {"tp": 1, "fp": 1, "tn": 1, "fn": 1}


def test_confusion_all_positive_predictions():
    assert confusion([1] * 6, [1, 1, 0, 0, 0, 1]) == {"tp": 3, "fp": 3, "tn": 0, "fn": 0}


def test_confusion_with_positive_zero_swaps_roles():
    """confusion_normal_positive scores the same predictions with normal
    (0) as the positive class."""
    pred = [1, 0, 1, 0, 0, 0]
    truth = [1, 1, 0, 0, 1, 0]
    # normal-positive by hand: tp = both 0 (rows 3, 5), fp = pred 0 on a
    # 1 (rows 1, 4), tn = both 1 (row 0), fn = pred 1 on a 0 (row 2)
    entry, _ = evaluate_scores(pred, [0.5] * 6, truth)
    assert entry["confusion_normal_positive"] == {"tp": 2, "fp": 2, "tn": 1, "fn": 1}


def test_confusion_input_errors():
    with pytest.raises(VanetlabError, match="pred has 2 labels, truth has 1") as exc:
        confusion([1, 0], [1])
    assert exc.value.exit_code == 4
    with pytest.raises(VanetlabError, match="needs at least one prediction") as exc:
        confusion([], [])
    assert exc.value.exit_code == 4


def test_negative_counts_rejected():
    for name in ("tp", "fp", "tn", "fn"):
        counts = {"tp": 1, "fp": 1, "tn": 1, "fn": 1, name: -1}
        with pytest.raises(ValueError, match=f"{name} must be non-negative"):
            compute_metrics(counts)


def test_zero_counts_rejected():
    with pytest.raises(VanetlabError, match="confusion counts sum to zero") as exc:
        compute_metrics({"tp": 0, "fp": 0, "tn": 0, "fn": 0})
    assert exc.value.exit_code == 4


def derive_anchor_matrix():
    """Recover the smallest integer confusion matrix consistent with the
    anchor rates, assuming the 710-row corpus they were measured on."""
    tp = den_p = None
    for den in range(1, 2000):
        tp_f = GB_TPR * den
        if abs(tp_f - round(tp_f)) < 5e-7:
            tp, den_p = int(round(tp_f)), den
            break
    assert (tp, den_p) == (124, 143)
    total = 710
    den_n = total - den_p
    fp = round(GB_FPR * den_n)
    assert fp == 12
    return {"tp": tp, "fp": fp, "tn": den_n - fp, "fn": den_p - tp}


def test_anchor_matrix_scalar_metrics():
    c = derive_anchor_matrix()
    assert c == {"tp": 124, "fp": 12, "tn": 555, "fn": 19}
    rep = compute_metrics(c)
    assert rep["sensitivity"] == pytest.approx(0.867133, abs=1e-6)
    assert rep["ppv"] == pytest.approx(0.911765, abs=1e-6)
    assert rep["f1"] == pytest.approx(0.888889, abs=1e-6)
    assert rep["npv"] == pytest.approx(0.966899, abs=1e-6)
    assert rep["accuracy"] == pytest.approx(0.956338, abs=1e-6)
    assert rep["degenerate"] == []


def test_perfect_predictor_scores_ones():
    rep = compute_metrics({"tp": 50, "fp": 0, "tn": 50, "fn": 0})
    assert rep == {"accuracy": 1.0, "sensitivity": 1.0, "ppv": 1.0, "npv": 1.0,
                   "f1": 1.0, "degenerate": []}


def test_never_positive_predictor_degenerates():
    rep = compute_metrics({"tp": 0, "fp": 0, "tn": 80, "fn": 20})
    assert rep["ppv"] == 0.0
    assert rep["degenerate"] == ["ppv"]
    assert rep["accuracy"] == 0.8
    assert rep["sensitivity"] == 0.0


def test_f1_is_harmonic_mean_of_ppv_and_sensitivity():
    rng = random.Random(2024)
    for _ in range(200):
        c = {"tp": rng.randint(1, 500), "fp": rng.randint(0, 500),
             "tn": rng.randint(0, 500), "fn": rng.randint(0, 500)}
        rep = compute_metrics(c)
        harmonic = 2 * rep["ppv"] * rep["sensitivity"] / (rep["ppv"] + rep["sensitivity"])
        assert rep["f1"] == pytest.approx(harmonic, abs=1e-12)


def test_roc_perfect_separation_passes_through_corner():
    scores = [0.9, 0.8, 0.7, 0.3, 0.2, 0.1]
    truth = [1, 1, 1, 0, 0, 0]
    pts = roc_points(scores, truth)
    assert pts[0] == (0.0, 0.0)
    assert (0.0, 1.0) in pts
    assert pts[-1] == (1.0, 1.0)
    assert auc_trapezoid(pts) == 1.0


def test_roc_constant_scores_is_diagonal():
    pts = roc_points([0.5] * 8, [1, 0, 1, 0, 1, 0, 1, 0])
    assert pts == [(0.0, 0.0), (1.0, 1.0)]
    assert auc_trapezoid(pts) == 0.5


def test_roc_matches_brute_force_threshold_sweep():
    rng = random.Random(7)
    scores = [rng.choice([0.1, 0.3, 0.5, 0.7, 0.9]) for _ in range(40)]
    truth = [rng.randint(0, 1) for _ in range(40)]
    if sum(truth) in (0, 40):
        truth[0] = 1 - truth[0]
    pts = set(roc_points(scores, truth))
    n_pos = sum(truth)
    n_neg = len(truth) - n_pos
    for s in set(scores):
        tp = sum(1 for sc, t in zip(scores, truth) if sc >= s and t == 1)
        fp = sum(1 for sc, t in zip(scores, truth) if sc >= s and t == 0)
        assert (fp / n_neg, tp / n_pos) in pts


def test_roc_is_monotone_on_random_scores():
    rng = random.Random(99)
    scores = [rng.random() for _ in range(200)]
    truth = [rng.randint(0, 1) for _ in range(200)]
    pts = roc_points(scores, truth)
    for (x0, y0), (x1, y1) in zip(pts, pts[1:]):
        assert x1 >= x0 and y1 >= y0
    assert 0.0 <= auc_trapezoid(pts) <= 1.0


def test_roc_requires_both_classes_and_equal_lengths():
    with pytest.raises(DataError, match="ROC needs both classes in truth"):
        roc_points([0.5, 0.6], [1, 1])
    with pytest.raises(VanetlabError, match="1 scores vs 2 labels") as exc:
        roc_points([0.5], [1, 0])
    assert exc.value.exit_code == 4


@pytest.mark.parametrize("scores, row", [
    ([math.nan, 0.5], 0),
    ([0.1, 0.9, math.nan, math.nan], 2),
])
def test_roc_rejects_a_nan_score_naming_its_first_row(scores, row):
    truth = [0, 1, 0, 1][:len(scores)]
    with pytest.raises(VanetlabError, match=f"row {row} is NaN") as exc:
        roc_points(scores, truth)
    assert exc.value.exit_code == 4
    with pytest.raises(VanetlabError, match=f"row {row} is NaN") as exc:
        evaluate_scores([0] * len(scores), scores, truth)
    assert exc.value.exit_code == 4


def test_roc_accepts_infinite_scores():
    pts = roc_points([math.inf, 0.5, -math.inf, 0.2], [1, 1, 0, 0])
    assert pts == [(0.0, 0.0), (0.0, 0.5), (0.0, 1.0), (0.5, 1.0), (1.0, 1.0)]


def test_trapezoid_area_closed_forms():
    assert auc_trapezoid([(0.0, 0.0), (1.0, 1.0)]) == 0.5
    anchor = auc_trapezoid([(0.0, 0.0), (GB_FPR, GB_TPR), (1.0, 1.0)])
    assert anchor == pytest.approx(0.922985, abs=1e-6)
    # square curve through the ideal corner
    assert auc_trapezoid([(0.0, 0.0), (0.0, 1.0), (1.0, 1.0)]) == 1.0


@pytest.mark.parametrize("points, problem", [
    ([(0.0, 0.0)], "need at least 2 points"),
    ([(0.1, 0.0), (1.0, 1.0)], "start at (0,0) and end at (1,1)"),
    ([(0.0, 0.0), (0.9, 0.9)], "start at (0,0) and end at (1,1)"),
    ([(0.0, 0.0), (0.5, 0.8), (0.4, 0.9), (1.0, 1.0)], "monotone non-decreasing"),
    ([(0.0, 0.0), (0.5, 1.2), (1.0, 1.0)], "coordinates must lie in [0,1]"),
], ids=[f"points{i}" for i in range(5)])
def test_trapezoid_rejects_malformed_curves(points, problem):
    with pytest.raises(VanetlabError, match=re.escape(problem)) as exc:
        auc_trapezoid(points)
    assert exc.value.exit_code == 4


def test_roc_invariant_under_monotone_score_transform():
    rng = random.Random(11)
    scores = [rng.random() for _ in range(100)]
    truth = [rng.randint(0, 1) for _ in range(100)]
    warped = [math.tanh(3 * s) + 1 for s in scores]
    assert roc_points(scores, truth) == roc_points(warped, truth)


def test_single_point_auc_formula():
    assert single_point_auc(0.0, 0.0) == 0.5
    assert single_point_auc(1.0, 0.0) == 1.0
    assert single_point_auc(0.0, 1.0) == 0.0
    assert single_point_auc(GB_TPR, GB_FPR) == (1 + GB_TPR - GB_FPR) / 2
    # the three-point trapezoid through the same operating point agrees
    trap = auc_trapezoid([(0.0, 0.0), (GB_FPR, GB_TPR), (1.0, 1.0)])
    assert trap == pytest.approx(single_point_auc(GB_TPR, GB_FPR), abs=1e-12)


def test_single_point_auc_rejects_out_of_range():
    with pytest.raises(VanetlabError, match=re.escape("tpr 1.2 outside [0,1]")) as exc:
        single_point_auc(1.2, 0.0)
    assert exc.value.exit_code == 4
    with pytest.raises(VanetlabError, match=re.escape("fpr -0.1 outside [0,1]")) as exc:
        single_point_auc(0.5, -0.1)
    assert exc.value.exit_code == 4


def test_evaluate_scores_populates_every_field():
    pred = [1, 1, 0, 0, 1, 0]
    scores = [0.9, 0.8, 0.4, 0.3, 0.7, 0.2]
    truth = [1, 0, 1, 0, 1, 0]
    entry, points = evaluate_scores(pred, scores, truth)
    c = confusion(pred, truth)
    assert entry == {
        **compute_metrics(c),
        "auc": auc_trapezoid(points),
        "single_point_auc": single_point_auc(c["tp"] / (c["tp"] + c["fn"]),
                                             c["fp"] / (c["fp"] + c["tn"])),
        "confusion": c,
        "confusion_normal_positive": {"tp": c["tn"], "fp": c["fn"],
                                      "tn": c["tp"], "fn": c["fp"]},
    }
    assert points == roc_points(scores, truth)

