"""Confusion-matrix metrics, threshold-sweep ROC curves, trapezoidal AUC,
and the single-operating-point AUC construction.

Positive class is malicious (label 1) throughout. Confusion counts are a
{"tp", "fp", "tn", "fn"} dict. Any metric whose denominator is 0
evaluates to 0.0 and is listed in the entry's "degenerate".
"""

from __future__ import annotations

from typing import Sequence

from .errors import DataError, VanetlabError


def confusion(pred: Sequence[int], truth: Sequence[int]) -> dict:
    if len(pred) != len(truth):
        raise VanetlabError(f"pred has {len(pred)} labels, truth has {len(truth)}")
    if not pred:
        raise VanetlabError("confusion needs at least one prediction")
    tp = fp = tn = fn = 0
    for p, t in zip(pred, truth):
        if p == 1:
            if t == 1:
                tp += 1
            else:
                fp += 1
        else:
            if t == 1:
                fn += 1
            else:
                tn += 1
    return {"tp": tp, "fp": fp, "tn": tn, "fn": fn}


def _ratio(num: int, den: int, name: str, degenerate: list[str]) -> float:
    if den == 0:
        degenerate.append(name)
        return 0.0
    return num / den


def compute_metrics(c: dict) -> dict:
    """Accuracy, sensitivity, PPV, NPV and F1 over one confusion matrix,
    and "degenerate", the ratios whose denominator is 0."""
    for name in ("tp", "fp", "tn", "fn"):
        if c[name] < 0:
            raise ValueError(f"{name} must be non-negative")
    tp, fp, tn, fn = c["tp"], c["fp"], c["tn"], c["fn"]
    total = tp + fp + tn + fn
    if total == 0:
        raise VanetlabError("confusion counts sum to zero")
    degenerate: list[str] = []
    return {
        "accuracy": (tp + tn) / total,
        "sensitivity": _ratio(tp, tp + fn, "sensitivity", degenerate),
        "ppv": _ratio(tp, tp + fp, "ppv", degenerate),
        "npv": _ratio(tn, tn + fn, "npv", degenerate),
        "f1": _ratio(2 * tp, 2 * tp + fp + fn, "f1", degenerate),
        "degenerate": degenerate,
    }


def roc_points(scores: Sequence[float], truth: Sequence[int]) -> list[tuple[float, float]]:
    """One (fpr, tpr) per distinct score threshold, swept descending.

    At threshold s a row is predicted positive when score >= s, so tied
    scores move together. The returned curve starts at (0,0), ends (1,1).
    Scores may be infinite; a NaN score is a VanetlabError.
    """
    if len(scores) != len(truth):
        raise VanetlabError(f"{len(scores)} scores vs {len(truth)} labels")
    for i, s in enumerate(scores):
        if s != s:
            raise VanetlabError(f"score of row {i} is NaN")
    n_pos = sum(1 for t in truth if t == 1)
    n_neg = len(truth) - n_pos
    if n_pos == 0 or n_neg == 0:
        raise DataError("ROC needs both classes in truth")

    order = sorted(range(len(scores)), key=lambda i: -scores[i])
    points: list[tuple[float, float]] = [(0.0, 0.0)]
    tp = fp = 0
    i = 0
    while i < len(order):
        s = scores[order[i]]
        while i < len(order) and scores[order[i]] == s:
            if truth[order[i]] == 1:
                tp += 1
            else:
                fp += 1
            i += 1
        points.append((fp / n_neg, tp / n_pos))
    if points[-1] != (1.0, 1.0):
        points.append((1.0, 1.0))
    return points


def auc_trapezoid(points: Sequence[tuple[float, float]]) -> float:
    if len(points) < 2:
        raise VanetlabError("need at least 2 points")
    if points[0] != (0.0, 0.0) or points[-1] != (1.0, 1.0):
        raise VanetlabError("curve must start at (0,0) and end at (1,1)")
    prev_x, prev_y = points[0]
    area = 0.0
    for x, y in points[1:]:
        if x < prev_x or y < prev_y:
            raise VanetlabError("curve must be monotone non-decreasing")
        if not (0.0 <= x <= 1.0 and 0.0 <= y <= 1.0):
            raise VanetlabError("coordinates must lie in [0,1]")
        area += (x - prev_x) * (y + prev_y) / 2.0
        prev_x, prev_y = x, y
    return area


def single_point_auc(tpr: float, fpr: float) -> float:
    """Area under the 3-point polyline (0,0) -> (fpr,tpr) -> (1,1)."""
    if not (0.0 <= tpr <= 1.0):
        raise VanetlabError(f"tpr {tpr} outside [0,1]")
    if not (0.0 <= fpr <= 1.0):
        raise VanetlabError(f"fpr {fpr} outside [0,1]")
    return (1.0 + tpr - fpr) / 2.0


def evaluate_scores(
    pred: Sequence[int], scores: Sequence[float], truth: Sequence[int]
) -> tuple[dict, list[tuple[float, float]]]:
    """One model's report.json entry, and its ROC points for roc.csv.

    The entry holds the scalar metrics, the trapezoid and single-point
    AUCs, and the confusion counts with malicious and with normal as the
    positive class."""
    c = confusion(pred, truth)
    entry = compute_metrics(c)
    points = roc_points(scores, truth)
    tp, fp, tn, fn = c["tp"], c["fp"], c["tn"], c["fn"]
    entry["auc"] = auc_trapezoid(points)
    # roc_points has checked that truth holds both classes, so fp + tn > 0
    entry["single_point_auc"] = single_point_auc(entry["sensitivity"], fp / (fp + tn))
    entry["confusion"] = c
    entry["confusion_normal_positive"] = {"tp": tn, "fp": fn, "tn": tp, "fn": fp}
    return entry, points
