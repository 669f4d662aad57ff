"""Confusion-matrix metrics, threshold-sweep ROC curves, trapezoidal AUC,
and the single-operating-point AUC construction.

Positive class is malicious (label 1) throughout. Any metric whose
denominator is 0 evaluates to 0.0 and is listed in MetricsReport.degenerate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from .errors import DataError, VanetlabError


@dataclass(frozen=True)
class ConfusionCounts:
    tp: int
    fp: int
    tn: int
    fn: int

    def __post_init__(self) -> None:
        for name in ("tp", "fp", "tn", "fn"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.tn + self.fn

    def swapped(self) -> "ConfusionCounts":
        """The same predictions scored with the opposite positive class."""
        return ConfusionCounts(tp=self.tn, fp=self.fn, tn=self.tp, fn=self.fp)


@dataclass
class MetricsReport:
    counts: ConfusionCounts
    accuracy: float
    sensitivity: float
    ppv: float
    npv: float
    f1: float
    degenerate: list[str] = field(default_factory=list)
    roc_points: Optional[list[tuple[float, float]]] = None
    auc: Optional[float] = None
    single_point_auc: Optional[float] = None


def confusion(pred: Sequence[int], truth: Sequence[int]) -> ConfusionCounts:
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
    return ConfusionCounts(tp=tp, fp=fp, tn=tn, fn=fn)


def _ratio(num: int, den: int, name: str, degenerate: list[str]) -> float:
    if den == 0:
        degenerate.append(name)
        return 0.0
    return num / den


def compute_metrics(c: ConfusionCounts) -> MetricsReport:
    """Accuracy, sensitivity, PPV, NPV and F1 over one confusion matrix."""
    if c.total == 0:
        raise VanetlabError("confusion counts sum to zero")
    degenerate: list[str] = []
    accuracy = (c.tp + c.tn) / c.total
    sensitivity = _ratio(c.tp, c.tp + c.fn, "sensitivity", degenerate)
    ppv = _ratio(c.tp, c.tp + c.fp, "ppv", degenerate)
    npv = _ratio(c.tn, c.tn + c.fn, "npv", degenerate)
    f1 = _ratio(2 * c.tp, 2 * c.tp + c.fp + c.fn, "f1", degenerate)
    return MetricsReport(
        counts=c,
        accuracy=accuracy,
        sensitivity=sensitivity,
        ppv=ppv,
        npv=npv,
        f1=f1,
        degenerate=degenerate,
    )


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
) -> MetricsReport:
    """Full report: scalar metrics plus ROC, AUC and single-point AUC."""
    report = compute_metrics(confusion(pred, truth))
    points = roc_points(scores, truth)
    report.roc_points = points
    report.auc = auc_trapezoid(points)
    c = report.counts
    fpr = c.fp / (c.fp + c.tn) if c.fp + c.tn else 0.0
    report.single_point_auc = single_point_auc(report.sensitivity, fpr)
    return report
