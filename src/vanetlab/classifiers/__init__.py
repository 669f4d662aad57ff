"""The six detection models behind one fit/classify/predict/score contract.

Larger score always means more likely malicious. GB, GNB and LR score
probabilities against threshold 0.5; SVM scores the signed margin
against 0; RF and KNN score vote fractions. `classify(X)` returns
`(labels, scores)` from one scoring pass, so a caller that needs both
runs the model once; KNN's labels and scores share one neighbor search.
"""

from __future__ import annotations

from .base import Classifier, Standardizer, as_arrays, sigmoid
from .bayes import GaussianNaiveBayes
from .boosting import GradientBoosting, log_loss
from .forest import RandomForest
from .linear import LogisticRegression, loss_and_grad
from .neighbors import KNearestNeighbors
from .svm import SupportVectorMachine, rbf_kernel

KINDS = ("GB", "RF", "SVM", "KNN", "GNB", "LR")

_REGISTRY: dict[str, type[Classifier]] = {
    "GB": GradientBoosting,
    "RF": RandomForest,
    "SVM": SupportVectorMachine,
    "KNN": KNearestNeighbors,
    "GNB": GaussianNaiveBayes,
    "LR": LogisticRegression,
}


def make(kind: str, **params) -> Classifier:
    """A fresh untrained model of the given kind with default parameters."""
    if kind not in _REGISTRY:
        raise ValueError(f"unknown classifier kind {kind!r}; expected one of {KINDS}")
    return _REGISTRY[kind](**params)


__all__ = [
    "KINDS",
    "Classifier",
    "Standardizer",
    "GaussianNaiveBayes",
    "GradientBoosting",
    "KNearestNeighbors",
    "LogisticRegression",
    "RandomForest",
    "SupportVectorMachine",
    "as_arrays",
    "log_loss",
    "loss_and_grad",
    "make",
    "rbf_kernel",
    "sigmoid",
]
