"""The six detection models behind one fit/classify/score contract.

Larger score always means more likely malicious. GB, GNB and LR score
probabilities against threshold 0.5; SVM scores the signed margin
against 0; RF and KNN score vote fractions. `classify(X)` returns
`(labels, scores)` from one scoring pass, so a caller that needs both
runs the model once; KNN's labels and scores share one neighbor search.
"""

from __future__ import annotations

from .base import Classifier, Standardizer, as_arrays, sigmoid
from .bayes import GaussianNaiveBayes
from .boosting import GradientBoosting
from .forest import RandomForest
from .linear import LogisticRegression
from .neighbors import KNearestNeighbors
from .svm import SupportVectorMachine

_REGISTRY: dict[str, type[Classifier]] = {
    "GB": GradientBoosting,
    "RF": RandomForest,
    "SVM": SupportVectorMachine,
    "KNN": KNearestNeighbors,
    "GNB": GaussianNaiveBayes,
    "LR": LogisticRegression,
}
# report.json and roc.csv list the models in registry order
KINDS = tuple(_REGISTRY)


def make(kind: str, **params) -> Classifier:
    """A fresh untrained model of the given kind; RF takes its `seed`."""
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
    "make",
    "sigmoid",
]
