"""The six detection models behind one fit/classify/predict/score contract.

Larger score always means more likely malicious. GB, GNB and LR score
probabilities against threshold 0.5; SVM scores the signed margin
against 0; RF and KNN score vote fractions. `classify(X)` returns
`(labels, scores)` from one scoring pass, so a caller that needs both
runs the model once; KNN's labels and scores share one neighbor search.

Models persist to JSON, and a reloaded model reproduces its predictions
exactly. The saved state is a header (`kind`, `n_features`), every
constructor parameter under its own name, and each attribute in the
model's `fitted` table (arrays as lists, a Standardizer as its own
state). Loading ignores unknown keys; a missing key is a SchemaError.
"""

from __future__ import annotations

import json

from ..errors import SchemaError
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


def save_model(model: Classifier, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(model.to_state(), fh, sort_keys=True)
        fh.write("\n")


def load_model(path) -> Classifier:
    """The model saved at `path`; SchemaError if the file holds no model state."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            state = json.load(fh)
        except ValueError as e:
            raise SchemaError(f"{path}: not a JSON model state: {e}") from None
    kind = state.get("kind") if isinstance(state, dict) else None
    if kind not in _REGISTRY:
        raise SchemaError(f"{path}: unknown model kind {kind!r}")
    try:
        return _REGISTRY[kind].from_state(state)
    except (KeyError, TypeError, ValueError) as e:
        raise SchemaError(f"{path}: malformed {kind} model state: {e!r}") from None


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
    "load_model",
    "log_loss",
    "loss_and_grad",
    "make",
    "rbf_kernel",
    "save_model",
    "sigmoid",
]
