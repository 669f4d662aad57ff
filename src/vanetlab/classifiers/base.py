"""Shared classifier plumbing: input validation, the
fit/classify/predict/score contract, and feature standardization for the
distance and gradient models.
"""

from __future__ import annotations

import inspect
from typing import Optional

import numpy as np

from ..dataset import Dataset
from ..errors import SingleClassTraining, UntrainedModel, WidthMismatch


def as_arrays(ds: Dataset) -> tuple[np.ndarray, np.ndarray]:
    """Dataset rows as (N x 4 float matrix, N int label vector)."""
    X = np.array(
        [[r.src_addr, r.dst_addr, r.src_port, r.dst_port] for r in ds.rows],
        dtype=np.float64,
    ).reshape(len(ds.rows), 4)
    y = np.array([r.label for r in ds.rows], dtype=np.int64)
    return X, y


def check_matrix(X) -> np.ndarray:
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise ValueError(f"feature matrix must be 2-D, got ndim={X.ndim}")
    if not np.isfinite(X).all():
        raise ValueError("feature matrix entries must be finite")
    return X


def check_labels(y, n_rows: int) -> np.ndarray:
    y = np.asarray(y, dtype=np.int64)
    if y.ndim != 1 or y.shape[0] != n_rows:
        raise ValueError("labels must be a 1-D vector matching the matrix rows")
    if not np.isin(y, (0, 1)).all():
        raise ValueError("labels must be 0 or 1")
    if np.unique(y).size < 2:
        raise SingleClassTraining("training labels contain a single class")
    return y


class Standardizer:
    """Per-feature (x - mean) / std fitted on training data only.

    Zero-variance features keep std = 1 so transform stays defined.
    """

    def __init__(self) -> None:
        self.mean: Optional[np.ndarray] = None
        self.std: Optional[np.ndarray] = None

    def fit(self, X: np.ndarray) -> "Standardizer":
        # finite entries near the float maximum can overflow the sums
        with np.errstate(over="ignore", invalid="ignore"):
            mean, std = X.mean(axis=0), X.std(axis=0)
        bad = np.flatnonzero(~(np.isfinite(mean) & np.isfinite(std)))
        if bad.size:
            raise ValueError(f"feature {bad[0]}: mean or std overflows float64")
        std[std == 0.0] = 1.0
        self.mean, self.std = mean, std
        return self

    def transform(self, X: np.ndarray) -> np.ndarray:
        if self.mean is None or self.std is None:
            raise UntrainedModel("standardizer used before fit")
        return (X - self.mean) / self.std

    def to_state(self) -> dict:
        return {"mean": self.mean.tolist(), "std": self.std.tolist()}


class Classifier:
    """Base contract: fit(X, y), score(X) -> reals, predict(X) -> {0,1}
    labels, and classify(X) -> (labels, scores) from one scoring pass.

    Larger score means more likely malicious. label == 1 iff
    score >= self.threshold for every subclass with the documented
    exception of vote tie-breaking noted where it applies.
    """

    kind: str = "?"
    threshold: float = 0.5
    # the attributes a fit sets, written by to_state after the constructor
    # parameters; to_state reads each parameter by its own name, so a model
    # stores every parameter under that name
    fitted: tuple[str, ...] = ()

    def __init__(self) -> None:
        self.n_features_: Optional[int] = None

    # subclass hooks
    def _fit(self, X: np.ndarray, y: np.ndarray) -> None:
        raise NotImplementedError

    def _score(self, X: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def fit(self, X, y) -> "Classifier":
        X = check_matrix(X)
        y = check_labels(y, X.shape[0])
        self.n_features_ = X.shape[1]
        self._fit(X, y)
        return self

    def _check_ready(self, X) -> np.ndarray:
        if self.n_features_ is None:
            raise UntrainedModel(f"{self.kind}: predict/score before fit")
        X = check_matrix(X)
        if X.shape[1] != self.n_features_:
            raise WidthMismatch(
                f"{self.kind}: fit width {self.n_features_}, got {X.shape[1]}"
            )
        return X

    def score(self, X) -> np.ndarray:
        return self._score(self._check_ready(X))

    def classify(self, X) -> tuple[np.ndarray, np.ndarray]:
        """(labels, scores) of X from one scoring pass."""
        scores = self.score(X)
        return (scores >= self.threshold).astype(np.int64), scores

    def predict(self, X) -> np.ndarray:
        return self.classify(X)[0]

    def to_state(self) -> dict:
        """JSON-ready record: kind, n_features, the constructor parameters
        and the `fitted` attributes (arrays as lists). Tests pin its
        SHA-256, which makes "byte-identical models" checkable."""
        if self.n_features_ is None:
            raise UntrainedModel(f"{self.kind}: to_state before fit")
        state = {"kind": self.kind, "n_features": self.n_features_}
        for name in (*inspect.signature(type(self)).parameters, *self.fitted):
            value = getattr(self, name)
            if isinstance(value, Standardizer):
                value = value.to_state()
            elif isinstance(value, np.ndarray):
                value = value.tolist()
            state[name] = value
        return state


def labels_to_pm(y: np.ndarray) -> np.ndarray:
    """{0,1} labels to the {-1,+1} convention."""
    return 2.0 * y - 1.0


def sigmoid(z: np.ndarray) -> np.ndarray:
    z = np.asarray(z, dtype=np.float64)
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out
