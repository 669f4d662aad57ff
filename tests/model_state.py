"""A fitted model's record, the JSON-ready dict whose SHA-256 the tests
pin, which makes "byte-identical models" checkable.

The record holds `kind` and `n_features`, then each attribute that
SAVED names for the model's kind, in that order. Arrays become lists
and a Standardizer becomes its `mean` and `std`. Each model's settings
are module constants, so no setting is saved.
"""

import numpy as np

from vanetlab.classifiers import Standardizer

# kind -> the attributes a fit sets, in the order the record writes them
SAVED = {
    "GB": ("f0", "trees"),
    "RF": ("trees",),
    "SVM": ("standardizer", "sv_X", "sv_y", "sv_alpha", "b", "converged"),
    "KNN": ("standardizer", "train_X", "train_y"),
    "GNB": ("log_priors", "means", "variances", "epsilon"),
    "LR": ("standardizer", "w", "b"),
}


def _plain(value):
    if isinstance(value, Standardizer):
        return {"mean": value.mean.tolist(), "std": value.std.tolist()}
    if isinstance(value, np.ndarray):
        return value.tolist()
    return value


def state(model) -> dict:
    """The record of a fitted model."""
    record = {"kind": model.kind, "n_features": model.n_features_}
    for name in SAVED[model.kind]:
        record[name] = _plain(getattr(model, name))
    return record
