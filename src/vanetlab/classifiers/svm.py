"""Soft-margin SVM with an RBF kernel, trained by sequential minimal
optimization on the dual.

Labels map to {-1,+1} internally and features are standardized before
the kernel sees them. The solver is LIBSVM's (Fan, Chen & Lin, JMLR
6:1889-1918, 2005): it keeps the full kernel matrix and the residual
F = -y*G (G the dual gradient), picks the maximal violator i and the
partner j with the largest second-order decrease (WSS2), and takes the
clipped two-variable step. It stops when the KKT gap m - M is at most
tol, or gives up (converged=False) after max_iter pair updates. Ties
break to the lowest index, so fits are deterministic.
"""

from __future__ import annotations

import logging
from typing import Optional

import numpy as np

from .base import Classifier, Standardizer, labels_to_pm

log = logging.getLogger("vanetlab.svm")

# curvature floor for pairs whose kernel rows coincide (LIBSVM's TAU)
TAU = 1e-12


def rbf_kernel(A: np.ndarray, B: np.ndarray, gamma: float) -> np.ndarray:
    """K[i, j] = exp(-gamma * ||A_i - B_j||^2)."""
    a2 = (A * A).sum(axis=1)[:, None]
    b2 = (B * B).sum(axis=1)[None, :]
    d2 = np.maximum(a2 + b2 - 2.0 * (A @ B.T), 0.0)
    return np.exp(-gamma * d2)


class SupportVectorMachine(Classifier):
    kind = "SVM"
    threshold = 0.0
    fitted = ("standardizer", "sv_X", "sv_y", "sv_alpha", "b", "converged")

    def __init__(
        self,
        C: float = 1.0,
        gamma: float = 0.25,
        tol: float = 1e-3,
        max_iter: int = 100_000,
    ):
        super().__init__()
        if C <= 0 or gamma <= 0 or tol <= 0 or max_iter < 1:
            raise ValueError("C, gamma, tol and max_iter must be positive")
        self.C = C
        self.gamma = gamma
        self.tol = tol
        self.max_iter = max_iter
        self.standardizer = Standardizer()
        self.sv_X: Optional[np.ndarray] = None
        self.sv_y: Optional[np.ndarray] = None
        self.sv_alpha: Optional[np.ndarray] = None
        self.b: float = 0.0
        self.converged: bool = False
        self.sweeps_run: int = 0  # pair updates made by the last fit

    def _fit(self, X: np.ndarray, y01: np.ndarray) -> None:
        Xs = self.standardizer.fit(X).transform(X)
        y = labels_to_pm(y01)
        C = self.C
        K = rbf_kernel(Xs, Xs, self.gamma)
        diag = K.diagonal()
        alpha = np.zeros(X.shape[0])
        # F = y - K @ (alpha * y): the offset each point would need to sit
        # exactly on its margin
        F = y.copy()
        updates = 0
        while True:
            # I_up may raise y*alpha, I_low may lower it
            up = np.where(y > 0, alpha < C, alpha > 0.0)
            low = np.where(y > 0, alpha > 0.0, alpha < C)
            F_up = np.where(up, F, -np.inf)
            i = int(np.argmax(F_up))
            m = F_up[i]
            M = np.where(low, F, np.inf).min()
            self.converged = bool(m - M <= self.tol)
            if self.converged or updates == self.max_iter:
                break
            gain = m - F
            curv = diag[i] + diag - 2.0 * K[i]
            curv[curv <= 0.0] = TAU
            j = int(np.argmin(np.where(low & (gain > 0.0), -gain * gain / curv, np.inf)))

            # move y_i*alpha_i up and y_j*alpha_j down by the same step
            bound_i = C if y[i] > 0 else 0.0
            bound_j = 0.0 if y[j] > 0 else C
            room_i = abs(bound_i - alpha[i])
            room_j = abs(bound_j - alpha[j])
            step = min(gain[j] / curv[j], room_i, room_j)
            new_i = bound_i if step == room_i else alpha[i] + y[i] * step
            new_j = bound_j if step == room_j else alpha[j] - y[j] * step
            F -= y[i] * (new_i - alpha[i]) * K[i] + y[j] * (new_j - alpha[j]) * K[j]
            alpha[i], alpha[j] = new_i, new_j
            updates += 1

        self.sweeps_run = updates
        if not self.converged:
            log.warning(
                "SMO hit the iteration cap (%d pair updates) with KKT gap %.3g",
                self.max_iter, m - M,
            )
        # any b in [M, m] keeps every KKT residual within the gap
        free = (alpha > 0.0) & (alpha < C)
        self.b = float(F[free].mean()) if free.any() else float(m + M) / 2.0
        keep = alpha > 0.0
        self.sv_X = Xs[keep]
        self.sv_y = y[keep]
        self.sv_alpha = alpha[keep]

    def decision_function(self, X) -> np.ndarray:
        """Pre-sign margin of Eq. 3's sum over retained support vectors."""
        return self.score(X)

    def _score(self, X: np.ndarray) -> np.ndarray:
        Xs = self.standardizer.transform(X)
        if self.sv_X.shape[0] == 0:
            return np.full(X.shape[0], self.b)
        K = rbf_kernel(Xs, self.sv_X, self.gamma)
        return K @ (self.sv_alpha * self.sv_y) + self.b
