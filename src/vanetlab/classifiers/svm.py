"""Soft-margin SVM with an RBF kernel, trained by sequential minimal
optimization on the dual.

Labels map to {-1,+1} internally and features are standardized before
the kernel sees them. The solver is LIBSVM's (Fan, Chen & Lin, JMLR
6:1889-1918, 2005): it keeps the full kernel matrix and the residual
F = -y*G (G the dual gradient), picks the maximal violator i and the
partner j with the largest second-order decrease (WSS2), and takes the
clipped two-variable step. It stops when the KKT gap m - M is at most
TOL, or gives up (converged=False) after MAX_ITER pair updates. Ties
break to the lowest index, so fits are deterministic.

As LIBSVM's kernel cache is there, the kernel matrix is the solver's
one large working array: rbf_kernel allocates only the m x n result,
takes the Gram matrix into it with one BLAS call and turns it into
kernel values in place, a bounded block of rows at a time. Each element
goes through the same floating-point operations in the same order as
the whole-matrix formula, so the kernel, and every fitted model, is
bit-for-bit the same.
"""

from __future__ import annotations

import logging
from typing import Optional

import numpy as np

from .base import Classifier, Standardizer, labels_to_pm

log = logging.getLogger("vanetlab.svm")

# curvature floor for pairs whose kernel rows coincide (LIBSVM's TAU)
TAU = 1e-12

# bytes of the one temporary a row block of rbf_kernel allocates
BLOCK_BYTES = 1 << 19

C = 1.0
GAMMA = 0.25
# KKT gap at which SMO stops, and its cap on pair updates
TOL = 1e-3
MAX_ITER = 100_000


def rbf_kernel(A: np.ndarray, B: np.ndarray, gamma: float) -> np.ndarray:
    """K[i, j] = exp(-gamma * ||A_i - B_j||^2), built in one m x n array.

    Equal, bit for bit, to exp(-gamma * max(a2 + b2 - 2 * (A @ B.T), 0))
    evaluated one whole-matrix temporary at a time. The Gram matrix
    G = A @ B.T is one BLAS call, never split, since BLAS may round a
    row block's dot products differently from the whole product's.
    Doubling G in place is exact. Each block of rows then takes, element
    by element, (a2_i + b2_j) - 2 g_ij, the clamp at 0, the product with
    -gamma and exp: the formula's own operations in its own order. Each
    is an elementwise ufunc, so a value depends only on its operands, not
    on where its row sits in a block. Beyond K, a block allocates only
    a2_i + b2_j for its rows: at most BLOCK_BYTES, or one row if a row is
    larger.
    """
    a2 = (A * A).sum(axis=1)[:, None]
    b2 = (B * B).sum(axis=1)[None, :]
    K = A @ B.T
    K *= 2.0
    rows = max(1, BLOCK_BYTES // max(1, K.shape[1] * K.itemsize))
    for start in range(0, K.shape[0], rows):
        blk = K[start:start + rows]
        np.subtract(a2[start:start + rows] + b2, blk, out=blk)
        np.maximum(blk, 0.0, out=blk)
        blk *= -gamma
        np.exp(blk, out=blk)
    return K


class SupportVectorMachine(Classifier):
    kind = "SVM"
    threshold = 0.0
    fitted = ("standardizer", "sv_X", "sv_y", "sv_alpha", "b", "converged")

    def __init__(self):
        super().__init__()
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
        K = rbf_kernel(Xs, Xs, GAMMA)
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
            self.converged = bool(m - M <= TOL)
            if self.converged or updates == MAX_ITER:
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
                MAX_ITER, m - M,
            )
        # any b in [M, m] keeps every KKT residual within the gap
        free = (alpha > 0.0) & (alpha < C)
        self.b = float(F[free].mean()) if free.any() else float(m + M) / 2.0
        keep = alpha > 0.0
        self.sv_X = Xs[keep]
        self.sv_y = y[keep]
        self.sv_alpha = alpha[keep]

    def _score(self, X: np.ndarray) -> np.ndarray:
        """Pre-sign margin of Eq. 3's sum over retained support vectors."""
        Xs = self.standardizer.transform(X)
        if self.sv_X.shape[0] == 0:
            return np.full(X.shape[0], self.b)
        K = rbf_kernel(Xs, self.sv_X, GAMMA)
        return K @ (self.sv_alpha * self.sv_y) + self.b
