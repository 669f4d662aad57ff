"""Soft-margin SVM with an RBF kernel, trained by sequential minimal
optimization on the dual.

Labels map to {-1,+1} internally and features are standardized before
the kernel sees them. The solver is LIBSVM's (Fan, Chen & Lin, JMLR
6:1889-1918, 2005): it keeps the residual F = -y*G (G the dual
gradient), picks the maximal violator i and the partner j with the
largest second-order decrease (WSS2), and takes the clipped
two-variable step. It stops when the KKT gap m - M is at most
TOL, or gives up (converged=False) after MAX_ITER pair updates. Ties
break to the lowest index, so fits are deterministic.

The kernel matrix is never built. SMO reads only the rows K[i] and K[j]
of its working pair, so, as in LIBSVM's kernel cache, the fit computes
a row the first time the solver asks for it and keeps it for the rest
of the fit. Each row is exp(-GAMMA * d2) with d2 from base.sq_dists,
the fixed-order squared distances that call no BLAS, so every kernel
value is the same whichever row asks for it, on any BLAS build, and
the diagonal is exactly 1. Scoring takes the same rows of the test
points against the support vectors, a bounded block at a time.
"""

from __future__ import annotations

import logging
from typing import Optional

import numpy as np

from .base import Classifier, Standardizer, row_blocks, sq_dists

log = logging.getLogger("vanetlab.svm")

# curvature floor for pairs whose kernel rows coincide (LIBSVM's TAU)
TAU = 1e-12

C = 1.0
GAMMA = 0.25
# KKT gap at which SMO stops, and its cap on pair updates
TOL = 1e-3
MAX_ITER = 100_000


def rbf_rows(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """K[i, j] = exp(-GAMMA * ||A_i - B_j||^2), in place over sq_dists."""
    K = sq_dists(A, B)
    K *= -GAMMA
    return np.exp(K, out=K)


class SupportVectorMachine(Classifier):
    kind = "SVM"
    threshold = 0.0

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
        y = 2.0 * y01 - 1.0  # {0,1} labels to {-1,+1}
        # the kernel rows SMO has asked for, by row index
        rows: dict[int, np.ndarray] = {}

        def row(r: int) -> np.ndarray:
            if r not in rows:
                rows[r] = rbf_rows(Xs[r:r + 1], Xs)[0]
            return rows[r]

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
            K_i = row(i)
            # K[i, i] + K[j, j] - 2 K[i, j], the diagonal being exactly 1
            curv = 2.0 - 2.0 * K_i
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
            F -= y[i] * (new_i - alpha[i]) * K_i + y[j] * (new_j - alpha[j]) * row(j)
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
        """Pre-sign margin of Eq. 3's sum over retained support vectors,
        summed by a numpy reduction per row, not BLAS."""
        Xs = self.standardizer.transform(X)
        coef = self.sv_alpha * self.sv_y
        out = np.empty(X.shape[0])
        for blk in row_blocks(X.shape[0], coef.size):
            out[blk] = (rbf_rows(Xs[blk], self.sv_X) * coef).sum(axis=1)
        return out + self.b
