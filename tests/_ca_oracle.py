"""Dense correspondence-analysis oracle: one-sided Jacobi SVD, no LAPACK.

``dense_ca_oracle`` performs correspondence analysis on a small dense count
matrix the textbook way: proportions, masses, the dense standardized residual
and a full singular value decomposition by plane rotations.  It shares no code
with ``ideology``'s sparse operator and power iteration, which tests compare
against it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from echoaudit.errors import DegenerateMatrixError


def jacobi_svd(
    mat: np.ndarray, tol: float = 1e-14, max_sweeps: int = 60
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Full SVD by one-sided Jacobi column orthogonalization.

    Returns (U, s, Vt) with singular values descending, like the dense SVD
    in NumPy, but computed by plane rotations only — an implementation
    independent of both LAPACK and the production power iteration.
    """
    mat = np.asarray(mat, dtype=np.float64)
    if mat.ndim != 2:
        raise ValueError("need a 2-d matrix")
    transposed = mat.shape[0] < mat.shape[1]
    work = (mat.T if transposed else mat).copy()
    m, k = work.shape
    v = np.eye(k)

    for _ in range(max_sweeps):
        rotated = False
        for p in range(k - 1):
            for q in range(p + 1, k):
                alpha = float(work[:, p] @ work[:, p])
                beta = float(work[:, q] @ work[:, q])
                gamma = float(work[:, p] @ work[:, q])
                if abs(gamma) <= tol * math.sqrt(alpha * beta) or gamma == 0.0:
                    continue
                rotated = True
                zeta = (beta - alpha) / (2.0 * gamma)
                t = math.copysign(1.0, zeta) / (abs(zeta) + math.sqrt(1.0 + zeta * zeta))
                cs = 1.0 / math.sqrt(1.0 + t * t)
                sn = cs * t
                col_p = work[:, p].copy()
                work[:, p] = cs * col_p - sn * work[:, q]
                work[:, q] = sn * col_p + cs * work[:, q]
                col_p = v[:, p].copy()
                v[:, p] = cs * col_p - sn * v[:, q]
                v[:, q] = sn * col_p + cs * v[:, q]
        if not rotated:
            break

    sigmas = np.sqrt(np.sum(work * work, axis=0))
    order = np.argsort(-sigmas, kind="stable")
    sigmas = sigmas[order]
    work = work[:, order]
    v = v[:, order]
    u = np.zeros_like(work)
    for j in range(k):
        if sigmas[j] > 0.0:
            u[:, j] = work[:, j] / sigmas[j]
    if transposed:
        return v, sigmas, u.T
    return u, sigmas, v.T


@dataclass(frozen=True)
class CAOracleResult:
    sigmas: np.ndarray       # descending
    u: np.ndarray            # left singular vectors, columns
    vt: np.ndarray
    row_scores: np.ndarray   # leading left singular vector
    r: np.ndarray
    c: np.ndarray
    residual: np.ndarray     # the dense standardized residual matrix


def dense_ca_oracle(a: np.ndarray) -> CAOracleResult:
    """Reference correspondence analysis on a small dense count matrix.

    Performs the proportion scaling, mass computation, standardized residual
    construction and a full Jacobi SVD.  Mirrors the production stage's fatal
    conditions (zero row or column).  Capped at 200x50.
    """
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2:
        raise ValueError("need a 2-d matrix")
    if a.shape[0] > 200 or a.shape[1] > 50:
        raise ValueError("oracle capped at 200x50")
    if (a < 0).any():
        raise ValueError("counts must be non-negative")
    total = a.sum()
    if total <= 0:
        raise DegenerateMatrixError("matrix has zero total mass")
    p = a / total
    r = p.sum(axis=1)
    c = p.sum(axis=0)
    if (r == 0).any():
        raise DegenerateMatrixError(f"zero row mass at index {int(np.argmax(r == 0))}")
    if (c == 0).any():
        raise DegenerateMatrixError(f"zero column mass at index {int(np.argmax(c == 0))}")
    residual = (p - np.outer(r, c)) / np.sqrt(np.outer(r, c))
    u, sigmas, vt = jacobi_svd(residual)
    if sigmas.size == 0 or sigmas[0] <= 1e-12:
        raise DegenerateMatrixError(
            "all rows are proportional; the matrix carries no association signal"
        )
    return CAOracleResult(
        sigmas=sigmas, u=u, vt=vt, row_scores=u[:, 0], r=r, c=c, residual=residual
    )
