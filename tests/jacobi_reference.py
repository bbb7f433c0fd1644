"""Cyclic Jacobi eigensolver: an independent reference for the LAPACK path.

Written from the textbook rotation scheme and sharing no code with
``dense_spectrum_reference.symmetric_eig`` beyond its symmetry check, so agreement
between the two is evidence about both.  Meant for dim <= 64.
"""

from __future__ import annotations

import numpy as np

from tests.dense_spectrum_reference import EigenSolveError, _check_symmetric


def jacobi_eig(m: np.ndarray, sweeps: int = 100,
               tol: float = 1e-13) -> tuple[np.ndarray, np.ndarray]:
    """Cyclic Jacobi reference eigensolver for small symmetric matrices.

    Independent of LAPACK; intended for dim <= 64 cross-checks.  Reports
    non-convergence instead of looping forever.
    """
    a = np.asarray(m, dtype=float)
    _check_symmetric(a)
    a = 0.5 * (a + a.T)
    dim = a.shape[0]
    v = np.eye(dim)
    scale = np.linalg.norm(a, "fro")
    if scale == 0.0:
        return np.zeros(dim), v
    for _ in range(sweeps):
        off = np.sqrt(max(np.sum(a * a) - np.sum(np.diag(a) ** 2), 0.0))
        if off <= tol * scale:
            break
        for p in range(dim - 1):
            for q in range(p + 1, dim):
                apq = a[p, q]
                if abs(apq) <= 1e-300:
                    continue
                theta = (a[q, q] - a[p, p]) / (2.0 * apq)
                if theta == 0.0:
                    t = 1.0
                elif abs(theta) > 1e150:  # theta^2 would overflow; t ~ 1/(2 theta)
                    t = 0.5 / theta
                else:
                    t = np.sign(theta) / (abs(theta) + np.sqrt(theta * theta + 1.0))
                c = 1.0 / np.sqrt(t * t + 1.0)
                s = t * c
                rp, rq = a[p, :].copy(), a[q, :].copy()
                a[p, :] = c * rp - s * rq
                a[q, :] = s * rp + c * rq
                cp, cq = a[:, p].copy(), a[:, q].copy()
                a[:, p] = c * cp - s * cq
                a[:, q] = s * cp + c * cq
                a[p, q] = a[q, p] = 0.0  # exact by choice of rotation angle
                vp, vq = v[:, p].copy(), v[:, q].copy()
                v[:, p] = c * vp - s * vq
                v[:, q] = s * vp + c * vq
        a = 0.5 * (a + a.T)  # remove asymmetric rounding drift
    else:
        raise EigenSolveError(f"Jacobi did not converge in {sweeps} sweeps")
    order = np.argsort(np.diag(a), kind="stable")
    return np.diag(a)[order].copy(), v[:, order].copy()
