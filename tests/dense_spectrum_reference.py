"""Dense float spectra: an independent reference for the Terwilliger-module path.

This was the spectrum engine of ``fermigraph spectrum`` before its spectra
came from the Terwilliger modules (``fermigraph.HadamardSpectra``): the exact
matrix goes to float, through LAPACK's ``numpy.linalg.eigh`` (Householder
tridiagonalization followed by implicit-shift QL/QR), and the eigenvalues are
merged into clusters by tolerance.  It shares no code with the module path,
so agreement between the two is evidence about both; ``jacobi_reference.py``
holds an independent check of the solver itself.

Every solve is verified a posteriori: each eigenpair against the residual
bound ``|M v - lambda v| <= tol * |M|_F``, and the whole basis against
``max |V^T V - I| <= tol``.  The matrices treated here are heavily
degenerate; the orthonormality check is what guarantees an orthonormal basis
inside each eigenvalue cluster, so the vectors are returned as LAPACK gives
them.
"""

from __future__ import annotations

import math

import numpy as np

from fermigraph.eig import DEFAULT_CLUSTER_TOL, InvalidSpectrumError, Spectrum
from fermigraph.exactmat import ExactMatrix

DEFAULT_EIG_TOL = 1e-10
SYMMETRY_RTOL = 1e-12


class NonSymmetricError(ValueError):
    """Input matrix is not symmetric within tolerance."""


class EigenSolveError(RuntimeError):
    """The eigensolver failed to converge or missed its residual bound."""


def _check_symmetric(m: np.ndarray) -> None:
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise NonSymmetricError(f"expected a square matrix, got shape {m.shape}")
    scale = np.max(np.abs(m)) if m.size else 0.0
    dev = np.max(np.abs(m - m.T)) if m.size else 0.0
    if dev > SYMMETRY_RTOL * max(scale, 1.0):
        raise NonSymmetricError(f"asymmetry {dev:.3e} exceeds {SYMMETRY_RTOL:.0e}*max|M|")


def symmetric_eig(m: np.ndarray, tol: float = DEFAULT_EIG_TOL,
                  ) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (ascending) and orthonormal eigenvectors of a symmetric matrix.

    Verifies |M v - lambda v| <= tol * |M|_F and orthonormality to tol for
    every pair before returning.
    """
    m = np.asarray(m, dtype=float)
    _check_symmetric(m)
    if m.shape[0] == 0:
        raise NonSymmetricError("empty matrix")
    sym = 0.5 * (m + m.T)
    try:
        values, vectors = np.linalg.eigh(sym)
    except np.linalg.LinAlgError as exc:
        raise EigenSolveError(f"eigh did not converge: {exc}") from exc
    frob = np.linalg.norm(sym, "fro")
    resid = np.linalg.norm(sym @ vectors - vectors * values, axis=0)
    bound = tol * max(frob, 1e-300)
    if np.any(resid > bound):
        raise EigenSolveError(
            f"residual {resid.max():.3e} exceeds bound {bound:.3e}")
    gram_dev = np.max(np.abs(vectors.T @ vectors - np.eye(m.shape[0])))
    if gram_dev > tol:
        raise EigenSolveError(f"eigenvector basis not orthonormal: {gram_dev:.3e}")
    return values, vectors


def cluster_spectrum(values, tol: float = DEFAULT_CLUSTER_TOL,
                     trace: float | None = None) -> Spectrum:
    """Merge ascending eigenvalues into (value, multiplicity) clusters.

    Consecutive values within tol are merged; the representative is the
    cluster mean.  tol <= 0 groups exactly equal values only.  A NaN or
    infinite tol is refused: inf would merge the whole spectrum, and NaN
    would switch off merging and the trace check, since every comparison
    with NaN is False.
    """
    if not math.isfinite(tol):
        raise ValueError(f"cluster tolerance must be finite, got {tol}")
    vals = [float(v) for v in values]
    if any(vals[i] > vals[i + 1] for i in range(len(vals) - 1)):
        raise ValueError("eigenvalues must be sorted ascending")
    entries: list[tuple[float, int]] = []
    i = 0
    eff = max(tol, 0.0)
    while i < len(vals):
        j = i + 1
        while j < len(vals) and vals[j] - vals[j - 1] <= eff:
            j += 1
        entries.append((sum(vals[i:j]) / (j - i), j - i))
        i = j
    target = sum(vals) if trace is None else float(trace)
    check = abs(sum(v * m for v, m in entries) - target)
    return Spectrum(tuple(entries), trace_check=check)


def spectrum_numeric(m: ExactMatrix, cluster_tol: float = DEFAULT_CLUSTER_TOL,
                     ) -> Spectrum:
    """Cluster the float spectrum of an exact symmetric matrix, with the trace
    check done against the exact trace."""
    values, _ = symmetric_eig(m.to_float())
    spec = cluster_spectrum(values, tol=cluster_tol, trace=float(m.trace()))
    if spec.trace_check > max(cluster_tol, 1e-12) * m.dim:
        raise InvalidSpectrumError(
            f"eigenvalue sum misses the exact trace by {spec.trace_check:.3e}")
    return spec
