"""Dense float reference for Pi(K, ell) on a built Hadamard graph.

This was the float path of ``fermigraph entropy`` before the spectra came
from the Terwilliger modules: the supported principal block of pi2(K),
built from E_j = (1/N) sum_i Q_ij A_i with the closed-form Q table, goes
through the dense eigensolver, and the remaining eigenvalues are exact
zeros by support.  It shares no code with ``HadamardSpectra`` beyond the Q
table, so agreement between the two is evidence about both.
"""

from __future__ import annotations

import numpy as np

from fermigraph.eig import DEFAULT_CLUSTER_TOL, Spectrum
from fermigraph.entangle import entropy
from fermigraph.qroot import QRootN
from fermigraph.scheme import hadamard_pq_matrix
from tests.dense_spectrum_reference import cluster_spectrum, symmetric_eig


def dense_entropy(graph, K: int, ell: int,
                  cluster_tol: float = DEFAULT_CLUSTER_TOL,
                  ) -> tuple[float, Spectrum]:
    """Entropy and clustered spectrum of Pi(K, ell) by a dense solve."""
    d = graph.diameter
    if not 0 <= K <= d or not 0 <= ell <= d:
        raise ValueError(f"cutoffs must lie in [0, {d}]")
    dist = graph.distance_matrices
    support = np.zeros(graph.vertex_count, dtype=bool)
    for s in range(ell + 1):
        support |= dist[s].ra[0].astype(bool)
    q = hadamard_pq_matrix(graph.order)
    sub = np.ix_(support, support)
    block = np.zeros((int(support.sum()),) * 2)
    for i, a in enumerate(dist):
        weight = float(sum(q[i][: K + 1], QRootN(0, 0, graph.order)))
        block += weight * a.ra[sub].astype(float)
    values, _ = symmetric_eig(block / graph.vertex_count)
    padded = np.concatenate([np.zeros(graph.vertex_count - block.shape[0]),
                             values])
    padded.sort()
    spec = cluster_spectrum(padded, tol=cluster_tol)
    return entropy(spec), spec
