"""Graph constructors and distance matrices.

The Hadamard graph of order n has 4n vertices: a +/- pair for every row and
column of a normalized Hadamard matrix H.  Vertices are laid out in the
distance partition with respect to the first column vertex,

    c0+ ; r0+..r(n-1)+ ; c1+..c(n-1)+, c1-..c(n-1)- ; r0-..r(n-1)- ; c0-

with shell sizes (1, n, 2n-2, n, 1), so projections onto the first
neighbourhoods act on leading coordinates.  A hypercube constructor is also
provided; vertices are ordered by Hamming weight for the same reason.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exactmat import ExactMatrix
from .hadamard import CoreBlocks, HadamardMatrix, core_blocks
from .qroot import QRootN

HYPERCUBE_MAX_DIMENSION = 10


class DisconnectedGraphError(ValueError):
    pass


@dataclass(frozen=True)
class SchemeGraph:
    """A distance-regular graph with the data needed to build its scheme."""

    name: str
    labels: tuple[str, ...]
    adjacency: ExactMatrix
    distance_matrices: tuple[ExactMatrix, ...]
    radicand: int
    eigenvalues: tuple[QRootN, ...]  # distinct eigenvalues of the adjacency
                                     # matrix in the self-dual ordering

    @property
    def vertex_count(self) -> int:
        return self.adjacency.dim

    @property
    def diameter(self) -> int:
        return len(self.distance_matrices) - 1


@dataclass(frozen=True)
class HadamardGraph(SchemeGraph):
    order: int = 0
    blocks: CoreBlocks | None = None


def distance_matrices_from_adjacency(adj01: np.ndarray,
                                     radicand: int = 1) -> list[ExactMatrix]:
    """All-pairs distance classes by simultaneous breadth-first search.

    Reachability frontiers are propagated with 0/1 matrix products, which is a
    BFS from every vertex at once.  Raises on disconnected input.
    """
    n = adj01.shape[0]
    a = np.asarray(adj01, dtype=float)
    dist = np.full((n, n), -1, dtype=int)
    np.fill_diagonal(dist, 0)
    reach = np.eye(n, dtype=bool)
    frontier = reach
    d = 0
    while not reach.all():
        frontier = (frontier.astype(float) @ a) > 0.5
        frontier &= ~reach
        d += 1
        if d > n or not frontier.any():
            raise DisconnectedGraphError("graph is not connected")
        dist[frontier] = d
        reach |= frontier
    mats = []
    for k in range(d + 1):
        mats.append(ExactMatrix.from_int_array((dist == k).astype(int), radicand))
    return mats


def distance_matrices(adjacency: ExactMatrix) -> list[ExactMatrix]:
    """Distance matrices A_0..A_d of a connected graph given as ExactMatrix."""
    adj = adjacency.ra.astype(int)
    if adjacency.den != 1 or adjacency.rb is not None:
        raise ValueError("adjacency must be an integer 0/1 matrix")
    return distance_matrices_from_adjacency(adj, adjacency.radicand)


def hadamard_vertex_labels(n: int) -> tuple[str, ...]:
    labels = ["c0+"]
    labels += [f"r{i}+" for i in range(n)]
    labels += [f"c{j}+" for j in range(1, n)]
    labels += [f"c{j}-" for j in range(1, n)]
    labels += [f"r{i}-" for i in range(n)]
    labels.append("c0-")
    return tuple(labels)


def build_hadamard_graph(h: HadamardMatrix) -> HadamardGraph:
    """Hadamard graph of a normalized Hadamard matrix.

    Edges join r_i^s to c_j^s when H_ij = +1 and r_i^s to c_j^(-s) when
    H_ij = -1.  The result is n-regular, bipartite and has diameter 4.
    """
    if not h.is_normalized():
        raise ValueError("Hadamard graph construction expects a normalized matrix")
    n = h.order
    if n < 2:
        raise ValueError("order must be at least 2 for a connected graph")
    big = 4 * n
    # index layout per shell
    c_plus = {0: 0, **{j: n + j for j in range(1, n)}}
    c_minus = {**{j: (2 * n - 1) + j for j in range(1, n)}, 0: big - 1}
    r_plus = {i: 1 + i for i in range(n)}
    r_minus = {i: (3 * n - 1) + i for i in range(n)}
    adj = np.zeros((big, big), dtype=int)

    def connect(u: int, v: int) -> None:
        adj[u, v] = adj[v, u] = 1

    for i in range(n):
        for j in range(n):
            if h.entries[i, j] == 1:
                connect(r_plus[i], c_plus[j])
                connect(r_minus[i], c_minus[j])
            else:
                connect(r_plus[i], c_minus[j])
                connect(r_minus[i], c_plus[j])
    adjacency = ExactMatrix.from_int_array(adj, radicand=n)
    dists = distance_matrices_from_adjacency(adj, radicand=n)
    if len(dists) != 5:
        raise ValueError(f"expected diameter 4, got {len(dists) - 1}")
    sq = QRootN(0, 1, n)
    thetas = (QRootN(n, 0, n), sq, QRootN(0, 0, n), -sq, QRootN(-n, 0, n))
    return HadamardGraph(
        name=f"hadamard-{n}",
        labels=hadamard_vertex_labels(n),
        adjacency=adjacency,
        distance_matrices=tuple(dists),
        radicand=n,
        eigenvalues=thetas,
        order=n,
        blocks=core_blocks(h),
    )


def build_hypercube(dimension: int) -> SchemeGraph:
    """Binary hypercube with vertices ordered by Hamming weight.

    Distinct adjacency eigenvalues are L - 2k for k = 0..L (self-dual
    ordering), with binomial multiplicities.
    """
    if not 1 <= dimension <= HYPERCUBE_MAX_DIMENSION:
        raise ValueError(f"dimension must be in [1, {HYPERCUBE_MAX_DIMENSION}]")
    size = 2**dimension
    verts = sorted(range(size), key=lambda v: (v.bit_count(), v))
    index = {v: i for i, v in enumerate(verts)}
    adj = np.zeros((size, size), dtype=int)
    for v in verts:
        for bit in range(dimension):
            w = v ^ (1 << bit)
            adj[index[v], index[w]] = 1
    adjacency = ExactMatrix.from_int_array(adj, radicand=1)
    dists = distance_matrices_from_adjacency(adj, radicand=1)
    thetas = tuple(QRootN(dimension - 2 * k, 0, 1) for k in range(dimension + 1))
    return SchemeGraph(
        name=f"hypercube-{dimension}",
        labels=tuple(format(v, f"0{dimension}b") for v in verts),
        adjacency=adjacency,
        distance_matrices=tuple(dists),
        radicand=1,
        eigenvalues=thetas,
    )
