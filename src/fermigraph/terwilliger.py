"""Dual idempotents, dual distance matrices and the relations they satisfy.

With respect to a base vertex x, E*_i is the diagonal 0/1 projector onto the
i-th neighbourhood of x and A*_i is the diagonal matrix N * (E_i) restricted
to row x.  Together with the Bose-Mesner algebra these generate the algebra
in which the chopped correlation matrix and its commuting partner live.
All checks in this module are exact.
"""

from __future__ import annotations

from dataclasses import dataclass

from .exactmat import ExactMatrix
from .qroot import QRootN
from .scheme import SchemeError, SchemeTables


@dataclass(frozen=True)
class TerwilligerBasis:
    tables: SchemeTables
    base_vertex: int
    dual_idempotents: tuple[ExactMatrix, ...]   # E*_0..E*_d, diagonal 0/1
    dual_distance: tuple[ExactMatrix, ...]      # A*_0..A*_d, diagonal

    @property
    def adjacency(self) -> ExactMatrix:
        return self.tables.adjacency

    @property
    def dual_adjacency(self) -> ExactMatrix:
        return self.dual_distance[1]

    def neighbourhood_sizes(self) -> list[int]:
        return [int(e.trace().a) for e in self.dual_idempotents]


def dual_idempotents(base_vertex: int,
                     distance: list[ExactMatrix]) -> list[ExactMatrix]:
    """E*_i(x): diagonal 0/1 with (E*_i)_yy = (A_i)_xy."""
    out = []
    for a in distance:
        row = [a.entry(base_vertex, y) for y in range(a.dim)]
        out.append(ExactMatrix.diagonal(row, a.radicand))
    return out


def dual_distance(base_vertex: int, idempotents: list[ExactMatrix],
                  vertex_count: int) -> list[ExactMatrix]:
    """A*_i(x): diagonal with (A*_i)_yy = N (E_i)_xy."""
    out = []
    for e in idempotents:
        row = [e.entry(base_vertex, y) * vertex_count for y in range(e.dim)]
        out.append(ExactMatrix.diagonal(row, e.radicand))
    return out


def terwilliger_basis(tables: SchemeTables, base_vertex: int = 0) -> TerwilligerBasis:
    dist = list(tables.distance)
    estars = dual_idempotents(base_vertex, dist)
    astars = dual_distance(base_vertex, list(tables.idempotents),
                           tables.vertex_count)
    n = tables.radicand
    bign = tables.vertex_count
    ident = ExactMatrix.identity(bign, n)
    if ExactMatrix.combination([(1, e) for e in estars], bign, n) != ident:
        raise SchemeError("dual idempotents do not resolve the identity")
    if astars[0] != ident:
        raise SchemeError("A*_0 != I")
    # A* must expand as sum_i Q_i1 E*_i
    recon = ExactMatrix.combination(
        [(row[1], e) for row, e in zip(tables.eigenmatrix_q, estars)], bign, n)
    if recon != astars[1]:
        raise SchemeError("A* != sum_i Q_i1 E*_i")
    return TerwilligerBasis(
        tables=tables,
        base_vertex=base_vertex,
        dual_idempotents=tuple(estars),
        dual_distance=tuple(astars),
    )


def verify_dual_products(basis: TerwilligerBasis) -> None:
    """A*_i A*_j = sum_k q_ij^k A*_k, exactly (diagonal products are cheap)."""
    t = basis.tables
    d = t.diameter
    for i in range(d + 1):
        for j in range(i, d + 1):
            prod = basis.dual_distance[i] @ basis.dual_distance[j]
            recon = ExactMatrix.combination(zip(t.krein[i][j], basis.dual_distance),
                                            t.vertex_count, t.radicand)
            if recon != prod:
                raise SchemeError(f"A*_{i} A*_{j} != sum_k q A*_k")


@dataclass(frozen=True)
class TripleVanishingReport:
    checked: int
    violations: tuple[tuple[str, int, int, int], ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def triple_vanishing_check(basis: TerwilligerBasis) -> TripleVanishingReport:
    """E*_i A_j E*_k = 0 iff p_ij^k = 0, and E_i A*_j E_k = 0 iff q_ij^k = 0,
    for every triple (i, j, k).  Violations are collected, not raised."""
    t = basis.tables
    d = t.diameter
    violations: list[tuple[str, int, int, int]] = []
    checked = 0
    families = (("EsAEs", basis.dual_idempotents, t.distance, t.p_numbers),
                ("EAsE", t.idempotents, basis.dual_distance, t.krein))
    for label, outer, middle, table in families:
        for i in range(d + 1):
            for j in range(d + 1):
                sandwich_left = outer[i] @ middle[j]
                for k in range(d + 1):
                    triple = sandwich_left @ outer[k]
                    if triple.is_zero() != (not table[i][j][k]):
                        violations.append((label, i, j, k))
                    checked += 1
    return TripleVanishingReport(checked=checked, violations=tuple(violations))


def block_tridiagonal_decompose(m: ExactMatrix,
                                projectors: list[ExactMatrix],
                                ) -> dict[tuple[int, int], ExactMatrix]:
    """Blocks P_i M P_j for a projector family resolving the identity.

    The blocks are returned for all (i, j) and their sum is verified to
    reconstruct M exactly.
    """
    total = ExactMatrix.combination([(1, p) for p in projectors], m.dim,
                                    m.radicand)
    if total != ExactMatrix.identity(m.dim, m.radicand):
        raise SchemeError("projector family does not resolve the identity")
    blocks: dict[tuple[int, int], ExactMatrix] = {}
    for i, pi in enumerate(projectors):
        left = pi @ m
        for j, pj in enumerate(projectors):
            blocks[(i, j)] = left @ pj
    recon = ExactMatrix.combination([(1, b) for b in blocks.values()], m.dim,
                                    m.radicand)
    if recon != m:
        raise SchemeError("block decomposition does not reconstruct the input")
    return blocks


def cubic_relation_residual(a: ExactMatrix, astar: ExactMatrix,
                            rho: QRootN, tau: QRootN,
                            ) -> tuple[ExactMatrix, ExactMatrix]:
    """Residuals of the two cubic exchange relations between A and A*.

        r1 = A^2 A* - rho A A* A + A* A^2 - tau A*
        r2 = A*^2 A - rho A* A A* + A A*^2 - tau A

    Both vanish exactly when (rho, tau) match the eigenvalue spacing of the
    scheme (sqrt(n) and n for Hadamard graphs, 2 and 4 for hypercubes).
    """
    a2 = a @ a
    r1 = a2 @ astar - (a @ astar @ a).scale(rho) + astar @ a2 - astar.scale(tau)
    s2 = astar @ astar
    r2 = s2 @ a - (astar @ a @ astar).scale(rho) + a @ s2 - a.scale(tau)
    return r1, r2
