"""Dual idempotents, dual distance matrices and the relations they satisfy.

With respect to a base vertex x, E*_i is the diagonal 0/1 projector onto the
i-th neighbourhood of x and A*_i is the diagonal matrix N * (E_i) restricted
to row x.  Together with the Bose-Mesner algebra these generate the algebra
in which the chopped correlation matrix and its commuting partner live.
All checks in this module are exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exactmat import (ExactMatrix, _bounded_qprod, _canonical,
                       _over_common_den, _scaled_sum)
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


def _row_diagonal(m: ExactMatrix, row: int, factor: int = 1) -> ExactMatrix:
    """The diagonal matrix whose diagonal is ``factor`` times row ``row`` of
    ``m``, read off m's integer arrays."""
    ra, rb = (None if p is None else np.diag(_scaled_sum(p[row], factor))
              for p in (m.ra, m.rb))
    return ExactMatrix(m.dim, m.radicand, ra, rb, m.den)


def dual_idempotents(base_vertex: int,
                     distance: list[ExactMatrix]) -> list[ExactMatrix]:
    """E*_i(x): diagonal 0/1 with (E*_i)_yy = (A_i)_xy."""
    return [_row_diagonal(a, base_vertex) for a in distance]


def dual_distance(base_vertex: int, idempotents: list[ExactMatrix],
                  vertex_count: int) -> list[ExactMatrix]:
    """A*_i(x): diagonal with (A*_i)_yy = N (E_i)_xy."""
    return [_row_diagonal(e, base_vertex, vertex_count) for e in idempotents]


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


def _diagonal_parts(m: ExactMatrix, name: str):
    """The diagonal of a diagonal matrix as its integer arrays (a, b, den);
    ``b`` is None when the sqrt(n) part vanishes."""
    if not m.is_diagonal():
        raise SchemeError(f"{name} is not diagonal")
    return (m.ra.diagonal(), None if m.rb is None else m.rb.diagonal(), m.den)


def _nonzero(parts) -> np.ndarray:
    """Where the value with integer parts (a, b) is nonzero."""
    a, b = parts
    return (a != 0) if b is None else (a != 0) | (b != 0)


def _parts_equal(x, y) -> np.ndarray:
    """Where x == y, for values given as integer parts (a, b) over one
    denominator; a ``None`` part is zero."""
    (xa, xb), (ya, yb) = x, y
    same = xa == ya
    if xb is not None or yb is not None:
        same &= (0 if xb is None else xb) == (0 if yb is None else yb)
    return same


def triple_vanishing_check(basis: TerwilligerBasis) -> TripleVanishingReport:
    """E*_i A_j E*_k = 0 iff p_ij^k = 0, and E_i A*_j E_k = 0 iff q_ij^k = 0,
    for every triple (i, j, k).  Violations are collected, not raised.

    Both families are checked exactly and without any N x N product.

    E*_i A_j E*_k is the block of A_j with rows in shell i and columns in
    shell k, the supports of the diagonals of E*_i and E*_k (a product of
    nonzero field elements is nonzero), so it vanishes iff that block does.

    E_i A*_j E_k is checked through its squared Frobenius norm.  With
    a = diag(A*_j) and E_i, E_k symmetric idempotents (``build_scheme``
    forms them as the Lagrange idempotents of the symmetric A, after
    checking that the eigenvalue list annihilates A, so by the spectral
    theorem they are both),

        ||E_i A*_j E_k||^2 = tr(E_k A*_j E_i E_i A*_j E_k)
                           = tr(A*_j E_i A*_j E_k)
                           = sum_yz a_y (E_i)_yz a_z (E_k)_zy
                           = a^T (E_i o E_k) a.

    Since a = N E_j e_x for the base vertex x, E_i o E_k =
    (1/N) sum_l q_ik^l E_l and (E_j)_xx = m_j / N, the squared norm is

        N sum_l q_ik^l e_x^T E_j E_l E_j e_x = q_ik^j N (E_j)_xx = q_ik^j m_j.

    A triple is a violation when the squared norm differs from q_ik^j m_j,
    or when it vanishes and q_ij^k does not, or the other way round.  It is
    zero iff E_i A*_j E_k is, so the second test is the zero test of the
    product itself.  Each unordered pair (i, k) costs one Schur product and
    one N x (d+1) integer product; the norms are then compared with the
    Krein table, and their zero pattern with its zero pattern, as integer
    arrays of all (d+1)^3 triples at once.
    """
    t = basis.tables
    d = t.diameter
    n = t.radicand
    violations: list[tuple[str, int, int, int]] = []

    shells = []
    for i, e in enumerate(basis.dual_idempotents):
        ea, eb, _ = _diagonal_parts(e, f"E*_{i}")
        shells.append(np.flatnonzero((ea != 0) | (eb is not None and eb != 0)))
    for i in range(d + 1):
        for j, a in enumerate(t.distance):
            rows = a.ra[shells[i]] != 0
            if a.rb is not None:
                rows |= a.rb[shells[i]] != 0
            for k in range(d + 1):
                if rows[:, shells[k]].any() != bool(t.p_numbers[i][j][k]):
                    violations.append(("EsAEs", i, j, k))

    # the diagonals a_j of A*_j as the columns of N x (d+1) integer arrays
    # over one denominator
    parts = [_diagonal_parts(m, f"A*_{j}")
             for j, m in enumerate(basis.dual_distance)]
    den = math.lcm(*(p[2] for p in parts))
    cols_a = np.stack([_scaled_sum(pa, den // pd) for pa, _, pd in parts],
                      axis=1)
    cols_b = None
    if any(pb is not None for _, pb, _ in parts):
        cols_b = np.stack([np.zeros_like(pa) if pb is None
                           else _scaled_sum(pb, den // pd)
                           for pa, pb, pd in parts], axis=1)
    # the squared norm of E_i A*_j E_k at [i, k, j], over a denominator
    # that depends on (i, k) only, at [i, k, 0]
    shape = (d + 1,) * 3
    norm_a, norm_b = np.zeros(shape, dtype=object), np.zeros(shape, dtype=object)
    norm_den = np.zeros((d + 1, d + 1, 1), dtype=object)
    for i in range(d + 1):
        for k in range(i, d + 1):
            s = t.idempotents[i].schur(t.idempotents[k])
            sa, sb = _bounded_qprod((s.ra, s.rb), (cols_a, cols_b), n,
                                    t.vertex_count)
            qa, qb = _bounded_qprod((cols_a, cols_b), (sa, sb), n)
            norm_a[i, k] = norm_a[k, i] = _scaled_sum(qa, axis=0)
            if qb is not None:
                norm_b[i, k] = norm_b[k, i] = _scaled_sum(qb, axis=0)
            norm_den[i, k] = norm_den[k, i] = s.den * den * den
    norm = (_canonical(norm_a)[0], _canonical(norm_b)[0])
    # the Krein table as integer arrays over one denominator kden, indexed
    # like t.krein, so q_ik^j m_j is at [i, k, j]
    ka, kb, kden = _over_common_den(
        [v for plane in t.krein for row in plane for v in row], n)
    ka, kb = (None if p is None else p.reshape(shape) for p in (ka, kb))
    target = _bounded_qprod((ka, kb), (np.array(t.multiplicities), None), n)
    # norm / norm_den == target / kden, cross-multiplied
    equal = _parts_equal(
        _bounded_qprod(norm, (kden, None), n),
        _bounded_qprod(target, (_canonical(norm_den)[0], None), n))
    # at [i, j, k], so that argwhere lists the triples in loop order
    bad = (~equal.transpose(0, 2, 1)
           | (_nonzero(norm).transpose(0, 2, 1) != _nonzero((ka, kb))))
    violations.extend(("EAsE", int(i), int(j), int(k))
                      for i, j, k in np.argwhere(bad))
    return TripleVanishingReport(checked=2 * (d + 1) ** 3,
                                 violations=tuple(violations))


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
