"""Dense exact scheme tables: an independent reference for ``build_scheme``.

This was the body of ``fermigraph.scheme.build_scheme`` before the tables
came from the three-term recurrence on small arrays.  It reads every table
off the N x N matrices and re-verifies each one by exact reconstruction:

- p_ij^k off one representative entry of each A_i A_j, then
  A_i A_j = sum_k p_ij^k A_k (``intersection_numbers``);
- the idempotents as Lagrange polynomials in the powers of A, each checked
  symmetric and idempotent, pairwise orthogonal, summing to I, with
  A = sum_k theta_k E_k and E_0 = J/N (``lagrange_idempotents`` and
  ``build_scheme``);
- P from the entry sums of A_j o E_i, P Q = N I, and the reconstructions
  A_j = sum_i P_ij E_i and E_j = (1/N) sum_i Q_ij A_i (``eigenmatrices``);
- each E_i o E_j against its Krein expansion (``krein_parameters``).

Only the small Lagrange coefficient table
(``fermigraph.scheme._lagrange_coefficients``) is shared with the library;
every product it feeds is checked here on N x N matrices.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from fermigraph.exactmat import (ExactMatrix, _bounded_qprod, _check_conforming,
                                 _scaled_sum)
from fermigraph.graphs import SchemeGraph
from fermigraph.qroot import QRootN
from fermigraph.scheme import SchemeError, SchemeTables, _lagrange_coefficients


def _schur_sum(x: ExactMatrix, y: ExactMatrix) -> QRootN:
    """The entry sum of x o y, read off the product of the parts before any
    normalization."""
    _check_conforming(x.dim, x.radicand, y)
    sa, sb = _bounded_qprod((x.ra, x.rb), (y.ra, y.rb), x.radicand,
                            mags=(x._mag, y._mag))
    den = x.den * y.den
    tb = 0 if sb is None else int(_scaled_sum(sb, axis=None))
    return QRootN(Fraction(int(_scaled_sum(sa, axis=None)), den),
                  Fraction(tb, den), x.radicand)


def _representative_pairs(distance: list[ExactMatrix]) -> list[tuple[int, int]]:
    """One (x, y) with d(x, y) = k for each k; used for entry extraction."""
    reps = []
    for k, a in enumerate(distance):
        idx = np.argwhere(a.ra != 0)
        if idx.size == 0:
            raise SchemeError(f"distance class {k} is empty")
        reps.append((int(idx[0][0]), int(idx[0][1])))
    return reps


def adjacency_powers(a: ExactMatrix, top: int) -> list[ExactMatrix]:
    """[I, A, A^2, .., A^top] with the products done once and reused."""
    powers = [ExactMatrix.identity(a.dim, a.radicand), a]
    for _ in range(top - 1):
        powers.append(powers[-1] @ a)
    return powers


def lagrange_idempotents(a: ExactMatrix,
                         thetas: list[QRootN]) -> list[ExactMatrix]:
    """Primitive idempotents E_k = prod_{j != k} (A - theta_j I)/(theta_k - theta_j).

    Expands each Lagrange polynomial in coefficient form so the matrix powers
    are shared across all k: E_k = sum_m (c[k][m] / den) A^m.
    """
    d = len(thetas) - 1
    n = a.radicand
    powers = adjacency_powers(a, d)
    ea, eb, den = _lagrange_coefficients(thetas, n)
    return [ExactMatrix.combination(
        [(QRootN(Fraction(x, den), Fraction(y, den), n), m)
         for x, y, m in zip(ea[k], eb[k], powers)], a.dim, n)
        for k in range(d + 1)]


def intersection_numbers(distance: list[ExactMatrix]) -> list:
    """p_ij^k read off one representative entry of A_i A_j per class, then
    verified globally by exact reconstruction A_i A_j = sum_k p_ij^k A_k."""
    d = len(distance) - 1
    reps = _representative_pairs(distance)
    n = distance[0].radicand
    table = [[[0] * (d + 1) for _ in range(d + 1)] for _ in range(d + 1)]
    for i in range(d + 1):
        for j in range(i, d + 1):
            prod = distance[i] @ distance[j]
            for k, (x, y) in enumerate(reps):
                v = prod.entry(x, y)
                if not v.is_rational() or v.a.denominator != 1 or v.a < 0:
                    raise SchemeError(f"p[{i}][{j}][{k}] is not a nonnegative integer")
                table[i][j][k] = table[j][i][k] = int(v.a)
            recon = ExactMatrix.combination(zip(table[i][j], distance),
                                            prod.dim, n)
            if recon != prod:
                raise SchemeError(
                    f"A_{i} A_{j} is not constant on distance classes; "
                    "not an association scheme")
    return table


def _representative_table(distance: list[ExactMatrix],
                          idempotents: list[ExactMatrix]) -> ExactMatrix:
    """U[m][j] = (E_j)_xy at the representative pair (x, y) of distance m,
    read off the idempotents' integer entries into one small exact matrix."""
    reps = _representative_pairs(distance)
    return ExactMatrix.from_scalars(
        [[e.entry(x, y) for e in idempotents] for x, y in reps],
        distance[0].radicand)


def _reshaped(m: ExactMatrix, *shape: int) -> tuple:
    """``m``'s integer parts (ra, rb) reshaped to ``shape``."""
    return tuple(None if p is None else p.reshape(shape) for p in (m.ra, m.rb))


def eigenmatrices(distance: list[ExactMatrix], idempotents: list[ExactMatrix],
                  multiplicities: list[int]) -> tuple[list, list]:
    """Change-of-basis matrices: A_j = sum_i P_ij E_i, E_j = (1/N) sum_i Q_ij A_i.

    P_ij f_i = trace(A_j E_i) is the entry sum of A_j o E_i, since E_i is
    symmetric.  Q = N U, with U the table of representative entries of the
    idempotents (``_representative_table``), so P Q = N I is the one small
    product P U = I; it is checked before the two N x N reconstructions.
    """
    d = len(distance) - 1
    n = distance[0].radicand
    bign = distance[0].dim
    pmat = [[None] * (d + 1) for _ in range(d + 1)]
    for i in range(d + 1):
        for j in range(d + 1):
            s = _schur_sum(distance[j], idempotents[i])
            pmat[i][j] = QRootN(s.a / multiplicities[i],
                                s.b / multiplicities[i], n)
    u = _representative_table(distance, idempotents)
    # the small products run the product rule on the integer parts; ``@`` is
    # left to the N x N products
    p = ExactMatrix.from_scalars(pmat, n)
    pu = _bounded_qprod((p.ra, p.rb), (u.ra, u.rb), n, d + 1)
    if ExactMatrix(d + 1, n, *pu, p.den * u.den) != ExactMatrix.identity(d + 1, n):
        raise SchemeError("P Q != N I")
    umat = [[u.entry(i, j) for j in range(d + 1)] for i in range(d + 1)]
    for j in range(d + 1):
        recon_a = ExactMatrix.combination(
            [(pmat[i][j], idempotents[i]) for i in range(d + 1)], bign, n)
        if recon_a != distance[j]:
            raise SchemeError(f"A_{j} != sum_i P_ij E_i")
        recon_e = ExactMatrix.combination(
            [(umat[i][j], distance[i]) for i in range(d + 1)], bign, n)
        if recon_e != idempotents[j]:
            raise SchemeError(f"E_{j} != (1/N) sum_i Q_ij A_i")
    return pmat, [[QRootN(v.a * bign, v.b * bign, n) for v in row] for row in umat]


def krein_parameters(distance: list[ExactMatrix], idempotents: list[ExactMatrix],
                     pmat) -> list:
    """q_ij^k from Schur products, convention E_i o E_j = (1/N) sum_k q_ij^k E_k.

    At the representative pair of distance m, (E_i o E_j)_xy = U[m][i] U[m][j]
    (U as in ``eigenmatrices``), so E_i o E_j = sum_m U[m][i] U[m][j] A_m and,
    with A_m = sum_k P_km E_k, q_ij^k / N = sum_m P_km U[m][i] U[m][j].  The
    whole table is that one small product; then each E_i o E_j is formed, one
    at a time, and checked against its expansion exactly.
    """
    d = len(distance) - 1
    n = distance[0].radicand
    bign = distance[0].dim
    u = _representative_table(distance, idempotents)
    # c[m, i, j] = U[m][i] U[m][j], flattened over (i, j)
    ca, cb = _bounded_qprod(_reshaped(u, d + 1, d + 1, 1),
                            _reshaped(u, d + 1, 1, d + 1), n)
    ca, cb = (None if c is None else c.reshape(d + 1, -1) for c in (ca, cb))
    p = ExactMatrix.from_scalars(pmat, n)
    qa, qb = _bounded_qprod((p.ra, p.rb), (ca, cb), n, d + 1)
    qa, qb = (None if q is None else q.reshape(d + 1, d + 1, d + 1)
              for q in (qa, qb))
    table = [[None] * (d + 1) for _ in range(d + 1)]
    for i in range(d + 1):
        # q_ij^k / N at [k][j]
        plane = ExactMatrix(d + 1, n, qa[:, i], None if qb is None else qb[:, i],
                            p.den * u.den * u.den)
        for j in range(i, d + 1):
            coeffs = [plane.entry(k, j) for k in range(d + 1)]
            table[i][j] = table[j][i] = [QRootN(c.a * bign, c.b * bign, n)
                                         for c in coeffs]
            recon = ExactMatrix.combination(zip(coeffs, idempotents), bign, n)
            if recon != idempotents[i].schur(idempotents[j]):
                raise SchemeError(f"E_{i} o E_{j} reconstruction failed")
    return table


def build_scheme(graph: SchemeGraph) -> SchemeTables:
    """Assemble and exactly verify all scheme tables for a graph."""
    dist = list(graph.distance_matrices)
    d = len(dist) - 1
    n = graph.radicand
    bign = graph.vertex_count
    ident = ExactMatrix.identity(bign, n)
    allones = ExactMatrix.ones(bign, n)

    if dist[0] != ident:
        raise SchemeError("A_0 != I")
    if not all(a.is_symmetric() for a in dist):
        raise SchemeError("distance matrix not symmetric")
    if ExactMatrix.combination([(1, a) for a in dist], bign, n) != allones:
        raise SchemeError("sum_i A_i != J")
    for i in range(d + 1):
        for j in range(i + 1, d + 1):
            if not dist[i].schur(dist[j]).is_zero():
                raise SchemeError("distance classes overlap")

    p_numbers = intersection_numbers(dist)

    thetas = list(graph.eigenvalues)
    if len(thetas) != d + 1:
        raise SchemeError("need exactly d+1 distinct eigenvalues")
    idem = lagrange_idempotents(dist[1], thetas)
    for k, e in enumerate(idem):
        if not e.is_symmetric():
            raise SchemeError(f"E_{k} is not symmetric")
        if e @ e != e:
            raise SchemeError(f"E_{k} is not idempotent (wrong eigenvalue list?)")
    if ExactMatrix.combination([(1, e) for e in idem], bign, n) != ident:
        raise SchemeError("sum_k E_k != I")
    if ExactMatrix.combination(zip(thetas, idem), bign, n) != dist[1]:
        raise SchemeError("A != sum_k theta_k E_k")
    for i in range(d + 1):
        for j in range(i + 1, d + 1):
            if not (idem[i] @ idem[j]).is_zero():
                raise SchemeError("idempotents are not orthogonal")
    if idem[0] != allones.scale(Fraction(1, bign)):
        raise SchemeError("E_0 != J/N with the supplied ordering")

    mults = []
    for k, e in enumerate(idem):
        tr = e.trace()
        if not tr.is_rational() or tr.a.denominator != 1 or tr.a <= 0:
            raise SchemeError(f"rank of E_{k} is not a positive integer")
        mults.append(int(tr.a))
    valencies = [p_numbers[i][i][0] for i in range(d + 1)]

    pmat, qmat = eigenmatrices(dist, idem, mults)
    krein = krein_parameters(dist, idem, pmat)

    freeze3 = lambda t: tuple(tuple(tuple(row) for row in plane) for plane in t)
    return SchemeTables(
        graph=graph,
        diameter=d,
        vertex_count=bign,
        radicand=n,
        distance=tuple(dist),
        idempotents=tuple(idem),
        p_numbers=freeze3(p_numbers),
        krein=freeze3(krein),
        eigenmatrix_p=tuple(tuple(row) for row in pmat),
        eigenmatrix_q=tuple(tuple(row) for row in qmat),
        valencies=tuple(valencies),
        multiplicities=tuple(mults),
    )
