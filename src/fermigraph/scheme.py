"""Association-scheme data of a distance-regular graph, verified exactly.

Given the distance matrices A_0..A_d and the distinct adjacency eigenvalues,
this module produces the full Bose-Mesner toolkit: intersection numbers,
primitive idempotents (Lagrange projectors in Q(sqrt(n))), eigenmatrices P and
Q, Krein parameters, valencies and multiplicities.  Every structure constant
is extracted from a representative entry and then re-verified by exact
reconstruction; nothing is trusted from a partial check.

Conventions: idempotents are ordered by the supplied eigenvalue list (for the
graphs built here that is the self-dual ordering with the valency first), and
the Krein parameters follow E_i o E_j = (1/N) sum_k q_ij^k E_k, which is the
normalization that makes p = q for self-dual schemes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .exactmat import ExactMatrix
from .graphs import SchemeGraph
from .qroot import QRootN


class SchemeError(ValueError):
    """An association-scheme axiom failed exactly."""


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
    are shared across all k.
    """
    d = len(thetas) - 1
    powers = adjacency_powers(a, d)
    one = QRootN(1, 0, a.radicand)
    idempotents = []
    for k, tk in enumerate(thetas):
        coeffs = [one]  # coefficients of prod (x - theta_j), low degree first
        denom = one
        for j, tj in enumerate(thetas):
            if j == k:
                continue
            denom = denom * (tk - tj)
            nxt = [QRootN(0, 0, a.radicand)] * (len(coeffs) + 1)
            for deg, c in enumerate(coeffs):
                nxt[deg + 1] = nxt[deg + 1] + c
                nxt[deg] = nxt[deg] - c * tj
            coeffs = nxt
        if not denom:
            raise SchemeError("repeated eigenvalue in the spectrum list")
        inv = denom.inverse()
        idempotents.append(ExactMatrix.combination(
            [(c * inv, p) for c, p in zip(coeffs, powers)], a.dim, a.radicand))
    return idempotents


@dataclass(frozen=True)
class SchemeTables:
    graph: SchemeGraph
    diameter: int
    vertex_count: int
    radicand: int
    distance: tuple[ExactMatrix, ...]          # A_0..A_d
    idempotents: tuple[ExactMatrix, ...]       # E_0..E_d
    p_numbers: tuple                           # p[i][j][k] as ints
    krein: tuple                               # q[i][j][k] as QRootN
    eigenmatrix_p: tuple                       # P[i][j] as QRootN
    eigenmatrix_q: tuple                       # Q[i][j] as QRootN
    valencies: tuple[int, ...]                 # n_i
    multiplicities: tuple[int, ...]            # f_k

    @property
    def adjacency(self) -> ExactMatrix:
        return self.distance[1]

    def theta(self, k: int) -> QRootN:
        """Adjacency eigenvalue on the k-th eigenspace (= P[k][1])."""
        return self.eigenmatrix_p[k][1]

    def cumulative_shell_sizes(self) -> list[int]:
        out, acc = [], 0
        for v in self.valencies:
            acc += v
            out.append(acc)
        return out

    def cumulative_multiplicities(self) -> list[int]:
        out, acc = [], 0
        for f in self.multiplicities:
            acc += f
            out.append(acc)
        return out

    def to_json(self) -> str:
        def scalar(v: QRootN) -> list[int]:
            return [v.a.numerator, v.a.denominator, v.b.numerator, v.b.denominator]

        d = self.diameter
        payload = {
            "vertex_count": self.vertex_count,
            "diameter": d,
            "radicand": self.radicand,
            "valencies": list(self.valencies),
            "multiplicities": list(self.multiplicities),
            "P": [[scalar(self.eigenmatrix_p[i][j]) for j in range(d + 1)]
                  for i in range(d + 1)],
            "Q": [[scalar(self.eigenmatrix_q[i][j]) for j in range(d + 1)]
                  for i in range(d + 1)],
            "p_numbers": [[[self.p_numbers[i][j][k] for k in range(d + 1)]
                           for j in range(d + 1)] for i in range(d + 1)],
            "krein": [[[scalar(self.krein[i][j][k]) for k in range(d + 1)]
                       for j in range(d + 1)] for i in range(d + 1)],
        }
        return json.dumps(payload, separators=(",", ":"))


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


def intersection_array(p_numbers) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """{b_0..b_(d-1); c_1..c_d} with b_i = p_{1,i+1}^i and c_i = p_{1,i-1}^i."""
    d = len(p_numbers) - 1
    b = tuple(p_numbers[1][i + 1][i] for i in range(d))
    c = tuple(p_numbers[1][i - 1][i] for i in range(1, d + 1))
    if any(v == 0 for v in b) or any(v == 0 for v in c):
        raise SchemeError("scheme is not metric: a b_i or c_i vanishes")
    return b, c


def eigenmatrices(distance: list[ExactMatrix], idempotents: list[ExactMatrix],
                  multiplicities: list[int]) -> tuple[list, list]:
    """Change-of-basis matrices: A_j = sum_i P_ij E_i, E_j = (1/N) sum_i Q_ij A_i."""
    d = len(distance) - 1
    n = distance[0].radicand
    bign = distance[0].dim
    reps = _representative_pairs(distance)
    pmat = [[None] * (d + 1) for _ in range(d + 1)]
    for i in range(d + 1):
        for j in range(d + 1):
            # P_ij f_i = trace(A_j E_i)
            tr = (distance[j] @ idempotents[i]).trace()
            pmat[i][j] = tr * Fraction(1, multiplicities[i])
    qmat = [[None] * (d + 1) for _ in range(d + 1)]
    for j in range(d + 1):
        for i, (x, y) in enumerate(reps):
            qmat[i][j] = idempotents[j].entry(x, y) * bign
    # verify both relations and P Q = N I exactly
    for j in range(d + 1):
        recon_a = ExactMatrix.combination(
            [(pmat[i][j], idempotents[i]) for i in range(d + 1)], bign, n)
        if recon_a != distance[j]:
            raise SchemeError(f"A_{j} != sum_i P_ij E_i")
        recon_e = ExactMatrix.combination(
            [(qmat[i][j] * Fraction(1, bign), distance[i]) for i in range(d + 1)],
            bign, n)
        if recon_e != idempotents[j]:
            raise SchemeError(f"E_{j} != (1/N) sum_i Q_ij A_i")
    for i in range(d + 1):
        for j in range(d + 1):
            acc = QRootN(0, 0, n)
            for m in range(d + 1):
                acc = acc + pmat[i][m] * qmat[m][j]
            if acc != (bign if i == j else 0):
                raise SchemeError("P Q != N I")
    return pmat, qmat


def krein_parameters(distance: list[ExactMatrix], idempotents: list[ExactMatrix],
                     pmat) -> list:
    """q_ij^k from Schur products, convention E_i o E_j = (1/N) sum_k q_ij^k E_k."""
    d = len(distance) - 1
    n = distance[0].radicand
    bign = distance[0].dim
    reps = _representative_pairs(distance)
    table = [[[None] * (d + 1) for _ in range(d + 1)] for _ in range(d + 1)]
    for i in range(d + 1):
        for j in range(i, d + 1):
            schur = idempotents[i].schur(idempotents[j])
            # expand in the A basis from representative entries, then convert
            coeffs = [schur.entry(x, y) for (x, y) in reps]
            for k in range(d + 1):
                acc = QRootN(0, 0, n)
                for m in range(d + 1):
                    acc = acc + coeffs[m] * pmat[k][m]
                q = acc * bign
                table[i][j][k] = table[j][i][k] = q
            recon = ExactMatrix.combination(
                [(q * Fraction(1, bign), e) for q, e in zip(table[i][j], idempotents)],
                bign, n)
            if recon != schur:
                raise SchemeError(f"E_{i} o E_{j} reconstruction failed")
    return table


def polynomial_checks(p_numbers, krein, pmat, qmat) -> dict[str, bool]:
    """Metric/cometric vanishing scans and the P = Q self-duality test."""
    d = len(p_numbers) - 1

    def vanishing(table, is_zero) -> bool:
        for i in range(d + 1):
            for j in range(d + 1):
                for k in range(d + 1):
                    triangle = i + j < k or j + k < i or k + i < j
                    if triangle and not is_zero(table[i][j][k]):
                        return False
        return True

    metric = vanishing(p_numbers, lambda v: v == 0)
    cometric = vanishing(krein, lambda v: not bool(v))
    selfdual = all(pmat[i][j] == qmat[i][j]
                   for i in range(d + 1) for j in range(d + 1))
    return {"metric": metric, "cometric": cometric, "formally_self_dual": selfdual}


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


def hadamard_pq_matrix(n: int) -> list[list[QRootN]]:
    """The shared 5x5 eigenmatrix of the order-n Hadamard graph scheme."""
    sq = QRootN(0, 1, n)
    z = QRootN(0, 0, n)
    one = QRootN(1, 0, n)
    return [
        [one, QRootN(n, 0, n), QRootN(2 * n - 2, 0, n), QRootN(n, 0, n), one],
        [one, sq, z, -sq, -one],
        [one, z, QRootN(-2, 0, n), z, one],
        [one, -sq, z, sq, -one],
        [one, QRootN(-n, 0, n), QRootN(2 * n - 2, 0, n), QRootN(-n, 0, n), one],
    ]
