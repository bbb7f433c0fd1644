"""Association-scheme data of a distance-regular graph, verified exactly.

Given the distance matrices A_0..A_d and the distinct adjacency eigenvalues,
this module produces the full Bose-Mesner toolkit: intersection numbers,
primitive idempotents (Lagrange projectors in Q(sqrt(n))), eigenmatrices P and
Q, Krein parameters, valencies and multiplicities.  Every structure constant
is extracted from a representative entry and then re-verified by exact
reconstruction; nothing is trusted from a partial check.

The (d+1)-sized tables are computed and checked as small exact matrices
(integer arrays over one denominator), one product rule per table rather
than one Q(sqrt(n)) scalar operation per entry: the Lagrange coefficients
of the idempotents, the representative entries U of the idempotents
(Q = N U), P Q = N I as the product P U = I, and the whole Krein table as
the product of P with the A-basis coefficients U[m][i] U[m][j] of every
E_i o E_j.  The N x N reconstructions (A_j from
P, E_j from Q, each E_i o E_j from the Krein table) stay dense and exact,
and so does the entry sum of A_j o E_i that gives P, read off the product
of the integer parts.  ``terwilliger.triple_vanishing_check`` compares its
norms with the Krein table on integer arrays too.

Conventions: idempotents are ordered by the supplied eigenvalue list (for the
graphs built here that is the self-dual ordering with the valency first), and
the Krein parameters follow E_i o E_j = (1/N) sum_k q_ij^k E_k, which is the
normalization that makes p = q for self-dual schemes.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .exactmat import ExactMatrix, _bounded_qprod, _over_common_den, _schur_sum
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
    are shared across all k.  With the eigenvalues over one denominator t,
    theta_j = (u_j + v_j sqrt(n)) / t, the coefficients and denominators of
    all d+1 polynomials are small tables of Python ints (object arrays, so
    nothing can overflow), built one factor at a time for every k that takes
    it:

        c[k] = prod_{j != k} (t x - t theta_j), low degree first,
        q[k] = prod_{j != k} (t theta_k - t theta_j),

    and E_k = sum_m (c[k][m] / q[k]) A^m with 1/q = conj(q) / (q conj(q)).
    """
    d = len(thetas) - 1
    n = a.radicand
    powers = adjacency_powers(a, d)
    u, v, t = _over_common_den(thetas, n)
    u = u.astype(object)
    v = np.zeros_like(u) if v is None else v.astype(object)
    ca, cb = (np.zeros((d + 1, d + 1), dtype=object) for _ in range(2))
    ca[:, 0] = 1
    qa, qb = np.ones(d + 1, dtype=object), np.zeros(d + 1, dtype=object)
    for j in range(d + 1):
        k = np.arange(d + 1) != j
        # c (t x - t theta_j): t c shifted one degree up, minus c t theta_j;
        # no row has reached degree d yet, so the shift wraps only zeros
        ma, mb = _bounded_qprod((ca[k], cb[k]), (u[j], v[j]), n)
        ca[k] = t * np.roll(ca[k], 1, axis=1) - ma
        cb[k] = t * np.roll(cb[k], 1, axis=1) - mb
        qa[k], qb[k] = _bounded_qprod((qa[k], qb[k]), (u[k] - u[j], v[k] - v[j]), n)
    norm = qa * qa - qb * qb * n
    if not norm.all():
        raise SchemeError("repeated eigenvalue in the spectrum list")
    ea, eb = _bounded_qprod((ca, cb), (qa[:, None], -qb[:, None]), n)
    return [ExactMatrix.combination(
        [(QRootN(Fraction(x, norm[k]), Fraction(y, norm[k]), n), m)
         for x, y, m in zip(ea[k], eb[k], powers)], a.dim, n)
        for k in range(d + 1)]


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


def hadamard_intersection_array(n: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """{b_0..b_3; c_1..c_4} = {n, n-1, n/2, 1; 1, n/2, n-1, n} of the order-n
    Hadamard graph (n even, so that the graph has diameter 4)."""
    if n < 2 or n % 2:
        raise ValueError(f"Hadamard order must be even and at least 2, got {n}")
    return (n, n - 1, n // 2, 1), (1, n // 2, n - 1, n)


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


# -- Terwilliger modules of the Hadamard graph ----------------------------------

@dataclass(frozen=True)
class ModuleClass:
    """One isomorphism class of irreducible T-modules in the standard module.

    T is the subconstituent algebra of a base vertex.  A module of the
    Hadamard graph with endpoint r and dimension D meets each shell
    E*_r V .. E*_(r+D-1) V and each eigenspace E_r V .. E_(r+D-1) V in one
    dimension.  In the basis u_i = sqrt(g[i]) (unit vector of the module in
    shell r+i) the eigenspace projectors act as

        (E_(r+j))[i][i'] = X[i][j] X[i'][j] g[i'] / h[j],
        h[j] = sum_i g[i] X[i][j]^2,

    with X = ``table`` and g = ``weights``: a similarity form of the
    symmetric blocks whose entries stay in Q(sqrt(n)).  The shell projectors
    are diagonal in that basis, so every product of shell and eigenspace
    projectors is similar to the symmetric one.
    """

    endpoint: int                            # r: first shell and first eigenspace
    count: int                               # copies in the standard module
    table: tuple[tuple[QRootN, ...], ...]    # X[i][j]: shell r+i, eigenspace r+j
    weights: tuple[int, ...]                 # g[i] > 0

    @property
    def dimension(self) -> int:
        return len(self.weights)


def _tridiagonal_module(endpoint: int, count: int, products: tuple[int, ...],
                        thetas: list[QRootN]) -> ModuleClass:
    """The module on which A is tridiagonal with zero diagonal (the graph is
    bipartite), off-diagonal products beta_1..beta_(D-1) and eigenvalues
    ``thetas``.

    The eigenvector for theta has coordinates p_i(theta) / sqrt(beta_1..beta_i)
    on the unit shell vectors, with p_0 = 1, p_1 = x and
    p_(i+1) = x p_i - beta_i p_(i-1); so X[i][j] = p_i(theta_j) and
    g[i] = beta_(i+1)..beta_(D-1), which is 1 / (beta_1..beta_i) up to a
    common factor.  p_D(theta) = 0 is checked exactly for every theta.
    """
    dim = len(products) + 1
    table = [[None] * dim for _ in range(dim)]
    for j, theta in enumerate(thetas):
        prev, cur = 0, QRootN(1, 0, theta.n)
        for i in range(dim):
            table[i][j] = cur
            prev, cur = cur, theta * cur - (products[i - 1] * prev if i else 0)
        if cur:
            raise SchemeError(f"theta_{endpoint + j} = {theta} is not an "
                              f"eigenvalue of the endpoint-{endpoint} module")
    weights = tuple(math.prod(products[i:]) for i in range(dim))
    return ModuleClass(endpoint=endpoint, count=count,
                       table=tuple(map(tuple, table)), weights=weights)


def hadamard_modules(n: int) -> tuple[ModuleClass, ...]:
    """The three module classes of the order-n Hadamard graph, from its
    intersection array and eigenmatrix alone (no graph is built).

    - The primary module (endpoint 0, dimension 5, one copy) is spanned by
      the shell sums A_i x; there X = Q and g = the valencies k_i, so
      h[j] = N m_j.
    - Endpoint 1 (dimension 3, k_1 - 1 copies): for v in E*_1 V orthogonal
      to 1, two vertices of shell 1 share c_2 - 1 neighbours in shell 2, so
      E*_1 A E*_2 A v = (b_1 - c_2 + 1) v = beta_1 v.  The module's
      eigenvalues are theta_1, theta_2 = 0 and theta_3 = -theta_1, and a
      3x3 tridiagonal matrix with zero diagonal has eigenvalues 0 and
      +-sqrt(beta_1 + beta_2), so beta_2 = theta_1^2 - beta_1.
    - Endpoint 2 (dimension 1, k_2 - k_1 copies): the null vectors of A in
      shell 2, eigenvalue theta_2 = 0.

    Their dimensions times their counts add up to N = 4n.
    """
    b, c = hadamard_intersection_array(n)
    q = hadamard_pq_matrix(n)
    thetas = [q[j][1] for j in range(5)]      # P = Q: theta_j = P_j1 = Q_j1
    valencies = [1]
    for i in range(4):
        valencies.append(valencies[-1] * b[i] // c[i])
    beta1 = b[1] - c[1] + 1
    beta2 = thetas[1] * thetas[1] - beta1
    if not beta2.is_rational() or beta2.a.denominator != 1:
        raise SchemeError(f"endpoint-1 product beta_2 = {beta2} is not an integer")
    primary = ModuleClass(endpoint=0, count=1, table=tuple(map(tuple, q)),
                          weights=tuple(valencies))
    return (primary,
            _tridiagonal_module(1, valencies[1] - 1, (beta1, int(beta2.a)),
                                thetas[1:4]),
            _tridiagonal_module(2, valencies[2] - valencies[1], (), thetas[2:3]))
