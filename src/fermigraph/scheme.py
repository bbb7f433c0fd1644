"""Association-scheme data of a distance-regular graph, verified exactly.

Given the distance matrices A_0..A_d and the distinct adjacency eigenvalues,
this module produces the full Bose-Mesner toolkit: intersection numbers,
primitive idempotents, eigenmatrices P and Q, Krein parameters, valencies
and multiplicities (Brouwer, Cohen and Neumaier, *Distance-Regular Graphs*,
1989, sections 2.1, 2.2 and 4.1).

Only the graph is read on N x N matrices: A_0 = I, symmetry, sum_i A_i = J,
disjoint classes, and A A_i = b_(i-1) A_(i-1) + a_i A_i + c_(i+1) A_(i+1)
for i = 0..d, checked exactly with d+1 products.  With every c_i > 0 this
recurrence makes A_i a polynomial of degree i in A, so the graph is
distance-regular with these classes, and every table follows from its
tridiagonal matrix L_1 and the eigenvalue list, as small exact arrays of
Python ints over one denominator: the intersection matrices L_i; W, with
A^m = sum_i W[m][i] A_i; U, the Lagrange coefficients of the idempotents
times W, so E_k = sum_i U[i][k] A_i and Q = N U; P, from P_ji m_j = k_i Q_ij;
and the Krein table from P and U.

prod_j (L_1 - theta_j I) e_0 = 0 is checked, so prod_j (A - theta_j I) = 0;
as I, A, .., A^d are independent, the d+1 distinct values listed are the
spectrum of A.  A is symmetric, so by the spectral theorem its Lagrange
idempotents are symmetric, idempotent, pairwise orthogonal, sum to I and
give A = sum_k theta_k E_k: no N x N check of these is needed.  E_0 = J/N
(the valency listed first) is checked as U[.][0] = 1/N.  The dense checks
of every identity are kept in ``tests/dense_scheme_reference.py``.

Conventions: idempotents are ordered by the supplied eigenvalue list (for the
graphs built here that is the self-dual ordering with the valency first), and
the Krein parameters follow E_i o E_j = (1/N) sum_k q_ij^k E_k, which is the
normalization that makes p = q for self-dual schemes.
"""

from __future__ import annotations

import itertools
import json
import math
import operator
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .exactmat import ExactMatrix, _bounded_qprod, _over_common_den, _qprod
from .graphs import SchemeGraph
from .qroot import QRootN


class SchemeError(ValueError):
    """An association-scheme axiom failed exactly."""


def _lagrange_coefficients(thetas: list[QRootN], n: int):
    """The primitive idempotents E_k = prod_{j != k} (A - theta_j I)/(theta_k - theta_j)
    in coefficient form, E_k = sum_m (ea[k][m] + eb[k][m] sqrt(n)) / den A^m.

    With the eigenvalues over one denominator t,
    theta_j = (u_j + v_j sqrt(n)) / t, the coefficients and denominators of
    all d+1 polynomials are small tables of Python ints (object arrays, so
    nothing can overflow), built one factor at a time for every k that takes
    it:

        c[k] = prod_{j != k} (t x - t theta_j), low degree first,
        q[k] = prod_{j != k} (t theta_k - t theta_j),

    and 1/q = conj(q) / (q conj(q)).
    """
    d = len(thetas) - 1
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
    den = math.lcm(*norm)
    return ea * (den // norm)[:, None], eb * (den // norm)[:, None], den


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
        return list(itertools.accumulate(self.valencies))

    def cumulative_multiplicities(self) -> list[int]:
        return list(itertools.accumulate(self.multiplicities))

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


def intersection_array(p_numbers) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """{b_0..b_(d-1); c_1..c_d} with b_i = p_{1,i+1}^i and c_i = p_{1,i-1}^i."""
    d = len(p_numbers) - 1
    b = tuple(p_numbers[1][i + 1][i] for i in range(d))
    c = tuple(p_numbers[1][i - 1][i] for i in range(1, d + 1))
    if any(v == 0 for v in b) or any(v == 0 for v in c):
        raise SchemeError("scheme is not metric: a b_i or c_i vanishes")
    return b, c


def _recurrence_matrix(distance: list[ExactMatrix]) -> np.ndarray:
    """L_1, (L_1)_kj = p_1j^k: b_(i-1), a_i and c_(i+1) read off row 0 of
    A A_i at one vertex of each class, then A A_i compared exactly with its
    three-term expansion.  The classes are 0/1 matrices, so A A_i has
    denominator 1 and no sqrt(n) part."""
    d = len(distance) - 1
    bign, n = distance[0].dim, distance[0].radicand
    reps = [np.flatnonzero(a.ra[0]) for a in distance]
    for k, row in enumerate(reps):
        if row.size == 0:
            raise SchemeError(f"distance class {k} is empty")
    l1 = np.zeros((d + 1, d + 1), dtype=object)
    for i in range(d + 1):
        near = range(max(i - 1, 0), min(i + 1, d) + 1)
        prod = distance[1] @ distance[i]
        for k in near:
            l1[k, i] = int(prod.ra[0, reps[k][0]])
        if ExactMatrix.combination([(l1[k, i], distance[k]) for k in near],
                                   bign, n) != prod:
            raise SchemeError(f"A A_{i} != its three-term expansion; not "
                              "distance-regular")
    if any(l1[i, i - 1] <= 0 for i in range(1, d + 1)):
        raise SchemeError("a c_i vanishes; not distance-regular")
    return l1


def _intersection_matrices(l1: np.ndarray) -> list[np.ndarray]:
    """L_0..L_d from L_1.  A_i -> L_i is the regular representation of the
    Bose-Mesner algebra, so the recurrence carries over:
    c_(i+1) L_(i+1) = L_1 L_i - b_(i-1) L_(i-1) - a_i L_i."""
    d = len(l1) - 1
    layers = [np.eye(d + 1, dtype=object), l1]
    for i in range(1, d):
        num = l1.dot(layers[i]) - l1[i - 1, i] * layers[i - 1] - l1[i, i] * layers[i]
        nxt, rem = num // l1[i + 1, i], num % l1[i + 1, i]
        if rem.any() or (nxt < 0).any():
            raise SchemeError(f"p[{i + 1}] is not a table of nonnegative integers")
        layers.append(nxt)
    return layers


def _scalars(a, b, den: int, n: int):
    """(a + b sqrt(n)) / den for integer arrays ``a``, ``b`` of any shape,
    as nested tuples of QRootN."""
    def build(x, y):
        if isinstance(x, list):
            return tuple(map(build, x, y))
        return QRootN(Fraction(int(x), den), Fraction(int(y), den), n)
    return build(a.tolist(), b.tolist())


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
    """Assemble and exactly verify all scheme tables for a graph: the graph on
    N x N matrices, every table on small exact arrays (see the module docstring)."""
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
    l1 = _recurrence_matrix(dist)

    # p[i][j][k] = (L_i)_kj
    layers = np.array(_intersection_matrices(l1), dtype=object)
    p_numbers = tuple(tuple(map(tuple, plane))
                      for plane in layers.transpose(0, 2, 1).tolist())
    valencies = [p_numbers[i][i][0] for i in range(d + 1)]

    thetas = list(graph.eigenvalues)
    if len(thetas) != d + 1:
        raise SchemeError("need exactly d+1 distinct eigenvalues")
    la, lb, den = _lagrange_coefficients(thetas, n)
    u, v, t = _over_common_den(thetas, n)
    eye = np.eye(d + 1, dtype=object)
    # prod_j (t L_1 - t theta_j) e_0, as integer parts
    xa, xb = eye[0], np.zeros(d + 1, dtype=object)
    for uj, vj in zip(u.tolist(), [0] * (d + 1) if v is None else v.tolist()):
        xa, xb = (t * l1.dot(xa) - uj * xa - vj * n * xb,
                  t * l1.dot(xb) - uj * xb - vj * xa)
    if xa.any() or xb.any():
        raise SchemeError("prod_j (A - theta_j I) != 0: the eigenvalue list "
                          "is not the spectrum of A")

    # the small tables run the product rule on object arrays of Python ints,
    # so nothing can overflow; ``@`` is left to the N x N products
    # W[m] = L_1^m e_0, so E_k = sum_m l[k][m] A^m = sum_i U[i][k] A_i with
    # U = W^T l^T, over ``den``
    w = [eye[0]]
    for _ in range(d):
        w.append(l1.dot(w[-1]))
    ua, ub = _qprod(np.array(w).T, None, la.T, lb.T, n, np.dot)
    if (ua[:, 0] * bign != den).any() or ub[:, 0].any():
        raise SchemeError("E_0 != J/N with the supplied ordering")
    # m_j = trace(E_j) = N U[0][j]
    mults, rem = (ua[0] * bign // den).tolist(), ua[0] * bign % den
    if rem.any() or ub[0].any() or min(mults) <= 0 or sum(mults) != bign:
        raise SchemeError("the ranks of the E_j are not positive integers summing to N")

    # P_ji = k_i Q_ij / m_j = k_i N U[i][j] / m_j, over pden
    lm = math.lcm(*mults)
    scale = np.array([[k * bign * (lm // m) for m in mults] for k in valencies],
                     dtype=object)
    pa, pb, pden = (ua * scale).T, (ub * scale).T, den * lm
    ra, rb = _qprod(pa, pb, ua, ub, n, np.dot)
    if rb.any() or (ra != pden * den * eye).any():
        raise SchemeError("P Q != N I")
    # (E_i o E_j) = sum_m U[m][i] U[m][j] A_m and A_m = sum_k P_km E_k, so
    # q_ij^k / N = sum_m P_km U[m][i] U[m][j], at [k, i, j]
    ca, cb = _qprod(ua[:, :, None], ub[:, :, None], ua[:, None, :],
                    ub[:, None, :], n, operator.mul)
    qa, qb = (bign * q.reshape((d + 1,) * 3).transpose(1, 2, 0) for q in _qprod(
        pa, pb, ca.reshape(d + 1, -1), cb.reshape(d + 1, -1), n, np.dot))

    umat = _scalars(ua, ub, den, n)
    idem = [ExactMatrix.combination([(umat[i][k], a) for i, a in enumerate(dist)],
                                    bign, n) for k in range(d + 1)]

    return SchemeTables(
        graph=graph,
        diameter=d,
        vertex_count=bign,
        radicand=n,
        distance=tuple(dist),
        idempotents=tuple(idem),
        p_numbers=p_numbers,
        krein=_scalars(qa, qb, pden * den * den, n),
        eigenmatrix_p=_scalars(pa, pb, pden, n),
        eigenmatrix_q=_scalars(ua * bign, ub * bign, den, n),
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
