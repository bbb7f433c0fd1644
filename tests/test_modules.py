"""The Terwilliger-module path of the Hadamard spectra, checked four ways:

- exactly, with sympy: each module block's characteristic polynomial over
  Q(sqrt(n)) has the zeros and ones the rank formula counts, and at most
  two other roots;
- against the dense float reference of a built graph
  (``tests/dense_entropy_reference.py``);
- the module data against an exact module basis of a built graph;
- the entropies against a 50-digit mpmath evaluation of the module blocks,
  and the eigenvalues against a 50-digit mpmath solve of the exact
  supported block of Pi(K, ell) of a built graph, which shares no code with
  the module path.
"""

import dataclasses
import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
import sympy as sp
from sympy.polys.matrices import DomainMatrix

from fermigraph import (HadamardSpectra, build_hadamard_graph, entropy, paley,
                        projector_pair, sylvester)
from fermigraph.eig import InvalidSpectrumError
from fermigraph.entangle import _interior_roots
from fermigraph.qroot import QRootN
from fermigraph.scheme import (SchemeError, _tridiagonal_module,
                               hadamard_intersection_array, hadamard_modules,
                               hadamard_pq_matrix)
from tests.conftest import hadamard_context, paley_context
from tests.dense_entropy_reference import dense_entropy
from tests.dense_spectrum_reference import spectrum_numeric

# (family, size) -> order n: the module data depends on n alone
ORDERS = [pytest.param("sylvester", n, n, id=f"sylvester-{n}")
          for n in (2, 4, 8, 16, 32)] + [
    pytest.param("paley", 11, 12, id="paley-11")]
ALL_PAIRS = [(K, ell) for K in range(5) for ell in range(5)]
DEFAULT_PAIRS = [(1, 1), (1, 2), (2, 2), (1, 3), (2, 3), (3, 3)]


def _build(family: str, size: int):
    return build_hadamard_graph(sylvester(size.bit_length() - 1)
                                if family == "sylvester" else paley(size))


def _kept(module, K: int, ell: int) -> tuple[int, int]:
    """(a, b): the module's shells within distance ell, eigenspaces filled."""
    dim, r = module.dimension, module.endpoint
    return min(max(ell - r + 1, 0), dim), min(max(K - r + 1, 0), dim)


def _to_sympy(q: QRootN):
    return (sp.Rational(q.a.numerator, q.a.denominator)
            + sp.Rational(q.b.numerator, q.b.denominator) * sp.sqrt(q.n))


def _module_projectors(module, dom):
    """E_(r+j) on the module, in the similarity form of ``ModuleClass``."""
    dim = module.dimension
    x = [[dom.from_sympy(_to_sympy(v)) for v in row] for row in module.table]
    g = [dom(w) for w in module.weights]
    h = [sum((g[i] * x[i][j] ** 2 for i in range(dim)), dom.zero)
         for j in range(dim)]
    return [DomainMatrix([[x[i][j] * x[k][j] * g[k] / h[j] for k in range(dim)]
                          for i in range(dim)], (dim, dim), dom)
            for j in range(dim)]


@pytest.mark.parametrize("family, size, n", ORDERS)
def test_module_blocks_exact_charpoly(family, size, n):
    """On every module and for all 25 (K, ell), pi1 pi2 pi1 has exactly
    D - a + max(0, a - b) zeros and max(0, a + b - D) ones, and what is left
    factors over Q(sqrt(n)) into degree 2 or less in all."""
    root = sp.sqrt(n)
    dom = sp.QQ if root.is_Rational else sp.QQ.algebraic_field(root)
    x = sp.Symbol("x")
    thetas = [hadamard_pq_matrix(n)[j][1] for j in range(5)]
    for module in hadamard_modules(n):
        dim, r = module.dimension, module.endpoint
        projectors = _module_projectors(module, dom)
        # the table is a module: the projectors resolve the identity, and
        # A = sum_j theta_(r+j) E_(r+j) moves one shell at a time
        total = projectors[0]
        for e in projectors[1:]:
            total = total + e
        assert total.to_Matrix() == sp.eye(dim)
        adj = projectors[0] * dom.from_sympy(_to_sympy(thetas[r]))
        for j, e in enumerate(projectors[1:], start=1):
            adj = adj + e * dom.from_sympy(_to_sympy(thetas[r + j]))
        adj = adj.to_Matrix()
        assert all(adj[i, k] == 0 for i in range(dim) for k in range(dim)
                   if abs(i - k) != 1)
        for K, ell in ALL_PAIRS:
            a, b = _kept(module, K, ell)
            pi2 = DomainMatrix.zeros((dim, dim), dom)
            for e in projectors[:b]:
                pi2 = pi2 + e
            pi1 = DomainMatrix.diag([dom.one] * a + [dom.zero] * (dim - a), dom)
            coeffs = (pi1 * pi2 * pi1).charpoly()
            poly = sp.Poly([dom.to_sympy(c) for c in coeffs], x,
                           extension=None if root.is_Rational else root)
            zeros = ones = rest = 0
            for factor, power in poly.factor_list()[1]:
                if factor.as_expr() == x:
                    zeros = power
                elif factor.as_expr() == x - 1:
                    ones = power
                else:
                    rest += factor.degree() * power
            assert zeros == dim - a + max(0, a - b), (r, K, ell)
            assert ones == max(0, a + b - dim), (r, K, ell)
            assert rest <= 2, (r, K, ell)


def _assert_matches_dense(graph, pairs):
    spectra = HadamardSpectra(graph.order)
    for K, ell in pairs:
        s_dense, dense = dense_entropy(graph, K, ell)
        spec = spectra.spectrum(K, ell)
        assert spec.multiplicities == dense.multiplicities, (K, ell)
        assert np.allclose(spec.values, dense.values, rtol=0, atol=1e-10), (K, ell)
        assert math.isclose(entropy(spec), s_dense, rel_tol=1e-9, abs_tol=1e-9)


@pytest.mark.parametrize("family, size, n", ORDERS)
def test_module_path_matches_dense_reference(family, size, n):
    _assert_matches_dense(_build(family, size), ALL_PAIRS)


def test_module_path_matches_dense_reference_at_order_64():
    _assert_matches_dense(_build("sylvester", 64), DEFAULT_PAIRS)


def _module_products(module, n):
    """beta_i = A[i-1][i] A[i][i-1] of A restricted to the module, from its
    table (a diagonal similarity keeps these products)."""
    thetas = [hadamard_pq_matrix(n)[j][1] for j in range(5)]
    dim, g = module.dimension, module.weights
    h = [sum((g[i] * module.table[i][j] ** 2 for i in range(dim)),
             QRootN(0, 0, n)) for j in range(dim)]

    def adj(i, k):
        return sum((thetas[module.endpoint + j] * module.table[i][j]
                    * module.table[k][j] * g[k] / h[j] for j in range(dim)),
                   QRootN(0, 0, n))
    return [adj(i - 1, i) * adj(i, i - 1) for i in range(1, dim)]


@pytest.mark.parametrize("family, size", [("sylvester", 8), ("sylvester", 16),
                                          ("paley", 11)])
def test_module_data_against_built_graph(family, size):
    """The module tables against exact module bases of the built graph.

    Primary: the shell sums s_i satisfy A s_i = b_(i-1) s_(i-1) + c_(i+1) s_(i+1).
    Endpoint 1: for each v = e_y - e_y' in shell 1 (these span E*_1 V minus
    the all-ones part), w1 = v, w2 = E*_2 A w1, w3 = E*_3 A w2 span an
    A-invariant space with E*_1 A w2 = beta_1 w1 and E*_2 A w3 = beta_2 w2.
    Endpoint 2: the null vectors of A in shell 2 number k_2 - k_1.
    """
    graph = _build(family, size)
    n = graph.order
    adj = graph.distance_matrices[1].ra.astype(np.int64)
    shells = [np.flatnonzero(a.ra[0]) for a in graph.distance_matrices]

    def shell_part(i, v):
        out = np.zeros_like(v)
        if 0 <= i < len(shells):
            out[shells[i]] = v[shells[i]]
        return out

    primary, end1, end2 = hadamard_modules(n)
    b, c = hadamard_intersection_array(n)
    assert _module_products(primary, n) == [b[i - 1] * c[i - 1] for i in range(1, 5)]
    s = [np.isin(np.arange(adj.shape[0]), sh).astype(np.int64) for sh in shells]
    for i in range(5):
        want = ((b[i - 1] * s[i - 1] if i else 0)
                + (c[i] * s[i + 1] if i < 4 else 0))
        assert np.array_equal(adj @ s[i], want)

    products = _module_products(end1, n)
    assert all(p.is_rational() and p.a.denominator == 1 for p in products)
    beta1, beta2 = (int(p.a) for p in products)
    assert end1.count == len(shells[1]) - 1 == n - 1
    y0 = shells[1][0]
    for y in shells[1][1:]:
        w1 = np.zeros(adj.shape[0], dtype=np.int64)
        w1[y0], w1[y] = 1, -1
        w2 = shell_part(2, adj @ w1)
        w3 = shell_part(3, adj @ w2)
        assert np.array_equal(adj @ w1, w2)          # nothing in shells 0 and 1
        assert np.array_equal(adj @ w2, beta1 * w1 + w3)
        assert np.array_equal(adj @ w3, beta2 * w2)  # nothing in shells 3 and 4

    block = sp.Matrix(adj[np.ix_(np.concatenate([shells[1], shells[3]]),
                                 shells[2])])
    assert end2.count == len(shells[2]) - block.rank() == n - 2


def _reference_entropy(n: int, K: int, ell: int) -> mpmath.mpf:
    """S(K, ell) at 50 digits from the symmetric module blocks, built from
    the intersection array alone: A is tridiagonal with off-diagonal
    sqrt(beta_i), the filled eigenspaces are its b largest eigenvalues, and
    every eigenvalue of the kept a x a block counts, 0 and 1 included."""
    with mpmath.workdps(50):
        b, c = hadamard_intersection_array(n)
        beta1 = b[1] - c[1] + 1
        modules = [(0, 1, [b[i - 1] * c[i - 1] for i in range(1, 5)]),
                   (1, n - 1, [beta1, n - beta1]),   # theta_1^2 = n
                   (2, n - 2, [])]
        total = mpmath.mpf(0)
        for r, count, betas in modules:
            dim = len(betas) + 1
            jac = mpmath.zeros(dim, dim)
            for i, beta in enumerate(betas):
                jac[i, i + 1] = jac[i + 1, i] = mpmath.sqrt(beta)
            vals, vecs = mpmath.eigsy(jac)
            order = sorted(range(dim), key=lambda j: -vals[j])
            a = min(max(ell - r + 1, 0), dim)
            kept = min(max(K - r + 1, 0), dim)
            if not a:
                continue
            block = mpmath.zeros(a, a)
            for j in order[:kept]:
                for i in range(a):
                    for k in range(a):
                        block[i, k] += vecs[i, j] * vecs[k, j]
            for nu in mpmath.eigsy(block)[0]:
                nu = min(max(nu, mpmath.mpf(0)), mpmath.mpf(1))
                for p in (nu, 1 - nu):
                    if p > mpmath.mpf(10) ** -45:
                        total -= count * p * mpmath.log(p)
        return total


@pytest.mark.parametrize("n", [4, 8, 12, 16, 32, 64, 256])
def test_module_entropy_matches_50_digit_reference(n):
    spectra = HadamardSpectra(n)
    for K, ell in DEFAULT_PAIRS:
        ref = _reference_entropy(n, K, ell)
        s = entropy(spectra.spectrum(K, ell))
        assert abs(s - float(ref)) <= 1e-14 * float(ref), (K, ell, s, ref)


def _exact_block_eigenvalues(pair, vertex_count: int) -> list[mpmath.mpf]:
    """All N eigenvalues of Pi = pi1 pi2 pi1 at 50 digits: those of its
    supported principal block of pi2, from the exact entries, and a zero for
    every vertex outside the support."""
    idx = np.flatnonzero(pair.support)
    m = pair.pi2
    with mpmath.workdps(50):
        root = mpmath.sqrt(m.radicand)
        block = mpmath.matrix(len(idx), len(idx))
        for a, i in enumerate(idx):
            for b, j in enumerate(idx):
                entry = mpmath.mpf(int(m.ra[i, j]))
                if m.rb is not None:
                    entry += int(m.rb[i, j]) * root
                block[a, b] = entry / int(m.den)
        values = mpmath.eigsy(block, eigvals_only=True)
        return sorted([mpmath.mpf(0)] * (vertex_count - len(idx))
                      + [values[k] for k in range(len(idx))])


@pytest.mark.parametrize("context, size", [
    (hadamard_context, 2), (hadamard_context, 4), (hadamard_context, 8),
    (paley_context, 7)], ids=["sylvester-2", "sylvester-4", "sylvester-8",
                              "paley-7"])
def test_module_spectra_match_50_digit_exact_block(context, size):
    """For all 25 cutoffs, the module eigenvalues lie within 1e-14 of the
    50-digit eigenvalues of the exact matrix, and no farther than those of
    the dense float reference."""
    graph, tables, basis = context(size)
    spectra = HadamardSpectra(graph.order)
    for K, ell in ALL_PAIRS:
        pair = projector_pair(tables, basis, K, ell)
        ref = _exact_block_eigenvalues(pair, tables.vertex_count)
        module = sorted(spectra.spectrum(K, ell).flatten())
        dense = sorted(spectrum_numeric(
            pair.pi2.masked_support(pair.support)).flatten())
        err_module = max(float(abs(v - r)) for v, r in zip(module, ref))
        err_dense = max(float(abs(v - r)) for v, r in zip(dense, ref))
        assert err_module <= 1e-14, (K, ell, err_module)
        assert err_module <= err_dense, (K, ell, err_module, err_dense)


def test_module_data_is_checked_exactly(monkeypatch):
    thetas = [hadamard_pq_matrix(16)[j][1] for j in range(5)]
    with pytest.raises(SchemeError, match="not an eigenvalue"):
        _tridiagonal_module(1, 15, (8, 9), thetas[1:4])
    # a wrong module count breaks the trace identity N_ell F_K / N, or the
    # dimension count where the module's trace vanishes
    primary, end1, end2 = hadamard_modules(16)
    wrong = dataclasses.replace(end2, count=end2.count + 1)
    monkeypatch.setattr("fermigraph.entangle.hadamard_modules",
                        lambda n: (primary, end1, wrong))
    spectra = HadamardSpectra(16)
    with pytest.raises(InvalidSpectrumError, match="N_ell F_K / N"):
        spectra.spectrum(2, 2)
    with pytest.raises(InvalidSpectrumError, match="add up"):
        spectra.spectrum(1, 1)


def test_interior_roots_refuse_inconsistent_power_sums():
    def q(num, den=1):
        return QRootN(Fraction(num, den), 0, 5)

    assert _interior_roots(q(0), q(0), 0) == []
    assert _interior_roots(q(1, 4), q(1, 16), 1) == [0.25]
    assert _interior_roots(q(1), q(5, 8), 2) == [0.75, 0.25]
    assert _interior_roots(q(1), q(1, 2), 2) == [0.5, 0.5]    # double root
    for s1, s2, count in [(q(1), q(1), 1),           # a root at 1
                          (q(1), q(1), 2),           # roots 0 and 1
                          (q(1, 2), q(1, 8), 1),     # sums of two roots, not one
                          (q(1, 4), q(1, 16), 0),
                          (q(2), q(2), 2),           # double root at 1
                          (q(5, 2), q(17, 4), 2),    # roots 1/2 and 2
                          (q(1), q(1, 4), 2),        # complex roots
                          (q(-1), q(1), 2)]:         # roots 0 and -1
        with pytest.raises(InvalidSpectrumError):
            _interior_roots(s1, s2, count)
    with pytest.raises(InvalidSpectrumError, match="at most 2"):
        _interior_roots(q(1), q(1), 3)
