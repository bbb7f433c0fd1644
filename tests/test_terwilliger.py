import dataclasses
import random
from fractions import Fraction

import numpy as np
import pytest

from fermigraph import (ExactMatrix, QRootN, chopped_correlation,
                        terwilliger_basis)
from fermigraph.qroot import sqrt_of
from fermigraph.scheme import SchemeError
from fermigraph.terwilliger import (block_tridiagonal_decompose,
                                    cubic_relation_residual,
                                    triple_vanishing_check,
                                    verify_dual_products)
from tests.conftest import hadamard_context, hypercube_context, paley_context
from tests.dense_spectrum_reference import spectrum_numeric
from tests.triple_reference import dense_triple_violations

_CONTEXTS = {"sylvester": hadamard_context, "paley": paley_context,
             "hypercube": hypercube_context}


@pytest.mark.parametrize("n", [2, 4, 8])
def test_dual_idempotent_structure(n):
    _, tables, basis = hadamard_context(n)
    assert basis.neighbourhood_sizes() == [1, n, 2 * n - 2, n, 1]
    e0 = basis.dual_idempotents[0]
    assert e0.entry(0, 0) == QRootN(1, 0, n)
    assert e0.trace() == QRootN(1, 0, n)
    total = ExactMatrix.zeros(tables.vertex_count, n)
    for estar in basis.dual_idempotents:
        assert estar.is_diagonal()
        assert estar @ estar == estar
        total = total + estar
    assert total == ExactMatrix.identity(tables.vertex_count, n)


@pytest.mark.parametrize("n", [2, 4, 8])
def test_dual_distance_values(n):
    _, tables, basis = hadamard_context(n)
    assert basis.dual_distance[0] == ExactMatrix.identity(tables.vertex_count, n)
    allowed = {QRootN(n, 0, n), sqrt_of(n), QRootN(0, 0, n), -sqrt_of(n),
               QRootN(-n, 0, n)}
    values = set(basis.dual_adjacency.diagonal_values())
    assert values <= allowed
    verify_dual_products(basis)


@pytest.mark.parametrize("n", [2, 4, 8, 16])
def test_triple_vanishing_hadamard(n):
    _, _, basis = hadamard_context(n)
    report = triple_vanishing_check(basis)
    assert report.checked == 250
    assert report.ok


@pytest.mark.parametrize("dim", [2, 3, 4, 5, 6])
def test_triple_vanishing_hypercube(dim):
    _, _, basis = hypercube_context(dim)
    report = triple_vanishing_check(basis)
    assert report.checked == 2 * (dim + 1) ** 3
    assert report.ok


@pytest.mark.parametrize("family, size, base", [
    *(("sylvester", n, base) for n in (2, 4, 8, 16, 32) for base in (0, 5)),
    *(("paley", q, base) for q in (7, 11, 19) for base in (0, 5)),
    ("hypercube", 2, 0),
    *(("hypercube", dim, base) for dim in (3, 4, 5, 6) for base in (0, 5)),
])
def test_triple_check_matches_dense_reference(family, size, base):
    _, tables, _ = _CONTEXTS[family](size)
    basis = terwilliger_basis(tables, base_vertex=base)
    report = triple_vanishing_check(basis)
    checked, violations = dense_triple_violations(basis)
    assert report.checked == checked
    assert list(report.violations) == violations


def test_triple_check_forms_no_matrix_product(monkeypatch):
    _, _, basis = paley_context(11)

    def forbidden(a, b):
        raise AssertionError("an N x N product was formed")
    monkeypatch.setattr(ExactMatrix, "__matmul__", forbidden)
    assert triple_vanishing_check(basis).ok


def _with_tables(basis, **changes):
    return dataclasses.replace(
        basis, tables=dataclasses.replace(basis.tables, **changes))


def test_triple_check_flags_scaled_krein_entry(had4):
    _, tables, basis = had4
    i, j, k = 1, 1, 2
    assert tables.krein[i][j][k]
    krein = [[list(row) for row in plane] for plane in tables.krein]
    krein[i][j][k] = krein[i][j][k] * 2
    bad = _with_tables(basis, krein=tuple(tuple(tuple(row) for row in plane)
                                          for plane in krein))
    # the zero pattern of the table is unchanged, so a zero test misses it
    assert dense_triple_violations(bad)[1] == []
    # ||E_i A*_k E_j||^2 = q_ij^k m_k no longer holds
    assert triple_vanishing_check(bad).violations == (("EAsE", i, k, j),)


def _with_krein_entry(basis, i, j, k, value):
    """``basis`` with q_ij^k alone replaced by ``value``."""
    krein = [[list(row) for row in plane] for plane in basis.tables.krein]
    krein[i][j][k] = value
    return _with_tables(basis, krein=tuple(tuple(tuple(row) for row in plane)
                                           for plane in krein))


@pytest.mark.parametrize("family, size", [("sylvester", 8), ("paley", 11),
                                          ("hypercube", 4)])
def test_triple_check_flags_doubled_krein_entry(family, size):
    _, tables, basis = _CONTEXTS[family](size)
    i, j, k = 1, 1, 2
    assert tables.krein[i][j][k]
    bad = _with_krein_entry(basis, i, j, k, tables.krein[i][j][k] * 2)
    # only ||E_1 A*_2 E_1||^2 = q_11^2 m_2 fails; the zero patterns agree
    assert triple_vanishing_check(bad).violations == (("EAsE", i, k, j),)


@pytest.mark.parametrize("family, size", [("sylvester", 4), ("paley", 11)])
def test_triple_check_flags_zeroed_krein_entry(family, size):
    _, tables, basis = _CONTEXTS[family](size)
    i, j, k = 1, 1, 2
    bad = _with_krein_entry(basis, i, j, k, tables.krein[i][j][k] * 0)
    # E_1 A*_1 E_2 does not vanish, as the dense reference finds; and
    # ||E_1 A*_2 E_1||^2 = q_11^2 m_2 no longer holds
    assert dense_triple_violations(bad)[1] == [("EAsE", i, j, k)]
    assert triple_vanishing_check(bad).violations == (("EAsE", i, j, k),
                                                      ("EAsE", i, k, j))


@pytest.mark.parametrize("family, size", [("sylvester", 4), ("paley", 11)])
def test_triple_check_norms_over_a_common_denominator(family, size):
    _, tables, basis = _CONTEXTS[family](size)
    # A*_j / 2 scales every squared norm by 1/4, as q / 4 scales q m_j: the
    # identity holds over the columns' denominator 2
    halved = tuple(a.scale(Fraction(1, 2)) for a in basis.dual_distance)
    quartered = tuple(tuple(tuple(q * Fraction(1, 4) for q in row) for row in plane)
                      for plane in tables.krein)
    scaled = dataclasses.replace(_with_tables(basis, krein=quartered),
                                 dual_distance=halved)
    assert triple_vanishing_check(scaled).ok


def test_triple_check_compares_past_int64():
    _, tables, basis = paley_context(11)
    i, j, k = 1, 1, 2
    # the Krein table and its targets then hold Python ints past 2^62
    bad = _with_krein_entry(basis, i, j, k, QRootN(2**70, 2**70, 12))
    assert triple_vanishing_check(bad).violations == (("EAsE", i, k, j),)


def test_triple_check_compares_sqrt_parts():
    _, tables, basis = paley_context(11)
    i, j, k = 1, 1, 2
    bad = _with_krein_entry(basis, i, j, k,
                            tables.krein[i][j][k] + sqrt_of(tables.radicand))
    # the squared norms are rational, so the new sqrt(12) part is flagged
    assert triple_vanishing_check(bad).violations == (("EAsE", i, k, j),)


def test_triple_check_flags_distance_entry_outside_its_shell_block(had4):
    _, tables, basis = had4
    neighbour = next(y for y in range(tables.vertex_count)
                     if tables.distance[1].ra[0, y])
    a2 = tables.distance[2]
    ra = a2.ra.copy()
    assert ra[0, neighbour] == 0
    ra[0, neighbour] = 1
    distance = list(tables.distance)
    distance[2] = ExactMatrix(a2.dim, a2.radicand, ra)
    bad = _with_tables(basis, distance=tuple(distance))
    # the entry lies in the (shell 0, shell 1) block of A_2, and p_02^1 = 0
    expected = [("EsAEs", 0, 2, 1)]
    assert list(triple_vanishing_check(bad).violations) == expected
    assert dense_triple_violations(bad)[1] == expected


def test_triple_check_flags_perturbed_idempotent(had4):
    _, tables, basis = had4
    e1 = tables.idempotents[1]
    ra = e1.ra.copy()
    ra[2, 7] += 1
    idempotents = list(tables.idempotents)
    idempotents[1] = ExactMatrix(e1.dim, e1.radicand, ra, e1.rb, e1.den)
    bad = _with_tables(basis, idempotents=tuple(idempotents))
    # E_1 is neither symmetric nor idempotent now, so the norm identity no
    # longer holds and the two checks flag different triples; both flag only
    # E A* E triples with E_1 on the outside
    for violations in (triple_vanishing_check(bad).violations,
                       dense_triple_violations(bad)[1]):
        assert violations
        assert all(label == "EAsE" and 1 in (i, k)
                   for label, i, _, k in violations)


@pytest.mark.parametrize("field", ["dual_idempotents", "dual_distance"])
def test_triple_check_rejects_non_diagonal_dual_matrices(had4, field):
    _, tables, basis = had4
    mats = list(getattr(basis, field))
    mats[1] = tables.adjacency
    with pytest.raises(SchemeError):
        triple_vanishing_check(dataclasses.replace(basis, **{field: tuple(mats)}))


def test_specific_triples(had4):
    _, tables, basis = had4
    estar = basis.dual_idempotents
    a1 = tables.distance[1]
    # neighbours of the base vertex sit at distance 1, not 2
    assert (estar[0] @ a1 @ estar[2]).is_zero()
    assert tables.p_numbers[1][0][2] == 0
    # but the edge block to the first shell is nonzero (valency n)
    assert not (estar[0] @ a1 @ estar[1]).is_zero()
    assert tables.p_numbers[1][1][0] == 4


@pytest.mark.parametrize("n", [2, 4, 8])
def test_adjacency_is_block_tridiagonal(n):
    _, tables, basis = hadamard_context(n)
    blocks = block_tridiagonal_decompose(tables.adjacency,
                                         list(basis.dual_idempotents))
    d = tables.diameter
    for i in range(d + 1):
        for j in range(d + 1):
            if abs(i - j) >= 2:
                assert blocks[(i, j)].is_zero()
            if i == j:  # no edges inside a shell of a bipartite graph
                assert blocks[(i, j)].is_zero()


def test_dual_adjacency_block_tridiagonal_in_energy_family(had4):
    _, tables, basis = had4
    blocks = block_tridiagonal_decompose(basis.dual_adjacency,
                                         list(tables.idempotents))
    d = tables.diameter
    for i in range(d + 1):
        for j in range(d + 1):
            if abs(i - j) >= 2:
                assert blocks[(i, j)].is_zero()
            if i == j:
                assert blocks[(i, j)].is_zero()


def test_block_decompose_diagonal_input(had4):
    _, tables, basis = had4
    rng = random.Random(7)
    diag = ExactMatrix.diagonal(
        [QRootN(rng.randint(-5, 5), rng.randint(-5, 5), 4)
         for _ in range(tables.vertex_count)], 4)
    blocks = block_tridiagonal_decompose(diag, list(basis.dual_idempotents))
    for (i, j), b in blocks.items():
        if i != j:
            assert b.is_zero()


def test_block_decompose_rejects_non_resolution(had4):
    _, tables, basis = had4
    with pytest.raises(ValueError):
        block_tridiagonal_decompose(tables.adjacency,
                                    list(basis.dual_idempotents[:3]))


def test_basis_rejects_wrong_eigenmatrix_as_exact_failure(had4):
    _, tables, _ = had4
    q = [list(row) for row in tables.eigenmatrix_q]
    q[1][1] = q[1][1] + 1
    bad = dataclasses.replace(tables,
                              eigenmatrix_q=tuple(tuple(row) for row in q))
    with pytest.raises(SchemeError):
        terwilliger_basis(bad)


@pytest.mark.parametrize("n", [2, 4, 8, 16])
def test_cubic_relations_hadamard(n):
    _, tables, basis = hadamard_context(n)
    r1, r2 = cubic_relation_residual(tables.adjacency, basis.dual_adjacency,
                                     sqrt_of(n), QRootN(n, 0, n))
    assert r1.is_zero() and r2.is_zero()


@pytest.mark.parametrize("dim", [2, 3, 4, 5, 6])
def test_cubic_relations_hypercube(dim):
    _, tables, basis = hypercube_context(dim)
    r1, r2 = cubic_relation_residual(tables.adjacency, basis.dual_adjacency,
                                     QRootN(2, 0, 1), QRootN(4, 0, 1))
    assert r1.is_zero() and r2.is_zero()


def test_cubic_relation_breaks_under_perturbation(had4):
    _, tables, basis = had4
    r1, r2 = cubic_relation_residual(tables.adjacency, basis.dual_adjacency,
                                     sqrt_of(4), QRootN(5, 0, 4))
    assert not r1.is_zero() and not r2.is_zero()


@pytest.mark.parametrize("n", [4, 8])
def test_cubic_scalar_criterion_matches_matrix_residual(n):
    """The matrix residuals vanish exactly when every consecutive-eigenvalue
    combination theta_i^2 - rho theta_i theta_{i-1} + theta_{i-1}^2 - tau does."""
    _, tables, basis = hadamard_context(n)
    thetas = [tables.theta(i) for i in range(tables.diameter + 1)]
    for rho, tau in [(sqrt_of(n), QRootN(n, 0, n)),
                     (QRootN(1, 0, n), QRootN(n, 0, n)),
                     (sqrt_of(n), QRootN(n + 1, 0, n))]:
        scalars_vanish = all(
            not (t * t - rho * t * s + s * s - tau)
            for s, t in zip(thetas, thetas[1:]))
        r1, r2 = cubic_relation_residual(tables.adjacency,
                                         basis.dual_adjacency, rho, tau)
        assert (r1.is_zero() and r2.is_zero()) == scalars_vanish


@pytest.mark.parametrize("cuts", [(2, 2), (1, 1), (1, 2), (2, 3)])
def test_base_vertex_independence_of_spectra(had4, cuts):
    _, tables, _ = had4
    K, ell = cuts
    reference = None
    for base in (0, 5, 11):
        basis = terwilliger_basis(tables, base_vertex=base)
        pi = chopped_correlation(tables, basis, K, ell)
        spec = spectrum_numeric(pi)
        if reference is None:
            reference = spec
        else:
            assert spec.multiplicities == reference.multiplicities
            assert np.allclose(spec.values, reference.values, atol=1e-9)


def test_paley_triples():
    _, _, basis = paley_context(11)
    assert triple_vanishing_check(basis).ok


def test_paley_cubic_relations():
    _, tables, basis = paley_context(11)
    r1, r2 = cubic_relation_residual(tables.adjacency, basis.dual_adjacency,
                                     sqrt_of(12), QRootN(12, 0, 12))
    assert r1.is_zero() and r2.is_zero()
