import dataclasses
import json
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from fermigraph import (ExactMatrix, QRootN, build_hadamard_graph, paley,
                        scheme, terwilliger_basis)
from fermigraph.graphs import distance_matrices_from_adjacency
from fermigraph.qroot import sqrt_of
from fermigraph.scheme import (SchemeError, hadamard_pq_matrix,
                               intersection_array, polynomial_checks)
from fermigraph.terwilliger import triple_vanishing_check
from tests import dense_scheme_reference as dense
from tests.conftest import hadamard_context, hypercube_context, paley_context
from tests.dense_scheme_reference import (_representative_pairs, eigenmatrices,
                                          krein_parameters,
                                          lagrange_idempotents)

_CONTEXTS = {"sylvester": hadamard_context, "paley": paley_context,
             "hypercube": hypercube_context}


@pytest.mark.parametrize("n", [2, 4, 8, 16])
def test_intersection_numbers_examples(n):
    _, tables, _ = hadamard_context(n)
    p = tables.p_numbers
    assert p[1][1][0] == n
    assert p[1][2][1] == n - 1
    assert p[1][1][2] == n // 2


@pytest.mark.parametrize("n,expected", [
    (2, ((2, 1, 1, 1), (1, 1, 1, 2))),
    (4, ((4, 3, 2, 1), (1, 2, 3, 4))),
    (8, ((8, 7, 4, 1), (1, 4, 7, 8))),
    (16, ((16, 15, 8, 1), (1, 8, 15, 16))),
])
def test_intersection_array(n, expected):
    _, tables, _ = hadamard_context(n)
    assert intersection_array(tables.p_numbers) == expected


def test_paley_intersection_array():
    _, tables, _ = paley_context(11)
    assert intersection_array(tables.p_numbers) == ((12, 11, 6, 1), (1, 6, 11, 12))


def test_hypercube_array_matches_order_four_hadamard():
    _, cube_tables, _ = hypercube_context(4)
    _, had_tables, _ = hadamard_context(4)
    assert intersection_array(cube_tables.p_numbers) == \
        intersection_array(had_tables.p_numbers)


@pytest.mark.parametrize("n", [2, 4, 8])
def test_idempotent_identities(n):
    _, tables, _ = hadamard_context(n)
    bign = tables.vertex_count
    e0 = tables.idempotents[0]
    assert e0 == ExactMatrix.ones(bign, n).scale(Fraction(1, bign))
    total = ExactMatrix.zeros(bign, n)
    for e in tables.idempotents:
        assert e @ e == e
        total = total + e
    assert total == ExactMatrix.identity(bign, n)
    recon = ExactMatrix.zeros(bign, n)
    for k, e in enumerate(tables.idempotents):
        recon = recon + e.scale(tables.theta(k))
    assert recon == tables.adjacency
    assert tables.multiplicities == (1, n, 2 * n - 2, n, 1)


@pytest.mark.parametrize("n", [2, 4, 8])
def test_idempotent_diagonal_is_constant(n):
    _, tables, _ = hadamard_context(n)
    for e, f in zip(tables.idempotents, tables.multiplicities):
        expected = QRootN(Fraction(f, tables.vertex_count), 0, n)
        assert all(v == expected for v in e.diagonal_values())


@pytest.mark.parametrize("n", [2, 4, 8, 16])
def test_eigenmatrices_match_closed_form(n):
    _, tables, _ = hadamard_context(n)
    pq = hadamard_pq_matrix(n)
    d = tables.diameter
    for i in range(d + 1):
        for j in range(d + 1):
            assert tables.eigenmatrix_p[i][j] == pq[i][j]
            assert tables.eigenmatrix_q[i][j] == pq[i][j]
    # first column all ones, second column the adjacency eigenvalues
    thetas = [QRootN(n, 0, n), sqrt_of(n), QRootN(0, 0, n), -sqrt_of(n),
              QRootN(-n, 0, n)]
    for i in range(d + 1):
        assert tables.eigenmatrix_p[i][0] == QRootN(1, 0, n)
        assert tables.theta(i) == thetas[i]


def test_eigenmatrices_form_no_matrix_product(monkeypatch):
    _, tables, _ = paley_context(11)

    def forbidden(a, b):
        raise AssertionError("an N x N product was formed")
    monkeypatch.setattr(ExactMatrix, "__matmul__", forbidden)
    pmat, qmat = eigenmatrices(list(tables.distance), list(tables.idempotents),
                               list(tables.multiplicities))
    assert pmat == qmat == hadamard_pq_matrix(12)


# every QRootN operator, as the benchmark's tracer counts them
QROOT_OPERATORS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
                   "__rmul__", "__neg__", "__truediv__", "__rtruediv__",
                   "__pow__", "__eq__", "inverse")


def test_scheme_checks_use_few_scalar_operations(monkeypatch):
    """build_scheme plus the triple check on Paley q = 11 run their small
    tables (Lagrange coefficients, P Q, Krein, norms) on integer arrays and
    do no QRootN arithmetic; with scalar Q(sqrt(n)) loops they took 1,860
    QRootN operations."""
    graph = build_hadamard_graph(paley(11))
    calls = []

    def counted(name, fn):
        def op(*args):
            calls.append(name)
            return fn(*args)
        return op
    for name in QROOT_OPERATORS:
        monkeypatch.setattr(QRootN, name, counted(name, getattr(QRootN, name)))
    tables = scheme.build_scheme(graph)
    count = len(calls)
    basis = terwilliger_basis(tables)
    before = len(calls)
    assert triple_vanishing_check(basis).ok
    count += len(calls) - before
    assert count == 0


def _perturbed(m: ExactMatrix, x: int, y: int) -> ExactMatrix:
    ra = m.ra.copy()
    ra[x, y] += 1
    return ExactMatrix(m.dim, m.radicand, ra, m.rb, m.den)


def _off_representatives(tables, k: int) -> tuple[int, int]:
    """A pair at distance k that is not the representative pair of k."""
    reps = _representative_pairs(list(tables.distance))
    return next((int(x), int(y))
                for x, y in np.argwhere(tables.distance[k].ra != 0)
                if (x, y) != reps[k])


@pytest.mark.parametrize("family, size", [("sylvester", 4), ("sylvester", 8),
                                          ("paley", 11)])
def test_pq_check_rejects_perturbed_p_entry(monkeypatch, family, size):
    _, tables, _ = _CONTEXTS[family](size)
    real = dense._schur_sum

    def off_by_one(a, e):
        s = real(a, e)
        return s + 1 if a is tables.distance[2] and e is tables.idempotents[1] else s
    # P_12 f_1 is the entry sum of A_2 o E_1
    monkeypatch.setattr(dense, "_schur_sum", off_by_one)
    with pytest.raises(SchemeError, match="P Q != N I"):
        eigenmatrices(list(tables.distance), list(tables.idempotents),
                      list(tables.multiplicities))


@pytest.mark.parametrize("family, size", [("sylvester", 4), ("sylvester", 8),
                                          ("paley", 11)])
def test_krein_reconstruction_rejects_perturbed_idempotent(family, size):
    _, tables, _ = _CONTEXTS[family](size)
    # the entry is off every representative pair, so the Krein table read
    # from those pairs is unchanged and only the dense E_i o E_j check sees it
    idem = list(tables.idempotents)
    idem[2] = _perturbed(idem[2], *_off_representatives(tables, 3))
    with pytest.raises(SchemeError, match="reconstruction failed"):
        krein_parameters(list(tables.distance), idem,
                         [list(row) for row in tables.eigenmatrix_p])


def test_build_scheme_rejects_non_symmetric_idempotent(monkeypatch, had4):
    graph, _, _ = had4
    real = dense.lagrange_idempotents

    def skewed(a, thetas):
        idem = real(a, thetas)
        e, dim, n = idem[1], a.dim, a.radicand
        # E + E M (I - E) is idempotent for every M; with M = e_0 e_1^T it
        # is not symmetric, since E e_0 and (I - E) e_1 are nonzero and
        # orthogonal
        m = np.zeros((dim, dim), dtype=np.int64)
        m[0, 1] = 1
        idem[1] = e + e @ ExactMatrix(dim, n, m) @ (ExactMatrix.identity(dim, n) - e)
        assert idem[1] @ idem[1] == idem[1] and not idem[1].is_symmetric()
        return idem
    monkeypatch.setattr(dense, "lagrange_idempotents", skewed)
    with pytest.raises(SchemeError, match="E_1 is not symmetric"):
        dense.build_scheme(graph)


def test_pq_product_is_scaled_identity(had4):
    _, tables, _ = had4
    d = tables.diameter
    for i in range(d + 1):
        for j in range(d + 1):
            acc = QRootN(0, 0, tables.radicand)
            for m in range(d + 1):
                acc = acc + tables.eigenmatrix_p[i][m] * tables.eigenmatrix_q[m][j]
            assert acc == (tables.vertex_count if i == j else 0)


@pytest.mark.parametrize("n", [2, 4, 8, 16])
def test_krein_equals_intersection_for_hadamard(n):
    _, tables, _ = hadamard_context(n)
    d = tables.diameter
    for i in range(d + 1):
        for j in range(d + 1):
            for k in range(d + 1):
                assert tables.krein[i][j][k] == tables.p_numbers[i][j][k]


def test_krein_basics(had4):
    _, tables, _ = had4
    d = tables.diameter
    for j in range(d + 1):
        for k in range(d + 1):
            assert tables.krein[0][j][k] == (1 if j == k else 0)
    for i in range(d + 1):
        for j in range(d + 1):
            if abs(i - j) > 1:
                assert not tables.krein[1][i][j]
                assert tables.p_numbers[1][i][j] == 0


@pytest.mark.parametrize("ctx,args", [
    (hadamard_context, 4), (hadamard_context, 8),
    (hypercube_context, 3), (hypercube_context, 4),
])
def test_polynomial_checks_all_true(ctx, args):
    _, tables, _ = ctx(args)
    flags = polynomial_checks(tables.p_numbers, tables.krein,
                              tables.eigenmatrix_p, tables.eigenmatrix_q)
    assert flags == {"metric": True, "cometric": True,
                     "formally_self_dual": True}


@pytest.mark.parametrize("n", [4, 8])
def test_bipartite_vanishing(n):
    _, tables, _ = hadamard_context(n)
    d = tables.diameter
    for i in range(d + 1):
        for j in range(d + 1):
            for k in range(d + 1):
                if (i + j + k) % 2 == 1:
                    assert tables.p_numbers[i][j][k] == 0


def test_lagrange_idempotents_of_a_diagonal_matrix():
    # eigenvalues over the common denominator 6, with sqrt(5) parts
    thetas = [QRootN(Fraction(1, 2), 0, 5), QRootN(Fraction(-1, 3), 0, 5),
              QRootN(Fraction(1, 2), Fraction(1, 3), 5),
              QRootN(2, Fraction(-1, 6), 5)]
    where = [0, 1, 1, 2, 3, 0]
    a = ExactMatrix.diagonal([thetas[k] for k in where], 5)
    idem = lagrange_idempotents(a, thetas)
    for k, e in enumerate(idem):
        assert e == ExactMatrix.diagonal([int(w == k) for w in where], 5)


@pytest.mark.parametrize("family, size", [("sylvester", 4), ("paley", 11)])
def test_repeated_eigenvalue_rejected(family, size):
    graph, _, _ = _CONTEXTS[family](size)
    thetas = list(graph.eigenvalues)
    thetas[3] = thetas[1]
    with pytest.raises(SchemeError, match="repeated eigenvalue"):
        scheme.build_scheme(dataclasses.replace(graph, eigenvalues=tuple(thetas)))


def test_wrong_eigenvalue_list_rejected(had4):
    graph, _, _ = had4
    bad = tuple(QRootN(v, 0, 4) for v in (4, 3, 0, -2, -4))
    with pytest.raises(SchemeError, match="not the spectrum of A"):
        scheme.build_scheme(dataclasses.replace(graph, eigenvalues=bad))


@pytest.mark.parametrize("family, size", [("sylvester", 4), ("paley", 11)])
def test_valency_not_listed_first_rejected(family, size):
    graph, _, _ = _CONTEXTS[family](size)
    thetas = list(graph.eigenvalues)
    thetas[0], thetas[1] = thetas[1], thetas[0]
    with pytest.raises(SchemeError, match="E_0 != J/N"):
        scheme.build_scheme(dataclasses.replace(graph, eigenvalues=tuple(thetas)))


def test_empty_distance_class_rejected(had4):
    graph, _, _ = had4
    dist = list(graph.distance_matrices)
    dist.insert(3, ExactMatrix.zeros(graph.vertex_count, graph.radicand))
    thetas = graph.eigenvalues + (QRootN(7, 0, graph.radicand),)
    with pytest.raises(SchemeError, match="distance class 3 is empty"):
        scheme.build_scheme(dataclasses.replace(
            graph, distance_matrices=tuple(dist), eigenvalues=thetas))


def test_swapped_edge_fails_the_recurrence(had4):
    """Replacing edges 1-5 and 2-8 of the order-4 Hadamard graph by 1-8
    and 2-5 keeps it 4-regular, connected and of diameter 4, but not
    distance-regular."""
    graph, _, _ = had4
    adj = graph.adjacency.ra.copy()
    assert adj[1, 5] and adj[2, 8] and not adj[1, 8] and not adj[2, 5]
    for (x, y), edge in (((1, 5), 0), ((2, 8), 0), ((1, 8), 1), ((2, 5), 1)):
        adj[x, y] = adj[y, x] = edge
    dist = distance_matrices_from_adjacency(adj, graph.radicand)
    assert len(dist) == 5
    swapped = dataclasses.replace(graph, adjacency=ExactMatrix.from_int_array(
        adj, graph.radicand), distance_matrices=tuple(dist))
    with pytest.raises(SchemeError, match="not distance-regular"):
        scheme.build_scheme(swapped)


@pytest.mark.parametrize("family, size", [("sylvester", 8), ("paley", 11),
                                          ("hypercube", 4)])
def test_build_scheme_product_count(monkeypatch, family, size):
    """The graph is read with at most d+1 products (the recurrence) and
    d(d+1)/2 Schur products (disjoint classes); every table after that is
    small."""
    calls = {"__matmul__": 0, "schur": 0}

    def counted(name):
        real = getattr(ExactMatrix, name)

        def op(self, other):
            calls[name] += 1
            return real(self, other)
        return op
    graph, _, _ = _CONTEXTS[family](size)
    for name in calls:
        monkeypatch.setattr(ExactMatrix, name, counted(name))
    d = scheme.build_scheme(graph).diameter
    assert calls["__matmul__"] <= d + 1
    assert calls["schur"] == d * (d + 1) // 2


def test_json_export(had4):
    _, tables, _ = had4
    data = json.loads(tables.to_json())
    assert data["vertex_count"] == 16
    assert data["valencies"] == [1, 4, 6, 4, 1]
    # exact pairs [a_num, a_den, b_num, b_den]
    assert data["P"][0][1] == [4, 1, 0, 1]
    assert data["p_numbers"][1][1][0] == 4


def test_paley_scheme_self_dual():
    _, tables, _ = paley_context(11)
    flags = polynomial_checks(tables.p_numbers, tables.krein,
                              tables.eigenmatrix_p, tables.eigenmatrix_q)
    assert flags["formally_self_dual"]
    for i in range(5):
        for j in range(5):
            for k in range(5):
                assert tables.krein[i][j][k] == tables.p_numbers[i][j][k]


# SchemeTables.to_json() bytes keyed by "<family> <size>", recorded before the
# Krein, P Q = N I and triple-check tables moved to integer arrays
TABLES_JSON = json.loads((Path(__file__).parent / "scheme_tables.json").read_text())


@pytest.mark.parametrize("key", sorted(TABLES_JSON))
def test_scheme_tables_json_bytes(key):
    family, size = key.split()
    _, tables, _ = _CONTEXTS[family](int(size))
    assert tables.to_json() == TABLES_JSON[key]


@pytest.mark.parametrize("key", sorted(TABLES_JSON))
def test_scheme_tables_match_dense_reference(key):
    """Every field, the idempotents included, equals the dense reference,
    which reads each table off N x N matrices and reconstructs it."""
    family, size = key.split()
    graph, tables, _ = _CONTEXTS[family](int(size))
    reference = dense.build_scheme(graph)
    for field in dataclasses.fields(tables):
        assert getattr(tables, field.name) == getattr(reference, field.name), field.name
