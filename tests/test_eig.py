import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tests.dense_spectrum_reference import (NonSymmetricError, cluster_spectrum,
                                            spectrum_numeric, symmetric_eig)
from tests.jacobi_reference import jacobi_eig


def test_diagonal_matrix():
    values, vectors = symmetric_eig(np.diag([3.0, 1.0, 2.0]))
    assert np.allclose(values, [1.0, 2.0, 3.0])
    assert np.allclose(np.abs(vectors), np.eye(3)[:, [1, 2, 0]])


def test_two_by_two_swap():
    values, _ = symmetric_eig(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert np.allclose(values, [-1.0, 1.0])


def test_eight_cycle_spectrum(had2):
    graph, _, _ = had2
    values, _ = symmetric_eig(graph.adjacency.to_float())
    spec = cluster_spectrum(values, tol=1e-8)
    s2 = math.sqrt(2)
    assert spec.multiplicities == [1, 2, 2, 2, 1]
    assert np.allclose(spec.values, [-2.0, -s2, 0.0, s2, 2.0], atol=1e-12)


@pytest.mark.parametrize("dim", [1, 2, 17, 128, 1024])
def test_residual_bound_random(dim):
    rng = np.random.default_rng(dim)
    m = rng.standard_normal((dim, dim))
    m = m + m.T
    tol = 1e-10
    values, vectors = symmetric_eig(m, tol=tol)
    frob = np.linalg.norm(m, "fro")
    resid = np.linalg.norm(m @ vectors - vectors * values, axis=0)
    assert resid.max() <= tol * frob
    assert abs(values.sum() - np.trace(m)) <= 1e-9 * dim * max(1.0, frob)


def test_rejects_nonsymmetric():
    with pytest.raises(NonSymmetricError):
        symmetric_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))


@pytest.mark.parametrize("dim", [2, 8, 33, 64])
def test_jacobi_agrees_with_production_path(dim):
    rng = np.random.default_rng(100 + dim)
    m = rng.standard_normal((dim, dim))
    m = m + m.T
    ref_vals, ref_vecs = jacobi_eig(m)
    vals, _ = symmetric_eig(m)
    assert np.allclose(ref_vals, vals, atol=1e-9 * max(1.0, np.abs(m).max()))
    # the reference solver's vectors must actually diagonalize m
    frob = np.linalg.norm(m, "fro")
    assert np.abs(ref_vecs.T @ m @ ref_vecs - np.diag(ref_vals)).max() <= 1e-9 * frob


def test_jacobi_on_correlation_matrix(had4):
    _, tables, basis = had4
    from fermigraph.entangle import chopped_correlation
    pi = chopped_correlation(tables, basis, 2, 2).to_float()
    ref_vals, _ = jacobi_eig(pi)
    vals, _ = symmetric_eig(pi)
    assert np.allclose(ref_vals, vals, atol=1e-10)


def test_cluster_examples():
    spec = cluster_spectrum([0, 0, 1, 1, 1], tol=1e-9)
    assert spec.entries == ((0.0, 2), (1.0, 3))
    spec = cluster_spectrum([0.2499999999, 0.2500000001], tol=1e-8)
    assert spec.entries == ((0.25, 2),)
    with pytest.raises(ValueError):
        cluster_spectrum([1.0, 0.5])


@pytest.mark.parametrize("tol", [math.inf, -math.inf, math.nan])
def test_cluster_refuses_non_finite_tol(tol):
    with pytest.raises(ValueError, match="finite"):
        cluster_spectrum([0.0, 0.5, 1.0], tol=tol)


def test_cluster_exact_grouping_for_nonpositive_tol():
    spec = cluster_spectrum([0.0, 0.0, 0.5, 0.5 + 1e-12], tol=0.0)
    assert spec.multiplicities == [2, 1, 1]


@settings(deadline=None, max_examples=100)
@given(st.lists(st.floats(min_value=-100, max_value=100,
                          allow_nan=False), min_size=1, max_size=40),
       st.floats(min_value=0, max_value=1e-2, allow_nan=False))
def test_cluster_conserves_count_and_order(values, tol):
    values = sorted(values)
    spec = cluster_spectrum(values, tol=tol)
    assert spec.total() == len(values)
    assert all(spec.values[i] < spec.values[i + 1]
               for i in range(len(spec.values) - 1))


def test_float_route_agrees_with_exact_eigenvalues(had16):
    _, tables, _ = had16
    spec = spectrum_numeric(tables.adjacency)
    assert spec.multiplicities == [1, 16, 30, 16, 1]
    assert np.allclose(spec.values, [-16.0, -4.0, 0.0, 4.0, 16.0], atol=1e-10)


def test_eigenvalue_sum_matches_exact_trace(had4):
    _, tables, _ = had4
    spec = spectrum_numeric(tables.adjacency)
    assert spec.trace_check <= 1e-8 * tables.vertex_count


def test_degenerate_correlation_block_vectors(had16):
    """The supported block of Pi(2, 2) at n = 16 has clusters of
    multiplicity n - 1 and 2n - 2; LAPACK's vectors must stay orthonormal
    inside them."""
    _, tables, basis = had16
    from fermigraph.entangle import projector_pair
    pair = projector_pair(tables, basis, 2, 2)
    sup = pair.support
    block = pair.pi2.to_float()[np.ix_(sup, sup)]
    values, vectors = symmetric_eig(block)
    frob = np.linalg.norm(block, "fro")
    resid = np.linalg.norm(block @ vectors - vectors * values, axis=0)
    assert resid.max() <= 1e-10 * frob
    assert np.abs(vectors.T @ vectors - np.eye(len(values))).max() <= 1e-10
    assert cluster_spectrum(values).multiplicities == [1, 15, 1, 30]
