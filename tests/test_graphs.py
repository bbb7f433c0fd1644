import numpy as np
import pytest

from fermigraph import (DisconnectedGraphError, ExactMatrix,
                        build_hadamard_graph, build_hypercube,
                        distance_matrices, sylvester)
from fermigraph.graphs import distance_matrices_from_adjacency
from tests.conftest import hadamard_context
from tests.dense_spectrum_reference import spectrum_numeric
from tests.explicit_forms import explicit_hadamard_distance_matrices


def find_isomorphism(adj_a: np.ndarray, adj_b: np.ndarray) -> list | None:
    """Backtracking graph isomorphism for small graphs (test oracle)."""
    n = adj_a.shape[0]
    if adj_b.shape[0] != n:
        return None
    deg_a = adj_a.sum(axis=1)
    deg_b = adj_b.sum(axis=1)
    mapping = [-1] * n
    used = [False] * n

    def extend(u: int) -> bool:
        if u == n:
            return True
        for v in range(n):
            if used[v] or deg_a[u] != deg_b[v]:
                continue
            ok = True
            for w in range(u):
                if adj_a[u, w] != adj_b[v, mapping[w]]:
                    ok = False
                    break
            if ok:
                mapping[u] = v
                used[v] = True
                if extend(u + 1):
                    return True
                used[v] = False
                mapping[u] = -1
        return False

    return mapping if extend(0) else None


def test_order_two_is_the_eight_cycle(had2):
    graph, _, _ = had2
    adj = graph.adjacency.ra.astype(int)
    assert graph.vertex_count == 8
    assert (adj.sum(axis=1) == 2).all()
    # connected and 2-regular on 8 vertices: a single 8-cycle
    cycle = np.zeros((8, 8), dtype=int)
    for i in range(8):
        cycle[i, (i + 1) % 8] = cycle[(i + 1) % 8, i] = 1
    assert find_isomorphism(adj, cycle) is not None


def test_order_four_is_the_four_cube(had4):
    graph, _, _ = had4
    cube = build_hypercube(4)
    iso = find_isomorphism(graph.adjacency.ra.astype(int),
                           cube.adjacency.ra.astype(int))
    assert iso is not None


@pytest.mark.parametrize("n", [2, 4, 8, 16])
def test_regularity_bipartiteness_shells(n):
    graph, _, _ = hadamard_context(n)
    adj = graph.adjacency.ra.astype(int)
    assert (adj.sum(axis=1) == n).all()
    assert graph.diameter == 4
    shells = [int(a.ra[0].sum()) for a in graph.distance_matrices]
    assert shells == [1, n, 2 * n - 2, n, 1]
    # bipartite: odd distance classes join the two colour classes only
    dist = sum(k * a.ra.astype(int) for k, a in enumerate(graph.distance_matrices))
    colour = dist[0] % 2
    for u in range(graph.vertex_count):
        for v in range(graph.vertex_count):
            if adj[u, v]:
                assert colour[u] != colour[v]


@pytest.mark.parametrize("n", [2, 4, 8])
def test_distance_matrices_match_explicit_blocks(n):
    graph, _, _ = hadamard_context(n)
    explicit = explicit_hadamard_distance_matrices(sylvester(n.bit_length() - 1))
    for computed, direct in zip(graph.distance_matrices, explicit):
        assert computed == direct


def test_distance_classes_partition(had4):
    graph, _, _ = had4
    total = ExactMatrix.zeros(graph.vertex_count, graph.radicand)
    for a in graph.distance_matrices:
        total = total + a
    assert total == ExactMatrix.ones(graph.vertex_count, graph.radicand)


def test_antipodal_matching_on_eight_cycle(had2):
    graph, _, _ = had2
    a4 = graph.distance_matrices[4].ra.astype(int)
    assert (a4.sum(axis=1) == 1).all()
    assert (a4 == a4.T).all()
    assert np.trace(a4) == 0


def test_distance_via_public_api(had4):
    graph, _, _ = had4
    mats = distance_matrices(graph.adjacency)
    assert len(mats) == 5
    for ours, theirs in zip(mats, graph.distance_matrices):
        assert ours == theirs


def test_disconnected_raises():
    two_edges = np.array([[0, 1, 0, 0], [1, 0, 0, 0],
                          [0, 0, 0, 1], [0, 0, 1, 0]])
    with pytest.raises(DisconnectedGraphError):
        distance_matrices_from_adjacency(two_edges)


def test_hypercube_small():
    edge = build_hypercube(1)
    spec = spectrum_numeric(edge.adjacency)
    assert spec.multiplicities == [1, 1]
    assert np.allclose(spec.values, [-1.0, 1.0], atol=1e-12)
    cube3 = build_hypercube(3)
    spec3 = spectrum_numeric(cube3.adjacency)
    assert spec3.multiplicities == [1, 3, 3, 1]
    assert np.allclose(spec3.values, [-3.0, -1.0, 1.0, 3.0], atol=1e-12)


def test_hypercube_weight_ordering():
    cube = build_hypercube(4)
    weights = [label.count("1") for label in cube.labels]
    assert weights == sorted(weights)
    shells = [int(a.ra[0].sum()) for a in cube.distance_matrices]
    assert shells == [1, 4, 6, 4, 1]


def test_hypercube_cap():
    with pytest.raises(ValueError):
        build_hypercube(11)


def test_graph_requires_normalized_matrix():
    from fermigraph.hadamard import HadamardMatrix
    h = sylvester(2)
    flipped = HadamardMatrix(order=4, entries=-h.entries)
    with pytest.raises(ValueError):
        build_hadamard_graph(flipped)
