"""The Hadamard graph and its association scheme, exactly.

The graph on 4n vertices built from an order-n Hadamard matrix is
distance-regular with diameter 4.  Its distance matrices generate a
commutative algebra whose structure constants, idempotents and eigenmatrices
are all computed and verified here over Q(sqrt(n)) with zero residual.
"""

from fermigraph import (build_hadamard_graph, build_scheme, sylvester)
from fermigraph.scheme import intersection_array, polynomial_checks

graph = build_hadamard_graph(sylvester(3))   # order n = 8, 32 vertices
tables = build_scheme(graph)                 # raises if any axiom fails

n = graph.order
print(f"order n = {n}, vertices = {graph.vertex_count}, diameter = {graph.diameter}")
print("shell sizes:", [int(a.ra[0].sum()) for a in graph.distance_matrices])
print("intersection array:", intersection_array(tables.p_numbers))

# The scheme is metric and cometric, and self-dual: the two eigenmatrices
# coincide, which also forces the Krein parameters to equal the intersection
# numbers.
print(polynomial_checks(tables.p_numbers, tables.krein,
                        tables.eigenmatrix_p, tables.eigenmatrix_q))
print("P = Q =")
for row in tables.eigenmatrix_p:
    print("  [" + ", ".join(str(v) for v in row) + "]")

print("valencies:", tables.valencies)
print("multiplicities:", tables.multiplicities)

same = all(tables.krein[i][j][k] == tables.p_numbers[i][j][k]
           for i in range(5) for j in range(5) for k in range(5))
print("Krein parameters equal intersection numbers:", same)

# The graph was checked against the three-term recurrence
# A A_i = b_{i-1} A_{i-1} + a_i A_i + c_{i+1} A_{i+1} entrywise in exact
# arithmetic; every p_ij^k follows from it, e.g. A_1 A_2 = sum_k p_{12}^k A_k.
print("p[1][2][.] =", [tables.p_numbers[1][2][k] for k in range(5)])
