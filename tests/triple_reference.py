"""Dense-product reference for ``terwilliger.triple_vanishing_check``.

This was the triple check of ``fermigraph verify`` before it read blocks and
norms: it forms E*_i A_j E*_k and E_i A*_j E_k as exact N x N products and
tests each for zero.  It shares no code with the block and norm check beyond
``ExactMatrix`` itself, so agreement between the two is evidence about both.
"""

from __future__ import annotations

from fermigraph.terwilliger import TerwilligerBasis


def dense_triple_violations(basis: TerwilligerBasis,
                            ) -> tuple[int, list[tuple[str, int, int, int]]]:
    """(checked, violations): a triple is a violation when its product's
    vanishing differs from that of p_ij^k (E* A E*) or q_ij^k (E A* E)."""
    t = basis.tables
    d = t.diameter
    violations: list[tuple[str, int, int, int]] = []
    checked = 0
    families = (("EsAEs", basis.dual_idempotents, t.distance, t.p_numbers),
                ("EAsE", t.idempotents, basis.dual_distance, t.krein))
    for label, outer, middle, table in families:
        for i in range(d + 1):
            for j in range(d + 1):
                sandwich_left = outer[i] @ middle[j]
                for k in range(d + 1):
                    triple = sandwich_left @ outer[k]
                    if triple.is_zero() != (not table[i][j][k]):
                        violations.append((label, i, j, k))
                    checked += 1
    return checked, violations
