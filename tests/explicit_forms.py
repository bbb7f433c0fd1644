"""Independent block encodings of the distance and chopped correlation
matrices of the Hadamard graph.

These are written straight from the row/column block structure of the
Hadamard graph (J, I, Hbar and back-diagonal pieces only) and never touch the
search or the projector pipeline, so comparing them against the computed
distance matrices and pi1 pi2 pi1 exercises the breadth-first search and the
whole idempotent construction end to end.  Indexing:
explicit_chopped(graph, a, b) is the restriction of the first b+1 energy
projectors to the first a neighbourhoods, i.e. chopped_correlation with K=b
and ell=a.
"""

from __future__ import annotations

import numpy as np

from fermigraph import ExactMatrix, HadamardGraph, HadamardMatrix, core_blocks


def _zeros(r, c):
    return np.zeros((r, c), dtype=object)


def _ones(r, c):
    return np.ones((r, c), dtype=object)


def _eye(m):
    return np.eye(m, dtype=int).astype(object)


def _assemble(blocks):
    return np.block([[np.asarray(b, dtype=object) for b in row] for row in blocks])


def _energy_sum_blocks(graph: HadamardGraph, b: int):
    """(ra, rb) integer blocks of 4n * (E_0 + .. + E_b), rb holding the
    sqrt(n) multiples."""
    n = graph.order
    mid = 2 * n - 2
    hbar = graph.blocks.hbar
    col_pm = np.concatenate([hbar, -hbar], axis=1)      # n x mid, +-Hbar halves
    sizes = [1, n, mid, n, 1]

    ra = [[_zeros(sizes[i], sizes[j]) for j in range(5)] for i in range(5)]
    rb = [[_zeros(sizes[i], sizes[j]) for j in range(5)] for i in range(5)]

    def setsym(i, j, a_block, b_block=None):
        ra[i][j] = np.asarray(a_block, dtype=object)
        ra[j][i] = ra[i][j].T
        if b_block is not None:
            rb[i][j] = np.asarray(b_block, dtype=object)
            rb[j][i] = rb[i][j].T

    if b == 1:
        setsym(0, 0, [[n + 1]])
        setsym(0, 1, _ones(1, n), _ones(1, n))
        setsym(0, 2, _ones(1, mid))
        setsym(0, 3, _ones(1, n), -_ones(1, n))
        setsym(0, 4, [[1 - n]])
        setsym(1, 1, _ones(n, n) + n * _eye(n))
        setsym(1, 2, _ones(n, mid), col_pm)
        setsym(1, 3, _ones(n, n) - n * _eye(n))
        setsym(1, 4, _ones(n, 1), -_ones(n, 1))
        half = [[_ones(n - 1, n - 1) + n * _eye(n - 1),
                 _ones(n - 1, n - 1) - n * _eye(n - 1)],
                [_ones(n - 1, n - 1) - n * _eye(n - 1),
                 _ones(n - 1, n - 1) + n * _eye(n - 1)]]
        setsym(2, 2, _assemble(half))
        # far row shell couples through the swapped halves (minus half first):
        # forced by the adjacency/distance-3 block layout
        setsym(2, 3, _ones(mid, n), -col_pm.T)
        setsym(2, 4, _ones(mid, 1))
        setsym(3, 3, _ones(n, n) + n * _eye(n))
        setsym(3, 4, _ones(n, 1), _ones(n, 1))
        setsym(4, 4, [[n + 1]])
    elif b == 2:
        setsym(0, 0, [[3 * n - 1]])
        setsym(0, 1, _ones(1, n), _ones(1, n))
        setsym(0, 2, -_ones(1, mid))
        setsym(0, 3, _ones(1, n), -_ones(1, n))
        setsym(0, 4, [[n - 1]])
        setsym(1, 1, 3 * n * _eye(n) - _ones(n, n))
        setsym(1, 2, _ones(n, mid), col_pm)
        setsym(1, 3, n * _eye(n) - _ones(n, n))
        setsym(1, 4, _ones(n, 1), -_ones(n, 1))
        half = [[3 * n * _eye(n - 1) - _ones(n - 1, n - 1),
                 n * _eye(n - 1) - _ones(n - 1, n - 1)],
                [n * _eye(n - 1) - _ones(n - 1, n - 1),
                 3 * n * _eye(n - 1) - _ones(n - 1, n - 1)]]
        setsym(2, 2, _assemble(half))
        setsym(2, 3, _ones(mid, n), -col_pm.T)
        setsym(2, 4, -_ones(mid, 1))
        setsym(3, 3, 3 * n * _eye(n) - _ones(n, n))
        setsym(3, 4, _ones(n, 1), _ones(n, 1))
        setsym(4, 4, [[3 * n - 1]])
    elif b == 3:
        # 4n (I - E_4): rank-one pattern with alternating shell signs
        signs = [1, -1, 1, -1, 1]
        for i in range(5):
            for j in range(i, 5):
                block = signs[i] * signs[j] * _ones(sizes[i], sizes[j])
                setsym(i, j, -block)
        for i in range(5):
            ra[i][i] = ra[i][i] + 4 * n * _eye(sizes[i])
    else:
        raise ValueError("explicit forms cover b in {1, 2, 3}")
    return _assemble(ra), _assemble(rb)


def explicit_chopped(graph: HadamardGraph, a: int, b: int) -> ExactMatrix:
    """Block form of the b-energy, a-neighbourhood chopped correlation."""
    n = graph.order
    cum = [1, n + 1, 3 * n - 1, 4 * n - 1, 4 * n]
    keep = cum[a]
    ra, rb = _energy_sum_blocks(graph, b)
    mask = np.zeros((4 * n, 4 * n), dtype=object)
    mask[:keep, :keep] = 1
    ra = ra * mask
    rb = rb * mask
    if not rb.any():
        rb = None
    return ExactMatrix(4 * n, n, ra, rb, 4 * n)


def explicit_hadamard_distance_matrices(h: HadamardMatrix) -> list[ExactMatrix]:
    """The five distance matrices written directly from the row/column blocks.

    Independent of any search: A1 and A3 come from M1/M2, A4 is the antipodal
    matching, A2 is the complement within each bipartition class.
    """
    n = h.order
    cb = core_blocks(h)
    m1, m2 = cb.m1, cb.m2
    one = _ones(n, 1)
    mid = 2 * n - 2

    a0 = _eye(4 * n)

    a1 = _assemble([
        [_zeros(1, 1), one.T, _zeros(1, mid), _zeros(1, n), _zeros(1, 1)],
        [one, _zeros(n, n), m1, _zeros(n, n), _zeros(n, 1)],
        [_zeros(mid, 1), m1.T, _zeros(mid, mid), m2.T, _zeros(mid, 1)],
        [_zeros(n, 1), _zeros(n, n), m2, _zeros(n, n), one],
        [_zeros(1, 1), _zeros(1, n), _zeros(1, mid), one.T, _zeros(1, 1)],
    ])

    a3 = _assemble([
        [_zeros(1, 1), _zeros(1, n), _zeros(1, mid), one.T, _zeros(1, 1)],
        [_zeros(n, 1), _zeros(n, n), m2, _zeros(n, n), one],
        [_zeros(mid, 1), m2.T, _zeros(mid, mid), m1.T, _zeros(mid, 1)],
        [one, _zeros(n, n), m1, _zeros(n, n), _zeros(n, 1)],
        [_zeros(1, 1), one.T, _zeros(1, mid), _zeros(1, n), _zeros(1, 1)],
    ])

    r2_kron_eye = np.block([[_zeros(n - 1, n - 1), _eye(n - 1)],
                            [_eye(n - 1), _zeros(n - 1, n - 1)]])
    a4 = _assemble([
        [_zeros(1, 1), _zeros(1, n), _zeros(1, mid), _zeros(1, n), _ones(1, 1)],
        [_zeros(n, 1), _zeros(n, n), _zeros(n, mid), _eye(n), _zeros(n, 1)],
        [_zeros(mid, 1), _zeros(mid, n), r2_kron_eye, _zeros(mid, n), _zeros(mid, 1)],
        [_zeros(n, 1), _eye(n), _zeros(n, mid), _zeros(n, n), _zeros(n, 1)],
        [_ones(1, 1), _zeros(1, n), _zeros(1, mid), _zeros(1, n), _zeros(1, 1)],
    ])

    j2_kron_eye = np.block([[_eye(n - 1), _eye(n - 1)],
                            [_eye(n - 1), _eye(n - 1)]])
    a2 = _assemble([
        [_zeros(1, 1), _zeros(1, n), _ones(1, mid), _zeros(1, n), _zeros(1, 1)],
        [_zeros(n, 1), _ones(n, n) - _eye(n), _zeros(n, mid), _ones(n, n) - _eye(n), _zeros(n, 1)],
        [_ones(mid, 1), _zeros(mid, n), _ones(mid, mid) - j2_kron_eye, _zeros(mid, n), _ones(mid, 1)],
        [_zeros(n, 1), _ones(n, n) - _eye(n), _zeros(n, mid), _ones(n, n) - _eye(n), _zeros(n, 1)],
        [_zeros(1, 1), _zeros(1, n), _ones(1, mid), _zeros(1, n), _zeros(1, 1)],
    ])

    return [ExactMatrix.from_int_array(a, radicand=n) for a in (a0, a1, a2, a3, a4)]
