import random
from fractions import Fraction

import numpy as np
import pytest

from fermigraph.exactmat import (DimensionMismatchError, ExactMatrix,
                                 anticommutator, commutator)
from fermigraph.qroot import QRootN, RadicandMismatchError


def random_exact(dim, radicand, rng, span=6):
    rows = [[QRootN(Fraction(rng.randint(-span, span), rng.randint(1, 4)),
                    Fraction(rng.randint(-span, span), rng.randint(1, 4)),
                    radicand)
             for _ in range(dim)] for _ in range(dim)]
    return ExactMatrix.from_scalars(rows, radicand)


def entrywise_product(a, b):
    """Reference matmul done entry by entry with scalar arithmetic."""
    dim = a.dim
    rows = []
    for i in range(dim):
        row = []
        for j in range(dim):
            acc = QRootN(0, 0, a.radicand)
            for k in range(dim):
                acc = acc + a.entry(i, k) * b.entry(k, j)
            row.append(acc)
        rows.append(row)
    return ExactMatrix.from_scalars(rows, a.radicand)


@pytest.mark.parametrize("radicand", [2, 5, 9])
def test_matmul_against_scalar_reference(radicand):
    rng = random.Random(radicand)
    a = random_exact(5, radicand, rng)
    b = random_exact(5, radicand, rng)
    assert a @ b == entrywise_product(a, b)


def test_commutator_with_identity_vanishes():
    rng = random.Random(1)
    m = random_exact(4, 3, rng)
    assert commutator(ExactMatrix.identity(4, 3), m).is_zero()


def test_anticommutator_is_twice_square():
    rng = random.Random(2)
    m = random_exact(4, 7, rng)
    assert anticommutator(m, m) == (m @ m).scale(2)


def test_diagonal_fast_path_matches_generic():
    rng = random.Random(3)
    m = random_exact(6, 2, rng)
    d = ExactMatrix.diagonal([QRootN(i, 1, 2) for i in range(6)], 2)
    assert d @ m == entrywise_product(d, m)
    assert m @ d == entrywise_product(m, d)


def test_add_scale_transpose_trace():
    rng = random.Random(4)
    a = random_exact(4, 5, rng)
    b = random_exact(4, 5, rng)
    assert (a + b) - b == a
    c = QRootN(Fraction(2, 3), 1, 5)
    assert a.scale(c).entry(1, 2) == a.entry(1, 2) * c
    assert a.T.entry(0, 3) == a.entry(3, 0)
    tr = QRootN(0, 0, 5)
    for i in range(4):
        tr = tr + a.entry(i, i)
    assert a.trace() == tr


def test_schur_is_entrywise():
    rng = random.Random(5)
    a = random_exact(3, 2, rng)
    b = random_exact(3, 2, rng)
    s = a.schur(b)
    for i in range(3):
        for j in range(3):
            assert s.entry(i, j) == a.entry(i, j) * b.entry(i, j)


def test_masking():
    m = ExactMatrix.ones(4, 1)
    sup = np.array([True, False, True, False])
    masked = m.masked_support(sup)
    assert masked.entry(0, 2) == QRootN(1, 0, 1)
    assert masked.entry(0, 1) == QRootN(0, 0, 1)


def test_mismatches_raise():
    a = ExactMatrix.identity(3, 2)
    with pytest.raises(RadicandMismatchError):
        a @ ExactMatrix.identity(3, 3)
    with pytest.raises(DimensionMismatchError):
        a + ExactMatrix.identity(4, 2)


def test_to_float_and_perfect_square_fold():
    m = ExactMatrix.from_scalars([[QRootN(0, 1, 4), QRootN(1, 0, 4)],
                                  [QRootN(1, 0, 4), QRootN(0, 0, 4)]], 4)
    assert m.rb is None  # sqrt(4) folded into the rational part
    assert m.entry(0, 0) == QRootN(2, 0, 4)
    f = m.to_float()
    assert f[0, 0] == 2.0 and f[1, 1] == 0.0


def test_equality_independent_of_representation():
    a = ExactMatrix(2, 2, np.array([[2, 0], [0, 2]], dtype=object), None, 2)
    b = ExactMatrix.identity(2, 2)
    assert a == b
