import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fermigraph.exactmat import (_FLOAT64_EXACT_LIMIT, DimensionMismatchError,
                                 ExactMatrix, _int_dot, _max_abs,
                                 anticommutator, commutator)
from fermigraph.qroot import QRootN, RadicandMismatchError


def random_exact(dim, radicand, rng, span=6, irrational=True):
    rows = [[QRootN(Fraction(rng.randint(-span, span), rng.randint(1, 4)),
                    Fraction(rng.randint(-span, span), rng.randint(1, 4))
                    if irrational else 0,
                    radicand)
             for _ in range(dim)] for _ in range(dim)]
    return ExactMatrix.from_scalars(rows, radicand)


# {rational, sqrt(n)} x {rational, sqrt(n)}: every branch of the product rule
OPERAND_FORMS = [
    pytest.param(left, right, id=f"{'sqrt' if left else 'rational'}-"
                                 f"{'sqrt' if right else 'rational'}")
    for left in (False, True) for right in (False, True)]


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


@pytest.mark.parametrize("diag_irrational, dense_irrational", OPERAND_FORMS)
def test_diagonal_fast_path_matches_generic(diag_irrational, dense_irrational):
    rng = random.Random(3)
    m = random_exact(6, 2, rng, irrational=dense_irrational)
    d = ExactMatrix.diagonal([QRootN(i, int(diag_irrational), 2)
                              for i in range(6)], 2)
    assert (d.rb is None) != diag_irrational
    assert (m.rb is None) != dense_irrational
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


@pytest.mark.parametrize("left_irrational, right_irrational", OPERAND_FORMS)
def test_dense_product_forms(left_irrational, right_irrational):
    rng = random.Random(6)
    a = random_exact(5, 3, rng, irrational=left_irrational)
    b = random_exact(5, 3, rng, irrational=right_irrational)
    assert not a.is_diagonal() and not b.is_diagonal()
    assert a @ b == entrywise_product(a, b)


@pytest.mark.parametrize("left_irrational, right_irrational", OPERAND_FORMS)
def test_schur_is_entrywise(left_irrational, right_irrational):
    rng = random.Random(5)
    a = random_exact(3, 2, rng, irrational=left_irrational)
    b = random_exact(3, 2, rng, irrational=right_irrational)
    s = a.schur(b)
    for i in range(3):
        for j in range(3):
            assert s.entry(i, j) == a.entry(i, j) * b.entry(i, j)


# -- linear combinations -------------------------------------------------------

@st.composite
def combination_terms(draw, radicand):
    """Up to four (coefficient, 3x3 matrix) pairs: zero, int, Fraction and
    irrational QRootN coefficients on rational and sqrt(n) matrices with
    mixed denominators."""
    terms = []
    for _ in range(draw(st.integers(0, 4))):
        a = Fraction(draw(st.integers(-20, 20)), draw(st.integers(1, 12)))
        b = Fraction(draw(st.integers(-20, 20)), draw(st.integers(1, 12)))
        c = draw(st.sampled_from([0, QRootN(0, 0, radicand),
                                  draw(st.integers(-5, 5)), a,
                                  QRootN(a, b, radicand)]))
        rng = random.Random(draw(st.integers(0, 2**32)))
        terms.append((c, random_exact(3, radicand, rng,
                                      irrational=draw(st.booleans()))))
    return terms


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([5, 9]), st.data())
def test_combination_matches_scalar_sum(radicand, data):
    terms = data.draw(combination_terms(radicand))
    got = ExactMatrix.combination(terms, 3, radicand)
    rows = [[sum((c * m.entry(i, j) for c, m in terms), QRootN(0, 0, radicand))
             for j in range(3)] for i in range(3)]
    want = ExactMatrix.from_scalars(rows, radicand)
    for i in range(3):
        for j in range(3):
            assert got.entry(i, j) == rows[i][j]
    # one normalization still gives the canonical form
    assert got.den == want.den
    assert_same_ints(got.ra, want.ra)
    if want.rb is None:
        assert got.rb is None
    else:
        assert_same_ints(got.rb, want.rb)


def test_combination_edge_cases():
    m = ExactMatrix.identity(3, 5)
    for terms in ([], [(0, m), (QRootN(0, 0, 5), m), (Fraction(0), m)]):
        z = ExactMatrix.combination(terms, 3, 5)
        assert z.is_zero() and z.rb is None and z.den == 1
        assert (z.dim, z.radicand) == (3, 5)
    # every term is checked, zero coefficients included
    with pytest.raises(DimensionMismatchError):
        ExactMatrix.combination([(1, m), (0, ExactMatrix.identity(4, 5))], 3, 5)
    with pytest.raises(RadicandMismatchError):
        ExactMatrix.combination([(0, ExactMatrix.identity(3, 2))], 3, 5)
    with pytest.raises(RadicandMismatchError):
        ExactMatrix.combination([(QRootN(0, 0, 2), m)], 3, 5)


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


# -- exact integer kernel ------------------------------------------------------

def object_dot(x, y):
    """Reference product on Python ints."""
    return np.dot(np.asarray(x, dtype=object), np.asarray(y, dtype=object))


def assert_same_ints(got, want):
    assert got.dtype == object and got.shape == want.shape
    assert all(type(v) is int for v in got.flat)
    assert got.tolist() == want.tolist()


@st.composite
def bounded_operands(draw, above: bool):
    """Integer matrices x (r x N), y (N x c) whose max|x| * max|y| * N sits
    just below 2^53 (above=False) or at or just above it (above=True)."""
    inner = draw(st.integers(1, 6))
    rows, cols = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    mx = draw(st.integers(1, 2**40))
    if above:
        my = -(-_FLOAT64_EXACT_LIMIT // (mx * inner))
        my += draw(st.integers(0, 2))
    else:
        my = (_FLOAT64_EXACT_LIMIT - 1) // (mx * inner)
        my -= draw(st.integers(0, min(2, my - 1)))

    def matrix(shape, bound):
        size = shape[0] * shape[1]
        flat = draw(st.lists(st.integers(-bound, bound), min_size=size,
                             max_size=size))
        flat[draw(st.integers(0, size - 1))] = bound * draw(st.sampled_from([1, -1]))
        return np.array(flat, dtype=object).reshape(shape)

    return matrix((rows, inner), mx), matrix((inner, cols), my)


@settings(max_examples=60, deadline=None)
@given(bounded_operands(above=False))
def test_int_dot_exact_just_below_bound(operands):
    x, y = operands
    assert _max_abs(x) * _max_abs(y) * x.shape[1] < _FLOAT64_EXACT_LIMIT
    assert_same_ints(_int_dot(x, y), object_dot(x, y))


@settings(max_examples=60, deadline=None)
@given(bounded_operands(above=True))
def test_int_dot_exact_at_and_above_bound(operands):
    x, y = operands
    assert _max_abs(x) * _max_abs(y) * x.shape[1] >= _FLOAT64_EXACT_LIMIT
    assert_same_ints(_int_dot(x, y), object_dot(x, y))


@pytest.mark.parametrize("inner, float_path", [(7, True), (8, False)])
def test_int_dot_switches_path_at_bound(inner, float_path, monkeypatch):
    # 2^25 * 2^25 * 7 < 2^53 <= 2^25 * 2^25 * 8
    seen = []
    real_dot = np.dot
    monkeypatch.setattr(np, "dot",
                        lambda a, b: seen.append(a.dtype) or real_dot(a, b))
    x = np.full((2, inner), 2**25, dtype=object)
    y = np.full((inner, 3), -(2**25), dtype=object)
    out = _int_dot(x, y)
    assert seen == [np.dtype(np.float64) if float_path else np.dtype(object)]
    monkeypatch.undo()
    assert_same_ints(out, object_dot(x, y))


@pytest.mark.parametrize("big", [2**63 - 1, -(2**63), 2**70, -(2**70), 2**27 + 1])
def test_int_dot_extreme_entries_fall_back(big):
    # 2**27 + 1 squared is odd and above 2^53: float64 would round it
    rng = np.random.default_rng(abs(big) % 1000)
    x = rng.integers(-3, 4, (3, 3)).astype(object)
    y = rng.integers(-3, 4, (3, 3)).astype(object)
    x[1, 2] = big
    y[2, 0] = big
    assert_same_ints(_int_dot(x, y), object_dot(x, y))
    a = ExactMatrix(3, 1, x)
    b = ExactMatrix(3, 1, y)
    assert a @ b == entrywise_product(a, b)


@settings(max_examples=15, deadline=None)
@given(st.sampled_from([2, 3, 5, 12]), st.integers(0, 2**32),
       st.sampled_from([1, 2**40]))
def test_sqrt_form_product_scaled_past_bound(radicand, seed, right_scale):
    rng = random.Random(seed)
    a = random_exact(4, radicand, rng).scale(2**40)
    b = random_exact(4, radicand, rng).scale(right_scale)
    assert a @ b == entrywise_product(a, b)


def reference_canonical(ra, rb, den):
    """Sign and gcd normalisation with the Python gcd loop."""
    if den < 0:
        ra, rb, den = -ra, None if rb is None else -rb, -den
    g = den
    for v in list(ra.flat) + ([] if rb is None else list(rb.flat)):
        g = math.gcd(g, int(v))
    return ra // g, None if rb is None else rb // g, den // g


entry_values = st.one_of(st.integers(-50, 50), st.integers(-(2**70), 2**70),
                         st.sampled_from([2**63 - 1, -(2**63), 2**63]))


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 4), st.data(), st.sampled_from([1, 2, 6, 2**62, 2**64]),
       st.integers(1, 10**6).map(lambda d: d * 2**11), st.booleans(),
       st.booleans())
def test_normalize_matches_python_gcd(dim, data, factor, den, unit_den, with_rb):
    # a common factor of entries and denominator must cancel; with den == 1
    # the entries are kept as they are
    den = 1 if unit_den else den * factor * data.draw(st.sampled_from([1, -1]))
    shape = (dim, dim)

    def draw_array():
        flat = data.draw(st.lists(entry_values, min_size=dim * dim,
                                  max_size=dim * dim))
        return np.array(flat, dtype=object).reshape(shape) * factor

    ra = draw_array()
    rb = draw_array() if with_rb else None
    if rb is not None and not rb.any():
        rb = None
    want_ra, want_rb, want_den = reference_canonical(ra, rb, den)
    m = ExactMatrix(dim, 2, ra, rb, den)
    assert m.den == want_den
    assert_same_ints(m.ra, want_ra)
    if want_rb is None:
        assert m.rb is None
    else:
        assert_same_ints(m.rb, want_rb)


small_arrays = st.integers(1, 3).flatmap(lambda dim: st.tuples(
    st.just(dim),
    *[st.lists(st.integers(-3, 3), min_size=dim * dim, max_size=dim * dim)
      for _ in range(4)]))


@settings(max_examples=150, deadline=None)
@given(small_arrays, st.sampled_from([5, 9, 4]),
       st.sampled_from([1, -1, 2, -2, 6]), st.sampled_from([1, -1, 3, -4]),
       st.sampled_from([1, -1, 2, -6]), st.sampled_from(["other", "same", "fold", "zero"]))
def test_eq_agrees_with_zero_difference(arrays, radicand, den, scale_a, scale_b,
                                        kind):
    """``==`` compares canonical parts; it must agree with (a - b).is_zero()
    on inputs that reach the constructor in non-canonical form: a scaled or
    negative denominator, a perfect-square radicand carrying a sqrt part,
    and zero matrices with any denominator."""
    dim, *flat = arrays
    ra, rb, other_ra, other_rb = (np.array(f, dtype=object).reshape(dim, dim)
                                  for f in flat)
    if kind == "same":          # the same matrix, scaled differently
        other_ra, other_rb, other_den = ra, rb, den
    elif kind == "fold":        # sqrt part folded by hand where sqrt is an integer
        root = math.isqrt(radicand)
        if root * root == radicand:
            other_ra, other_rb = ra + rb * root, None
        other_den = den
    elif kind == "zero":
        ra = rb = other_ra = other_rb = np.zeros((dim, dim), dtype=object)
        other_den = 3 * den
    else:
        other_den = den
    a = ExactMatrix(dim, radicand, ra * scale_a, rb * scale_a, den * scale_a)
    b = ExactMatrix(dim, radicand,
                    other_ra * scale_b,
                    None if other_rb is None else other_rb * scale_b,
                    other_den * scale_b)
    assert (a == b) == (a - b).is_zero()
    assert (b == a) == (a == b)
    if kind in ("same", "zero"):
        assert a == b
    assert not a == ExactMatrix(dim + 1, radicand, np.zeros((dim + 1,) * 2))
