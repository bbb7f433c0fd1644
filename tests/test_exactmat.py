import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fermigraph.exactmat import (_FLOAT64_EXACT_LIMIT, DimensionMismatchError,
                                 ExactMatrix, _bounded_qprod, _max_abs,
                                 _scaled_sum, anticommutator, commutator)
from fermigraph.qroot import QRootN, RadicandMismatchError
from fermigraph.terwilliger import _row_diagonal
from tests.dense_scheme_reference import _schur_sum


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

def int_dot(x, y):
    """``x @ y`` through the bounded product rule, with no sqrt(n) parts."""
    ra, rb = _bounded_qprod((x, None), (y, None), 1, x.shape[1])
    assert rb is None
    return ra


def object_dot(x, y):
    """Reference product on Python ints."""
    return np.dot(np.asarray(x, dtype=object), np.asarray(y, dtype=object))


def assert_same_ints(got, want):
    """``got`` holds exactly the integers of the Python-int reference
    ``want``, as int64 or as an object array of Python ints."""
    assert got.dtype in (np.dtype(np.int64), np.dtype(object))
    assert got.shape == want.shape
    if got.dtype == object:
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
    assert_same_ints(int_dot(x, y), object_dot(x, y))


@settings(max_examples=60, deadline=None)
@given(bounded_operands(above=True))
def test_int_dot_exact_at_and_above_bound(operands):
    x, y = operands
    assert _max_abs(x) * _max_abs(y) * x.shape[1] >= _FLOAT64_EXACT_LIMIT
    assert_same_ints(int_dot(x, y), object_dot(x, y))


@pytest.mark.parametrize("inner, float_path", [(7, True), (8, False)])
def test_int_dot_switches_path_at_bound(inner, float_path, monkeypatch):
    # 2^25 * 2^25 * 7 < 2^53 <= 2^25 * 2^25 * 8
    seen = []
    real_dot = np.dot
    monkeypatch.setattr(np, "dot",
                        lambda a, b: seen.append(a.dtype) or real_dot(a, b))
    x = np.full((2, inner), 2**25, dtype=object)
    y = np.full((inner, 3), -(2**25), dtype=object)
    out = int_dot(x, y)
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
    assert_same_ints(int_dot(x, y), object_dot(x, y))
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


# -- int64 storage: every bounded operation on both sides of 2^62 ---------------

INT64_LIMIT = 2**62
EDGE_VALUES = [2**62 - 1, 2**62, 2**63, -(2**63), 2**63 - 1, -(2**62), 2**64]


def int_matrix(rows, radicand, sqrt_rows=None, den=1):
    """ExactMatrix from nested lists of Python ints."""
    ra = np.array(rows, dtype=object)
    rb = None if sqrt_rows is None else np.array(sqrt_rows, dtype=object)
    return ExactMatrix(len(rows), radicand, ra, rb, den)


def values(m):
    """Entries of m as QRootN, read off its arrays as Python ints."""
    return [[m.entry(i, j) for j in range(m.dim)] for i in range(m.dim)]


def assert_canonical(m, want):
    """m holds exactly the Python-int reference values ``want`` (rows of
    QRootN) in canonical form: den > 0 and coprime to the entries, the sqrt
    part dropped when it vanishes, and each part int64 exactly when all its
    entries lie below 2^62; the kept max |entry| of each part is exact."""
    assert values(m) == want
    assert m._mag == tuple(None if p is None else
                           max((abs(int(v)) for v in p.flat), default=0)
                           for p in (m.ra, m.rb))
    parts = [p for p in (m.ra, m.rb) if p is not None]
    ints = [int(v) for p in parts for v in p.flat]
    assert m.den > 0 and math.gcd(m.den, *ints) == 1
    assert (m.rb is None) == all(v.b == 0 for row in want for v in row)
    for p in parts:
        fits = max((abs(int(v)) for v in p.flat), default=0) < INT64_LIMIT
        assert p.dtype == (np.dtype(np.int64) if fits else np.dtype(object))
        if not fits:
            assert all(type(v) is int for v in p.flat)


def python_product(x, y):
    """Reference matmul on lists of QRootN (Python ints throughout)."""
    n = len(x)
    return [[sum((x[i][k] * y[k][j] for k in range(n)), QRootN(0, 0, x[0][0].n))
             for j in range(n)] for i in range(n)]


@pytest.mark.parametrize("value", [2**62 - 1, -(2**62 - 1), 2**62, -(2**62),
                                   2**63 - 1, 2**63, -(2**63), 2**64])
def test_storage_is_int64_exactly_below_2_62(value):
    m = int_matrix([[value, 1], [0, -1]], 2)
    assert m.ra.dtype == (np.int64 if abs(value) < INT64_LIMIT else object)
    assert m.entry(0, 0) == QRootN(value, 0, 2)
    assert_canonical(m, [[QRootN(value, 0, 2), QRootN(1, 0, 2)],
                         [QRootN(0, 0, 2), QRootN(-1, 0, 2)]])
    assert m == int_matrix([[value, 1], [0, -1]], 2)
    assert (-m).ra.dtype == m.ra.dtype and m.T.ra.dtype == m.ra.dtype
    assert m.trace() == QRootN(value - 1, 0, 2)
    assert not m.is_zero() and not m.is_diagonal()


@pytest.mark.parametrize("x", [2**31 - 1, 2**31, -(2**31)])
def test_schur_bound_at_2_62(x):
    # the Schur square holds x^2, which reaches 2^62 at |x| = 2^31
    m = int_matrix([[x, 1], [1, x]], 3)
    got = m.schur(m)
    assert got.ra.dtype == (np.int64 if x * x < INT64_LIMIT else object)
    assert_canonical(got, [[a * a for a in row] for row in values(m)])


@pytest.mark.parametrize("radicand", [2, 3, 5, 12])
@pytest.mark.parametrize("y_at", ["edge", "above", "far"])
def test_sqrt_part_bound_multiplies_by_n(radicand, y_at):
    # (y sqrt n) o (y sqrt n) = y^2 n: below 2^62 for y = isqrt((2^62-1)/n);
    # at y = isqrt(2^62 - 1) it passes 2^63, so int64 would wrap
    y = {"edge": math.isqrt((INT64_LIMIT - 1) // radicand),
         "above": math.isqrt((INT64_LIMIT - 1) // radicand) + 1,
         "far": math.isqrt(INT64_LIMIT - 1)}[y_at]
    m = int_matrix([[0, 1], [1, 0]], radicand, [[y, 0], [0, -y]])
    got = m.schur(m)
    assert got.ra.dtype == (np.int64 if y_at == "edge" else object)
    assert_canonical(got, [[a * a for a in row] for row in values(m)])
    # the same bound through a dense product: inner dimension 2
    dense = int_matrix([[1, 1], [1, 1]], radicand, [[y, y], [y, y]])
    assert_canonical(dense @ dense, python_product(values(dense), values(dense)))


def test_product_rule_bound_covers_the_radicand():
    # n multiplies the product of the sqrt parts even when that product is
    # zero, so n itself must fit int64
    zero = np.zeros((2, 2), dtype=np.int64)
    for n in (3, 2**64 + 1):
        ra, rb = _bounded_qprod((zero, zero), (zero, zero), n, 2)
        assert ra.tolist() == rb.tolist() == zero.tolist()


@pytest.mark.parametrize("step", [-1, 0, 1])
def test_dense_product_bound_at_2_62(step):
    # every entry of [[x, x], [x, x]]^2 is 2 x^2
    x = math.isqrt((INT64_LIMIT - 1) // 2) + step
    m = int_matrix([[x, x], [x, -x]], 2)
    got = m @ m
    assert got.ra.dtype == (np.int64 if 2 * x * x < INT64_LIMIT else object)
    assert_canonical(got, python_product(values(m), values(m)))


@pytest.mark.parametrize("x, kernel", [(2**26 - 1, np.float64), (2**26, np.int64),
                                       (2**31, object)])
def test_dense_product_kernel_follows_the_bound(x, kernel, monkeypatch):
    # bound 2 x^2: below 2^53 the parts go to float64 BLAS, below 2^62 they
    # are multiplied on int64, and from 2^62 on on Python ints
    seen = []
    real_dot = np.dot
    monkeypatch.setattr(np, "dot",
                        lambda a, b: seen.append(a.dtype) or real_dot(a, b))
    m = int_matrix([[x, x], [x, -x]], 2)
    got = m @ m
    monkeypatch.undo()
    assert set(seen) == {np.dtype(kernel)}
    assert got.ra.dtype == (np.int64 if 2 * x * x < INT64_LIMIT else object)
    assert_canonical(got, python_product(values(m), values(m)))


@pytest.mark.parametrize("top", [2**61 - 1, 2**61])
def test_combination_bound_sums_every_term(top):
    a = int_matrix([[top, 0], [0, 1]], 5)
    total = a + a
    assert total.ra.dtype == (np.int64 if 2 * top < INT64_LIMIT else object)
    assert_canonical(total, [[v + v for v in row] for row in values(a)])
    # three terms at 2^62 - 1 sum past 2^63
    edge = int_matrix([[2**62 - 1, 0], [0, 1]], 5)
    assert_canonical(ExactMatrix.combination([(1, edge)] * 3, 2, 5),
                     [[3 * v for v in row] for row in values(edge)])
    # the bound is taken before the terms cancel: a - a has bound 2 top,
    # yet its result is the canonical int64 zero
    diff = a - a
    assert diff.is_zero() and diff.ra.dtype == np.int64 and diff.den == 1
    assert diff == ExactMatrix.zeros(2, 5)


def test_combination_mixes_no_int64_accumulator_with_object_terms():
    big = int_matrix([[2**63, 0], [0, 0]], 5)
    small = int_matrix([[1, 2], [3, 4]], 5, [[1, 0], [0, 1]])
    got = ExactMatrix.combination([(1, small), (QRootN(1, 1, 5), big),
                                   (Fraction(1, 3), small)], 2, 5)
    want = [[s + QRootN(1, 1, 5) * b + Fraction(1, 3) * s
             for s, b in zip(rs, rb)]
            for rs, rb in zip(values(small), values(big))]
    assert_canonical(got, want)


def test_combination_huge_coefficient_on_zero_matrix():
    zero = ExactMatrix.zeros(2, 3)
    ident = ExactMatrix.identity(2, 3)
    got = ExactMatrix.combination([(2**70, zero), (QRootN(0, 2**65, 3), zero),
                                   (1, ident)], 2, 3)
    assert got == ident and got.ra.dtype == np.int64


@pytest.mark.parametrize("radicand, ra, rb, dtype", [
    (4, 2**61 - 2, 2**60, np.int64),    # fold gives 2^62 - 2
    (4, 2**61, 2**60, object),          # fold gives 2^62
    (4, -(2**61), -(2**60), object),    # fold gives -2^62
    (4, 2**62 + 4, -(2**61), np.int64),  # an object part folds back to int64
    (9, 2**62 - 1, 2**62 - 1, object),  # fold gives 4 (2^62 - 1), past 2^63
    (9, 2**61 - 1, -(2**60), np.int64),
])
def test_perfect_square_fold_crosses_the_limit(radicand, ra, rb, dtype):
    # sqrt(n) = s folds rb into ra: ra + s rb
    s = math.isqrt(radicand)
    m = int_matrix([[ra, 0], [0, 1]], radicand, [[rb, 0], [0, 0]])
    assert m.rb is None and m.ra.dtype == dtype
    assert_canonical(m, [[QRootN(ra + s * rb, 0, radicand), QRootN(0, 0, radicand)],
                         [QRootN(0, 0, radicand), QRootN(1, 0, radicand)]])


@pytest.mark.parametrize("den", [2**63, 2**64 + 6, -(2**70), 3 * 2**62])
@pytest.mark.parametrize("with_rb", [False, True])
def test_zero_matrix_with_huge_denominator(den, with_rb):
    # the gcd of the entries and den is den itself, far outside int64
    zeros = [[0, 0], [0, 0]]
    m = int_matrix(zeros, 3, zeros if with_rb else None, den)
    assert m.is_zero() and m.den == 1 and m.rb is None
    assert m.ra.dtype == np.int64
    assert m == ExactMatrix.zeros(2, 3)
    m64 = ExactMatrix(2, 3, np.zeros((2, 2), dtype=np.int64),
                      np.zeros((2, 2), dtype=np.int64) if with_rb else None, den)
    assert m64 == m


def test_gcd_division_returns_object_entries_to_int64():
    m = int_matrix([[2**63, 3 * 2**63], [0, -(2**63)]], 2,
                   [[2**64, 0], [0, 0]], den=2**70)
    assert m.den == 2**7 and m.ra.dtype == np.int64 and m.rb.dtype == np.int64
    assert m.ra.tolist() == [[1, 3], [0, -1]] and m.rb.tolist() == [[2, 0], [0, 0]]


def test_gcd_reads_every_entry():
    # the first entries of a large array can share a factor with den that
    # the last entry does not
    ra = np.full((80, 80), 6, dtype=np.int64)
    ra[-1, -1] = 9
    m = ExactMatrix(80, 2, ra, None, 12)
    assert m.den == 4 and m.ra[0, 0] == 2 and m.ra[-1, -1] == 3
    ra[-1, -1] = 5
    m = ExactMatrix(80, 2, ra, None, 12)
    assert m.den == 12 and m.ra[-1, -1] == 5


@pytest.mark.parametrize("diag", [[2**61, 2**61], [2**61 - 1, 2**61], [2**63, -1],
                                  [2**62 - 1] * 3])
def test_trace_sums_on_the_bounded_path(diag):
    m = ExactMatrix.diagonal(diag, 2)
    assert m.is_diagonal()
    assert m.trace() == QRootN(sum(diag), 0, 2)


@pytest.mark.parametrize("factor", [2**21, 2**22, -(2**22), 2**70])
def test_row_diagonal_scaling_bound(factor):
    m = int_matrix([[2**40, -(2**40)], [3, 0]], 5, [[1, 2**39], [0, 0]])
    got = _row_diagonal(m, 0, factor)
    want = [[QRootN(0, 0, 5)] * 2 for _ in range(2)]
    for j in range(2):
        want[j][j] = m.entry(0, j) * factor
    assert got.is_diagonal()
    assert_canonical(got, want)


edge_ints = st.one_of(st.integers(-8, 8), st.sampled_from(EDGE_VALUES),
                      st.integers(-(2**70), 2**70),
                      st.integers(0, 64).flatmap(
                          lambda e: st.sampled_from([2**e - 1, 2**e, -(2**e)])))


@pytest.mark.parametrize("axis", [None, 0, 1])
def test_scaled_sum_past_2_63(axis):
    # nine entries of 2^62 - 1 (int64 storage) sum to about 9 * 2^62
    arr = np.full((3, 3), 2**62 - 1, dtype=np.int64)
    want = np.full((3, 3), 2**62 - 1, dtype=object).sum(axis=axis)
    got = _scaled_sum(arr, axis=axis)
    assert np.asarray(got).tolist() == np.asarray(want).tolist()
    assert np.asarray(_scaled_sum(arr[0], -3)).tolist() == [-3 * (2**62 - 1)] * 3


@settings(max_examples=80, deadline=None)
@given(st.data(), st.sampled_from([None, 0, 1, ()]),
       st.sampled_from([1, -1, 3, 2**31, 2**62, -(2**63), 2**70]))
def test_scaled_sum_matches_python_ints(data, axis, factor):
    rows, cols = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 3))
    flat = data.draw(st.lists(edge_ints, min_size=rows * cols,
                              max_size=rows * cols))
    obj = np.array(flat, dtype=object).reshape(rows, cols)
    arr = obj.astype(np.int64) if _max_abs(obj) < INT64_LIMIT else obj
    got = _scaled_sum(arr, factor, axis)
    want = (obj * factor).sum(axis=axis)
    if axis is None:
        assert int(got) == want
    else:
        assert got.dtype in (np.dtype(np.int64), np.dtype(object))
        assert np.asarray(got).tolist() == np.asarray(want).tolist()


@st.composite
def edge_matrices(draw, dim, radicand):
    """Integer matrices with entries at and around 2^62 and 2^63, and at
    powers of two that put the product-rule bounds on either side of 2^62
    and 2^53, over a denominator that may share factors with them."""
    def part():
        flat = draw(st.lists(edge_ints, min_size=dim * dim, max_size=dim * dim))
        return np.array(flat, dtype=object).reshape(dim, dim)
    rb = part() if draw(st.booleans()) else None
    den = draw(st.sampled_from([1, 2, 3, -4, 2**31, 2**63]))
    return ExactMatrix(dim, radicand, part(), rb, den)


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 3), st.sampled_from([2, 3, 5, 4, 9]), st.data())
def test_bounded_operations_match_python_ints(dim, radicand, data):
    a = data.draw(edge_matrices(dim, radicand))
    b = data.draw(edge_matrices(dim, radicand))
    va, vb = values(a), values(b)
    for m, want in ((a, va), (b, vb)):
        assert_canonical(m, want)
    c = data.draw(st.sampled_from([1, -3, Fraction(5, 7), 2**62, 2**63 + 1,
                                   QRootN(Fraction(1, 2), -(2**40), radicand)]))
    grid = [(i, j) for i in range(dim) for j in range(dim)]
    assert_canonical(a @ b, python_product(va, vb))
    assert_canonical(a.schur(b), [[va[i][j] * vb[i][j] for j in range(dim)]
                                  for i in range(dim)])
    combo = ExactMatrix.combination([(1, a), (c, b), (-1, b)], dim, radicand)
    assert_canonical(combo, [[va[i][j] + c * vb[i][j] - vb[i][j]
                              for j in range(dim)] for i in range(dim)])
    assert_canonical(a - b, [[va[i][j] - vb[i][j] for j in range(dim)]
                             for i in range(dim)])
    assert_canonical(-a, [[-v for v in row] for row in va])
    assert_canonical(a.T, [[va[j][i] for j in range(dim)] for i in range(dim)])
    assert a.trace() == sum((va[i][i] for i in range(dim)), QRootN(0, 0, radicand))
    keep = np.array([k % 2 == 0 for k in range(dim)])
    assert_canonical(a.masked_support(keep),
                     [[va[i][j] if keep[i] and keep[j] else QRootN(0, 0, radicand)
                       for j in range(dim)] for i in range(dim)])
    assert (a == b) == all(va[i][j] == vb[i][j] for i, j in grid)
    assert a.is_zero() == all(va[i][j] == 0 for i, j in grid)
    assert a.is_diagonal() == all(va[i][j] == 0 for i, j in grid if i != j)
    d = ExactMatrix.diagonal([va[i][i] for i in range(dim)], radicand)
    assert_canonical(d @ b, python_product(values(d), vb))
    assert_canonical(b @ d, python_product(vb, values(d)))


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 3), st.sampled_from([2, 3, 5, 4, 9]), st.data())
def test_schur_sum_matches_python_ints(dim, radicand, data):
    a = data.draw(edge_matrices(dim, radicand))
    b = data.draw(edge_matrices(dim, radicand))
    va, vb = values(a), values(b)
    want = sum((va[i][j] * vb[i][j] for i in range(dim) for j in range(dim)),
               QRootN(0, 0, radicand))
    assert _schur_sum(a, b) == want


@pytest.mark.parametrize("with_rb", [False, True])
def test_schur_sum_past_2_63(with_rb):
    # each product entry is below 2^62 (int64), their sum about 9 * 2^62
    x = 2**31 - 1
    a = int_matrix([[x] * 3] * 3, 5, [[x] * 3] * 3 if with_rb else None)
    b = int_matrix([[x] * 3] * 3, 5)
    assert _schur_sum(a, b) == QRootN(9 * x * x, 9 * x * x if with_rb else 0, 5)
