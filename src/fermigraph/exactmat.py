"""Dense exact matrices over Q(sqrt(n)).

A matrix is stored as a pair of exact integer arrays ``ra``,
``rb`` and a common positive denominator ``den``:

    M = (ra + rb*sqrt(n)) / den

The irrational array is dropped (``rb is None``) whenever it vanishes, which
it does for every matrix over a perfect-square radicand; products then cost a
single integer matmul instead of four.  Instances are treated as immutable:
all operations return fresh matrices.

The product rule (a + b sqrt n)(c + d sqrt n) = (ac + bdn) + (ad + bc) sqrt n
is written once, in ``_qprod``, for any product of the parts: the integer
matmul of a dense ``@``, a row or column broadcast for a diagonal operand,
the elementwise product of ``schur`` and of scalar coefficients.  Every
linear combination sum_k c_k M_k, ``+``, ``-`` and ``scale`` included, is one
``ExactMatrix.combination``: one common denominator, one normalization.

Storage and kernel are split.  ``ra`` and ``rb`` are int64 arrays whenever
every entry has magnitude below 2^62, and object arrays of Python ints
otherwise; this dtype is part of the canonical form, so equal matrices have
equal dtypes.  No int64 operation runs on trust.  Each one first bounds the
magnitude of its result, and of every partial sum on the way, from the
operands' max |entry|, and runs on Python ints unless that bound is below
2^62 (``_on_bound``, the one place the choice is made).  The bounds are
proven in:

- the product rule in ``_bounded_qprod``: ``inner * (|a||c| + |b||d| n)``
  for the rational part and ``inner * (|a||d| + |b||c|)`` for the sqrt(n)
  part, with ``inner`` the inner dimension of ``@`` and 1 for diagonal
  scalings and ``schur``;
- ``combination``: the sum of every term's product-rule bound, taken before
  any term is added, so an int64 accumulator never meets an object term;
- the perfect-square fold ``ra + rb * s`` and the division by the gcd in
  ``_normalize`` (that gcd exceeds 2^62 only when every entry is zero);
- scalings and entry sums read off the arrays by other modules and by
  ``trace``: ``_scaled_sum`` bounds
  ``|factor| * max|entry| * terms``.

Each matrix keeps its parts' max |entry| (``_mag``), so bounding a product
reads no array: the constructor sets it from the canonical parts, and only
negation and transpose, which keep every |entry|, carry it over.

A dense matmul whose product-rule bound is below 2^53 runs its part
products on float64 BLAS (``_float_dot``), where every partial sum is an
exactly representable integer; from 2^53 to 2^62 they run on int64, and
from 2^62 on on Python ints.  A result that lands on Python ints returns to
int64 storage as soon as its entries fit again.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from typing import Sequence

import numpy as np

from .qroot import QRootN, RadicandMismatchError, perfect_square_root


class DimensionMismatchError(ValueError):
    """Raised when matrix operands do not conform."""


def _as_object(arr) -> np.ndarray:
    out = np.asarray(arr)
    if out.dtype != object:
        out = out.astype(object)
    return out


# every integer of magnitude below 2^53 is exact in float64
_FLOAT64_EXACT_LIMIT = 2**53
# int64 storage holds entries of magnitude below 2^62: a bound below it
# leaves every sum of two such bounds, and every negation, inside int64
_INT64_LIMIT = 2**62


def _max_abs(a: np.ndarray) -> int:
    """max |a| as a Python int (so -2^63 in int64 counts as 2^63)."""
    return max(int(a.max()), -int(a.min())) if a.size else 0


def _canonical(arr, mag: int | None = None) -> tuple[np.ndarray, int]:
    """An integer array as stored, with its max |entry| (``mag``, when the
    caller knows it): int64 when that is below 2^62, else an object array of
    Python ints."""
    arr = np.asarray(arr)
    if arr.dtype != np.int64:
        # uint64 and object arrays may hold entries outside int64
        small = arr.dtype.kind in "bi" or (arr.dtype.kind == "u"
                                           and arr.dtype.itemsize < 8)
        arr = arr.astype(np.int64 if small else object)
    if mag is None:
        mag = _max_abs(arr)
    fits = mag < _INT64_LIMIT
    if fits != (arr.dtype == np.int64):
        arr = arr.astype(np.int64 if fits else object)
    return arr, mag


def _on_bound(bound: int, *arrays):
    """``arrays`` to compute on, given a bound on the magnitude of the
    result and of every partial result: as they are when it is below 2^62,
    so int64 arithmetic on them is exact, else as object arrays, so the
    arithmetic runs on Python ints.  ``None`` entries stay ``None``."""
    if bound < _INT64_LIMIT:
        return arrays
    return tuple(None if a is None else _as_object(a) for a in arrays)


def _scaled_sum(arr: np.ndarray, factor: int = 1, axis=()):
    """``factor * arr`` summed over ``axis`` (none by default, every entry
    for ``None``), exactly: its magnitude, and that of every partial sum,
    is at most ``|factor| * max|arr|`` times the number of terms summed."""
    axes = range(arr.ndim) if axis is None else np.atleast_1d(axis).astype(int)
    terms = math.prod(arr.shape[a] for a in axes)
    m = _max_abs(arr)
    (arr,) = _on_bound(max(abs(factor) * m * terms, abs(factor), m), arr)
    return (arr * factor).sum(axis=axis)


def _float_dot(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Exact integer matrix product ``x @ y`` on float64 BLAS, for operands
    with ``max|x| * max|y| * N < 2^53`` (``N`` the inner dimension).

    Every product ``x[i,k] * y[k,j]`` is then an integer of magnitude at
    most ``max|x| * max|y|``, and every sum of any subset of the ``N``
    products that make up one entry has magnitude below 2^53.  float64
    holds each of these integers exactly, so a classical float64 gemm
    returns the exact result whatever its summation order, blocking or use
    of fused multiply-add: every rounding step rounds an exact integer to
    itself.  The result is int64.
    """
    return np.dot(x.astype(np.float64), y.astype(np.float64)).astype(np.int64)


def _qprod(xa, xb, ya, yb, n: int, mul):
    """(xa + xb sqrt n)(ya + yb sqrt n) as its (rational, irrational) parts.

    ``mul`` multiplies two parts; ``None`` stands for a vanishing sqrt(n)
    part, and an irrational result part is ``None`` when both operands
    have none.
    """
    ra = mul(xa, ya)
    if xb is None and yb is None:
        return ra, None
    if yb is None:
        return ra, mul(xb, ya)
    if xb is None:
        return ra, mul(xa, yb)
    ra = ra + mul(xb, yb) * n  # rebinding frees the first product early
    return ra, mul(xa, yb) + mul(xb, ya)


def _mags(parts) -> tuple:
    """max |p| of each part (an array or a Python int), None for a part
    that is None."""
    return tuple(None if p is None else abs(p) if isinstance(p, int)
                 else _max_abs(p) for p in parts)


def _qprod_bound(mx, my, n: int, inner: int = 1) -> int:
    """Bound on every entry, and every partial sum, of the product rule for
    operands x = (xa, xb), y = (ya, yb) with ``inner`` products per entry,
    from their parts' max |entry| ``mx``, ``my`` (see ``_mags``).  It also
    covers each operand and ``n`` itself, since a Python int has to fit
    int64 before numpy multiplies by it."""
    (xa, xb), (ya, yb) = mx, my
    n_used = n if xb is not None and yb is not None else 0
    xb, yb = xb or 0, yb or 0
    return max(inner * max(xa * ya + xb * yb * n, xa * yb + xb * ya),
               xa, xb, ya, yb, n_used)


def _bounded_qprod(x, y, n: int, inner: int | None = None, mags=None):
    """``_qprod`` of parts x = (xa, xb), y = (ya, yb): elementwise (with
    broadcasting) when ``inner`` is None, else the matrix product with
    inner dimension ``inner``.  It runs on int64 when its bound allows, else
    on Python ints (``_on_bound``).  A bound below 2^53 also bounds each of
    the four part products, so a matrix product then runs them on float64
    BLAS (``_float_dot``).
    ``mags`` is ``(_mags(x), _mags(y))`` when the caller knows it."""
    mx, my = mags or (_mags(x), _mags(y))
    bound = _qprod_bound(mx, my, n, inner or 1)
    x_and_y = _on_bound(bound, *x, *y)
    if inner is None:
        mul = operator.mul
    else:
        mul = _float_dot if bound < _FLOAT64_EXACT_LIMIT else np.dot
    return _qprod(*x_and_y, n, mul)


def _over_common_den(values, radicand: int):
    """Values in Q(sqrt(radicand)) as integer arrays ``a``, ``b`` (``None``
    when every sqrt part vanishes) over one common denominator ``den``."""
    scalars = [v if isinstance(v, QRootN) else QRootN(v, 0, radicand)
               for v in values]
    if any(s.n != radicand for s in scalars):
        raise RadicandMismatchError("value radicand differs from matrix")
    den = math.lcm(*(s.a.denominator for s in scalars),
                   *(s.b.denominator for s in scalars))
    a, _ = _canonical(np.array([int(s.a * den) for s in scalars], dtype=object))
    b, _ = _canonical(np.array([int(s.b * den) for s in scalars], dtype=object))
    return a, (b if b.any() else None), den


def _check_conforming(dim: int, radicand: int, m: "ExactMatrix") -> None:
    if dim != m.dim:
        raise DimensionMismatchError(f"dim {dim} vs {m.dim}")
    if radicand != m.radicand:
        raise RadicandMismatchError(
            f"radicand mismatch: {radicand} vs {m.radicand}")


class ExactMatrix:
    """Square matrix with entries in Q(sqrt(n)), exact in every operation."""

    __slots__ = ("dim", "radicand", "den", "ra", "rb", "_mag")

    def __init__(self, dim: int, radicand: int, ra, rb=None,
                 den: int = 1) -> None:
        if den == 0:
            raise ZeroDivisionError("zero denominator")
        self.dim = dim
        self.radicand = radicand
        self.den = den
        # ``_mag`` holds the parts' max |entry| (see ``_mags``)
        self.ra, ma = _canonical(ra)
        self.rb, mb = (None, None) if rb is None else _canonical(rb)
        self._mag = (ma, mb)
        if self.ra.shape != (dim, dim):
            raise DimensionMismatchError(f"expected {(dim, dim)} got {self.ra.shape}")
        if self.rb is not None and self.rb.shape != (dim, dim):
            raise DimensionMismatchError("rational/irrational shapes differ")
        self._normalize()

    # -- construction --------------------------------------------------------

    @classmethod
    def zeros(cls, dim: int, radicand: int = 1) -> "ExactMatrix":
        return cls(dim, radicand, np.zeros((dim, dim), dtype=np.int64))

    @classmethod
    def identity(cls, dim: int, radicand: int = 1) -> "ExactMatrix":
        return cls(dim, radicand, np.eye(dim, dtype=np.int64))

    @classmethod
    def ones(cls, dim: int, radicand: int = 1) -> "ExactMatrix":
        return cls(dim, radicand, np.ones((dim, dim), dtype=int), None, 1)

    @classmethod
    def from_int_array(cls, arr, radicand: int = 1) -> "ExactMatrix":
        arr = np.asarray(arr)
        return cls(arr.shape[0], radicand, arr, None, 1)

    @classmethod
    def diagonal(cls, values: Sequence[QRootN | int | Fraction],
                 radicand: int = 1) -> "ExactMatrix":
        a, b, den = _over_common_den(values, radicand)
        return cls(len(values), radicand, np.diag(a),
                   None if b is None else np.diag(b), den)

    @classmethod
    def from_scalars(cls, rows: Sequence[Sequence[QRootN | int | Fraction]],
                     radicand: int) -> "ExactMatrix":
        dim = len(rows)
        if any(len(row) != dim for row in rows):
            raise DimensionMismatchError("matrix must be square")
        a, b, den = _over_common_den([v for row in rows for v in row], radicand)
        return cls(dim, radicand, a.reshape(dim, dim),
                   None if b is None else b.reshape(dim, dim), den)

    # -- canonical form ------------------------------------------------------

    def _normalize(self) -> None:
        ma, mb = self._mag
        if self.den < 0:
            self.ra = -self.ra
            if self.rb is not None:
                self.rb = -self.rb
            self.den = -self.den
        if self.rb is not None:
            s = perfect_square_root(self.radicand)
            if s is not None:
                ra, rb = _on_bound(max(ma + mb * s, s), self.ra, self.rb)
                self.ra, ma = _canonical(ra + rb * s)
                self.rb = mb = None
            elif mb == 0:
                self.rb = mb = None
        g = self.den
        for p in (self.ra, self.rb):
            if p is not None and g > 1:
                g = math.gcd(g, int(np.gcd.reduce(p, axis=None)))
        if g > 1:
            # g divides every entry, so it is below 2^62 unless all vanish
            ra, rb = _on_bound(g, self.ra, self.rb)
            self.ra, ma = _canonical(ra // g, ma // g)
            if rb is not None:
                self.rb, mb = _canonical(rb // g, mb // g)
            self.den //= g
        self._mag = (ma, mb)

    def _rearranged(self, ra, rb) -> "ExactMatrix":
        """This matrix with parts ``ra``, ``rb`` that hold its entries
        negated or moved: they keep its canonical form, den and max |entry|,
        so nothing is read or normalized again."""
        out = object.__new__(ExactMatrix)
        out.dim, out.radicand, out.den = self.dim, self.radicand, self.den
        out.ra, out.rb, out._mag = ra, rb, self._mag
        return out

    # -- elementwise access --------------------------------------------------

    def entry(self, i: int, j: int) -> QRootN:
        b = 0 if self.rb is None else self.rb[i, j]
        return QRootN(Fraction(int(self.ra[i, j]), self.den),
                      Fraction(int(b), self.den), self.radicand)

    def __getitem__(self, ij: tuple[int, int]) -> QRootN:
        return self.entry(*ij)

    def diagonal_values(self) -> list[QRootN]:
        return [self.entry(i, i) for i in range(self.dim)]

    # -- structural predicates -------------------------------------------------

    def is_zero(self) -> bool:
        # a canonical sqrt(n) part is nonzero
        return self.rb is None and self._mag[0] == 0

    def is_diagonal(self) -> bool:
        return all(np.count_nonzero(p) == np.count_nonzero(p.diagonal())
                   for p in (self.ra, self.rb) if p is not None)

    def is_symmetric(self) -> bool:
        if not np.array_equal(self.ra, self.ra.T):
            return False
        return self.rb is None or np.array_equal(self.rb, self.rb.T)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        # the canonical form (den > 0, gcd 1, rb dropped when it vanishes,
        # int64 exactly when the entries fit) is unique, so equal matrices
        # have equal parts, with equal max |entry| and dtype
        if ((self.dim, self.radicand, self.den, self._mag)
                != (other.dim, other.radicand, other.den, other._mag)):
            return False
        return all(np.array_equal(p, q)
                   for p, q in ((self.ra, other.ra), (self.rb, other.rb))
                   if p is not None)

    def __hash__(self) -> int:  # matrices are mutable-looking containers
        raise TypeError("ExactMatrix is unhashable")

    # -- ring operations -------------------------------------------------------

    @classmethod
    def combination(cls, terms, dim: int, radicand: int) -> "ExactMatrix":
        """sum_k c_k M_k for ``(c_k, M_k)`` pairs, normalized once.

        Coefficients are QRootN, int or Fraction.  Every term must match
        ``dim`` and ``radicand`` (a QRootN coefficient too); zero
        coefficients are skipped, and an empty or all-zero sum is the zero
        matrix.
        """
        parts = []
        den = 1
        for c, m in terms:
            _check_conforming(dim, radicand, m)
            if not isinstance(c, QRootN):
                c = QRootN(c, 0, radicand)
            elif c.n != radicand:
                raise RadicandMismatchError("scalar radicand differs from matrix")
            if c:
                cd = math.lcm(c.a.denominator, c.b.denominator)
                parts.append((int(c.a * cd), int(c.b * cd), m, m.den * cd))
                den = math.lcm(den, m.den * cd)
        if not parts:
            return cls.zeros(dim, radicand)
        scaled = [(pa * (den // term_den), pb * (den // term_den) or None, m)
                  for pa, pb, m, term_den in parts]
        # one bound for the whole sum, so that either every term runs on
        # int64 or every term runs on Python ints
        bound = sum(_qprod_bound(_mags((ca, cb)), m._mag, radicand)
                    for ca, cb, m in scaled)
        # each term is added in place, so no list of scaled N x N arrays is
        # ever held
        ra = rb = None
        for ca, cb, m in scaled:
            ta, tb = _qprod(ca, cb, *_on_bound(bound, m.ra, m.rb), radicand,
                            operator.mul)
            ra = ta if ra is None else np.add(ra, ta, out=ra)
            if tb is not None:
                rb = tb if rb is None else np.add(rb, tb, out=rb)
        return cls(dim, radicand, ra, rb, den)

    def __add__(self, other: "ExactMatrix") -> "ExactMatrix":
        return ExactMatrix.combination(((1, self), (1, other)), self.dim,
                                       self.radicand)

    def __sub__(self, other: "ExactMatrix") -> "ExactMatrix":
        return ExactMatrix.combination(((1, self), (-1, other)), self.dim,
                                       self.radicand)

    def __neg__(self) -> "ExactMatrix":
        return self._rearranged(-self.ra, None if self.rb is None else -self.rb)

    def scale(self, c: QRootN | int | Fraction) -> "ExactMatrix":
        return ExactMatrix.combination(((c, self),), self.dim, self.radicand)

    def __matmul__(self, other: "ExactMatrix") -> "ExactMatrix":
        _check_conforming(self.dim, self.radicand, other)
        x, y, inner = (self.ra, self.rb), (other.ra, other.rb), self.dim
        # a diagonal operand reduces the product to a row or column scaling
        if self.is_diagonal():
            x = [None if p is None else p.diagonal()[:, None] for p in x]
            inner = None
        elif other.is_diagonal():
            y = [None if p is None else p.diagonal()[None, :] for p in y]
            inner = None
        ra, rb = _bounded_qprod(x, y, self.radicand, inner,
                                (self._mag, other._mag))
        return ExactMatrix(self.dim, self.radicand, ra, rb, self.den * other.den)

    def schur(self, other: "ExactMatrix") -> "ExactMatrix":
        """Entrywise (Schur) product."""
        _check_conforming(self.dim, self.radicand, other)
        ra, rb = _bounded_qprod((self.ra, self.rb), (other.ra, other.rb),
                                self.radicand, mags=(self._mag, other._mag))
        return ExactMatrix(self.dim, self.radicand, ra, rb, self.den * other.den)

    def transpose(self) -> "ExactMatrix":
        return self._rearranged(self.ra.T.copy(),
                                None if self.rb is None else self.rb.T.copy())

    @property
    def T(self) -> "ExactMatrix":
        return self.transpose()

    def trace(self) -> QRootN:
        ta = int(_scaled_sum(self.ra.diagonal(), axis=None))
        tb = 0 if self.rb is None else int(_scaled_sum(self.rb.diagonal(),
                                                       axis=None))
        return QRootN(Fraction(ta, self.den), Fraction(tb, self.den), self.radicand)

    # -- support masking -------------------------------------------------------

    def masked_support(self, support: np.ndarray) -> "ExactMatrix":
        """Zero rows and columns outside a boolean support vector."""
        keep = np.outer(support, support)
        return ExactMatrix(self.dim, self.radicand, np.where(keep, self.ra, 0),
                           None if self.rb is None else np.where(keep, self.rb, 0),
                           self.den)

    # -- conversions -----------------------------------------------------------

    def to_float(self) -> np.ndarray:
        out = self.ra.astype(float)
        if self.rb is not None:
            out = out + self.rb.astype(float) * math.sqrt(self.radicand)
        return out / float(self.den)

    def __repr__(self) -> str:
        kind = "rational" if self.rb is None else f"sqrt({self.radicand})"
        return f"ExactMatrix(dim={self.dim}, radicand={self.radicand}, {kind}, den={self.den})"


def commutator(a: ExactMatrix, b: ExactMatrix) -> ExactMatrix:
    """[a, b] = ab - ba."""
    return a @ b - b @ a


def anticommutator(a: ExactMatrix, b: ExactMatrix) -> ExactMatrix:
    """{a, b} = ab + ba."""
    return a @ b + b @ a
