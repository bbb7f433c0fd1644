"""Dense exact matrices over Q(sqrt(n)).

A matrix is stored as a pair of arbitrary-precision integer arrays ``ra``,
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

Storage and kernel are split.  ``ra`` and ``rb`` are stored with dtype=object,
so entries are Python ints and never overflow.  The integer products inside
a dense matmul run on float64 BLAS whenever ``max|x| * max|y| * N < 2^53``,
which makes every partial sum an exactly representable integer; larger
operands fall back to the object product (see ``_int_dot``).
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from typing import Iterable, Sequence

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


def _max_abs(a: np.ndarray) -> int:
    """max |a| as a Python int (so -2^63 in int64 counts as 2^63)."""
    return max(int(a.max()), -int(a.min())) if a.size else 0


def _int_dot(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Exact integer matrix product ``x @ y`` as an object array of Python ints.

    Both operands are converted to int64; if either holds an entry outside
    int64, the product runs on Python ints (dtype=object).  Otherwise, with
    ``mx = max|x|`` and ``my = max|y|`` taken as Python ints and inner
    dimension ``N``, every product ``x[i,k] * y[k,j]`` is an integer of
    magnitude at most ``mx * my``, and every sum of any subset of the ``N``
    products that make up one entry has magnitude at most ``mx * my * N``.
    When that is below 2^53, float64 holds each of these integers exactly,
    so a classical float64 gemm returns the exact result whatever its
    summation order, blocking or use of fused multiply-add: every rounding
    step rounds an exact integer to itself.  Above the bound the product
    runs on Python ints.
    """
    try:
        xi, yi = x.astype(np.int64), y.astype(np.int64)
    except OverflowError:
        return np.dot(_as_object(x), _as_object(y))
    if _max_abs(xi) * _max_abs(yi) * x.shape[-1] >= _FLOAT64_EXACT_LIMIT:
        return np.dot(_as_object(x), _as_object(y))
    out = np.dot(xi.astype(np.float64), yi.astype(np.float64))
    return out.astype(np.int64).astype(object)


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


def _over_common_den(values, radicand: int):
    """Values in Q(sqrt(radicand)) as integer arrays ``a``, ``b`` (``None``
    when every sqrt part vanishes) over one common denominator ``den``."""
    scalars = [v if isinstance(v, QRootN) else QRootN(v, 0, radicand)
               for v in values]
    if any(s.n != radicand for s in scalars):
        raise RadicandMismatchError("value radicand differs from matrix")
    den = math.lcm(*(s.a.denominator for s in scalars),
                   *(s.b.denominator for s in scalars))
    a = np.array([int(s.a * den) for s in scalars], dtype=object)
    b = np.array([int(s.b * den) for s in scalars], dtype=object)
    return a, (b if b.any() else None), den


def _check_conforming(dim: int, radicand: int, m: "ExactMatrix") -> None:
    if dim != m.dim:
        raise DimensionMismatchError(f"dim {dim} vs {m.dim}")
    if radicand != m.radicand:
        raise RadicandMismatchError(
            f"radicand mismatch: {radicand} vs {m.radicand}")


def _gcd_reduce(arrays: Iterable[np.ndarray], start: int) -> int:
    if start == 1:
        return 1
    g = start
    for arr in arrays:
        for v in arr.flat:
            if v:
                g = math.gcd(g, v if v > 0 else -v)
                if g == 1:
                    return 1
    return g


class ExactMatrix:
    """Square matrix with entries in Q(sqrt(n)), exact in every operation."""

    __slots__ = ("dim", "radicand", "den", "ra", "rb")

    def __init__(self, dim: int, radicand: int, ra, rb=None, den: int = 1,
                 _normalized: bool = False) -> None:
        if den == 0:
            raise ZeroDivisionError("zero denominator")
        self.dim = dim
        self.radicand = radicand
        self.ra = _as_object(ra)
        self.rb = None if rb is None else _as_object(rb)
        self.den = den
        if self.ra.shape != (dim, dim):
            raise DimensionMismatchError(f"expected {(dim, dim)} got {self.ra.shape}")
        if self.rb is not None and self.rb.shape != (dim, dim):
            raise DimensionMismatchError("rational/irrational shapes differ")
        if not _normalized:
            self._normalize()

    # -- construction --------------------------------------------------------

    @classmethod
    def zeros(cls, dim: int, radicand: int = 1) -> "ExactMatrix":
        return cls(dim, radicand, np.zeros((dim, dim), dtype=object), None, 1,
                   _normalized=True)

    @classmethod
    def identity(cls, dim: int, radicand: int = 1) -> "ExactMatrix":
        ra = np.zeros((dim, dim), dtype=object)
        for i in range(dim):
            ra[i, i] = 1
        return cls(dim, radicand, ra, None, 1, _normalized=True)

    @classmethod
    def ones(cls, dim: int, radicand: int = 1) -> "ExactMatrix":
        return cls(dim, radicand, np.ones((dim, dim), dtype=int), None, 1)

    @classmethod
    def from_int_array(cls, arr, radicand: int = 1) -> "ExactMatrix":
        arr = _as_object(arr)
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
        if self.den < 0:
            self.ra = -self.ra
            if self.rb is not None:
                self.rb = -self.rb
            self.den = -self.den
        if self.rb is not None:
            s = perfect_square_root(self.radicand)
            if s is not None:
                self.ra = self.ra + self.rb * s
                self.rb = None
            elif not self.rb.any():
                self.rb = None
        arrays = (self.ra,) if self.rb is None else (self.ra, self.rb)
        g = _gcd_reduce(arrays, self.den)
        if g > 1:
            self.ra = self.ra // g
            if self.rb is not None:
                self.rb = self.rb // g
            self.den //= g

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
        return not self.ra.any() and (self.rb is None or not self.rb.any())

    def is_diagonal(self) -> bool:
        off = ~np.eye(self.dim, dtype=bool)
        if self.ra[off].any():
            return False
        return self.rb is None or not self.rb[off].any()

    def is_symmetric(self) -> bool:
        if not np.array_equal(self.ra, self.ra.T):
            return False
        return self.rb is None or np.array_equal(self.rb, self.rb.T)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        # the canonical form (den > 0, gcd 1, rb dropped when it vanishes)
        # is unique, so equal matrices have equal parts
        if (self.dim, self.radicand, self.den) != (other.dim, other.radicand,
                                                   other.den):
            return False
        if (self.rb is None) != (other.rb is None):
            return False
        return (np.array_equal(self.ra, other.ra)
                and (self.rb is None or np.array_equal(self.rb, other.rb)))

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
        # each term is brought to ``den`` and added in place, so no list of
        # scaled N x N arrays is ever held
        ra = rb = None
        for pa, pb, m, term_den in parts:
            f = den // term_den
            ta, tb = _qprod(pa * f, pb * f or None, m.ra, m.rb, radicand,
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
        return ExactMatrix(self.dim, self.radicand, -self.ra,
                           None if self.rb is None else -self.rb,
                           self.den, _normalized=True)

    def scale(self, c: QRootN | int | Fraction) -> "ExactMatrix":
        return ExactMatrix.combination(((c, self),), self.dim, self.radicand)

    def __matmul__(self, other: "ExactMatrix") -> "ExactMatrix":
        _check_conforming(self.dim, self.radicand, other)
        x, y, mul = (self.ra, self.rb), (other.ra, other.rb), _int_dot
        # a diagonal operand reduces the product to a row or column scaling
        if self.is_diagonal():
            x = [None if p is None else p.diagonal()[:, None] for p in x]
            mul = operator.mul
        elif other.is_diagonal():
            y = [None if p is None else p.diagonal()[None, :] for p in y]
            mul = operator.mul
        ra, rb = _qprod(*x, *y, self.radicand, mul)
        return ExactMatrix(self.dim, self.radicand, ra, rb, self.den * other.den)

    def schur(self, other: "ExactMatrix") -> "ExactMatrix":
        """Entrywise (Schur) product."""
        _check_conforming(self.dim, self.radicand, other)
        ra, rb = _qprod(self.ra, self.rb, other.ra, other.rb, self.radicand,
                        operator.mul)
        return ExactMatrix(self.dim, self.radicand, ra, rb, self.den * other.den)

    def transpose(self) -> "ExactMatrix":
        return ExactMatrix(self.dim, self.radicand, self.ra.T.copy(),
                           None if self.rb is None else self.rb.T.copy(),
                           self.den, _normalized=True)

    @property
    def T(self) -> "ExactMatrix":
        return self.transpose()

    def trace(self) -> QRootN:
        ta = sum(int(v) for v in self.ra.diagonal())
        tb = 0 if self.rb is None else sum(int(v) for v in self.rb.diagonal())
        return QRootN(Fraction(ta, self.den), Fraction(tb, self.den), self.radicand)

    # -- support masking -------------------------------------------------------

    def masked_support(self, support: np.ndarray) -> "ExactMatrix":
        """Zero rows and columns outside a boolean support vector."""
        keep = np.outer(support, support).astype(int).astype(object)
        return ExactMatrix(self.dim, self.radicand, self.ra * keep,
                           None if self.rb is None else self.rb * keep, self.den)

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
