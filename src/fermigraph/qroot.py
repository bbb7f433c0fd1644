"""Exact arithmetic in the real quadratic field Q(sqrt(n)).

Every algebraic identity in this package (projector idempotency, commutation,
cubic relations, scheme axioms) is checked over Q(sqrt(n)) with zero residual,
so the scalar type must be an exact field.  A value is ``a + b*sqrt(n)`` with
``a``, ``b`` rational and ``n`` a fixed positive integer radicand.  When ``n``
is a perfect square the irrational part is folded into the rational part at
construction, so e.g. radicand 4 behaves as plain rationals.
"""

from __future__ import annotations

import math
from fractions import Fraction

Rational = int | Fraction


class RadicandMismatchError(ValueError):
    """Raised when two values with different radicands are combined."""


def perfect_square_root(n: int) -> int | None:
    """Return s with s*s == n, or None when n is not a perfect square."""
    if n < 0:
        return None
    s = math.isqrt(n)
    return s if s * s == n else None


class QRootN:
    """Immutable element a + b*sqrt(n) of Q(sqrt(n))."""

    __slots__ = ("a", "b", "n")

    a: Fraction
    b: Fraction
    n: int

    def __init__(self, a: Rational = 0, b: Rational = 0, n: int = 1) -> None:
        if not isinstance(n, int) or n <= 0:
            raise ValueError(f"radicand must be a positive integer, got {n!r}")
        a = Fraction(a)
        b = Fraction(b)
        s = perfect_square_root(n)
        if s is not None and b:
            a += b * s
            b = Fraction(0)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "n", n)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("QRootN is immutable")

    # -- coercion -----------------------------------------------------------

    def _coerce(self, other: object) -> "QRootN":
        if isinstance(other, QRootN):
            # radicands must agree even for purely rational values, so a
            # mixed-radicand bug cannot slip through silently
            if other.n != self.n:
                raise RadicandMismatchError(
                    f"radicand mismatch: {self.n} vs {other.n}"
                )
            return other
        if isinstance(other, (int, Fraction)):
            return QRootN(other, 0, self.n)
        raise TypeError(f"cannot combine QRootN with {type(other).__name__}")

    # -- field operations ---------------------------------------------------

    def __add__(self, other: object) -> "QRootN":
        o = self._coerce(other)
        return QRootN(self.a + o.a, self.b + o.b, self.n)

    __radd__ = __add__

    def __neg__(self) -> "QRootN":
        return QRootN(-self.a, -self.b, self.n)

    def __sub__(self, other: object) -> "QRootN":
        return self + (-self._coerce(other))

    def __rsub__(self, other: object) -> "QRootN":
        return (-self) + other

    def __mul__(self, other: object) -> "QRootN":
        o = self._coerce(other)
        return QRootN(
            self.a * o.a + self.b * o.b * self.n,
            self.a * o.b + self.b * o.a,
            self.n,
        )

    __rmul__ = __mul__

    def inverse(self) -> "QRootN":
        """Multiplicative inverse via the conjugate: (a - b*sqrt(n)) / (a^2 - b^2 n)."""
        norm = self.a * self.a - self.b * self.b * self.n
        if norm == 0:
            raise ZeroDivisionError("inverse of zero in Q(sqrt(n))")
        return QRootN(self.a / norm, -self.b / norm, self.n)

    def __truediv__(self, other: object) -> "QRootN":
        return self * self._coerce(other).inverse()

    def __rtruediv__(self, other: object) -> "QRootN":
        return self.inverse() * other

    def __pow__(self, k: int) -> "QRootN":
        if k < 0:
            return self.inverse() ** (-k)
        out = QRootN(1, 0, self.n)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    # -- predicates and conversions ----------------------------------------

    def __bool__(self) -> bool:
        return bool(self.a) or bool(self.b)

    def is_rational(self) -> bool:
        return self.b == 0

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction)):
            return self.b == 0 and self.a == other
        if isinstance(other, QRootN):
            if self.n == other.n:
                return self.a == other.a and self.b == other.b
            return self.b == 0 and other.b == 0 and self.a == other.a
        return NotImplemented

    def __hash__(self) -> int:
        if self.b == 0:
            return hash(self.a)
        return hash((self.a, self.b, self.n))

    def __float__(self) -> float:
        return float(self.a) + float(self.b) * math.sqrt(self.n)

    def __repr__(self) -> str:
        return f"QRootN({self.a}, {self.b}, {self.n})"

    def __str__(self) -> str:
        """Render as 'p/q' or 'p/q+r/s*sqrt(n)' (sign-aware)."""
        s = f"{self.a.numerator}/{self.a.denominator}"
        if self.b:
            sign = "+" if self.b > 0 else "-"
            babs = abs(self.b)
            s += f"{sign}{babs.numerator}/{babs.denominator}*sqrt({self.n})"
        return s


def sqrt_of(n: int) -> QRootN:
    """The element sqrt(n) of Q(sqrt(n))."""
    return QRootN(0, 1, n)
