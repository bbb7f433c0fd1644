"""Hadamard matrices and the derived row/column blocks.

Constructions: Sylvester doubling for orders 2^k and the quadratic-residue
(Paley) border construction for orders q+1 with q prime, q = 3 (mod 4).
Everything here is plain integer arithmetic; exactness costs nothing.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

SYLVESTER_MAX_EXPONENT = 12
PALEY_MAX_ORDER = 4096


class NotHadamardError(ValueError):
    """A +-1 matrix failed H H^T = n I."""


@dataclass(frozen=True)
class HadamardMatrix:
    """Order-n matrix over {+1, -1} with pairwise orthogonal rows."""

    order: int
    entries: np.ndarray  # int8-ish ints, shape (n, n)

    def __post_init__(self) -> None:
        ok, dev = verify_array(self.entries)
        if not ok:
            raise NotHadamardError(f"H H^T deviates from n I by {dev}")

    def is_normalized(self) -> bool:
        return bool((self.entries[0, :] == 1).all() and (self.entries[:, 0] == 1).all())

    def to_json(self) -> str:
        rows = [[int(v) for v in row] for row in self.entries]
        return json.dumps({"order": self.order, "rows": rows})

    @classmethod
    def from_json(cls, text: str) -> "HadamardMatrix":
        """Parse ``{"order": n, "rows": [[...], ...]}``; an entry other than
        the JSON integers 1 and -1 raises ValueError instead of being cast."""
        data = json.loads(text)
        # type() rather than isinstance(): bool is a subclass of int
        if any(type(v) is not int or v not in (1, -1)
               for row in data["rows"] for v in row):
            raise ValueError("matrix entries must be the JSON integers 1 and -1")
        rows = np.array(data["rows"], dtype=int)
        if rows.shape != (data["order"], data["order"]):
            raise ValueError("rows do not match the declared order")
        return cls(order=int(data["order"]), entries=rows)

    @classmethod
    def load(cls, path: str | Path) -> "HadamardMatrix":
        return cls.from_json(Path(path).read_text())

    def save(self, path: str | Path) -> None:
        Path(path).write_text(self.to_json() + "\n")


def verify_array(entries: np.ndarray) -> tuple[bool, int]:
    """Check H H^T == n I for a square +-1 integer array.

    Returns (ok, max absolute deviation).  Non +-1 entries fail immediately.
    The Gram matrix is computed in float64 and is exact: every partial sum
    of its entries is an integer of magnitude at most n < 2^53.
    """
    h = np.asarray(entries)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        return False, -1
    if not np.isin(h, (-1, 1)).all():
        return False, -1
    n = h.shape[0]
    hf = h.astype(np.float64)
    gram = hf @ hf.T
    gram[np.diag_indices(n)] -= n
    dev = int(np.abs(gram).max(initial=0))
    return dev == 0, dev


def verify(h: HadamardMatrix | np.ndarray) -> tuple[bool, int]:
    entries = h.entries if isinstance(h, HadamardMatrix) else h
    return verify_array(entries)


def sylvester(k: int) -> HadamardMatrix:
    """Normalized Hadamard matrix of order 2^k by doubling [[H, H], [H, -H]]."""
    if not 0 <= k <= SYLVESTER_MAX_EXPONENT:
        raise ValueError(f"Sylvester exponent must be in [0, {SYLVESTER_MAX_EXPONENT}]")
    h = np.array([[1]], dtype=int)
    for _ in range(k):
        h = np.block([[h, h], [h, -h]])
    return HadamardMatrix(order=2**k, entries=h)


def _is_prime(q: int) -> bool:
    if q < 2:
        return False
    if q % 2 == 0:
        return q == 2
    f = 3
    while f * f <= q:
        if q % f == 0:
            return False
        f += 2
    return True


def paley(q: int) -> HadamardMatrix:
    """Normalized Hadamard matrix of order q+1 for a prime q = 3 (mod 4).

    Builds the skew circulant of Legendre symbols with an all-ones border,
    then normalizes the first column.
    """
    if not _is_prime(q):
        raise ValueError(f"{q} is not prime")
    if q % 4 != 3:
        raise ValueError(f"{q} = {q % 4} (mod 4); the construction needs 3 (mod 4)")
    if q + 1 > PALEY_MAX_ORDER:
        raise ValueError(f"order {q + 1} exceeds cap {PALEY_MAX_ORDER}")
    chi = np.zeros(q, dtype=int)
    for a in range(1, q):
        chi[a] = 1 if pow(a, (q - 1) // 2, q) == 1 else -1
    n = q + 1
    h = np.ones((n, n), dtype=int)
    for i in range(q):
        h[i + 1, 0] = -1
        for j in range(q):
            v = chi[(i - j) % q]
            h[i + 1, j + 1] = v if v != 0 else 1  # chi(0) slot carries the identity
    return normalize(HadamardMatrix(order=n, entries=h))


def normalize(h: HadamardMatrix) -> HadamardMatrix:
    """Negate rows/columns so the first row and column are all +1."""
    e = h.entries.copy()
    for j in range(h.order):
        if e[0, j] == -1:
            e[:, j] *= -1
    for i in range(h.order):
        if e[i, 0] == -1:
            e[i, :] *= -1
    return HadamardMatrix(order=h.order, entries=e)


@dataclass(frozen=True)
class CoreBlocks:
    """H with its first column deleted, and the two 0/1 halves it induces."""

    hbar: np.ndarray  # n x (n-1), entries +-1
    m1: np.ndarray    # n x (2n-2), entries 0/1
    m2: np.ndarray    # n x (2n-2), entries 0/1


def core_blocks(h: HadamardMatrix) -> CoreBlocks:
    """Split a normalized Hadamard matrix into the blocks M1 = (J+Hbar | J-Hbar)/2
    and M2 = (J-Hbar | J+Hbar)/2 used by the distance-matrix block formulas."""
    if not h.is_normalized():
        raise ValueError("core blocks need a normalized Hadamard matrix")
    n = h.order
    hbar = h.entries[:, 1:].astype(object)
    j = np.ones((n, n - 1), dtype=object)
    m1 = np.concatenate([(j + hbar) // 2, (j - hbar) // 2], axis=1)
    m2 = np.concatenate([(j - hbar) // 2, (j + hbar) // 2], axis=1)
    return CoreBlocks(hbar=hbar, m1=m1, m2=m2)
