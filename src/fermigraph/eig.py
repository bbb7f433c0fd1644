"""Float spectra with exact multiplicities.

Spectra come from the Terwilliger modules (``entangle.HadamardSpectra``); no
eigensolver runs in this package.
"""

from __future__ import annotations

from dataclasses import dataclass

# no spectrum in src is clustered by tolerance; perfbench/workloads.py imports
# this as its absolute float tolerance for spectrum values and entropies
DEFAULT_CLUSTER_TOL = 1e-8


class InvalidSpectrumError(ValueError):
    """A spectrum violates a required containment (e.g. outside [0, 1])."""


@dataclass(frozen=True)
class Spectrum:
    """Distinct eigenvalues with multiplicities, ascending."""

    entries: tuple[tuple[float, int], ...]
    trace_check: float = 0.0

    @property
    def values(self) -> list[float]:
        return [v for v, _ in self.entries]

    @property
    def multiplicities(self) -> list[int]:
        return [m for _, m in self.entries]

    def total(self) -> int:
        return sum(m for _, m in self.entries)

    def flatten(self) -> list[float]:
        out: list[float] = []
        for v, m in self.entries:
            out.extend([v] * m)
        return out

    def __str__(self) -> str:
        return "{" + ", ".join(f"{v:.12g}^({m})" for v, m in self.entries) + "}"
