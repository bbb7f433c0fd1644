"""Correlation projectors, the commuting Heun operator, spectra and entropy.

The ground state of free fermions hopping along a graph fills consecutive
eigenspaces of the adjacency matrix, so the full correlation matrix is the
projector pi2(K) onto the first K+1 eigenspaces (in the self-dual ordering
used throughout this package).  Restricting to the first ell neighbourhoods
of the base vertex with the diagonal projector pi1(ell) gives the chopped
correlation matrix

    Pi(K, ell) = pi1(ell) pi2(K) pi1(ell),

whose eigenvalues nu in [0, 1] determine the entanglement Hamiltonian
log((1-Pi)/Pi) and the von Neumann entropy.  The block-tridiagonal operator

    T(K, ell) = {A, A*} + mu A* + nu A,
    mu = -(P[K,1] + P[K+1,1]),  nu = -(Q[ell,1] + Q[ell+1,1]),

commutes exactly with both projectors and hence with Pi(K, ell).

Shifting the Hamiltonian by a multiple of the identity (a constant chemical
potential) only relabels which K is the Fermi level; K is therefore taken as
a direct parameter everywhere.

Closed-form spectra published for the Hadamard family are kept in a claims
table: reports compare them against the numerically computed spectrum and
flag disagreements instead of silently correcting either side.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .eig import (DEFAULT_CLUSTER_TOL, DEFAULT_EIG_TOL, InvalidSpectrumError,
                  Spectrum, cluster_spectrum, symmetric_eig)
from .exactmat import ExactMatrix, commutator
from .qroot import QRootN
from .scheme import SchemeTables, hadamard_pq_matrix
from .terwilliger import TerwilligerBasis

ENTROPY_CONSTANT = 2.0 * math.log(2.0) - 0.75 * math.log(3.0)
CLOSED_FORM_FLAG_TOL = 1e-8
DEFAULT_MODE_EPSILON = 1e-12


class UncoveredSpectrumError(ValueError):
    """No published closed form for this (K, ell) pair."""


# -- projectors ---------------------------------------------------------------

@dataclass(frozen=True)
class ProjectorPair:
    neighbourhood_cut: int       # ell
    energy_cut: int              # K
    pi1: ExactMatrix             # sum of the first ell+1 dual idempotents
    pi2: ExactMatrix             # sum of the first K+1 idempotents
    support: np.ndarray          # boolean, vertices within distance ell

    @property
    def sites(self) -> int:
        return int(self.support.sum())


def projector_pair(tables: SchemeTables, basis: TerwilligerBasis,
                   K: int, ell: int) -> ProjectorPair:
    d = tables.diameter
    if not 0 <= K <= d or not 0 <= ell <= d:
        raise ValueError(f"cutoffs must lie in [0, {d}]")
    pi1 = ExactMatrix.combination(
        [(1, e) for e in basis.dual_idempotents[: ell + 1]],
        tables.vertex_count, tables.radicand)
    pi2 = ground_state_correlation(tables, K)
    support = np.array([bool(pi1.ra[i, i]) for i in range(pi1.dim)])
    return ProjectorPair(neighbourhood_cut=ell, energy_cut=K,
                         pi1=pi1, pi2=pi2, support=support)


def ground_state_correlation(tables: SchemeTables, K: int) -> ExactMatrix:
    """Full correlation matrix of the filled state: the projector pi2(K)."""
    d = tables.diameter
    if not 0 <= K <= d:
        raise ValueError(f"energy cutoff must lie in [0, {d}]")
    return ExactMatrix.combination([(1, e) for e in tables.idempotents[: K + 1]],
                                   tables.vertex_count, tables.radicand)


def chopped_correlation(tables: SchemeTables, basis: TerwilligerBasis,
                        K: int, ell: int) -> ExactMatrix:
    """Pi(K, ell) = pi1(ell) pi2(K) pi1(ell), exact."""
    pair = projector_pair(tables, basis, K, ell)
    return pair.pi2.masked_support(pair.support)


def dual_correlation(tables: SchemeTables, basis: TerwilligerBasis,
                     K: int, ell: int) -> ExactMatrix:
    """pi2(K) pi1(ell) pi2(K); shares its nonzero spectrum with Pi(K, ell)."""
    pair = projector_pair(tables, basis, K, ell)
    return pair.pi2 @ pair.pi1 @ pair.pi2


# -- Heun operator -------------------------------------------------------------

@dataclass(frozen=True)
class HeunOperator:
    energy_cut: int
    neighbourhood_cut: int
    mu: QRootN
    nu: QRootN
    matrix: ExactMatrix


def heun_operator(tables: SchemeTables, basis: TerwilligerBasis,
                  K: int, ell: int) -> HeunOperator:
    """T(K, ell) = {A, A*} + mu A* + nu A with the commuting parameter choice."""
    d = tables.diameter
    if not 0 <= K <= d - 1 or not 0 <= ell <= d - 1:
        raise ValueError(
            f"need K, ell in [0, {d - 1}]: the parameters use row K+1 / ell+1")
    a = tables.adjacency
    astar = basis.dual_adjacency
    mu = -(tables.eigenmatrix_p[K][1] + tables.eigenmatrix_p[K + 1][1])
    nu = -(tables.eigenmatrix_q[ell][1] + tables.eigenmatrix_q[ell + 1][1])
    t = ExactMatrix.combination([(1, a @ astar), (1, astar @ a), (mu, astar),
                                 (nu, a)], a.dim, a.radicand)
    return HeunOperator(energy_cut=K, neighbourhood_cut=ell,
                        mu=mu, nu=nu, matrix=t)


def heun_expansion_neighbourhood(tables: SchemeTables, basis: TerwilligerBasis,
                                 mu: QRootN, nu: QRootN) -> ExactMatrix:
    """Rebuild T from its block-tridiagonal form in the dual-idempotent family."""
    d = tables.diameter
    a = tables.adjacency
    estars = basis.dual_idempotents
    q1 = [tables.eigenmatrix_q[i][1] for i in range(d + 1)]
    terms = []
    for i in range(d + 1):
        terms += [(q1[i] * 2 + nu, estars[i] @ a @ estars[i]),
                  (mu * q1[i], estars[i])]
    for i in range(1, d + 1):
        coeff = q1[i - 1] + q1[i] + nu
        cross = estars[i - 1] @ a @ estars[i]
        terms += [(coeff, cross), (coeff, cross.T)]
    return ExactMatrix.combination(terms, tables.vertex_count, tables.radicand)


def heun_expansion_energy(tables: SchemeTables, basis: TerwilligerBasis,
                          mu: QRootN, nu: QRootN) -> ExactMatrix:
    """Rebuild T from its block-tridiagonal form in the idempotent family."""
    d = tables.diameter
    astar = basis.dual_adjacency
    es = tables.idempotents
    p1 = [tables.eigenmatrix_p[i][1] for i in range(d + 1)]
    terms = []
    for i in range(d + 1):
        terms += [(p1[i] * 2 + mu, es[i] @ astar @ es[i]), (nu * p1[i], es[i])]
    for i in range(1, d + 1):
        coeff = p1[i - 1] + p1[i] + mu
        cross = es[i - 1] @ astar @ es[i]
        terms += [(coeff, cross), (coeff, cross.T)]
    return ExactMatrix.combination(terms, tables.vertex_count, tables.radicand)


# -- spectra -------------------------------------------------------------------

def spectrum_numeric(m: ExactMatrix, cluster_tol: float = DEFAULT_CLUSTER_TOL,
                     eig_tol: float = DEFAULT_EIG_TOL) -> Spectrum:
    """Cluster the float spectrum of an exact symmetric matrix, with the trace
    check done against the exact trace."""
    values, _ = symmetric_eig(m.to_float(), tol=eig_tol)
    spec = cluster_spectrum(values, tol=cluster_tol, trace=float(m.trace()))
    if spec.trace_check > max(cluster_tol, 1e-12) * m.dim:
        raise InvalidSpectrumError(
            f"eigenvalue sum misses the exact trace by {spec.trace_check:.3e}")
    return spec


def closed_form_spectrum(K: int, ell: int, n: int) -> list[tuple[float, int]]:
    """Published spectrum claims for the order-n Hadamard graph, as floats.

    Callers are expected to compare these against a numerically computed
    spectrum; several entries are known to disagree (they are claims, not
    ground truth).  Raises UncoveredSpectrumError outside the covered table.
    """
    d = 4
    if not 0 <= K <= d or not 0 <= ell <= d:
        raise UncoveredSpectrumError(f"cutoffs out of range for diameter {d}")
    bign = 4 * n
    cum = [1, n + 1, 3 * n - 1, 4 * n - 1, 4 * n]  # shell/multiplicity partial sums
    nl, fk = cum[ell], cum[K]
    rt = math.sqrt(n)
    if K == d and ell == d:
        ent = [(1.0, bign)]
    elif K == d:
        ent = [(0.0, bign - nl), (1.0, nl)]
    elif ell == d:
        ent = [(0.0, bign - fk), (1.0, fk)]
    elif K == 0 and ell == 0:
        ent = [(0.0, bign - 1), (1.0 / bign, 1)]
    elif K == 0:
        ent = [(0.0, bign - 1), (nl / bign, 1)]
    elif ell == 0:
        ent = [(0.0, bign - 1), (fk / bign, 1)]
    else:
        pair = frozenset((K, ell))
        if pair == frozenset((1, 3)):
            ent = [(0.0, 3 * n - 1), ((3 * n - 1) / (4 * n), 1), (1.0, n)]
        elif pair == frozenset((2, 3)):
            ent = [(0.0, n + 1), ((n + 1) / (4 * n), 1), (1.0, 3 * n - 2)]
        elif pair == frozenset((3,)):
            ent = [(0.0, 1), (1.0 / (4 * n), 1), (1.0, 4 * n - 2)]
        elif pair == frozenset((1,)):
            r = math.sqrt(16 * n + 32 * rt + 25)
            ent = [(0.0, 3 * n - 1), ((2 * n + 5 - r) / (8 * n), 1),
                   (0.25, n - 1), ((2 * n + 5 + r) / (8 * n), 1)]
        elif pair == frozenset((1, 2)):
            r = math.sqrt(16 * n + 32 * rt + 25)
            ent = [(0.0, 3 * n - 1), ((6 * n - 5 - r) / (8 * n), 1),
                   (0.75, n - 1), ((6 * n - 5 + r) / (8 * n), 1)]
        elif pair == frozenset((2,)):
            r = math.sqrt(5 * n * n + 8 * n ** 1.5 - 4 * rt - 5)
            ent = [(0.0, n + 1), ((3 * n - 1 - r) / (8 * n), 1), (0.25, n - 1),
                   ((3 * n - 1 + r) / (8 * n), 1), (1.0, 2 * n - 2)]
        else:  # unreachable for d = 4
            raise UncoveredSpectrumError(f"no table entry for {(K, ell)}")
    return sorted(ent)


@dataclass(frozen=True)
class ClosedFormComparison:
    claimed_value: float
    claimed_mult: int
    observed_value: float | None
    observed_mult: int | None
    abs_delta: float | None
    flag: bool


def compare_with_claims(spectrum: Spectrum, claims: list[tuple[float, int]],
                        tol: float = CLOSED_FORM_FLAG_TOL,
                        ) -> list[ClosedFormComparison]:
    """Match each claimed cluster to the nearest observed one and flag
    mismatches in value (beyond tol) or multiplicity."""
    out = []
    observed = list(spectrum.entries)
    for cv, cm in claims:
        if observed:
            ov, om = min(observed, key=lambda e: abs(e[0] - cv))
            delta = abs(ov - cv)
            flag = delta > tol or om != cm
            out.append(ClosedFormComparison(cv, cm, ov, om, delta, flag))
        else:
            out.append(ClosedFormComparison(cv, cm, None, None, None, True))
    return out


# -- entanglement Hamiltonian and entropy ---------------------------------------

def entanglement_hamiltonian(values, eps: float = DEFAULT_MODE_EPSILON,
                             ) -> tuple[list[tuple[float, float]], int]:
    """Single-particle energies omega = log((1 - nu)/nu) of the finite modes.

    Modes with nu < eps or nu > 1 - eps carry omega = +-inf and contribute
    nothing to the entropy; they are excluded and counted, not hidden.
    """
    if not 0.0 < eps < 0.5:
        raise ValueError("eps must lie in (0, 1/2)")
    if isinstance(values, Spectrum):
        values = values.flatten()
    modes: list[tuple[float, float]] = []
    excluded = 0
    for nu in values:
        if eps <= nu <= 1.0 - eps:
            modes.append((nu, math.log((1.0 - nu) / nu)))
        else:
            excluded += 1
    return modes, excluded


def binary_entropy(nu: float) -> float:
    """-(nu ln nu + (1-nu) ln(1-nu)), in nats, with 0 ln 0 = 0."""
    s = 0.0
    for x in (nu, 1.0 - nu):
        if x > 0.0:
            s -= x * math.log(x)
    return s


def entropy(values, tol: float = 1e-9) -> float:
    """Von Neumann entropy of a filled-mode spectrum, in nats.

    Every eigenvalue must lie in [-tol, 1 + tol]; values are clamped to [0, 1]
    before evaluation.
    """
    if isinstance(values, Spectrum):
        pairs = list(values.entries)
    else:
        pairs = [(float(v), 1) for v in values]
    total = 0.0
    for nu, mult in pairs:
        if nu < -tol or nu > 1.0 + tol:
            raise InvalidSpectrumError(
                f"eigenvalue {nu} outside [-{tol}, 1+{tol}]")
        total += mult * binary_entropy(min(1.0, max(0.0, nu)))
    return total


# -- reports --------------------------------------------------------------------

@dataclass(frozen=True)
class CorrelationReport:
    order: int
    energy_cut: int
    neighbourhood_cut: int
    matrix: ExactMatrix
    trace_exact: QRootN
    spectrum: Spectrum
    entropy_value: float
    commutator_exact_zero: bool | None
    closed_form: tuple[ClosedFormComparison, ...]

    def to_payload(self) -> dict:
        return {
            "n": self.order,
            "K": self.energy_cut,
            "ell": self.neighbourhood_cut,
            "trace_exact": str(self.trace_exact),
            "spectrum": [{"value": v, "mult": m} for v, m in self.spectrum.entries],
            "entropy": self.entropy_value,
            "commutator_exact_zero": self.commutator_exact_zero,
            "closed_form_flags": [
                {
                    "claimed_value": c.claimed_value,
                    "claimed_mult": c.claimed_mult,
                    "observed_value": c.observed_value,
                    "observed_mult": c.observed_mult,
                    "abs_delta": c.abs_delta,
                    "flag": c.flag,
                }
                for c in self.closed_form
            ],
        }


def correlation_report(tables: SchemeTables, basis: TerwilligerBasis,
                       K: int, ell: int,
                       cluster_tol: float = DEFAULT_CLUSTER_TOL,
                       ) -> CorrelationReport:
    """Exact chopped correlation matrix with spectrum, entropy, the exact
    commutation status of its Heun partner and closed-form comparisons."""
    pair = projector_pair(tables, basis, K, ell)
    pi = pair.pi2.masked_support(pair.support)
    tr = pi.trace()
    # trace identity: constant idempotent diagonals force N_ell * F_K / N
    nl = pair.sites
    fk = tables.cumulative_multiplicities()[K]
    expected = QRootN(Fraction(nl * fk, tables.vertex_count), 0, tables.radicand)
    if tr != expected:
        raise InvalidSpectrumError(
            f"trace {tr} differs from N_ell F_K / N = {expected}")
    spec = spectrum_numeric(pi, cluster_tol=cluster_tol)
    if spec.values and (spec.values[0] < -1e-9 or spec.values[-1] > 1 + 1e-9):
        raise InvalidSpectrumError(f"spectrum escapes [0, 1]: {spec}")
    d = tables.diameter
    commut: bool | None = None
    if K <= d - 1 and ell <= d - 1:
        t = heun_operator(tables, basis, K, ell)
        commut = commutator(t.matrix, pi).is_zero()
    order = getattr(tables.graph, "order", 0)
    try:
        claims = closed_form_spectrum(K, ell, order) if order else []
    except UncoveredSpectrumError:
        claims = []
    comparisons = compare_with_claims(spec, claims)
    return CorrelationReport(
        order=order,
        energy_cut=K,
        neighbourhood_cut=ell,
        matrix=pi,
        trace_exact=tr,
        spectrum=spec,
        entropy_value=entropy(spec),
        commutator_exact_zero=commut,
        closed_form=tuple(comparisons),
    )


# -- float pipeline for large orders ---------------------------------------------

def hadamard_entropy_numeric(graph, K: int, ell: int,
                             cluster_tol: float = DEFAULT_CLUSTER_TOL,
                             ) -> tuple[float, Spectrum]:
    """Entropy of Pi(K, ell) for a Hadamard graph, float path.

    Suitable for large orders: only the supported principal block of pi2(K)
    is built, from E_j = (1/N) sum_i Q_ij A_i with the closed-form Q table,
    and diagonalized; the remaining eigenvalues are exact zeros by support.
    """
    d = graph.diameter
    if not 0 <= K <= d or not 0 <= ell <= d:
        raise ValueError(f"cutoffs must lie in [0, {d}]")
    dist = graph.distance_matrices
    support = np.zeros(graph.vertex_count, dtype=bool)
    for s in range(ell + 1):
        support |= dist[s].ra[0].astype(bool)
    q = hadamard_pq_matrix(graph.order)
    sub = np.ix_(support, support)
    block = np.zeros((int(support.sum()),) * 2)
    for i, a in enumerate(dist):
        weight = float(sum(q[i][: K + 1], QRootN(0, 0, graph.order)))
        block += weight * a.ra[sub].astype(float)
    values, _ = symmetric_eig(block / graph.vertex_count)
    padded = np.concatenate([np.zeros(graph.vertex_count - block.shape[0]),
                             values])
    padded.sort()
    spec = cluster_spectrum(padded, tol=cluster_tol)
    return entropy(spec), spec


@dataclass(frozen=True)
class EntropySweepRow:
    order: int
    energy_cut: int
    neighbourhood_cut: int
    entropy: float
    entropy_per_order: float
    entropy_log_scaled: float     # S * 4n / ln(n)
    limit_label: str
    limit_delta: float | None


def _sweep_limit(K: int, ell: int, n: int, s: float) -> tuple[str, float | None]:
    pair = frozenset((K, ell))
    if pair in (frozenset((1, 3)), frozenset((2, 3))):
        return "S -> 2ln2 - (3/4)ln3", s - ENTROPY_CONSTANT
    if pair == frozenset((3,)):
        return "S*4n/ln(n) -> 1", s * 4 * n / math.log(n) - 1.0
    if pair in (frozenset((1,)), frozenset((1, 2)), frozenset((2,))):
        return "S/n -> 2ln2 - (3/4)ln3", s / n - ENTROPY_CONSTANT
    return "", None


def entropy_sweep(graphs, pairs) -> list[EntropySweepRow]:
    """Numerically computed entropies for each (graph order, K, ell) job,
    with the relevant asymptotic comparison attached."""
    rows = []
    for graph in graphs:
        n = getattr(graph, "order", 0)
        for K, ell in pairs:
            s, _ = hadamard_entropy_numeric(graph, K, ell)
            label, delta = _sweep_limit(K, ell, n, s)
            rows.append(EntropySweepRow(
                order=n, energy_cut=K, neighbourhood_cut=ell, entropy=s,
                entropy_per_order=s / n,
                entropy_log_scaled=s * 4 * n / math.log(n) if n > 1 else float("nan"),
                limit_label=label, limit_delta=delta,
            ))
    return rows
