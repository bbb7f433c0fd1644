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

Pi(K, ell) maps each irreducible Terwilliger module to itself, so its
spectrum comes from blocks of dimension at most 5 (``HadamardSpectra``), with
exact multiplicities; no N x N matrix is diagonalized.

Closed-form spectra published for the Hadamard family are kept in a claims
table: reports compare them against the module spectrum and flag
disagreements instead of silently correcting either side.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .eig import InvalidSpectrumError, Spectrum
from .exactmat import ExactMatrix, _qprod, commutator
from .graphs import HadamardGraph
from .qroot import QRootN
from .scheme import ModuleClass, SchemeTables, hadamard_modules
from .terwilliger import TerwilligerBasis

ENTROPY_CONSTANT = 2.0 * math.log(2.0) - 0.75 * math.log(3.0)
CLOSED_FORM_FLAG_TOL = 1e-8
# how far a float eigenvalue of a correlation matrix may fall outside [0, 1]
_CONTAINMENT_TOL = 1e-9
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


def _heun_expansion(tables: SchemeTables, family, partner: ExactMatrix,
                    column1, own: QRootN, other: QRootN) -> ExactMatrix:
    """T = sum_i (2 c_i + own) F_i X F_i + other c_i F_i
         + sum_i (c_(i-1) + c_i + own) (F_(i-1) X F_i + its transpose)
    for a family F of diagonalizing idempotents, the partner X of the family's
    generator and the column c = column1 of the family's eigenmatrix."""
    d = tables.diameter
    terms = []
    for i in range(d + 1):
        terms += [(column1[i] * 2 + own, family[i] @ partner @ family[i]),
                  (other * column1[i], family[i])]
    for i in range(1, d + 1):
        coeff = column1[i - 1] + column1[i] + own
        cross = family[i - 1] @ partner @ family[i]
        terms += [(coeff, cross), (coeff, cross.T)]
    return ExactMatrix.combination(terms, tables.vertex_count, tables.radicand)


def heun_expansion_neighbourhood(tables: SchemeTables, basis: TerwilligerBasis,
                                 mu: QRootN, nu: QRootN) -> ExactMatrix:
    """Rebuild T from its block-tridiagonal form in the dual-idempotent family."""
    q1 = [row[1] for row in tables.eigenmatrix_q]
    return _heun_expansion(tables, basis.dual_idempotents, tables.adjacency,
                           q1, nu, mu)


def heun_expansion_energy(tables: SchemeTables, basis: TerwilligerBasis,
                          mu: QRootN, nu: QRootN) -> ExactMatrix:
    """Rebuild T from its block-tridiagonal form in the idempotent family."""
    p1 = [row[1] for row in tables.eigenmatrix_p]
    return _heun_expansion(tables, tables.idempotents, basis.dual_adjacency,
                           p1, mu, nu)


# -- closed forms --------------------------------------------------------------

def closed_form_spectrum(K: int, ell: int, n: int) -> list[tuple[float, int]]:
    """Published spectrum claims for the order-n Hadamard graph, as floats.

    Callers are expected to compare these against a computed spectrum;
    several entries are known to disagree (they are claims, not ground
    truth).  Raises UncoveredSpectrumError outside the covered table.
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
                        ) -> list[ClosedFormComparison]:
    """Match each claimed cluster to the nearest observed one and flag
    mismatches in value (beyond CLOSED_FORM_FLAG_TOL) or multiplicity."""
    out = []
    observed = list(spectrum.entries)
    for cv, cm in claims:
        if observed:
            ov, om = min(observed, key=lambda e: abs(e[0] - cv))
            delta = abs(ov - cv)
            flag = delta > CLOSED_FORM_FLAG_TOL or om != cm
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


def entropy(values) -> float:
    """Von Neumann entropy of a filled-mode spectrum, in nats.

    Every eigenvalue must lie in [0, 1] within _CONTAINMENT_TOL; values are
    clamped to [0, 1] before evaluation.
    """
    if isinstance(values, Spectrum):
        pairs = list(values.entries)
    else:
        pairs = [(float(v), 1) for v in values]
    total = 0.0
    for nu, mult in pairs:
        if nu < -_CONTAINMENT_TOL or nu > 1.0 + _CONTAINMENT_TOL:
            raise InvalidSpectrumError(
                f"eigenvalue {nu} outside [-{_CONTAINMENT_TOL}, 1+{_CONTAINMENT_TOL}]")
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
                       K: int, ell: int) -> CorrelationReport:
    """Exact chopped correlation matrix with its module spectrum, entropy,
    the exact commutation status of its Heun partner and closed-form
    comparisons.

    The spectrum comes from the Terwilliger modules of the graph's order
    (``HadamardSpectra``), whose traces must sum to the exact trace of the
    matrix built here; so the tables must be those of a Hadamard graph.
    """
    if not isinstance(tables.graph, HadamardGraph):
        raise ValueError("correlation reports need the tables of a Hadamard graph")
    order = tables.graph.order
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
    spec = _spectra_of_order(order).spectrum(K, ell)
    if spec.values and (spec.values[0] < -_CONTAINMENT_TOL
                        or spec.values[-1] > 1 + _CONTAINMENT_TOL):
        raise InvalidSpectrumError(f"spectrum escapes [0, 1]: {spec}")
    d = tables.diameter
    commut: bool | None = None
    if K <= d - 1 and ell <= d - 1:
        t = heun_operator(tables, basis, K, ell)
        commut = commutator(t.matrix, pi).is_zero()
    comparisons = compare_with_claims(spec, closed_form_spectrum(K, ell, order))
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


# -- spectra by Terwilliger-module reduction -----------------------------------

def _interior_roots(s1: QRootN, s2: QRootN, count: int) -> list[float]:
    """The ``count`` eigenvalues strictly inside (0, 1) of one module block,
    from their exact power sums s1 = sum nu and s2 = sum nu^2.

    They are the roots of x - s1 (one) or of x^2 - s1 x + e2 with
    e2 = (s1^2 - s2) / 2 (two).  Checked exactly: one root needs
    s2 = s1^2, and neither 0 nor 1 may be a root, so the zeros and ones
    counted by rank are all there are; the roots must also be real and lie
    inside (0, 1).  Two roots are evaluated with the stable quadratic
    formula: the larger as (s1 + sqrt(s1^2 - 4 e2)) / 2, a sum of two
    positive terms, the smaller as e2 over the larger.
    """
    if count == 0:
        ok, roots = not s1 and not s2, []
    elif count == 1:
        ok, roots = s2 == s1 * s1 and s1 != 0 and s1 != 1, [float(s1)]
    elif count == 2:
        e2 = (s1 * s1 - s2) * Fraction(1, 2)
        disc = float(s1 * s1 - e2 * 4)
        big = (float(s1) + math.sqrt(max(disc, 0.0))) / 2
        ok = bool(e2) and bool(1 - s1 + e2) and disc >= 0.0 and big > 0.0
        roots = [big, float(e2) / big if disc else big] if ok else []
    else:
        raise InvalidSpectrumError(
            f"{count} eigenvalues left inside (0, 1); a module block has at most 2")
    if not ok or not all(0.0 < v < 1.0 for v in roots):
        raise InvalidSpectrumError(
            f"module block power sums {s1}, {s2} do not give {count} "
            "eigenvalues inside (0, 1)")
    return roots


class _ModuleTraces:
    """tr(B) and tr(B^2) of a module class's kept block B, exactly.

    B is sum_(j<b) E_(r+j) restricted to the module's first ``a`` shells, in
    the similarity form of ``ModuleClass``.  The table is held as integer
    pairs (a, b) = a + b sqrt(n), and the norms as u_j = H / h_j with
    H = lcm(h_j), once per order, so that

        tr B   = (1/H)   sum_(j<b) u_j sum_(i<a) g_i X_ij^2,
        tr B^2 = (1/H^2) sum_(i,i'<a) g_i g_i' (sum_(j<b) u_j X_ij X_i'j)^2

    take integer products only and one division each.
    """

    def __init__(self, module: ModuleClass, n: int) -> None:
        if any(v.a.denominator != 1 or v.b.denominator != 1
               for row in module.table for v in row):
            raise ValueError("module table is not in Z[sqrt(n)]")
        self.n = n
        self.endpoint, self.count = module.endpoint, module.count
        self.dim = module.dimension
        self.g = module.weights
        self.x = [[(int(v.a), int(v.b)) for v in row] for row in module.table]
        norms = [self._weighted(range(self.dim), [j], [1] * self.dim)
                 for j in range(self.dim)]
        if any(hb for _, hb in norms):
            raise ValueError("module norms h_j are not rational")
        self.h = math.lcm(*(ha for ha, _ in norms))
        self.u = [self.h // ha for ha, _ in norms]

    def _weighted(self, rows, cols, u) -> tuple[int, int]:
        """sum_(i in rows, j in cols) g_i u_j X_ij^2 as an integer pair."""
        ta = tb = 0
        for i in rows:
            for j in cols:
                xa, xb = self.x[i][j]
                sa, sb = _qprod(xa, xb, xa, xb, self.n, operator.mul)
                ta += self.g[i] * u[j] * sa
                tb += self.g[i] * u[j] * sb
        return ta, tb

    def traces(self, a: int, b: int) -> tuple[QRootN, QRootN]:
        n, g, u, x = self.n, self.g, self.u, self.x
        t1a, t1b = self._weighted(range(a), range(b), u)
        t2a = t2b = 0
        for i in range(a):
            for k in range(a):
                ya = yb = 0
                for j in range(b):
                    pa, pb = _qprod(*x[i][j], *x[k][j], n, operator.mul)
                    ya += u[j] * pa
                    yb += u[j] * pb
                sa, sb = _qprod(ya, yb, ya, yb, n, operator.mul)
                t2a += g[i] * g[k] * sa
                t2b += g[i] * g[k] * sb
        h, h2 = self.h, self.h * self.h
        return (QRootN(Fraction(t1a, h), Fraction(t1b, h), n),
                QRootN(Fraction(t2a, h2), Fraction(t2b, h2), n))


class HadamardSpectra:
    """Spectra of Pi(K, ell) for the order-n Hadamard graph from its
    Terwilliger modules, with no graph and no N x N matrix.

    Pi(K, ell) maps each irreducible T-module to itself.  On a module of
    dimension D whose first a shells lie within distance ell and whose first
    b eigenspaces are filled, it is pi1 pi2 pi1 with pi1 of rank a and pi2
    of rank b.  The module is a Leonard system, so its shell flag and its
    eigenspace flag are opposite: exactly max(0, a + b - D) eigenvalues are
    1, and max(0, a - b) of the a kept ones are 0.  The at most two left are
    roots of a monic polynomial over Q(sqrt(n)) from the exact tr(B) and
    tr(B^2), minus the ones (see ``_interior_roots``).  Multiplicities are
    module counts: exact integers, with no clustering tolerance.

    The per-order data (module tables and norms) is prepared once; each
    ``spectrum`` call checks exactly that the module traces, summed with
    their counts, equal N_ell F_K / N.
    """

    def __init__(self, n: int) -> None:
        modules = hadamard_modules(n)
        primary = modules[0]
        self.order = n
        self.vertex_count = 4 * n
        self.diameter = primary.dimension - 1
        self._modules = [_ModuleTraces(m, n) for m in modules]
        # N_ell from the valencies, F_K from the multiplicities m_j = Q_0j
        self._shells = list(itertools.accumulate(primary.weights))
        self._filled = list(itertools.accumulate(int(v.a) for v in primary.table[0]))

    def spectrum(self, K: int, ell: int) -> Spectrum:
        d = self.diameter
        if not 0 <= K <= d or not 0 <= ell <= d:
            raise ValueError(f"cutoffs must lie in [0, {d}]")
        mults: dict[float, int] = {}
        trace = QRootN(0, 0, self.order)
        for mod in self._modules:
            dim, r = mod.dim, mod.endpoint
            a = min(max(ell - r + 1, 0), dim)
            b = min(max(K - r + 1, 0), dim)
            ones, kept_zeros = max(0, a + b - dim), max(0, a - b)
            tr, tr2 = mod.traces(a, b)
            trace = trace + tr * mod.count
            values = ([0.0] * (dim - a + kept_zeros) + [1.0] * ones
                      + _interior_roots(tr - ones, tr2 - ones,
                                        a - ones - kept_zeros))
            for v in values:
                mults[v] = mults.get(v, 0) + mod.count
        expected = Fraction(self._shells[ell] * self._filled[K], self.vertex_count)
        if trace != expected:
            raise InvalidSpectrumError(
                f"module traces sum to {trace}, not N_ell F_K / N = {expected}")
        if sum(mults.values()) != self.vertex_count:
            raise InvalidSpectrumError("module dimensions do not add up to N")
        entries = tuple(sorted(mults.items()))
        check = abs(sum(v * m for v, m in entries) - float(expected))
        return Spectrum(entries, trace_check=check)


@functools.lru_cache(maxsize=8)
def _spectra_of_order(n: int) -> HadamardSpectra:
    """``HadamardSpectra(n)``, built once per order for ``correlation_report``."""
    return HadamardSpectra(n)


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


def entropy_sweep(orders, pairs) -> list[EntropySweepRow]:
    """Entropies for each (Hadamard order, K, ell) job, with the relevant
    asymptotic comparison attached; the module data is built once per order."""
    rows = []
    for n in orders:
        spectra = HadamardSpectra(n)
        for K, ell in pairs:
            s = entropy(spectra.spectrum(K, ell))
            label, delta = _sweep_limit(K, ell, n, s)
            rows.append(EntropySweepRow(
                order=n, energy_cut=K, neighbourhood_cut=ell, entropy=s,
                entropy_per_order=s / n,
                entropy_log_scaled=s * 4 * n / math.log(n),
                limit_label=label, limit_delta=delta,
            ))
    return rows
