import math
from fractions import Fraction

import numpy as np
import pytest

from fermigraph import (ExactMatrix, QRootN, binary_entropy,
                        chopped_correlation, closed_form_spectrum,
                        compare_with_claims, correlation_report,
                        dual_correlation, entangle, entanglement_hamiltonian,
                        entropy, entropy_sweep, ground_state_correlation,
                        heun_expansion_energy,
                        heun_expansion_neighbourhood, heun_operator,
                        projector_pair)
from fermigraph.eig import InvalidSpectrumError, Spectrum
from fermigraph.entangle import UncoveredSpectrumError
from fermigraph.exactmat import commutator
from fermigraph.qroot import sqrt_of
from tests.conftest import hadamard_context, hypercube_context, paley_context
from tests.dense_spectrum_reference import spectrum_numeric
from tests.explicit_forms import explicit_chopped


@pytest.mark.parametrize("n", [2, 4, 8])
def test_projectors_are_idempotent_with_correct_traces(n):
    _, tables, basis = hadamard_context(n)
    d = tables.diameter
    cum_n = tables.cumulative_shell_sizes()
    cum_f = tables.cumulative_multiplicities()
    for cut in range(d + 1):
        pair = projector_pair(tables, basis, cut, cut)
        assert pair.pi1 @ pair.pi1 == pair.pi1
        assert pair.pi2 @ pair.pi2 == pair.pi2
        assert pair.pi1.trace() == QRootN(cum_n[cut], 0, n)
        assert pair.pi2.trace() == QRootN(cum_f[cut], 0, n)


def test_ground_state_correlation_limits(had4):
    _, tables, _ = had4
    assert ground_state_correlation(tables, 4) == \
        ExactMatrix.identity(16, 4)
    assert ground_state_correlation(tables, 0) == \
        ExactMatrix.ones(16, 4).scale(Fraction(1, 16))
    assert ground_state_correlation(tables, 1).trace() == QRootN(5, 0, 4)
    with pytest.raises(ValueError):
        ground_state_correlation(tables, 5)


def test_chopped_trivial_cases(had4):
    _, tables, basis = had4
    assert chopped_correlation(tables, basis, 4, 4) == \
        ExactMatrix.identity(16, 4)
    pi00 = chopped_correlation(tables, basis, 0, 0)
    assert pi00.entry(0, 0) == QRootN(Fraction(1, 16), 0, 4)
    assert pi00.trace() == pi00.entry(0, 0)


@pytest.mark.parametrize("n", [2, 4, 8])
def test_exact_trace_identity_all_pairs(n):
    _, tables, basis = hadamard_context(n)
    cum = tables.cumulative_shell_sizes()
    for K in range(5):
        for ell in range(5):
            pi = chopped_correlation(tables, basis, K, ell)
            expected = Fraction(cum[ell] * cum[K], 4 * n)
            assert pi.trace() == QRootN(expected, 0, n)


def test_pi22_trace_oracle(had4):
    """Trace from the shell-by-shell overlap sums, independently of masking."""
    _, tables, basis = had4
    n = 4
    acc = QRootN(0, 0, n)
    for k in range(3):
        ek = tables.idempotents[k]
        for s in range(3):
            overlap = (ek @ basis.dual_idempotents[s]).trace()
            assert overlap == QRootN(
                Fraction(tables.valencies[s] * tables.multiplicities[k], 16),
                0, n)
            acc = acc + overlap
    assert acc == QRootN(Fraction(121, 16), 0, n)
    assert chopped_correlation(tables, basis, 2, 2).trace() == acc


@pytest.mark.parametrize("n", [2, 4, 8])
@pytest.mark.parametrize("a,b", [(1, 1), (2, 1), (3, 1), (1, 2), (2, 2),
                                 (3, 2), (1, 3), (2, 3), (3, 3)])
def test_pipeline_matches_explicit_blocks(n, a, b):
    graph, tables, basis = hadamard_context(n)
    assert chopped_correlation(tables, basis, b, a) == \
        explicit_chopped(graph, a, b)


@pytest.mark.parametrize("K,ell,expected", [
    (1, 3, ((0.0, 11), (11 / 16, 1), (1.0, 4))),
    (2, 3, ((0.0, 5), (5 / 16, 1), (1.0, 10))),
    (3, 3, ((0.0, 1), (1 / 16, 1), (1.0, 14))),
])
def test_reference_spectra_order_four(had4, K, ell, expected):
    _, tables, basis = had4
    spec = spectrum_numeric(chopped_correlation(tables, basis, K, ell))
    assert spec.multiplicities == [m for _, m in expected]
    assert np.allclose(spec.values, [v for v, _ in expected], atol=1e-9)


@pytest.mark.parametrize("n", [4, 8, 16])
def test_simple_pair_shared_between_cuts(n):
    """The two simple eigenvalues of the (1,1) and (2,2) restrictions agree,
    and the (1,2) pair is their reflection about 1/2."""
    _, tables, basis = hadamard_context(n)
    r = math.sqrt(5 * n * n + 8 * n ** 1.5 + 2 * n + 1)
    lo, hi = (3 * n + 1 - r) / (8 * n), (3 * n + 1 + r) / (8 * n)

    spec11 = spectrum_numeric(chopped_correlation(tables, basis, 1, 1))
    assert spec11.multiplicities == [3 * n - 1, 1, n - 1, 1]
    assert np.allclose([spec11.values[1], spec11.values[3]], [lo, hi],
                       atol=1e-9)

    spec22 = spectrum_numeric(chopped_correlation(tables, basis, 2, 2))
    assert np.allclose([spec22.values[1], spec22.values[3]], [lo, hi],
                       atol=1e-9)

    spec12 = spectrum_numeric(chopped_correlation(tables, basis, 2, 1))
    assert spec12.multiplicities == [3 * n - 1, 1, n - 1, 1]
    assert np.allclose([spec12.values[1], spec12.values[3]],
                       [1 - hi, 1 - lo], atol=1e-9)


@pytest.mark.parametrize("n", [4, 16])
def test_cospectrality(n):
    _, tables, basis = hadamard_context(n)
    for K in range(5):
        for ell in range(5):
            c = chopped_correlation(tables, basis, K, ell)
            d_mat = dual_correlation(tables, basis, K, ell)
            swapped = chopped_correlation(tables, basis, ell, K)
            ref = sorted(v for v in np.linalg.eigvalsh(c.to_float())
                         if v > 1e-9)
            for other in (d_mat, swapped):
                vals = sorted(v for v in np.linalg.eigvalsh(other.to_float())
                              if v > 1e-9)
                assert len(vals) == len(ref)
                assert np.allclose(vals, ref, atol=1e-9)


def test_dual_correlation_at_full_energy(had4):
    _, tables, basis = had4
    d_mat = dual_correlation(tables, basis, 4, 2)
    pair = projector_pair(tables, basis, 4, 2)
    assert d_mat == pair.pi1
    spec = spectrum_numeric(d_mat)
    assert spec.multiplicities == [16 - 11, 11]


@pytest.mark.parametrize("n", [2, 4])
def test_heun_commutes_exactly_everywhere(n):
    _, tables, basis = hadamard_context(n)
    for K in range(4):
        for ell in range(4):
            t = heun_operator(tables, basis, K, ell)
            pair = projector_pair(tables, basis, K, ell)
            pi = pair.pi2.masked_support(pair.support)
            assert commutator(t.matrix, pair.pi1).is_zero()
            assert commutator(t.matrix, pair.pi2).is_zero()
            assert commutator(t.matrix, pi).is_zero()


def test_heun_rejects_boundary_cuts(had4):
    _, tables, basis = had4
    with pytest.raises(ValueError):
        heun_operator(tables, basis, 4, 2)
    with pytest.raises(ValueError):
        heun_operator(tables, basis, 2, 4)


@pytest.mark.parametrize("n", [4, 8, 16])
def test_heun_22_block_coefficients(n):
    """T(2,2) must be exactly the pentadiagonal block matrix with diagonal
    shell values (n^{3/2}, n, 0, -n, -n^{3/2}) and couplings
    (n + 2 sqrt n, 2 sqrt n, 0, -n)."""
    graph, tables, basis = hadamard_context(n)
    t = heun_operator(tables, basis, 2, 2)
    assert t.mu == sqrt_of(n) and t.nu == sqrt_of(n)
    estars = basis.dual_idempotents
    a = tables.adjacency
    diag_coeffs = [QRootN(0, n, n), QRootN(n, 0, n), QRootN(0, 0, n),
                   QRootN(-n, 0, n), QRootN(0, -n, n)]
    couplings = [QRootN(n, 2, n), QRootN(0, 2, n), QRootN(0, 0, n),
                 QRootN(-n, 0, n)]
    expected = ExactMatrix.zeros(tables.vertex_count, n)
    for i, c in enumerate(diag_coeffs):
        expected = expected + estars[i].scale(c)
    for i, c in enumerate(couplings, start=1):
        cross = estars[i - 1] @ a @ estars[i]
        expected = expected + (cross + cross.T).scale(c)
    assert t.matrix == expected
    # explicit corner blocks: top-left scalar and the 2 sqrt(n) M1 coupling
    assert t.matrix.entry(0, 0) == QRootN(0, n, n)
    assert t.matrix.entry(0, 1) == QRootN(n, 2, n)
    m1 = graph.blocks.m1
    shell2 = 1 + n
    for i in range(n):
        for j in range(2 * n - 2):
            assert t.matrix.entry(1 + i, shell2 + j) == \
                QRootN(0, 2 * int(m1[i, j]), n)


@pytest.mark.parametrize("n", [2, 4, 8])
def test_heun_expansions_reconstruct(n):
    _, tables, basis = hadamard_context(n)
    for K, ell in [(0, 0), (1, 2), (2, 2), (3, 1)]:
        t = heun_operator(tables, basis, K, ell)
        assert heun_expansion_neighbourhood(tables, basis, t.mu, t.nu) == t.matrix
        assert heun_expansion_energy(tables, basis, t.mu, t.nu) == t.matrix


def test_entanglement_hamiltonian_modes(had4):
    modes, excluded = entanglement_hamiltonian([0.5])
    assert modes == [(0.5, 0.0)] and excluded == 0

    _, tables, basis = had4
    spec = spectrum_numeric(chopped_correlation(tables, basis, 1, 3))
    modes, excluded = entanglement_hamiltonian(spec)
    assert len(modes) == 1 and excluded == 15
    nu, omega = modes[0]
    assert math.isclose(nu, 11 / 16, abs_tol=1e-9)
    assert math.isclose(omega, math.log(5 / 11), abs_tol=1e-9)

    spec_full = spectrum_numeric(chopped_correlation(tables, basis, 4, 4))
    modes, excluded = entanglement_hamiltonian(spec_full)
    assert not modes and excluded == 16

    with pytest.raises(ValueError):
        entanglement_hamiltonian([0.5], eps=0.7)


def test_entropy_values():
    assert entropy([0.0, 1.0, 0.0]) == 0.0
    assert math.isclose(entropy([11 / 16]), 0.6210863745552451, abs_tol=1e-12)
    assert math.isclose(entropy([0.75]), 2 * math.log(2) - 0.75 * math.log(3),
                        abs_tol=1e-12)
    with pytest.raises(InvalidSpectrumError):
        entropy([1.1])
    spec = Spectrum(((0.25, 3),))
    assert math.isclose(entropy(spec), 3 * binary_entropy(0.25), abs_tol=1e-12)


def test_entropy_matches_between_chopped_and_dual(had4):
    _, tables, basis = had4
    for K, ell in [(1, 1), (2, 2), (1, 3)]:
        s_c = entropy(spectrum_numeric(chopped_correlation(tables, basis, K, ell)))
        s_d = entropy(spectrum_numeric(dual_correlation(tables, basis, K, ell)))
        assert math.isclose(s_c, s_d, abs_tol=1e-9)


def test_closed_form_trivial_cases_match_numerics(had4):
    _, tables, basis = had4
    for K, ell in [(4, 4), (4, 2), (2, 4), (0, 0), (0, 2), (3, 0)]:
        claims = closed_form_spectrum(K, ell, 4)
        spec = spectrum_numeric(chopped_correlation(tables, basis, K, ell))
        assert [m for _, m in claims] == spec.multiplicities
        assert np.allclose([v for v, _ in claims], spec.values, atol=1e-9)


def test_closed_form_out_of_range():
    with pytest.raises(UncoveredSpectrumError):
        closed_form_spectrum(5, 1, 4)


def test_closed_form_claims_flagging(had4):
    _, tables, basis = had4
    # exact agreement at order 4 for the (1,1) claim
    spec = spectrum_numeric(chopped_correlation(tables, basis, 1, 1))
    comps = compare_with_claims(spec, closed_form_spectrum(1, 1, 4))
    assert not any(c.flag for c in comps)
    # order 8: the simple-eigenvalue claims disagree and must be flagged
    _, tables8, basis8 = hadamard_context(8)
    spec8 = spectrum_numeric(chopped_correlation(tables8, basis8, 1, 1))
    comps8 = compare_with_claims(spec8, closed_form_spectrum(1, 1, 8))
    flagged = [c for c in comps8 if c.flag]
    assert len(flagged) == 2
    assert all(c.claimed_mult == 1 for c in flagged)


def test_correlation_report_payload(had4):
    _, tables, basis = had4
    report = correlation_report(tables, basis, 2, 2)
    payload = report.to_payload()
    assert list(payload.keys()) == ["n", "K", "ell", "trace_exact", "spectrum",
                                    "entropy", "commutator_exact_zero",
                                    "closed_form_flags"]
    assert payload["trace_exact"] == "121/16"
    assert payload["commutator_exact_zero"] is True
    assert sum(e["mult"] for e in payload["spectrum"]) == 16
    assert any(f["flag"] for f in payload["closed_form_flags"])
    boundary = correlation_report(tables, basis, 4, 4)
    assert boundary.commutator_exact_zero is None


@pytest.mark.parametrize("family, size", [("sylvester", 4), ("paley", 7),
                                          ("paley", 11), ("paley", 19)])
def test_float_path_matches_exact_path(family, size):
    """The module spectrum of every report against the dense solve of the
    exact Pi(K, ell) of the built graph.  The module path works from the
    order alone: Paley q = 7 has the order of Sylvester n = 8 but another
    graph, and q = 11 and 19 (orders 12 and 20) check it on irrational
    radicands that are no Sylvester order."""
    context = hadamard_context if family == "sylvester" else paley_context
    graph, tables, basis = context(size)
    for K in range(5):
        for ell in range(5):
            report = correlation_report(tables, basis, K, ell)
            dense = spectrum_numeric(report.matrix)
            assert report.spectrum.total() == graph.vertex_count
            assert report.spectrum.multiplicities == dense.multiplicities, (K, ell)
            assert np.allclose(report.spectrum.values, dense.values,
                               rtol=0, atol=1e-12), (K, ell)
            assert math.isclose(report.entropy_value, entropy(dense),
                                abs_tol=1e-9)


def test_correlation_report_builds_module_spectra_once_per_order(monkeypatch,
                                                                  had8):
    _, tables, basis = had8
    built = []

    class Counted(entangle.HadamardSpectra):
        def __init__(self, n):
            built.append(n)
            super().__init__(n)
    monkeypatch.setattr(entangle, "HadamardSpectra", Counted)
    entangle._spectra_of_order.cache_clear()
    try:
        for K, ell in ((1, 1), (2, 2), (3, 1)):
            correlation_report(tables, basis, K, ell)
    finally:
        entangle._spectra_of_order.cache_clear()
    assert built == [8]


def test_correlation_report_needs_a_hadamard_graph():
    _, tables, basis = hypercube_context(4)
    with pytest.raises(ValueError, match="Hadamard graph"):
        correlation_report(tables, basis, 1, 1)


def test_sweep_matches_binary_entropy_oracle():
    """S(1,3) carries a single partially filled mode at (3n-1)/(4n), so the
    sweep column must equal the binary entropy of that value; the (3,3)
    log-scaled column must decrease toward 1."""
    orders = [4, 16, 64]
    rows13 = entropy_sweep(orders, [(1, 3)])
    for row in rows13:
        n = row.order
        assert math.isclose(row.entropy, binary_entropy((3 * n - 1) / (4 * n)),
                            abs_tol=1e-9)
    rows33 = entropy_sweep(orders, [(3, 3)])
    scaled = [r.entropy_log_scaled for r in rows33]
    assert scaled[0] > scaled[1] > scaled[2] > 1.0


def test_entropy_sweep_rows():
    rows = entropy_sweep([4], [(1, 3), (3, 3), (2, 2), (0, 1)])
    assert [r.neighbourhood_cut for r in rows] == [3, 3, 2, 1]
    by_pair = {(r.energy_cut, r.neighbourhood_cut): r for r in rows}
    assert math.isclose(by_pair[(1, 3)].entropy, binary_entropy(11 / 16),
                        abs_tol=1e-9)
    assert by_pair[(1, 3)].limit_label.startswith("S ->")
    assert by_pair[(3, 3)].limit_label.startswith("S*4n")
    assert by_pair[(2, 2)].limit_label.startswith("S/n")
    assert by_pair[(0, 1)].limit_label == ""
    assert by_pair[(0, 1)].limit_delta is None
