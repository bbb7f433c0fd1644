"""Correlation spectra versus the published closed forms.

Every report compares its spectrum, read from the Terwilliger modules,
against the table of published eigenvalue formulas.  Several of those
formulas disagree with it (their sums even contradict the exact trace), so
the comparisons are printed with flags rather than silently trusted; the
exact trace is the arbiter.
"""

from fermigraph import (build_hadamard_graph, build_scheme, correlation_report,
                        entanglement_hamiltonian, sylvester, terwilliger_basis)

for n, k in [(4, 2), (8, 3), (16, 4)]:
    graph = build_hadamard_graph(sylvester(k))
    tables = build_scheme(graph)
    basis = terwilliger_basis(tables)
    report = correlation_report(tables, basis, 2, 2)
    print(f"\nPi(2,2), order {n}")
    print("  exact trace:", report.trace_exact,
          f"(= (3n-1)^2/4n = {(3 * n - 1) ** 2}/{4 * n})")
    print("  spectrum:", report.spectrum)
    print("  commutes with T(2,2) exactly:", report.commutator_exact_zero)
    s = sum(v for v, m in report.spectrum.entries if m == 1 and 0 < v < 1)
    print(f"  simple pair sum: {s:.12f}  (exact requirement {3 * n + 1}/{4 * n}"
          f" = {(3 * n + 1) / (4 * n):.12f})")
    for c in report.closed_form:
        tag = "MISMATCH" if c.flag else "ok"
        print(f"  published {c.claimed_value:+.9f}^({c.claimed_mult}) vs "
              f"observed {c.observed_value:+.9f}^({c.observed_mult})  [{tag}]")

# The single-mode cut: one partially filled orbital carries all the
# entanglement, with single-particle energy log((1-nu)/nu).
graph = build_hadamard_graph(sylvester(2))
tables = build_scheme(graph)
basis = terwilliger_basis(tables)
report = correlation_report(tables, basis, 1, 3)
modes, excluded = entanglement_hamiltonian(report.spectrum)
print("\nPi(1,3), order 4:", report.spectrum)
print("finite entanglement modes:", [(round(nu, 6), round(w, 6))
                                     for nu, w in modes],
      "| excluded (nu ~ 0 or 1):", excluded)
print("entropy:", report.entropy_value)
