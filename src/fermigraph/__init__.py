"""Free-fermion entanglement on Hadamard graphs.

Exact association-scheme data over Q(sqrt(n)), Terwilliger-algebra dual
matrices, the block-tridiagonal operator commuting with the chopped
correlation matrix, and correlation spectra and von Neumann entropies from
the Terwilliger modules.
"""

from .eig import InvalidSpectrumError, Spectrum
from .entangle import (ClosedFormComparison, CorrelationReport, EntropySweepRow,
                       HadamardSpectra, HeunOperator, ProjectorPair,
                       UncoveredSpectrumError,
                       binary_entropy, chopped_correlation, closed_form_spectrum,
                       compare_with_claims, correlation_report, dual_correlation,
                       entanglement_hamiltonian, entropy, entropy_sweep,
                       ground_state_correlation,
                       heun_expansion_energy, heun_expansion_neighbourhood,
                       heun_operator, projector_pair)
from .exactmat import (DimensionMismatchError, ExactMatrix, anticommutator,
                       commutator)
from .graphs import (DisconnectedGraphError, HadamardGraph, SchemeGraph,
                     build_hadamard_graph, build_hypercube, distance_matrices)
from .hadamard import (CoreBlocks, HadamardMatrix, NotHadamardError,
                       core_blocks, normalize, paley, sylvester, verify)
from .qroot import QRootN, RadicandMismatchError, sqrt_of
from .scheme import (ModuleClass, SchemeError, SchemeTables, build_scheme,
                     hadamard_intersection_array, hadamard_modules,
                     hadamard_pq_matrix, intersection_array, polynomial_checks)
from .terwilliger import (TerwilligerBasis, TripleVanishingReport,
                          block_tridiagonal_decompose, cubic_relation_residual,
                          dual_distance, dual_idempotents, terwilliger_basis,
                          triple_vanishing_check, verify_dual_products)

__version__ = "0.1.0"
