"""Desk-scale laboratory for exponentially-small-gap verification.

The pipeline: space-bounded reversible machines reduce to sparse
integer matrices whose determinant decides acceptance (rtm,
sparse_oracle); the associated Gram matrices have an exact
0-versus-2^-g least-eigenvalue dichotomy with closed-form spectra for
the structured blocks (spectral); exact statevector simulation and
truncated-Taylor exponentials read that dichotomy out as a phase
(simulator); and the protocol layer amplifies exponentially small
promise gaps and compiles verifiers into clock Hamiltonians
(protocols).  The cli module drives batch experiments over all of it.
"""

from .errors import ConfigurationError, ContractError, ResourceLimitError
from .sparse_oracle import (
    RowOracleMatrix,
    ata_oracle,
    cycle_adjacency,
    from_dense,
    from_entries,
    identity_oracle,
    load_instance,
    materialize,
    norm_bound,
    path_adjacency,
    row,
    to_csr,
)
from .spectral import (
    SpectrumReport,
    char_poly_p,
    chebyshev_q,
    closed_form_eigenvalues,
    det_bareiss,
    det_bareiss_sparse,
    det_cycle_cover,
    det_exact,
    det_permutation_expansion,
    eigensystem,
    gram_bands,
    min_eigenvalue,
    min_eigenvalue_banded,
    min_eigenvalue_bound,
    min_eigenvalue_sparse,
    spectrum_report,
    structured_matrix,
)
from .rtm import (
    Configuration,
    GappedInstance,
    ReversibleTM,
    augmented_adjacency,
    corpus_machine,
    corpus_names,
    load_machine,
    reduce_to_gapped,
    simulate,
    validate,
    with_space,
)
from .simulator import (
    Gate,
    QuantumCircuit,
    acceptance_probability,
    circuit_unitary,
    expm_exact,
    expm_taylor,
    measure_probability,
    one_bit_pe,
    pad_with_ancillas,
    run_circuit,
    taylor_order,
    taylor_tail_bound,
)
from .protocols import (
    AcceptOperator,
    AmplificationParams,
    PreciseLHInstance,
    Verifier,
    accept_operator,
    amplified_accept_operator,
    binary_search_energy,
    decide_gapped,
    gapped_params,
    ground_energy,
    kitaev_hamiltonian,
    mixed_witness_acceptance,
    nwz_amplify,
    precise_lh_bounds,
    reflections,
    rotation_verifier,
)

__version__ = "0.1.0"
