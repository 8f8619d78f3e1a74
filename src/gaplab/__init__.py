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
    load_instance,
    materialize,
    norm_bound,
    path_adjacency,
    to_csr,
)
from .spectral import (
    SpectrumReport,
    closed_form_eigenvalues,
    det_bareiss_sparse,
    det_exact,
    gram_bands,
    min_eigenvalue_bound,
    min_eigenvalue_sparse,
    spectrum_report,
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
    expm_exact,
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
    rotation_verifier,
)

__version__ = "0.1.0"
