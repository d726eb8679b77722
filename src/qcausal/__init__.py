"""Bipartite quantum operations: causality tests, localizability obstructions,
and the protocols that realize them as Kraus channels, at desk scale (local
dimensions <= 8).
"""

from .causality import (
    A_TO_B,
    B_TO_A,
    SignalWitness,
    semicausal_test,
    signaling_search,
    unitary_product_test,
)
from .channels import (
    ChoiState,
    KrausChannel,
    apply,
    channel_distance,
    choi,
    choi_distance,
    compose,
    convex_mixture,
    identity_channel,
    measurement_channel,
    validate,
)
from .games import (
    CIRELSON_VALUE,
    ClassicalStrategy,
    QuantumStrategy,
    and_box_channel,
    best_classical_value,
    channel_game_value,
    chsh_success_classical,
    chsh_success_quantum,
    entangled_local_protocol,
    ip_demo,
    optimal_quantum_strategy,
)
from .linalg import (
    ATOL,
    BiDims,
    max_entangled,
    operator_schmidt,
    partial_trace,
    tensor_product,
    trace_distance,
)
from .localizability import (
    ObstructionCertificate,
    eigenstate_closure_test,
    extract_unitaries,
    generalized_pauli,
    is_eigenstate,
    mismatch_basis,
    projective_group_test,
    twisted_partition_basis,
)
from .measurements import (
    BasisVerdict,
    BasisWitness,
    CausalGrid,
    OrthogonalBasis,
    basis_signaling_witness,
    bell_basis,
    causal_structure,
    completion_basis,
    conditional_basis,
    incomplete_bell_channel,
    product_basis,
    reduced_states,
    semicausal_basis_test,
    semicausal_structure,
)
from .protocols import (
    bell_circuit_channel,
    branch_weights,
    entanglement_swap_channel,
    sample_branch,
    semilocal_channel,
    twisted_partition_protocol_kraus,
)
from .report import ClassificationReport, classify_basis, classify_channel
from .twirl import (
    PauliString,
    bell_twirl,
    close_group,
    grid_twirl_channel,
    stabilizer_channel,
    tetrahedral_group,
    twirl_channel,
    werner_twirl,
)

__version__ = "0.1.0"
