"""Statevector simulation of Dicke-state expansion under restricted qubit access."""

__version__ = "0.1.0"

from .dicke import (
    BipartitionParams,
    DecompositionTerm,
    DickeDecomposition,
    decompose_source,
    decompose_target,
    dicke_state,
    max_success_probability,
    verify_decomposition,
    w_state,
    wbar_state,
    wlike_state,
)
from .gates import (
    CircuitProgram,
    GateSpec,
    format_circuit,
    make_gate,
    parse_circuit,
    rx_matrix,
    ry_matrix,
)
from .noise import (
    FidelityMode,
    SweepRow,
    fidelity_sweep,
    noisify_circuit,
    noisify_gate,
)
from .protocols import (
    EXPANSION_LAYOUT,
    ExpansionOutcome,
    ProtocolStats,
    RegisterLayout,
    build_d4_prep_circuit,
    build_d4_to_d5_circuit,
    build_w3_circuit,
    build_w3_to_d4_circuit,
    expansion_premeasurement,
    run_expansion,
    run_protocol_stats,
    run_recycling,
    verify_untouched,
)
from .sim import (
    StateVector,
    apply_circuit,
    apply_gate,
    circuit_unitary,
    drop_qubit,
    fidelity_pure,
    gate_unitary,
    new_basis_state,
    postselect,
    purity,
    reduced_density_matrix,
    tensor,
)
