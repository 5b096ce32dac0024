"""Qubit pure-state toolkit for four-qubit communication protocols.

The library verifies, rather than trusts, protocol constructions: given a
resource state, a measurement plan, and a correction vocabulary, it either
synthesizes the correction table that achieves unit fidelity or returns a
certificate of infeasibility.  The same philosophy drives the dense-coding
counter (exact maximum-clique search over Pauli encodings) and the LOCC
discrimination checks (transcript collisions plus disjoint-support
certificates).
"""

from .states import (
    MAX_QUBITS,
    PAULI_ORDER,
    PureState,
    SIGMA,
    apply_local,
    apply_paulis,
    basis_state,
    fidelity,
    inner,
    pauli_table,
    permute_qubits,
    purity,
    random_state,
    random_unitary,
    reduced_density,
    tensor,
)
from .catalog import (
    CORRECTIONS,
    BasisCorrection,
    NamedBasis,
    NamedState,
    basis_names,
    corrections_for,
    make_basis,
    make_state,
    state_names,
    validate_orthonormal,
)
from .measure import (
    MeasurementPlan,
    Outcomes,
    StepSpec,
    build_plan,
    complete_basis,
    enumerate_outcomes,
)
from .teleport import (
    FamilySpec,
    OutcomeReport,
    TeleportResult,
    TeleportScenario,
    build_probes,
    family_span,
    run_scenario,
)
from .densecode import (
    DenseCodingResult,
    best_over_subsets,
    distinguishable_messages,
    encoded_states,
)
from .locc import (
    CertificateReport,
    DiscriminationResult,
    LoccProtocol,
    check_certificate,
    product_terms,
    run_discrimination,
)
from .diagnostics import (
    EntanglementProfile,
    genuine_multipartite,
    pair_concurrence,
    profile,
    purity_profile,
    three_tangle_pure,
    wootters_concurrence,
)
from .scenario_io import (
    ScenarioFormatError,
    load_scenario,
    loads_scenario,
    dumps_scenario,
    save_scenario,
    scenario_from_dict,
    scenario_to_dict,
)
from .suite import ClaimRow, SuiteReport, format_text, run_suite

__version__ = "0.1.0"

__all__ = [
    "MAX_QUBITS", "PAULI_ORDER", "PureState",
    "SIGMA", "apply_local", "apply_paulis", "basis_state", "fidelity",
    "inner", "pauli_table", "permute_qubits",
    "purity", "random_state", "random_unitary", "reduced_density", "tensor",
    "CORRECTIONS", "BasisCorrection", "NamedBasis", "NamedState",
    "basis_names", "corrections_for", "make_basis", "make_state",
    "state_names", "validate_orthonormal",
    "MeasurementPlan", "Outcomes", "StepSpec",
    "build_plan", "complete_basis", "enumerate_outcomes",
    "FamilySpec", "OutcomeReport", "TeleportResult",
    "TeleportScenario", "build_probes", "family_span", "run_scenario",
    "DenseCodingResult", "best_over_subsets", "distinguishable_messages",
    "encoded_states",
    "CertificateReport", "DiscriminationResult", "LoccProtocol",
    "check_certificate", "product_terms", "run_discrimination",
    "EntanglementProfile", "genuine_multipartite", "pair_concurrence",
    "profile", "purity_profile", "three_tangle_pure", "wootters_concurrence",
    "ScenarioFormatError", "load_scenario", "loads_scenario",
    "dumps_scenario", "save_scenario", "scenario_from_dict",
    "scenario_to_dict",
    "ClaimRow", "SuiteReport", "format_text", "run_suite",
    "__version__",
]
