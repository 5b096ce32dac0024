"""Qubit pure-state toolkit for four-qubit communication protocols.

The library verifies, rather than trusts, protocol constructions: given a
resource state, a measurement plan, and a correction vocabulary, it either
synthesizes the correction table that achieves unit fidelity or returns a
certificate of infeasibility.  The same philosophy drives the dense-coding
counter (exact maximum-clique search over Pauli encodings) and the LOCC
discrimination checks (transcript collisions plus disjoint-support
certificates).

``import quadproto`` loads no submodule and not numpy (PEP 562): each
submodule, and each name in ``__all__``, is imported on first read and then
kept here.  ``quadproto.cli`` still imports every submodule.
"""

import importlib

__version__ = "0.1.0"

# submodule -> the names it exports here
_EXPORTS = {
    "states": (
        "MAX_QUBITS", "PAULI_ORDER", "PureState", "SIGMA", "apply_local",
        "apply_paulis", "pauli_table", "purity", "reduced_density", "tensor"),
    "catalog": (
        "CORRECTIONS", "BasisCorrection", "NamedBasis", "NamedState",
        "basis_names", "corrections_for", "make_basis", "make_state",
        "state_names", "validate_orthonormal"),
    "measure": (
        "MeasurementPlan", "Outcomes", "StepSpec", "build_plan",
        "complete_basis", "enumerate_outcomes"),
    "teleport": (
        "FamilySpec", "OutcomeReport", "TeleportResult", "TeleportScenario",
        "build_probes", "run_scenario"),
    "densecode": (
        "DenseCodingResult", "best_over_subsets", "distinguishable_messages",
        "encoded_states"),
    "locc": (
        "CertificateReport", "DiscriminationResult", "LoccProtocol",
        "check_certificate", "product_terms", "run_discrimination"),
    "diagnostics": (
        "EntanglementProfile", "genuine_multipartite", "pair_concurrence",
        "profile", "purity_profile", "three_tangle_pure",
        "wootters_concurrence"),
    "scenario_io": (
        "ScenarioFormatError", "load_scenario", "loads_scenario",
        "dumps_scenario", "save_scenario", "scenario_from_dict",
        "scenario_to_dict"),
    "suite": ("ClaimRow", "SuiteReport", "format_text", "run_suite"),
    "scenarios": (),
    "cli": (),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*_OWNER, "__version__"]


def __getattr__(name: str):
    if name in _EXPORTS:  # importing a submodule binds it here
        return importlib.import_module("." + name, __name__)
    if name not in _OWNER:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    value = getattr(importlib.import_module("." + _OWNER[name], __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS, *__all__})
