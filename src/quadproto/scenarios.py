"""Registry of verifiable protocol claims.

One table drives both the CLI and the verification suite: every
teleportation scenario, dense-coding count, LOCC set, certificate, and
diagnostic value listed here carries its expected result, so a claim is
checkable by running the corresponding engine and comparing.

Scenario coordinates use the joint register convention: the unknown
state's qubits come first (a, b, c as indices 0..k-1), then resource
particles 1..4 follow in catalog order.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Mapping

from .catalog import make_basis
from .measure import StepSpec
from .teleport import FamilySpec, TeleportScenario

if TYPE_CHECKING:
    from .locc import LoccProtocol

__all__ = [
    "TELEPORT_SCENARIOS",
    "TELEPORT_COSTS",
    "CORRECTED_SCENARIOS",
    "NEGATIVE_BASES",
    "negative_scenarios",
    "CAPACITY_TABLE",
    "CAPACITY_REFUTATIONS",
    "PRINTED_ENCODING_SETS",
    "locc_candidate_sets",
    "locc_protocols",
    "certificate_factors",
    "catalog_protocols",
    "REDUCTION_PURITY_TABLE",
    "PAIR_CONCURRENCE_TABLE",
    "UNVERIFIED_CLAIMS",
]


def _sc(scenario_id: str, resource: str, family: FamilySpec,
        steps: tuple[StepSpec, ...], receiver: tuple[int, ...],
        cost: int, allowed: str = "paulis",
        params: Mapping[str, object] | None = None,
        corrected: bool = False, note: str = "") -> TeleportScenario:
    sc = TeleportScenario(
        scenario_id=scenario_id, resource=resource, family=family,
        steps=steps, receiver=receiver,
        resource_params=params or {}, allowed_ops=allowed, note=note,
    )
    TELEPORT_SCENARIOS[scenario_id] = sc
    TELEPORT_COSTS[scenario_id] = cost
    if corrected:
        CORRECTED_SCENARIOS.add(scenario_id)
    return sc


TELEPORT_SCENARIOS: dict[str, TeleportScenario] = {}
TELEPORT_COSTS: dict[str, int] = {}
CORRECTED_SCENARIOS: set[str] = set()

_ARB1 = FamilySpec("arbitrary", 1)

# --- one unknown qubit through GHZ ---------------------------------------
_sc("ghz1_ghz4basis", "GHZ4", _ARB1,
    (StepSpec((0, 1, 2, 3), "ghz4_full"),), (4,), cost=2)
_sc("ghz1_3plus1_2party", "GHZ4", _ARB1,
    (StepSpec((0, 1, 2), "ghz3_full"), StepSpec((3,), "plus_minus")), (4,), cost=2)
_sc("ghz1_3plus1_3party", "GHZ4", _ARB1,
    (StepSpec((0, 1, 2), "ghz3_full"),
     StepSpec((3,), "plus_minus", party="Charlie")), (4,), cost=3)
_sc("ghz1_bellbell_2party", "GHZ4", _ARB1,
    (StepSpec((0, 1), "bell"), StepSpec((2, 3), "bell")), (4,), cost=2)
_sc("ghz1_bellbell_3party", "GHZ4", _ARB1,
    (StepSpec((0, 1), "bell"),
     StepSpec((2, 3), "bell", party="Charlie")), (4,), cost=3,
    note="only two of the second Bell outcomes occur, so the relayed "
         "message needs one bit")
_sc("ghz1_bell11_2party", "GHZ4", _ARB1,
    (StepSpec((0, 1), "bell"), StepSpec((2,), "plus_minus"),
     StepSpec((3,), "plus_minus")), (4,), cost=2)
_sc("ghz1_bell11_3party", "GHZ4", _ARB1,
    (StepSpec((0, 1), "bell"), StepSpec((2,), "plus_minus"),
     StepSpec((3,), "plus_minus", party="Charlie")), (4,), cost=3)
_sc("ghz1_bell11_4party", "GHZ4", _ARB1,
    (StepSpec((0, 1), "bell"), StepSpec((2,), "plus_minus", party="Charlie"),
     StepSpec((3,), "plus_minus", party="Dennis")), (4,), cost=4)

# --- one unknown qubit through Omega --------------------------------------
_sc("omega1_omegabasis", "Omega", _ARB1,
    (StepSpec((0, 1, 2, 3), "omega_meas"),), (4,), cost=2)
_sc("omega1_ghzbasis", "Omega", _ARB1,
    (StepSpec((0, 1, 2, 3), "ghz4_full"),), (4,), cost=2)
_sc("omega1_3plus1_2party", "Omega", _ARB1,
    (StepSpec((0, 1, 2), "ghz3_full"), StepSpec((3,), "plus_minus")), (4,), cost=2)
_sc("omega1_3plus1_3party", "Omega", _ARB1,
    (StepSpec((0, 1, 2), "ghz3_full"),
     StepSpec((3,), "plus_minus", party="Charlie")), (4,), cost=3)
_sc("omega1_bell_a2_13_2party", "Omega", _ARB1,
    (StepSpec((0, 2), "bell"), StepSpec((1, 3), "bell")), (4,), cost=2)
_sc("omega1_bell_a2_13_3party", "Omega", _ARB1,
    (StepSpec((0, 2), "bell"),
     StepSpec((1, 3), "bell", party="Charlie")), (4,), cost=4,
    note="all four of the relayed Bell outcomes occur here, unlike the "
         "GHZ Bell+Bell split")

# --- one unknown qubit through the W family -------------------------------
_sc("w11_etazeta", "W_mn", _ARB1,
    (StepSpec((0, 1, 2, 3), "eta_zeta_w11"),), (4,), cost=2,
    params={"m": 1, "n": 1})
_W_PQRS = {"p": 1.0, "q": 2.0, "r": 2.0, "s": 3.0}
_sc("w_pqrs_1223", "W_pqrs", _ARB1,
    (StepSpec((0, 1, 2, 3), "eta_zeta_w", _W_PQRS),), (4,), cost=2,
    params=_W_PQRS,
    note="generalized coefficients with |p|^2+|q|^2+|r|^2 = |s|^2")

# --- one unknown qubit through Q4 / Q4_11 ----------------------------------
_sc("q4_rho", "Q4", _ARB1,
    (StepSpec((0, 1, 3, 4), "rho_q4"),), (2,), cost=2, corrected=True)
_sc("q4_tau", "Q4", _ARB1,
    (StepSpec((0, 1, 3, 4), "tau_q4"),), (2,), cost=2, corrected=True)
_sc("q4_11_etazeta", "Q4_11", _ARB1,
    (StepSpec((0, 1, 2, 3), "eta_zeta_q4_11"),), (4,), cost=2)

# --- one unknown qubit through Q5 ------------------------------------------
_sc("q5_varphi", "Q5", _ARB1,
    (StepSpec((0, 1, 2, 3), "varphi_q5"),), (4,), cost=2)
_sc("q5_xi", "Q5", _ARB1,
    (StepSpec((0, 1, 2, 3), "xi_q5"),), (4,), cost=2)
_sc("q5_omega3_2party", "Q5", _ARB1,
    (StepSpec((0, 2, 3), "omega3_q5"), StepSpec((1,), "plus_minus")), (4,), cost=2)
_sc("q5_omega3_3party", "Q5", _ARB1,
    (StepSpec((0, 2, 3), "omega3_q5"),
     StepSpec((1,), "plus_minus", party="Charlie")), (4,), cost=3)

# --- two unknown qubits -----------------------------------------------------
GHZ2_DRESSINGS = [(i, j) for i in range(4) for j in range(4)]
for _i, _j in GHZ2_DRESSINGS:
    _sc("ghz2_pi_%d%d" % (_i, _j), "GHZ4", FamilySpec("ghz_diag", 2, (_i, _j)),
        (StepSpec((0, 1, 2, 3), "pi_2q", {"i": _i, "j": _j}),), (4, 5), cost=2)

_sc("omega2_16", "Omega", FamilySpec("arbitrary", 2),
    (StepSpec((0, 1, 2, 3), "omega16"),), (4, 5), cost=4, corrected=True)
_sc("omega2_bellbell_cz", "Omega", FamilySpec("arbitrary", 2),
    (StepSpec((0, 3), "bell"), StepSpec((1, 2), "bell")), (4, 5), cost=4,
    allowed="paulis+cz",
    note="every outcome needs the controlled-phase before the Pauli layer")

# --- three unknown qubits ---------------------------------------------------
GHZ3_DRESSINGS = [(0, 0, 0), (1, 2, 3), (3, 1, 0), (2, 2, 2)]
for _d in GHZ3_DRESSINGS:
    _sc("ghz3_pi_%d%d%d" % _d, "GHZ4", FamilySpec("ghz_diag", 3, _d),
        (StepSpec((0, 1, 2, 3), "pi_3q",
                  {"i": _d[0], "j": _d[1], "k": _d[2]}),), (4, 5, 6), cost=2)

OMEGA3_DRESSINGS = [(0, 0), (1, 3), (2, 1)]
for _i, _j in OMEGA3_DRESSINGS:
    _sc("omega3_sub_%d%d" % (_i, _j), "Omega", FamilySpec("omega_sub", 3, (_i, _j)),
        (StepSpec((0, 1, 2, 3), "omega34_3q", {"i": _i, "j": _j}),), (4, 5, 6),
        cost=2, corrected=True)

_sc("w3_sigma", "W4", FamilySpec("w_equal3", 3),
    (StepSpec((0, 1, 2, 3), "sigma_w"),), (4, 5, 6), cost=1,
    allowed="paulis+diag",
    note="the joint sign correction is admissible but a sigma3 product "
         "already matches it on the family's support")


# --- negatives ---------------------------------------------------------------

NEGATIVE_BASES = ("ghz4_full", "omega_meas", "eta_zeta_w11", "rho_q4",
                  "tau_q4", "varphi_q5", "xi_q5", "omega16", "sigma_w")


def negative_scenarios() -> dict[str, list[TeleportScenario]]:
    """Infeasible setups, each swept over the four-qubit catalog bases."""
    out: dict[str, list[TeleportScenario]] = {"w4_plain_1q": [], "q4_bob4_1q": []}
    for basis in NEGATIVE_BASES:
        out["w4_plain_1q"].append(TeleportScenario(
            scenario_id="w4_plain_1q[%s]" % basis, resource="W4", family=_ARB1,
            steps=(StepSpec((0, 1, 2, 3), basis),), receiver=(4,),
        ))
        out["q4_bob4_1q"].append(TeleportScenario(
            scenario_id="q4_bob4_1q[%s]" % basis, resource="Q4", family=_ARB1,
            steps=(StepSpec((0, 1, 2, 3), basis),), receiver=(4,),
        ))
    out["omega2_bellbell_paulis"] = [TeleportScenario(
        scenario_id="omega2_bellbell_paulis", resource="Omega",
        family=FamilySpec("arbitrary", 2),
        steps=(StepSpec((0, 3), "bell"), StepSpec((1, 2), "bell")),
        receiver=(4, 5),
    )]
    return out


# --- dense coding ------------------------------------------------------------
#
# Each row: (state, params, scenario, sender subsets (0-based), expected N,
# comparison) where comparison is "==" or "<".  Sender subsets follow the
# source conventions: the sender holds particles 1..k, except where a state's
# asymmetry forces a specific choice (Q4/Q5 single-qubit senders; the
# weighted W family's sender side always contains particle 4).

CAPACITY_TABLE = (
    ("ghz_dc1", "GHZ4", {}, [(0,)], 4, "=="),
    ("ghz_dc2", "GHZ4", {}, [(0, 1)], 8, "=="),
    ("ghz_dc3", "GHZ4", {}, [(0, 1, 2)], 16, "=="),
    ("w_dc1", "W4", {}, [(0,)], 4, "<"),
    ("w_dc2", "W4", {}, [(0, 1)], 8, "=="),
    ("w_dc3", "W4", {}, [(0, 1, 2)], 8, "=="),
    ("wmn_dc1_q4", "W_mn", {"m": 1, "n": 1}, [(3,)], 4, "=="),
    ("wmn_dc1_others", "W_mn", {"m": 1, "n": 1}, [(0,), (1,), (2,)], 4, "<"),
    ("wmn_dc3", "W_mn", {"m": 1, "n": 1},
     [(0, 1, 3), (0, 2, 3), (1, 2, 3)], 8, "=="),
    ("omega_dc1", "Omega", {}, [(0,)], 4, "=="),
    ("omega_dc2", "Omega", {}, [(0, 1)], 16, "=="),
    ("omega_dc3", "Omega", {}, [(0, 1, 2)], 16, "=="),
    ("q4_dc1_q2", "Q4", {}, [(1,)], 4, "=="),
    ("q4_dc1_q1", "Q4", {}, [(0,)], 4, "<"),
    ("q4_dc2", "Q4", {}, [(0, 1)], 8, "=="),
    ("q4_dc3", "Q4", {}, [(0, 1, 2)], 8, "=="),
    ("q5_dc1_q2", "Q5", {}, [(1,)], 4, "=="),
    ("q5_dc2", "Q5", {}, [(0, 1)], 8, "=="),
    ("q5_dc3", "Q5", {}, [(0, 1, 2)], 16, "=="),
    ("ghz5_dc4", "GHZ:5", {}, [(0, 1, 2, 3)], 32, "=="),
)

# Encoding sets printed alongside the capacity statements; the suite verifies
# each is pairwise orthogonal and has the size the engine reports.
PRINTED_ENCODING_SETS = {
    "w_dc2_set": ("W4", (0, 1), (
        ("s0", "s0"), ("s3", "s3"), ("s1", "s0"), ("is2", "s3"),
        ("s3", "s1"), ("s0", "is2"), ("s1", "is2"), ("is2", "s1"),
    )),
    "q4_dc2_set": ("Q4", (0, 1), (
        ("s0", "s0"), ("s0", "s3"), ("s3", "s0"), ("s3", "s3"),
        ("s1", "s1"), ("s2", "s1"), ("s1", "s2"), ("s2", "s2"),
    )),
    "q5_dc2_set": ("Q5", (0, 1), (
        ("s0", "s0"), ("s1", "s0"), ("s0", "s1"), ("s1", "s1"),
        ("s0", "s2"), ("s1", "s2"), ("s0", "s3"), ("s1", "s3"),
    )),
}

# Findings that contradict the printed capacity prose; the suite verifies the
# counter-witnesses and reports the rows as refutations, not failures.
CAPACITY_REFUTATIONS = (
    ("q4_dc3_distribution", "Q4", {}, (0, 2, 3), 16,
     "three-qubit sender {1,3,4} reaches sixteen messages, so the DC3 "
     "count is not distribution-independent"),
    ("wmn_dc3_124", "W_mn", {"m": 1, "n": 1}, (0, 1, 2), 16,
     "sender {1,2,3} of the weighted W reaches sixteen messages, so its "
     "DC3 count is not limited to eight for every distribution"),
)


# --- LOCC ---------------------------------------------------------------------


def locc_candidate_sets() -> dict[str, list]:
    """Labeled orthogonal sets the receivers must tell apart."""
    from .catalog import make_state
    from .densecode import distinguishable_messages, encoded_states

    sets: dict[str, list] = {}
    g = make_basis("ghz4_full")
    sets["ghz8"] = list(zip(g.labels, g.vectors))

    def images(name, encodings):
        by_label = dict(encoded_states(make_state(name).state, (0, 1)))
        return [("*".join(n), by_label[n]) for n in encodings]

    sets["omega4"] = images("Omega", [("s0", "s0"), ("s0", "s1"),
                                      ("s1", "s0"), ("s1", "s1")])
    sets["w4"] = images("W4", [("s0", "s0"), ("s3", "s3"),
                               ("s1", "s0"), ("is2", "s3")])
    sets["q5_4"] = images("Q5", [("s0", "s0"), ("s1", "s0"),
                                 ("s0", "s1"), ("s1", "s1")])

    for key, name in (("omega16", "Omega"), ("q4_8", "Q4")):
        witness = distinguishable_messages(make_state(name).state, (0, 1)).witness
        sets[key] = images(name, witness)
    return sets


def locc_protocols() -> dict[str, LoccProtocol]:
    from .locc import LoccProtocol

    return {
        "ghz_bell_bell": LoccProtocol("ghz_bell_bell", (
            StepSpec((0, 2), "bell", party="B1"),
            StepSpec((1, 3), "bell", party="B2"),
        )),
        "ghz_pm_ghz3": LoccProtocol("ghz_pm_ghz3", (
            StepSpec((3,), "plus_minus", party="B1"),
            StepSpec((0, 1, 2), "ghz3_full", party="B2"),
        )),
        "omega_comp": LoccProtocol("omega_comp", (
            StepSpec((0, 2), "computational:2", party="B1"),
            StepSpec((1, 3), "computational:2", party="B2"),
        )),
        "w_bell": LoccProtocol("w_bell", (
            StepSpec((0, 2), "bell", party="B1"),
            StepSpec((1, 3), "bell", party="B2"),
        )),
        "q5_comp": LoccProtocol("q5_comp", (
            StepSpec((0, 2), "computational:2", party="B1"),
            StepSpec((1, 3), "computational:2", party="B2"),
        )),
    }


def catalog_protocols() -> list[LoccProtocol]:
    """Every two-receiver product protocol the library ships.

    Used to show a candidate set has no passing protocol here: all three
    pairings of four qubits into two pairs, with Bell or computational
    bases per pair, plus the one-vs-three splits with a sign basis on the
    single qubit.
    """
    from .locc import LoccProtocol

    pairings = [((0, 1), (2, 3)), ((0, 2), (1, 3)), ((0, 3), (1, 2))]
    bases = ("bell", "computational:2")
    out: list[LoccProtocol] = []
    for pa, pb in pairings:
        for ba in bases:
            for bb in bases:
                pid = "p%d%d_%s__p%d%d_%s" % (*pa, ba.split(":")[0], *pb, bb.split(":")[0])
                out.append(LoccProtocol(pid, (
                    StepSpec(pa, ba, party="B1"),
                    StepSpec(pb, bb, party="B2"),
                )))
    for single in range(4):
        rest = tuple(q for q in range(4) if q != single)
        out.append(LoccProtocol("pm%d_ghz3" % single, (
            StepSpec((single,), "plus_minus", party="B1"),
            StepSpec(rest, "ghz3_full", party="B2"),
        )))
        out.append(LoccProtocol("comp%d_comp3" % single, (
            StepSpec((single,), "computational:1", party="B1"),
            StepSpec(rest, "ghz3_full", party="B2"),
        )))
    return out


def certificate_factors() -> dict[str, list]:
    return {
        "ghz8": [((0, 2), make_basis("bell")), ((1, 3), make_basis("bell"))],
        "omega4": [((0, 2), make_basis("computational:2")),
                   ((1, 3), make_basis("computational:2"))],
        "w4": [((0, 2), make_basis("bell")), ((1, 3), make_basis("bell"))],
        "q5_4": [((0, 2), make_basis("computational:2")),
                 ((1, 3), make_basis("computational:2"))],
        "omega16": [((0, 2), make_basis("computational:2")),
                    ((1, 3), make_basis("computational:2"))],
    }


# --- diagnostics ---------------------------------------------------------------

# the profiled states, in report order, each with its expected largest purity
# over the proper reductions
REDUCTION_PURITY_TABLE = {"GHZ4": 0.5, "W4": 0.625, "Omega": 0.5,
                          "Q4": 0.625, "Q5": 0.625}

# expected pairwise concurrences, 0-based qubit pairs
PAIR_CONCURRENCE_TABLE = {
    "GHZ4": {"default": 0.0},
    "W4": {"default": 0.5},
    "Omega": {"default": 0.0},
    "Q5": {"default": 0.0},
    "Q4": {"default": 0.0, (1, 2): 0.5, (1, 3): 0.5},
}

# statements the library records but does not verify, with the reason
UNVERIFIED_CLAIMS = (
    ("mixed_tangle_ghz", "three-tangle of every three-qubit reduction of the "
     "GHZ state is 0", "mixed-state tangle needs a convex-roof optimization, "
     "not implemented"),
    ("mixed_tangle_w", "three-tangle of every three-qubit reduction of the "
     "W state is 0", "mixed-state tangle needs a convex-roof optimization, "
     "not implemented"),
    ("mixed_tangle_q4", "three-qubit reductions of Q4 have tangle 1/2 or 0",
     "mixed-state tangle needs a convex-roof optimization, not implemented"),
    ("mixed_tangle_q5", "three-qubit reductions of Q5 have tangle 1/2",
     "mixed-state tangle needs a convex-roof optimization, not implemented"),
    ("q4_2qubit_subclass", "a two-qubit subclass can cross Q4 with entangled "
     "receiver unitaries", "no explicit procedure is given to verify"),
    ("q5_2qubit_subclass", "a two-qubit subclass can cross Q5 with entangled "
     "receiver unitaries", "no explicit procedure is given to verify"),
)
