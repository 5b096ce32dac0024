"""Teleportation scenarios end to end.

A scenario bundles a resource state, a measurement plan split across
parties, and the register the receiver holds.  The engine probes the
declared input family, synthesizes a correction table, and prices the
classical traffic.  Three examples here:

  1. the single-qubit protocol through the four-qubit cat state,
     measured in its own eight-outcome basis (2 cbits),
  2. the same resource consumed as two Bell pairs split over three
     parties (3 cbits once the relay is counted),
  3. a deliberately broken variant, reported as infeasible: on its worst
     outcome no Pauli correction beats entanglement fidelity 1/4.
"""

from quadproto import run_scenario
from quadproto.scenarios import TELEPORT_SCENARIOS, negative_scenarios


def show(res) -> None:
    print("scenario %s" % res.scenario_id)
    print("  feasible: %s" % res.feasible)
    if res.feasible:
        print("  entanglement fidelity, worst outcome: %.12f" % res.worst_fidelity)
        print("  classical cost: %d cbits  %s"
              % (res.classical_cost, dict(res.cost_breakdown)))
        print("  corrections:")
        for outcome, corr in res.corrections.items():
            print("    %-12s -> %s" % (outcome, corr))
    else:
        print("  best entanglement fidelity, worst outcome: %.6f"
              % res.best_worst_fidelity)
        if res.reason:
            print("  reason: %s" % res.reason)
    print()


def main() -> None:
    show(run_scenario(TELEPORT_SCENARIOS["ghz1_ghz4basis"]))
    show(run_scenario(TELEPORT_SCENARIOS["ghz1_bellbell_3party"]))

    # the two-qubit plan through the Omega resource needs a CZ prefix;
    # stripping it to bare Pauli products is the canonical failure
    show(run_scenario(negative_scenarios()["omega2_bellbell_paulis"][0]))

    print("registered scenarios: %d positive, %d negative groups"
          % (len(TELEPORT_SCENARIOS), len(negative_scenarios())))


if __name__ == "__main__":
    main()
