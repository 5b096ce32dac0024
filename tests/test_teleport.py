"""Teleportation verification engine."""

import dataclasses

import numpy as np
import pytest

from quadproto import scenarios as reg
from quadproto.measure import StepSpec
from quadproto.teleport import (
    FamilySpec,
    TeleportScenario,
    build_probes,
    family_span,
    run_scenario,
)

TOL = 1e-10


def _run(sid, **kw):
    return run_scenario(reg.TELEPORT_SCENARIOS[sid], **kw)


# --- probe construction ------------------------------------------------------

def test_probe_labels_and_flags():
    rng = np.random.default_rng(0)
    probes = build_probes(FamilySpec("arbitrary", 2), rng, num_random=5)
    labels = [p.label for p in probes]
    # 4 basis members, C(4,2) pairs twice over (plus and phase), 5 randoms
    assert labels[:4] == ["b0", "b1", "b2", "b3"]
    assert "p01+" in labels and "p01i" in labels and "p23i" in labels
    assert labels[-5:] == ["r0", "r1", "r2", "r3", "r4"]
    assert len(probes) == 4 + 12 + 5
    for p in probes:
        assert p.certifying == (not p.label.startswith("r"))
        assert abs(np.linalg.norm(p.state.amplitudes) - 1.0) < 1e-12


def test_single_member_family_has_no_superpositions():
    labels, span = family_span(FamilySpec("w_equal3", 3))
    assert labels == ("w_equal",)
    probes = build_probes(FamilySpec("w_equal3", 3), np.random.default_rng(0))
    assert len(probes) == 1 and probes[0].certifying


def test_probes_deterministic_per_seed():
    spec = FamilySpec("arbitrary", 1)
    a = build_probes(spec, np.random.default_rng(7))
    b = build_probes(spec, np.random.default_rng(7))
    for x, y in zip(a, b):
        assert np.array_equal(x.state.amplitudes, y.state.amplitudes)


# --- frozen correction tables -------------------------------------------------

def test_ghz_full_basis_corrections():
    res = _run("ghz1_ghz4basis")
    assert res.feasible
    assert res.worst_fidelity >= 1.0 - TOL
    assert res.perp_probability <= TOL
    assert res.classical_cost == 2
    assert res.corrections == {
        "4GHZ1+": "s0", "4GHZ1-": "s3", "4GHZ2+": "s1", "4GHZ2-": "is2",
    }


def test_tau_corrections_use_both_arms():
    res = _run("q4_tau")
    assert res.feasible and res.classical_cost == 2
    assert res.corrections == {
        "tau1+": "s0", "tau1-": "s3", "tau2+": "s1", "tau2-": "is2",
        "tau3+": "s0", "tau3-": "s3", "tau4+": "s1", "tau4-": "is2",
    }


def test_two_qubit_bell_pair_plan_needs_cz():
    res = _run("omega2_bellbell_cz")
    assert res.feasible and res.classical_cost == 4
    assert len(res.corrections) == 16
    assert all(c.startswith("CZ(0,1);") for c in res.corrections.values())
    # identical plan restricted to bare Pauli products cannot work
    plain = dataclasses.replace(reg.TELEPORT_SCENARIOS["omega2_bellbell_cz"],
                                scenario_id="plain", allowed_ops="paulis")
    bad = run_scenario(plain)
    assert not bad.feasible
    assert bad.best_worst_fidelity < 1.0 - 1e-3
    assert bad.classical_cost is None and bad.cost_breakdown is None


def test_w3_sign_correction_collapses_to_one_bit():
    res = _run("w3_sigma")
    assert res.feasible and res.classical_cost == 1
    for key, corr in res.corrections.items():
        assert corr == ("s0*s0*s0" if key.endswith("+") else "s3*s3*s3")


def test_relay_costs_split_by_party():
    res = _run("ghz1_bellbell_3party")
    assert res.classical_cost == 3
    assert dict(res.cost_breakdown) == {"outcomes:Charlie": 1,
                                        "correction:Alice": 2}
    res4 = _run("ghz1_bell11_4party")
    assert res4.classical_cost == 4
    assert dict(res4.cost_breakdown) == {"outcomes:Charlie": 1,
                                         "outcomes:Dennis": 1,
                                         "correction:Alice": 2}


# --- determinism --------------------------------------------------------------

def test_result_reproducible_and_seed_insensitive():
    base = _run("omega1_ghzbasis", seed=42)
    again = _run("omega1_ghzbasis", seed=42)
    assert base == again
    other = _run("omega1_ghzbasis", seed=7)
    assert other.feasible == base.feasible
    assert other.corrections == base.corrections
    assert other.classical_cost == base.classical_cost
    assert other.worst_fidelity >= 1.0 - TOL


def test_uniform_outcome_flag():
    assert _run("omega1_omegabasis").uniform_nonzero


# --- infeasibility certificates -------------------------------------------------

def test_infeasible_scenarios_carry_certificates():
    for sc in reg.negative_scenarios()["q4_bob4_1q"]:
        res = run_scenario(sc)
        assert not res.feasible
        assert res.corrections == {}
        assert res.classical_cost is None
        assert res.best_worst_fidelity < 1.0 - 1e-3
        for o in res.outcomes:
            assert o.correction is None or o.min_fidelity < 1.0 - 1e-3


def test_perp_leak_sets_reason():
    res = run_scenario(reg.negative_scenarios()["q4_bob4_1q"][0])
    assert "leak" in res.reason
    assert res.perp_probability > 1e-3


def test_skewed_pair_is_neither_uniform_nor_feasible():
    sc = TeleportScenario(
        scenario_id="skewed",
        resource="lopsided pair",
        family=FamilySpec("arbitrary", 1),
        steps=(StepSpec((0, 1), "bell"),),
        receiver=(2,),
        resource_kets=(("00", 2.0), ("11", 1.0)),
    )
    res = run_scenario(sc)
    assert not res.uniform_nonzero
    assert not res.feasible
    assert 0.0 < res.best_worst_fidelity < 1.0 - 1e-3


# --- inline resources and validation -------------------------------------------

def test_inline_bell_pair_reproduces_standard_protocol():
    sc = TeleportScenario(
        scenario_id="inline_bell",
        resource="pair",
        family=FamilySpec("arbitrary", 1),
        steps=(StepSpec((0, 1), "bell"),),
        receiver=(2,),
        resource_kets=(("00", 1.0), ("11", 1.0)),
    )
    res = run_scenario(sc)
    assert res.feasible and res.classical_cost == 2
    assert res.corrections == {"phi+": "s0", "phi-": "s3",
                               "psi+": "s1", "psi-": "is2"}
    assert sc.resource_state().note == "inline resource"


def test_scenario_validation():
    with pytest.raises(ValueError):
        TeleportScenario("x", "GHZ4", FamilySpec("arbitrary", 1),
                         (StepSpec((0, 1), "bell"),), (2,),
                         allowed_ops="clifford")
    with pytest.raises(ValueError):
        TeleportScenario("x", "GHZ4", FamilySpec("arbitrary", 2),
                         (StepSpec((0, 1), "bell"),), (2,))
    with pytest.raises(ValueError):
        FamilySpec("mystery", 2)


def test_receiver_mismatch_caught_at_runtime():
    sc = TeleportScenario(
        scenario_id="wrong_receiver",
        resource="pair",
        family=FamilySpec("arbitrary", 1),
        steps=(StepSpec((0, 1), "bell"),),
        receiver=(1,),
        resource_kets=(("00", 1.0), ("11", 1.0)),
    )
    with pytest.raises(ValueError, match="receiver"):
        run_scenario(sc)


# --- registry-wide sweep --------------------------------------------------------

def test_every_registered_scenario_matches_its_cost():
    for sid, sc in reg.TELEPORT_SCENARIOS.items():
        res = run_scenario(sc)
        assert res.feasible, sid
        assert res.worst_fidelity >= 1.0 - TOL, sid
        assert res.perp_probability <= TOL, sid
        assert res.classical_cost == reg.TELEPORT_COSTS[sid], sid
