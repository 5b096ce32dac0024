"""Projective measurement enumeration."""

import numpy as np
import pytest

from quadproto import scenarios as reg
from quadproto.catalog import NamedBasis, make_basis, make_state
from quadproto.measure import (
    MeasurementPlan,
    MeasurementStep,
    StepSpec,
    build_plan,
    complete_basis,
    enumerate_outcomes,
    perp_probability,
    sample_counts,
)
from quadproto.states import PureState, basis_state, random_state, tensor
from quadproto.teleport import build_probes


def _plan(*steps):
    return MeasurementPlan(tuple(MeasurementStep(q, make_basis(b)) for q, b in steps))


def test_plan_rejects_overlap_and_range():
    with pytest.raises(ValueError):
        MeasurementPlan((MeasurementStep((0, 1), make_basis("bell")),
                         MeasurementStep((1,), make_basis("plus_minus"))))
    plan = _plan(((0, 3), "bell"))
    with pytest.raises(ValueError):
        plan.validate_for(3)


def test_step_size_must_match_basis():
    with pytest.raises(ValueError):
        enumerate_outcomes(make_state("GHZ4").state,
                           _plan(((0,), "bell")))


def test_probability_sums_randomized():
    # 200 random states and plans; branch probabilities always sum to one
    rng = np.random.default_rng(99)
    one_q = ("plus_minus", "computational:1")
    two_q = ("bell", "computational:2")
    checked = 0
    for _ in range(200):
        n = int(rng.integers(2, 7))
        st = random_state(n, rng)
        qubits = list(rng.permutation(n))
        steps = []
        while qubits and len(steps) < 2:
            if len(qubits) >= 2 and rng.random() < 0.5:
                pair = (qubits.pop(), qubits.pop())
                steps.append((tuple(pair), str(rng.choice(two_q))))
            else:
                steps.append(((qubits.pop(),), str(rng.choice(one_q))))
        branches = enumerate_outcomes(st, _plan(*steps), drop_tol=0.0)
        total = sum(b.probability for b in branches)
        assert abs(total - 1.0) < 1e-10
        checked += 1
    assert checked == 200


def test_computational_plan_matches_amplitudes():
    # two-step computational plan equals marginal mod-squared amplitudes
    rng = np.random.default_rng(17)
    st = random_state(4, rng)
    plan = _plan(((1,), "computational:1"), ((0, 2), "computational:2"))
    probs = {b.key: b.probability for b in enumerate_outcomes(plan=plan, state=st,
                                                              drop_tol=0.0)}
    amps = st.amplitudes.reshape((2, 2, 2, 2))
    for b1 in range(2):
        for b0 in range(2):
            for b2 in range(2):
                want = float(np.sum(np.abs(amps[b0, b1, b2, :]) ** 2))
                key = "%d,%d%d" % (b1, b0, b2)
                assert abs(probs.get(key, 0.0) - want) < 1e-12


def test_residual_states_normalized_and_kept_indices():
    st = make_state("GHZ4").state
    branches = enumerate_outcomes(st, _plan(((0, 1), "bell")))
    for b in branches:
        assert b.kept_qubits == (2, 3)
        assert abs(np.linalg.norm(b.state.amplitudes) - 1.0) < 1e-12


def test_refinement_equivalence_three_plus_one():
    # measuring (0,1,2) then (3) equals one tensored 16-outcome step
    ghz3 = make_basis("ghz3_full")
    pm = make_basis("plus_minus")
    labels = []
    vectors = []
    for l3, v3 in zip(ghz3.labels, ghz3.vectors):
        for l1, v1 in zip(pm.labels, pm.vectors):
            labels.append("%s,%s" % (l3, l1))
            vectors.append(tensor(v3, v1))
    joint_basis = NamedBasis("ghz3_x_pm", tuple(labels), tuple(vectors))

    for name in ("GHZ4", "W4", "Omega", "Q4", "Q5"):
        st = make_state(name).state
        two_step = enumerate_outcomes(
            st, _plan(((0, 1, 2), "ghz3_full"), ((3,), "plus_minus")),
            drop_tol=0.0)
        one_step = enumerate_outcomes(
            st, MeasurementPlan((MeasurementStep((0, 1, 2, 3), joint_basis),)),
            drop_tol=0.0)
        p2 = {b.key: b.probability for b in two_step}
        p1 = {b.key: b.probability for b in one_step}
        for key in set(p1) | set(p2):
            assert abs(p1.get(key, 0.0) - p2.get(key, 0.0)) < 1e-12, (name, key)


def test_complete_basis_extends_orthonormally():
    partial = make_basis("omega_meas")
    full = complete_basis(partial)
    assert len(full.labels) == 16
    assert full.labels[:4] == partial.labels
    assert sum(1 for lbl in full.labels if lbl.startswith("perp")) == 12
    mat = full.matrix()
    assert np.allclose(mat @ mat.conj().T, np.eye(16), atol=1e-12)


def test_complete_basis_noop_when_complete():
    full = complete_basis(make_basis("ghz3_full"))
    assert len(full.labels) == 8
    assert not any(lbl.startswith("perp") for lbl in full.labels)


def test_perp_probability_partial_basis():
    # W4 has no support on the omega measurement's named directions' span
    # complement being zero; check bookkeeping instead of a specific value
    st = make_state("W4").state
    branches = enumerate_outcomes(st, _plan(((0, 1, 2, 3), "omega_meas")),
                                  drop_tol=0.0)
    leak = perp_probability(branches)
    named = sum(b.probability for b in branches if not b.perp)
    assert abs(leak + named - 1.0) < 1e-12
    assert leak > 0.5  # most of W4 lies outside the four named directions


def test_zero_probability_branches_dropped():
    # |0000> overlaps exactly two of the eight basis vectors; the other
    # six must be dropped even at drop_tol=0 (no NaN residuals).
    st = basis_state("0000")
    branches = enumerate_outcomes(st, _plan(((0, 1, 2, 3), "ghz4_full")),
                                  drop_tol=0.0)
    keys = {b.key for b in branches}
    assert keys == {"4GHZ1+", "4GHZ1-"}
    assert all(abs(b.probability - 0.5) < 1e-12 for b in branches)
    assert all(b.state is None for b in branches)  # nothing left unmeasured


def test_sample_counts_seeded():
    st = make_state("GHZ4").state
    plan = _plan(((0, 1), "bell"), ((2, 3), "bell"))
    counts = sample_counts(st, plan, shots=4000,
                           rng=np.random.default_rng(5))
    assert sum(counts.values()) == 4000
    again = sample_counts(st, plan, shots=4000,
                          rng=np.random.default_rng(5))
    assert counts == again
    # GHZ splits as (phi+ phi+ + phi- phi-)/sqrt(2): two branches at 1/2
    assert set(counts) == {"phi+,phi+", "phi-,phi-"}
    for key, c in counts.items():
        assert abs(c - 2000) < 5 * np.sqrt(4000 * 0.5 * 0.5), (key, c)


def test_negative_drop_tol_rejected():
    with pytest.raises(ValueError):
        enumerate_outcomes(make_state("GHZ4").state,
                           _plan(((0, 1), "bell")), drop_tol=-1.0)


# --- plans built from named steps -----------------------------------------------

def test_build_plan_resolves_names_and_completes_once():
    plan = build_plan((StepSpec((0, 1, 2, 3), "pi_2q", {"i": 1, "j": 2}),
                       StepSpec((4,), "plus_minus", party="Bob")))
    first, second = plan.steps
    assert first.basis.labels == make_basis("pi_2q", i=1, j=2).labels
    assert len(first.completed.labels) == 16
    assert first.completed.labels[:4] == first.basis.labels
    assert second.party == "Bob"
    assert second.completed is second.basis  # already complete


def _separately_completed(steps):
    """The plan a caller completing each basis by hand would build."""
    return MeasurementPlan(tuple(
        MeasurementStep(s.qubits,
                        complete_basis(make_basis(s.basis, **dict(s.basis_params))),
                        party=s.party)
        for s in steps))


def _assert_same_branches(state, steps, where):
    got = enumerate_outcomes(state, build_plan(steps))
    want = enumerate_outcomes(state, _separately_completed(steps))
    assert [b.labels for b in got] == [b.labels for b in want], where
    for a, b in zip(got, want):
        assert a.probability == b.probability, (where, a.key)
        assert a.kept_qubits == b.kept_qubits and a.perp == b.perp, where
        if b.state is None:
            assert a.state is None, where
        else:
            assert np.array_equal(a.state.amplitudes, b.state.amplitudes), \
                (where, a.key)


def test_completed_plans_match_separate_completion_for_scenarios():
    scenarios = list(reg.TELEPORT_SCENARIOS.values())
    scenarios += [sc for group in reg.negative_scenarios().values()
                  for sc in group]
    for sc in scenarios:
        resource = sc.resource_state().state
        probes = build_probes(sc.family, np.random.default_rng(3), num_random=2)
        for probe in probes:
            _assert_same_branches(tensor(probe.state, resource), sc.steps,
                                  (sc.scenario_id, probe.label))


def test_completed_plans_match_separate_completion_for_protocols():
    protocols = reg.catalog_protocols() + list(reg.locc_protocols().values())
    for protocol in protocols:
        for set_name, candidates in reg.locc_candidate_sets().items():
            for label, state in candidates:
                _assert_same_branches(state, protocol.rounds,
                                      (protocol.protocol_id, set_name, label))
