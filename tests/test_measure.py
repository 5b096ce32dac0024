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
)
from quadproto.states import DROP_TOL, PureState, basis_state, random_state, tensor
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
        enumerate_outcomes([make_state("GHZ4").state],
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
        branches = enumerate_outcomes([st], _plan(*steps), drop_tol=0.0)
        total = sum(b.probabilities[0] for b in branches)
        assert abs(total - 1.0) < 1e-10
        checked += 1
    assert checked == 200


def test_computational_plan_matches_amplitudes():
    # two-step computational plan equals marginal mod-squared amplitudes
    rng = np.random.default_rng(17)
    st = random_state(4, rng)
    plan = _plan(((1,), "computational:1"), ((0, 2), "computational:2"))
    probs = {b.key: b.probabilities[0]
             for b in enumerate_outcomes(plan=plan, states=[st], drop_tol=0.0)}
    amps = st.amplitudes.reshape((2, 2, 2, 2))
    for b1 in range(2):
        for b0 in range(2):
            for b2 in range(2):
                want = float(np.sum(np.abs(amps[b0, b1, b2, :]) ** 2))
                key = "%d,%d%d" % (b1, b0, b2)
                assert abs(probs.get(key, 0.0) - want) < 1e-12


def test_residual_states_normalized_and_kept_indices():
    st = make_state("GHZ4").state
    branches = enumerate_outcomes([st], _plan(((0, 1), "bell")))
    for b in branches:
        assert b.kept_qubits == (2, 3)
        assert abs(np.linalg.norm(b.residuals[0]) - 1.0) < 1e-12


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
            [st], _plan(((0, 1, 2), "ghz3_full"), ((3,), "plus_minus")),
            drop_tol=0.0)
        one_step = enumerate_outcomes(
            [st], MeasurementPlan((MeasurementStep((0, 1, 2, 3), joint_basis),)),
            drop_tol=0.0)
        p2 = {b.key: b.probabilities[0] for b in two_step}
        p1 = {b.key: b.probabilities[0] for b in one_step}
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
    branches = enumerate_outcomes([st], _plan(((0, 1, 2, 3), "omega_meas")),
                                  drop_tol=0.0)
    leak = sum(b.probabilities[0] for b in branches if b.perp)
    named = sum(b.probabilities[0] for b in branches if not b.perp)
    assert abs(leak + named - 1.0) < 1e-12
    assert leak > 0.5  # most of W4 lies outside the four named directions


def test_zero_probability_branches_dropped():
    # |0000> overlaps exactly two of the eight basis vectors; the other
    # six must be dropped even at drop_tol=0 (no NaN residuals).
    st = basis_state("0000")
    branches = enumerate_outcomes([st], _plan(((0, 1, 2, 3), "ghz4_full")),
                                  drop_tol=0.0)
    keys = {b.key for b in branches}
    assert keys == {"4GHZ1+", "4GHZ1-"}
    assert all(abs(b.probabilities[0] - 0.5) < 1e-12 for b in branches)
    assert all(b.residuals is None for b in branches)  # nothing left unmeasured


def test_negative_drop_tol_rejected():
    with pytest.raises(ValueError):
        enumerate_outcomes([make_state("GHZ4").state],
                           _plan(((0, 1), "bell")), drop_tol=-1.0)


def test_stack_boundaries():
    plan = _plan(((0, 1), "bell"))
    assert enumerate_outcomes([], plan) == []
    with pytest.raises(ValueError):
        enumerate_outcomes([make_state("GHZ4").state, basis_state("000")], plan)
    # a branch that fires for one input only reads exactly 0.0 for the other
    zero, ghz = basis_state("0000"), make_state("GHZ4").state
    branches = enumerate_outcomes([zero, ghz],
                                  _plan(((0, 1, 2, 3), "ghz4_full")), drop_tol=0.0)
    for b in branches:
        if b.key != "4GHZ1+":
            assert b.probabilities[1] == 0.0, b.key


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


def _assert_same_branches(states, steps, where):
    got = enumerate_outcomes(states, build_plan(steps))
    want = enumerate_outcomes(states, _separately_completed(steps))
    assert [b.labels for b in got] == [b.labels for b in want], where
    for a, b in zip(got, want):
        assert np.array_equal(a.probabilities, b.probabilities), (where, a.key)
        assert a.kept_qubits == b.kept_qubits and a.perp == b.perp, where
        if b.residuals is None:
            assert a.residuals is None, where
        else:
            assert np.array_equal(a.residuals, b.residuals), (where, a.key)


def _all_scenarios():
    scenarios = list(reg.TELEPORT_SCENARIOS.values())
    return scenarios + [sc for group in reg.negative_scenarios().values()
                        for sc in group]


def _probe_stack(scenario, seed, num_random=20):
    resource = scenario.resource_state().state
    probes = build_probes(scenario.family, np.random.default_rng(seed),
                          num_random=num_random)
    return [tensor(probe.state, resource) for probe in probes]


def _protocol_stacks():
    protocols = reg.catalog_protocols() + list(reg.locc_protocols().values())
    for protocol in protocols:
        for set_name, candidates in reg.locc_candidate_sets().items():
            yield protocol, set_name, [state for _, state in candidates]


def test_completed_plans_match_separate_completion_for_scenarios():
    for sc in _all_scenarios():
        _assert_same_branches(_probe_stack(sc, 3, num_random=2), sc.steps,
                              sc.scenario_id)


def test_completed_plans_match_separate_completion_for_protocols():
    for protocol, set_name, states in _protocol_stacks():
        _assert_same_branches(states, protocol.rounds,
                              (protocol.protocol_id, set_name))


# --- the batched kernel against one-state-at-a-time enumeration ---------------

def _reference_outcomes(state, plan, drop_tol=DROP_TOL):
    """Enumerate one state's branches a row at a time with ``np.vdot``.

    This is the per-state walk the stacked kernel replaced; it returns
    (labels, probability, normalized residual or None) per firing branch.
    """
    orig = list(range(state.num_qubits))
    branches = [((), state.amplitudes)]
    for step in plan.steps:
        matrix = step.completed.matrix()
        positions = [orig.index(q) for q in step.qubits]
        rest = [p for p in range(len(orig)) if p not in positions]
        next_branches = []
        for labels, vec in branches:
            t = vec.reshape([2] * len(orig)).transpose(positions + rest)
            rows = matrix.conj() @ t.reshape(matrix.shape[1], -1)
            for label, row in zip(step.completed.labels, rows):
                if float(np.vdot(row, row).real) > drop_tol:
                    next_branches.append((labels + (label,), row))
        branches = next_branches
        orig = [orig[p] for p in rest]
    out = []
    for labels, vec in branches:
        p = float(np.vdot(vec, vec).real)
        if p > drop_tol:
            out.append((labels, p, vec / np.sqrt(p) if vec.size > 1 else None))
    return out


def _assert_matches_reference(states, plan, where):
    got = enumerate_outcomes(states, plan)
    assert got, where
    for i, state in enumerate(states):
        fired = [b for b in got if b.probabilities[i] != 0.0]
        want = _reference_outcomes(state, plan)
        assert [b.labels for b in fired] == [w[0] for w in want], (where, i)
        for b, (labels, p, residual) in zip(fired, want):
            assert b.probabilities[i] == p, (where, i, labels)
            if residual is None:
                assert b.residuals is None, (where, i, labels)
            else:
                assert np.array_equal(b.residuals[i], residual), \
                    (where, i, labels)
        for b in got:
            if b.probabilities[i] == 0.0 and b.residuals is not None:
                assert not b.residuals[i].any(), (where, i, b.key)


def test_stacked_kernel_matches_per_state_reference_on_probe_stacks():
    for sc in _all_scenarios():
        _assert_matches_reference(_probe_stack(sc, 42), build_plan(sc.steps),
                                  sc.scenario_id)


def test_stacked_kernel_matches_per_state_reference_on_candidate_sets():
    for protocol, set_name, states in _protocol_stacks():
        _assert_matches_reference(states, protocol.plan,
                                  (protocol.protocol_id, set_name))
