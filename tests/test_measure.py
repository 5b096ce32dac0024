"""Projective measurement enumeration."""

import numpy as np
import pytest

from quadproto import measure
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
from quadproto.locc import LoccProtocol, run_discrimination
from quadproto.scenario_io import dumps_scenario, loads_scenario
from quadproto.states import DROP_TOL, MAX_QUBITS, PureState, basis_state, random_state
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
        enumerate_outcomes(make_state("GHZ4").state.amplitudes[None],
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
        out = enumerate_outcomes(st.amplitudes[None], _plan(*steps), drop_tol=0.0)
        total = sum(out.probabilities[:, 0])
        assert abs(total - 1.0) < 1e-10
        checked += 1
    assert checked == 200


def test_computational_plan_matches_amplitudes():
    # two-step computational plan equals marginal mod-squared amplitudes
    rng = np.random.default_rng(17)
    st = random_state(4, rng)
    plan = _plan(((1,), "computational:1"), ((0, 2), "computational:2"))
    out = enumerate_outcomes(plan=plan, amplitudes=st.amplitudes[None],
                             drop_tol=0.0)
    probs = dict(zip(out.keys, out.probabilities[:, 0]))
    amps = st.amplitudes.reshape((2, 2, 2, 2))
    for b1 in range(2):
        for b0 in range(2):
            for b2 in range(2):
                want = float(np.sum(np.abs(amps[b0, b1, b2, :]) ** 2))
                key = "%d,%d%d" % (b1, b0, b2)
                assert abs(probs.get(key, 0.0) - want) < 1e-12


def test_residual_states_normalized_and_kept_indices():
    st = make_state("GHZ4").state
    out = enumerate_outcomes(st.amplitudes[None], _plan(((0, 1), "bell")))
    assert len(out) > 0 and out.kept_qubits == (2, 3)
    assert out.residuals.shape == (len(out), 1, 4)
    for residual in out.residuals[:, 0]:
        assert abs(np.linalg.norm(residual) - 1.0) < 1e-12


def test_refinement_equivalence_three_plus_one():
    # measuring (0,1,2) then (3) equals one tensored 16-outcome step
    ghz3 = make_basis("ghz3_full")
    pm = make_basis("plus_minus")
    labels = []
    rows = []
    for l3, v3 in zip(ghz3.labels, ghz3.matrix):
        for l1, v1 in zip(pm.labels, pm.matrix):
            labels.append("%s,%s" % (l3, l1))
            rows.append(np.kron(v3, v1))
    joint_basis = NamedBasis("ghz3_x_pm", tuple(labels), np.array(rows))

    for name in ("GHZ4", "W4", "Omega", "Q4", "Q5"):
        st = make_state(name).state.amplitudes[None]
        two_step = enumerate_outcomes(
            st, _plan(((0, 1, 2), "ghz3_full"), ((3,), "plus_minus")),
            drop_tol=0.0)
        one_step = enumerate_outcomes(
            st, MeasurementPlan((MeasurementStep((0, 1, 2, 3), joint_basis),)),
            drop_tol=0.0)
        p2 = dict(zip(two_step.keys, two_step.probabilities[:, 0]))
        p1 = dict(zip(one_step.keys, one_step.probabilities[:, 0]))
        for key in set(p1) | set(p2):
            assert abs(p1.get(key, 0.0) - p2.get(key, 0.0)) < 1e-12, (name, key)


def test_complete_basis_extends_orthonormally():
    partial = make_basis("omega_meas")
    full = complete_basis(partial)
    assert len(full.labels) == 16
    assert full.labels[:4] == partial.labels
    assert sum(1 for lbl in full.labels if lbl.startswith("perp")) == 12
    mat = full.matrix
    assert np.allclose(mat @ mat.conj().T, np.eye(16), atol=1e-12)


def test_complete_basis_noop_when_complete():
    full = complete_basis(make_basis("ghz3_full"))
    assert len(full.labels) == 8
    assert not any(lbl.startswith("perp") for lbl in full.labels)


def test_perp_probability_partial_basis():
    # W4 has no support on the omega measurement's named directions' span
    # complement being zero; check bookkeeping instead of a specific value
    st = make_state("W4").state
    out = enumerate_outcomes(st.amplitudes[None],
                             _plan(((0, 1, 2, 3), "omega_meas")), drop_tol=0.0)
    assert list(out.perp) == [key.startswith("perp") for key in out.keys]
    leak = sum(out.probabilities[out.perp, 0])
    named = sum(out.probabilities[~out.perp, 0])
    assert abs(leak + named - 1.0) < 1e-12
    assert leak > 0.5  # most of W4 lies outside the four named directions


def test_zero_probability_branches_dropped():
    # |0000> overlaps exactly two of the eight basis vectors; the other
    # six must be dropped even at drop_tol=0 (no NaN residuals).
    st = basis_state("0000")
    out = enumerate_outcomes(st.amplitudes[None],
                             _plan(((0, 1, 2, 3), "ghz4_full")), drop_tol=0.0)
    assert set(out.keys) == {"4GHZ1+", "4GHZ1-"}
    assert all(abs(p - 0.5) < 1e-12 for p in out.probabilities[:, 0])
    assert out.residuals is None  # nothing left unmeasured


def test_negative_drop_tol_rejected():
    with pytest.raises(ValueError):
        enumerate_outcomes(make_state("GHZ4").state.amplitudes[None],
                           _plan(((0, 1), "bell")), drop_tol=-1.0)
    for bad in (float("nan"), float("inf"), 1.0):
        with pytest.raises(ValueError, match="drop_tol must be a finite number"):
            enumerate_outcomes(make_state("GHZ4").state.amplitudes[None],
                               _plan(((0, 1), "bell")), drop_tol=bad)


def test_stack_boundaries():
    plan = _plan(((0, 1), "bell"))
    empty = enumerate_outcomes(np.zeros((0, 16), dtype=np.complex128), plan)
    assert len(empty) == 0 and empty.residuals is None
    ghz = make_state("GHZ4").state.amplitudes
    bad_stacks = [
        (ghz, "amplitude array, got 1 dimensions"),
        (np.full((1, 12), 12 ** -0.5), "dimension 12 is not a power of two"),
        # a zero-stride view: the width is refused before any row is read
        (np.broadcast_to(ghz[:1], (1, 2 ** (MAX_QUBITS + 1))),
         "%d qubits exceeds the %d-qubit capacity" % (MAX_QUBITS + 1, MAX_QUBITS)),
        (np.stack([ghz, np.full(16, 0.5)]), "row 1 has norm 2.0, not 1"),
        (np.stack([ghz, np.full(16, np.nan)]), "row 1 has norm nan, not 1"),
    ]
    for stack, message in bad_stacks:
        with pytest.raises(ValueError, match=message):
            enumerate_outcomes(stack, plan)
    bell = LoccProtocol("bell", (StepSpec((0, 1), "bell"),))
    # mixed sizes, and an empty set, which used to report success
    for candidates in ([("a", make_state("GHZ4").state), ("b", basis_state("000"))], []):
        with pytest.raises(ValueError, match="one or more states on one register"):
            run_discrimination(candidates, bell)
    # a branch that fires for one input only reads exactly 0.0 for the other
    out = enumerate_outcomes(np.array([basis_state("0000").amplitudes, ghz]),
                             _plan(((0, 1, 2, 3), "ghz4_full")), drop_tol=0.0)
    assert out.probabilities.shape == (len(out), 2)
    for key, probs in zip(out.keys, out.probabilities):
        if key != "4GHZ1+":
            assert probs[1] == 0.0, key


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


def test_build_plan_memoized_by_value():
    # a JSON round trip gives equal steps in new objects: one plan serves both
    for sc in reg.TELEPORT_SCENARIOS.values():
        loaded = loads_scenario(dumps_scenario(sc))
        assert loaded.steps is not sc.steps
        assert build_plan(loaded.steps) is build_plan(sc.steps), sc.scenario_id
    assert build_plan([StepSpec((0, 1), "bell", party="B")]) is not \
        build_plan([StepSpec((0, 1), "bell")])


def test_build_plan_cache_keeps_parameter_types():
    plan = build_plan([StepSpec((0, 1, 2, 3), "pi_2q", {"i": 1})])
    assert plan is build_plan([StepSpec((0, 1, 2, 3), "pi_2q", {"i": 1})])
    for bad in (1.0, True):
        with pytest.raises(ValueError, match="Pauli index must be an integer"):
            build_plan([StepSpec((0, 1, 2, 3), "pi_2q", {"i": bad})])


def _separately_completed(steps):
    """The plan a caller completing each basis by hand would build."""
    return MeasurementPlan(tuple(
        MeasurementStep(s.qubits,
                        complete_basis(make_basis(s.basis, **dict(s.basis_params))),
                        party=s.party)
        for s in steps))


def _assert_same_branches(stack, steps, where):
    got = enumerate_outcomes(stack, build_plan(steps))
    want = enumerate_outcomes(stack, _separately_completed(steps))
    assert got.labels == want.labels and got.keys == want.keys, where
    assert np.array_equal(got.probabilities, want.probabilities), where
    assert got.kept_qubits == want.kept_qubits, where
    assert np.array_equal(got.perp, want.perp), where
    if want.residuals is None:
        assert got.residuals is None, where
    else:
        assert np.array_equal(got.residuals, want.residuals), where


def _all_scenarios():
    scenarios = list(reg.TELEPORT_SCENARIOS.values())
    return scenarios + [sc for group in reg.negative_scenarios().values()
                        for sc in group]


def _probe_stack(scenario, seed, num_random=20):
    resource = scenario.resource_state().state
    vectors, _ = build_probes(scenario.family, np.random.default_rng(seed),
                              num_random=num_random)
    return np.array([np.kron(v, resource.amplitudes) for v in vectors])


def _protocol_stacks():
    protocols = reg.catalog_protocols() + list(reg.locc_protocols().values())
    for protocol in protocols:
        for set_name, candidates in reg.locc_candidate_sets().items():
            yield protocol, set_name, np.array([state.amplitudes
                                                for _, state in candidates])


def test_completed_plans_match_separate_completion_for_scenarios():
    for sc in _all_scenarios():
        _assert_same_branches(_probe_stack(sc, 3, num_random=2), sc.steps,
                              sc.scenario_id)


def test_completed_plans_match_separate_completion_for_protocols():
    for protocol, set_name, stack in _protocol_stacks():
        _assert_same_branches(stack, protocol.rounds,
                              (protocol.protocol_id, set_name))


# --- completion on the basis matrix against the state-by-state path ---------------

def _registered_plan_steps():
    """The steps of every registered teleport scenario and LOCC protocol."""
    protocols = reg.catalog_protocols() + list(reg.locc_protocols().values())
    return ([sc.steps for sc in _all_scenarios()]
            + [protocol.rounds for protocol in protocols])


def _reference_completion(basis):
    """Labels and rows of ``basis`` completed by the Gram-Schmidt that walked
    ``PureState``s: unit vectors in index order, kept while their residual
    exceeds 0.5, then 1e-6, each survivor rebuilt as a state."""
    d = basis.dim
    rows = [v.amplitudes for v in basis.vectors]
    labels = list(basis.labels)
    k = 0
    for threshold in (0.5, 1e-6):
        for i in range(d):
            if len(rows) == d:
                break
            cand = np.zeros(d, dtype=np.complex128)
            cand[i] = 1.0
            for r in rows:
                cand -= np.vdot(r, cand) * r
            norm = np.linalg.norm(cand)
            if norm > threshold:
                rows.append(cand / norm)
                labels.append("perp%d" % k)
                k += 1
    assert len(rows) == d, basis.name
    return tuple(labels), np.array([PureState(r).amplitudes for r in rows])


def test_complete_basis_matches_the_state_by_state_reference():
    # the perp rows feed the printed perp_probability, so they must agree
    # bit for bit on every basis a registered plan measures
    keys = {(s.basis, tuple(sorted(s.basis_params.items())))
            for steps in _registered_plan_steps() for s in steps}
    assert len(keys) == 40
    for name, params in sorted(keys):
        basis = make_basis(name, **dict(params))
        labels, rows = _reference_completion(basis)
        full = complete_basis(basis)
        assert full.labels == labels, (name, params)
        assert np.array_equal(full.matrix, rows), (name, params)


def test_building_every_registered_plan_constructs_no_pure_state(monkeypatch):
    plans = _registered_plan_steps()
    built = []
    original = PureState.__post_init__

    def counting(self):
        built.append(self)
        original(self)

    monkeypatch.setattr(PureState, "__post_init__", counting)
    for memo in make_basis, complete_basis, measure._plan:
        memo.cache_clear()  # so every basis is built and completed while counted
    for steps in plans:
        build_plan(steps)
    assert measure._plan.cache_info().currsize == 68  # distinct plans, all rebuilt
    assert complete_basis.cache_info().misses == 40
    assert built == []
    basis_state("0")  # the count does see a construction
    assert len(built) == 1


def test_each_registered_basis_is_built_and_completed_once():
    # the catalog shares one basis per name and typed parameters, and each
    # shared basis is completed once, however many plans measure it
    keys = {(s.basis, tuple((k, type(v), v) for k, v in s.basis_params.items()))
            for steps in _registered_plan_steps() for s in steps}
    for memo in make_basis, complete_basis, measure._plan:
        memo.cache_clear()
    for _ in range(2):
        for steps in _registered_plan_steps():
            build_plan(steps)
        measure._plan.cache_clear()
    assert len(keys) == 40
    assert make_basis.cache_info().misses == len(keys)
    assert complete_basis.cache_info().misses == len(keys)


# --- the batched kernel against one-state-at-a-time enumeration ---------------

def _reference_outcomes(amplitudes, plan, drop_tol=DROP_TOL):
    """Enumerate one state's branches a row at a time with ``np.vdot``.

    This is the per-state walk the stacked kernel replaced; it returns
    (labels, probability, normalized residual or None) per firing branch.
    """
    orig = list(range(amplitudes.size.bit_length() - 1))
    branches = [((), amplitudes)]
    for step in plan.steps:
        matrix = step.completed.matrix
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


def _assert_matches_reference(stack, plan, where, drop_tol=DROP_TOL):
    got = enumerate_outcomes(stack, plan, drop_tol=drop_tol)
    # at a large drop_tol every branch of a spread-out input may drop
    assert len(got) or drop_tol > DROP_TOL, where
    assert got.probabilities.shape == (len(got), len(stack)), where
    assert got.keys == tuple(",".join(labels) for labels in got.labels), where
    assert list(got.perp) == [any(lbl.startswith("perp") for lbl in labels)
                              for labels in got.labels], where
    # the old per-branch kernel gave one branch per outcome that fires for
    # at least one input: no more, no fewer
    branches = set()
    for i, amplitudes in enumerate(stack):
        fired = np.flatnonzero(got.probabilities[:, i])
        want = _reference_outcomes(amplitudes, plan, drop_tol)
        branches.update(w[0] for w in want)
        assert [got.labels[j] for j in fired] == [w[0] for w in want], (where, i)
        for j, (labels, p, residual) in zip(fired, want):
            assert got.probabilities[j, i] == p, (where, i, labels)
            if residual is None:
                assert got.residuals is None, (where, i, labels)
            else:
                assert np.array_equal(got.residuals[j, i], residual), \
                    (where, i, labels)
        if got.residuals is not None:
            for j in np.flatnonzero(got.probabilities[:, i] == 0.0):
                assert not got.residuals[j, i].any(), (where, i, got.keys[j])
    assert len(got) == len(branches) == len(set(got.labels)), where
    assert set(got.labels) == branches, where


def test_stacked_kernel_matches_per_state_reference_on_probe_stacks():
    for sc in _all_scenarios():
        _assert_matches_reference(_probe_stack(sc, 42), build_plan(sc.steps),
                                  sc.scenario_id)


def test_stacked_kernel_matches_per_state_reference_on_candidate_sets():
    for protocol, set_name, stack in _protocol_stacks():
        _assert_matches_reference(stack, protocol.plan,
                                  (protocol.protocol_id, set_name))


_RANDOM_PLAN_BASES = {
    1: ("computational:1", "plus_minus"),
    2: ("bell", "computational:2"),
    3: ("ghz3_full", "omega3_q5"),
    4: ("ghz4_full", "omega16", "omega_meas", "tau_q4", "sigma_w"),
}


def _random_partial_plan(rng, n):
    """One to three catalog steps on 1-4 qubits each, in a random qubit
    order, leaving at least one of the n qubits unmeasured."""
    qubits = [int(q) for q in rng.permutation(n)]
    steps = []
    while len(qubits) > 1 and len(steps) < 3:
        k = int(rng.integers(1, min(4, len(qubits) - 1) + 1))
        on = tuple(qubits.pop() for _ in range(k))
        steps.append(MeasurementStep(on, make_basis(str(rng.choice(_RANDOM_PLAN_BASES[k])))))
        if rng.random() < 0.3:
            break
    return MeasurementPlan(tuple(steps))


def _sparse_stack(rng, n):
    """One to five inputs, each on one to four random computational terms,
    so a branch often dies at one step for some inputs and fires for others;
    the last term is scaled by 1e-4 to 0.3, so outcomes straddle the tested
    drop tolerances."""
    rows = np.zeros((int(rng.integers(1, 6)), 2 ** n), dtype=np.complex128)
    for row in rows:
        at = rng.choice(2 ** n, size=min(2 ** n, int(rng.integers(1, 5))), replace=False)
        row[at] = rng.normal(size=at.size) + 1j * rng.normal(size=at.size)
        row[at[-1]] *= 10.0 ** rng.uniform(-4.0, -0.5)
        row /= np.linalg.norm(row)
    return rows


@pytest.mark.parametrize("drop_tol", [0.0, 1e-12, 1e-6, 1e-3, 0.05, 0.2])
def test_stacked_kernel_matches_per_state_reference_on_random_partial_plans(drop_tol):
    # one drop at the end of the plan must keep exactly the branches the
    # per-state walk keeps when it prunes after every step
    rng = np.random.default_rng(1207)
    died_mid_plan = 0
    for case in range(40):
        n = int(rng.integers(2, 8))
        plan = _random_partial_plan(rng, n)
        stack = _sparse_stack(rng, n)
        _assert_matches_reference(stack, plan, (case, n, drop_tol), drop_tol)
        if len(plan.steps) > 1:
            # a first-step branch (each fires for some input) that does not
            # fire for every input
            first = enumerate_outcomes(stack, MeasurementPlan(plan.steps[:1]),
                                       drop_tol=drop_tol).probabilities > 0.0
            died_mid_plan += bool((~first.all(axis=1)).any())
    assert died_mid_plan >= 5
