"""Acceptance gate: the full protocol contract, one criterion per test.

Each test prints a single visible PASS/FAIL line so the gate can be read
off a terminal without opening the report.  Tolerances are part of the
contract and are asserted literally, not loosened.
"""

import itertools

import numpy as np
import pytest

from quadproto import scenarios as reg
from quadproto.catalog import (
    CORRECTIONS,
    basis_names,
    make_basis,
    make_state,
)
from quadproto.densecode import best_over_subsets, distinguishable_messages
from quadproto.diagnostics import (
    pair_concurrence,
    purity_profile,
    three_tangle_pure,
)
from quadproto.locc import check_certificate, run_discrimination
from quadproto.measure import (
    MeasurementPlan,
    enumerate_outcomes,
)
from quadproto.states import (
    PureState,
    apply_local,
    reduced_density,
)
from quadproto.suite import run_suite
from quadproto.teleport import run_scenario

from reference_inputs import haar_unitary, ref

FID_TOL = 1e-10
NEGATIVE_GAP = 1e-3
GRAM_TOL = 1e-12
PURITY_GAP = 1e-6
VALUE_TOL = 1e-9
SUM_TOL = 1e-10


@pytest.fixture(autouse=True)
def _announce(request, capsys):
    outcome = {"ok": False}
    request.node._accept_outcome = outcome
    yield outcome
    label = request.node.name.replace("test_criterion_", "")
    with capsys.disabled():
        print("ACCEPTANCE %-38s %s"
              % (label, "PASS" if outcome["ok"] else "FAIL"))


def test_criterion_1_teleportation_positive(_announce):
    for sid, sc in reg.TELEPORT_SCENARIOS.items():
        res = run_scenario(sc)
        assert res.feasible, sid
        assert res.worst_fidelity >= 1.0 - FID_TOL, sid
        assert res.perp_probability <= FID_TOL, sid
        assert res.classical_cost == reg.TELEPORT_COSTS[sid], \
            (sid, res.classical_cost)
    # the one-bit special case really is one bit
    assert reg.TELEPORT_COSTS["w3_sigma"] == 1
    # two/three/four-party splits of the same protocol step up by one bit
    assert reg.TELEPORT_COSTS["ghz1_bell11_2party"] == 2
    assert reg.TELEPORT_COSTS["ghz1_bell11_3party"] == 3
    assert reg.TELEPORT_COSTS["ghz1_bell11_4party"] == 4
    _announce["ok"] = True


def test_criterion_2_teleportation_negative(_announce):
    groups = reg.negative_scenarios()
    assert set(groups) == {"w4_plain_1q", "q4_bob4_1q",
                           "omega2_bellbell_paulis"}
    for gid, group in groups.items():
        assert group, gid
        for sc in group:
            res = run_scenario(sc)
            assert not res.feasible, sc.scenario_id
            assert res.best_worst_fidelity < 1.0 - NEGATIVE_GAP, \
                (sc.scenario_id, res.best_worst_fidelity)
    _announce["ok"] = True


def test_criterion_3_densecode_capacities(_announce):
    def count(name, qubits, **params):
        st = make_state(name, **params).state
        return distinguishable_messages(st, qubits).count

    assert count("GHZ4", (0,)) == 4
    assert count("GHZ4", (0, 1)) == 8
    assert count("GHZ4", (0, 1, 2)) == 16

    assert count("W4", (0,)) < 4
    assert count("W4", (0, 1)) == 8
    assert count("W4", (0, 1, 2)) == 8

    assert count("W_mn", (3,), m=1, n=1) == 4
    assert max(count("W_mn", t, m=1, n=1)
               for t in ((0, 1, 3), (0, 2, 3), (1, 2, 3))) == 8

    assert count("Omega", (0,)) == 4
    assert count("Omega", (0, 1)) == 16
    assert count("Omega", (0, 1, 2)) == 16

    assert count("Q4", (1,)) == 4        # second particle
    assert count("Q4", (0,)) < 4         # first particle
    assert count("Q4", (0, 1)) == 8
    assert count("Q4", (0, 1, 2)) == 8

    assert count("Q5", (1,)) == 4
    assert count("Q5", (0, 1)) == 8
    assert count("Q5", (0, 1, 2)) == 16
    _announce["ok"] = True


def test_criterion_4_basis_hygiene(_announce):
    # gram identity for every named basis, parameterized families included
    jobs = [(name, {}) for name in basis_names()]
    jobs += [("eta_zeta_w", {"p": 1.0, "q": 2.0, "r": 2.0, "s": 3.0}),
             ("eta_zeta_w", {"p": 2.0, "q": 2.0, "r": 1.0, "s": 3.0})]
    for name, params in jobs:
        basis = make_basis(name, **params)
        vecs = np.array([v.amplitudes for v in basis.vectors])
        gram = vecs.conj() @ vecs.T
        err = np.max(np.abs(gram - np.eye(len(vecs))))
        assert err <= GRAM_TOL, (name, err)

    # exactly the documented corrections, each with a derivation note
    stored = {(c.basis, c.label) for c in CORRECTIONS}
    assert stored == {
        ("omega16", "Omega15"),
        ("rho_q4", "rho1+/-"), ("rho_q4", "rho2+/-"),
        ("tau_q4", "tau3+/-"), ("tau_q4", "tau4+/-"),
        ("omega34_3q", "Omega3+/-"),
        ("sigma_w", "Sigma4+/-"),
    }
    for c in CORRECTIONS:
        assert c.method.strip(), c.label
        assert c.corrected, c.label

    # bases whose printed duplicate rows were resolved during synthesis
    # still yield four distinct one-qubit corrections
    for sid in ("w11_etazeta", "q5_varphi"):
        res = run_scenario(reg.TELEPORT_SCENARIOS[sid])
        assert sorted(set(res.corrections.values())) == \
            ["is2", "s0", "s1", "s3"], sid

    report = run_suite(sections=("bases",))
    assert report.ok
    _announce["ok"] = True


def test_criterion_5_entanglement_profile(_announce):
    for name in ("GHZ4", "W4", "Omega", "Q4", "Q5"):
        st = make_state(name).state
        for keep, p in purity_profile(st).items():
            assert p <= 1.0 - PURITY_GAP, (name, keep, p)

    w4 = make_state("W4").state
    for i, j in itertools.combinations(range(4), 2):
        assert abs(pair_concurrence(w4, i, j) - 0.5) < VALUE_TOL, (i, j)
    for name in ("Omega", "Q5"):
        st = make_state(name).state
        for i, j in itertools.combinations(range(4), 2):
            assert pair_concurrence(st, i, j) < VALUE_TOL, (name, i, j)

    ghz3 = make_state("GHZ:3").state
    w3 = PureState.from_kets({"001": 1, "010": 1, "100": 1}, normalize=True)
    assert abs(three_tangle_pure(ghz3) - 1.0) < VALUE_TOL
    assert three_tangle_pure(w3) < VALUE_TOL
    _announce["ok"] = True


def test_criterion_6_locc_discrimination(_announce):
    sets_ = reg.locc_candidate_sets()
    prots = reg.locc_protocols()

    res = run_discrimination(sets_["ghz8"], prots["ghz_bell_bell"])
    assert res.success and res.inter_receiver_cbits == 2
    res = run_discrimination(sets_["ghz8"], prots["ghz_pm_ghz3"])
    assert res.success and res.inter_receiver_cbits == 1

    for sname, pname in (("omega4", "omega_comp"), ("w4", "w_bell"),
                         ("q5_4", "q5_comp")):
        assert run_discrimination(sets_[sname], prots[pname]).success, sname

    for name, factors in reg.certificate_factors().items():
        rep = check_certificate(sets_[name], factors)
        if name == "omega16":
            assert not rep.ok
        else:
            assert rep.ok, (name, rep.detail)

    for protocol in reg.catalog_protocols():
        assert not run_discrimination(sets_["omega16"], protocol).success, \
            protocol.protocol_id
    _announce["ok"] = True


@pytest.mark.usefixtures("keep_every_branch")
def test_criterion_7_randomized_properties(_announce):
    rng = np.random.default_rng(2026)

    # 200 randomized core cases: normalization, invariance of overlaps
    # under local unitaries, and marginal purity bounds
    for case in range(200):
        n = int(rng.integers(2, 7))
        a = PureState(ref.haar(n, rng))
        b = PureState(ref.haar(n, rng))
        assert abs(np.linalg.norm(a.amplitudes) - 1.0) < 1e-12
        before = np.vdot(a.amplitudes, b.amplitudes)
        q = int(rng.integers(0, n))
        u = haar_unitary(1, rng)
        ua = apply_local(a, u, [q])
        ub = apply_local(b, u, [q])
        after = np.vdot(ua.amplitudes, ub.amplitudes)
        assert abs(before - after) < 1e-11, case
        keep = [q]
        rho = reduced_density(ua, keep)
        purity = float(np.trace(rho @ rho).real)
        assert 0.5 - 1e-12 <= purity <= 1.0 + 1e-12, case

    # 200 randomized measurement plans: branch probabilities sum to one
    basis_pool = ("plus_minus", "computational:1", "bell", "computational:2")
    for case in range(200):
        n = int(rng.integers(2, 7))
        st = PureState(ref.haar(n, rng))
        qubits = list(range(n))
        rng.shuffle(qubits)
        steps = []
        cursor = 0
        for _ in range(int(rng.integers(1, 3))):
            bname = basis_pool[int(rng.integers(0, len(basis_pool)))]
            width = make_basis(bname).num_qubits
            if cursor + width > n:
                break
            steps.append((tuple(qubits[cursor:cursor + width]), make_basis(bname)))
            cursor += width
        if not steps:
            continue
        out = enumerate_outcomes(st.amplitudes[None], MeasurementPlan(tuple(steps)))
        total = sum(out.probabilities[:, 0])
        assert abs(total - 1.0) < SUM_TOL, case

    # refinement equivalence on the three-plus-one split
    from quadproto.catalog import NamedBasis
    ghz3 = make_basis("ghz3_full")
    pm = make_basis("plus_minus")
    labels, rows = [], []
    for l3, v3 in zip(ghz3.labels, ghz3.matrix):
        for l1, v1 in zip(pm.labels, pm.matrix):
            labels.append("%s,%s" % (l3, l1))
            rows.append(np.kron(v3, v1))
    joint = NamedBasis("ghz3_x_pm", tuple(labels), np.array(rows))
    for name in ("GHZ4", "W4", "Omega", "Q4", "Q5"):
        st = make_state(name).state
        split = enumerate_outcomes(st.amplitudes[None], MeasurementPlan((
            ((0, 1, 2), ghz3), ((3,), pm))))
        fused = enumerate_outcomes(st.amplitudes[None], MeasurementPlan((
            ((0, 1, 2, 3), joint),)))
        p_split = dict(zip(split.keys, split.probabilities[:, 0]))
        p_fused = dict(zip(fused.keys, fused.probabilities[:, 0]))
        for key in set(p_split) | set(p_fused):
            assert abs(p_split.get(key, 0.0)
                       - p_fused.get(key, 0.0)) < 1e-12, (name, key)
    _announce["ok"] = True
