"""LOCC discrimination and product-decomposition certificates."""

import dataclasses
import itertools
import math

import numpy as np
import pytest

from quadproto import locc
from quadproto import scenarios as reg
from quadproto.catalog import NamedBasis, make_basis
from quadproto.locc import (
    DiscriminationResult,
    LoccProtocol,
    check_certificate,
    product_terms,
    run_discrimination,
)
from quadproto.measure import StepSpec, build_plan, enumerate_outcomes
from quadproto.states import ASSERT_TOL, DROP_TOL, PureState, basis_state, random_state


def _bell(label):
    b = make_basis("bell")
    return dict(zip(b.labels, b.vectors))[label]


# --- discrimination ---------------------------------------------------------------

def test_ghz_set_separates_under_bell_bell():
    res = run_discrimination(reg.locc_candidate_sets()["ghz8"],
                             reg.locc_protocols()["ghz_bell_bell"])
    assert res.success
    assert res.collisions == ()
    assert res.inter_receiver_cbits == 2
    assert dict(res.cbit_breakdown) == {"round:B1": 2}
    # each candidate is a two-term superposition of product outcomes, so
    # all 16 transcripts fire and each is owned by exactly one candidate
    assert len(res.transcript_map) == 16
    assert set(res.transcript_map.values()) == {
        lbl for lbl, _ in reg.locc_candidate_sets()["ghz8"]}


def test_ghz_set_separates_with_one_bit():
    res = run_discrimination(reg.locc_candidate_sets()["ghz8"],
                             reg.locc_protocols()["ghz_pm_ghz3"])
    assert res.success and res.inter_receiver_cbits == 1


def test_four_state_sets_separate():
    sets_ = reg.locc_candidate_sets()
    prots = reg.locc_protocols()
    for sname, pname in (("omega4", "omega_comp"), ("w4", "w_bell"),
                         ("q5_4", "q5_comp")):
        res = run_discrimination(sets_[sname], prots[pname])
        assert res.success, sname
        assert res.inter_receiver_cbits == 2, sname


def test_collisions_reported_with_owners():
    two = [("a", _bell("phi+")), ("b", _bell("phi-"))]
    comp = LoccProtocol("comp", (
        StepSpec((0,), "computational:1", party="B1"),
        StepSpec((1,), "computational:1", party="B2"),
    ))
    res = run_discrimination(two, comp)
    assert not res.success
    assert res.collisions == (("0,0", ("a", "b")), ("1,1", ("a", "b")))
    assert res.transcript_map == {}


def test_cbits_exclude_final_party_rounds():
    # both rounds belong to the announcing party: zero relayed bits
    two = [("a", _bell("phi+")), ("b", _bell("psi+"))]
    same_party = LoccProtocol("solo", (
        StepSpec((0,), "computational:1", party="B1"),
        StepSpec((1,), "computational:1", party="B1"),
    ))
    res = run_discrimination(two, same_party)
    assert res.success and res.inter_receiver_cbits == 0
    assert dict(res.cbit_breakdown) == {}


def test_repeated_candidate_labels_rejected():
    # the owner set used to collapse: success with no collision
    protocol = reg.catalog_protocols()[0]
    q4 = reg.locc_candidate_sets()["q4_8"]
    with pytest.raises(ValueError, match="repeated: \\['a'\\]"):
        run_discrimination([("a", q4[0][1]), ("a", q4[1][1])], protocol)


def test_sixteen_set_defeats_every_catalog_protocol():
    cands = reg.locc_candidate_sets()["omega16"]
    assert len(cands) == 16
    for protocol in reg.catalog_protocols():
        assert not run_discrimination(cands, protocol).success, \
            protocol.protocol_id


def test_protocol_plan_is_built_once(monkeypatch):
    # the plan is kept on the protocol, and equal protocols share the
    # memoized plan; each protocol asks build_plan once
    calls = []

    def counting_build_plan(rounds):
        calls.append(rounds)
        return build_plan(rounds)

    monkeypatch.setattr(locc, "build_plan", counting_build_plan)
    for protocol in reg.catalog_protocols():
        assert protocol.plan is protocol.plan
        assert [s.party for s in protocol.plan.steps] == ["B1", "B2"]
        twin = LoccProtocol(protocol.protocol_id,
                            tuple(dataclasses.replace(s) for s in protocol.rounds))
        assert twin.rounds[0] is not protocol.rounds[0] and twin == protocol
        assert twin.plan is twin.plan is protocol.plan
        assert twin == protocol
        assert calls == [protocol.rounds, protocol.rounds]
        calls.clear()


def test_catalog_protocol_sweep_shape():
    ids = [p.protocol_id for p in reg.catalog_protocols()]
    assert len(ids) == len(set(ids)) == 20


def test_one_run_per_protocol_decides_every_q4_subset():
    # the suite's four-subset search reads each subset's verdict off one run
    # over all eight candidates; it must agree with running the subset alone
    q4 = reg.locc_candidate_sets()["q4_8"]
    assert len({label for label, _ in q4}) == len(q4) == 8
    verdicts = set()
    for protocol in reg.catalog_protocols():
        full = run_discrimination(q4, protocol)
        for size in (2, 3, 4):
            for subset in itertools.combinations(q4, size):
                alone = run_discrimination(subset, protocol).success
                derived = full.separates([label for label, _ in subset])
                assert derived == alone, (protocol.protocol_id, subset)
                verdicts.add(alone)
    assert verdicts == {True, False}


# --- transcripts read off one firing matrix against per-branch owner sets -----------

def _reference_discrimination(labels, protocol, out):
    """``run_discrimination`` as it was before it read every branch's owners
    off one firing matrix: one ``np.flatnonzero`` and one owner set per
    branch of the kernel's output ``out``."""
    branches = [(out.labels[j], out.keys[j], out.probabilities[j])
                for j in range(len(out))]
    transcripts = {key: {labels[i] for i in np.flatnonzero(probs)}
                   for _, key, probs in branches}
    collisions = tuple(
        (key, tuple(sorted(owners)))
        for key, owners in sorted(transcripts.items())
        if len(owners) > 1
    )
    final_party = protocol.rounds[-1].party
    breakdown = {}
    total = 0
    for i, rnd in enumerate(protocol.rounds):
        if rnd.party == final_party:
            continue
        fired = {combo[i] for combo, _, _ in branches}
        bits = math.ceil(math.log2(len(fired))) if len(fired) > 1 else 0
        key = "round:%s" % rnd.party
        breakdown[key] = breakdown.get(key, 0) + bits
        total += bits
    return DiscriminationResult(
        protocol_id=protocol.protocol_id,
        success=not collisions,
        transcript_map={k: next(iter(v)) for k, v in sorted(transcripts.items())
                        if len(v) == 1},
        collisions=collisions,
        inter_receiver_cbits=total,
        cbit_breakdown=breakdown,
    )


def _oracle_candidate_sets():
    sets_ = reg.locc_candidate_sets()
    yield from sets_.items()
    q4 = sets_["q4_8"]
    for size in (2, 3, 4):
        for idx in itertools.combinations(range(len(q4)), size):
            yield "q4_8%s" % (idx,), [q4[i] for i in idx]
    omega = sets_["omega16"]
    rng = np.random.default_rng(16)
    for size in range(2, 9):
        for _ in range(10):
            idx = sorted(int(i) for i in rng.choice(len(omega), size, replace=False))
            yield "omega16%s" % (idx,), [omega[i] for i in idx]


def _oracle_cases():
    protocols = reg.catalog_protocols()
    for name, candidates in _oracle_candidate_sets():
        for protocol in protocols:
            yield name, candidates, protocol
    # the registered protocols, and one whose enumeration order is not the
    # sorted key order ("perp10" sorts before "perp2")
    extra = list(reg.locc_protocols().values()) + [LoccProtocol(
        "omega_meas_completed", (StepSpec((0, 1, 2, 3), "omega_meas", party="B1"),))]
    for name, candidates in reg.locc_candidate_sets().items():
        for protocol in extra:
            yield name, candidates, protocol


@pytest.mark.parametrize("tol", [DROP_TOL, 0.0, 1e-6])
def test_discrimination_matches_per_branch_reference(tol, monkeypatch):
    # the reference reads the same kernel output run_discrimination got; the
    # kernel has its own oracle in test_measure.py.  run_discrimination asks
    # for the default drop tolerance; the kernel is run at ``tol`` so the
    # owner logic also meets outputs that keep more branches (0.0) or fewer
    kernel_out = []

    def recording(*args, **kwargs):
        assert kwargs.pop("drop_tol", DROP_TOL) == DROP_TOL
        kernel_out.append(enumerate_outcomes(*args, drop_tol=tol, **kwargs))
        return kernel_out[-1]

    monkeypatch.setattr(locc, "enumerate_outcomes", recording)
    checked = 0
    for name, candidates, protocol in _oracle_cases():
        labels = [label for label, _ in candidates]
        got = run_discrimination(candidates, protocol)
        want = _reference_discrimination(labels, protocol, kernel_out.pop())
        assert got == want, (name, protocol.protocol_id)
        assert list(got.transcript_map) == sorted(got.transcript_map)
        checked += 1
    assert checked == 20 * (6 + 28 + 56 + 70 + 70) + 6 * 6


# --- product terms and certificates --------------------------------------------------

def test_product_terms_match_amplitudes():
    # computational product factors recover raw amplitudes
    rng = np.random.default_rng(2)
    vec = rng.standard_normal(16) + 1j * rng.standard_normal(16)
    st = PureState(vec / np.linalg.norm(vec))
    comp2 = make_basis("computational:2")
    terms = product_terms(st, [((0, 1), comp2), ((2, 3), comp2)])
    for (a, b), coeff in terms.items():
        idx = int(a + b, 2)
        assert abs(coeff - st.amplitudes[idx]) < 1e-12


def test_product_terms_respect_qubit_order():
    st = basis_state("01")
    comp1 = make_basis("computational:1")
    flipped = product_terms(st, [((1,), comp1), ((0,), comp1)])
    assert set(flipped) == {("1", "0")}


def test_product_terms_require_partition():
    st = basis_state("00")
    comp1 = make_basis("computational:1")
    with pytest.raises(ValueError):
        product_terms(st, [((0,), comp1)])
    with pytest.raises(ValueError):
        product_terms(st, [((0,), comp1), ((0,), comp1)])
    # a 3-qubit factor with a 2-qubit basis used to fail in a reshape
    ghz8 = reg.locc_candidate_sets()["ghz8"]
    factors = [((0, 1, 2), make_basis("bell")), ((3,), comp1)]
    message = "basis 'bell' is on 2 qubits but the factor names 3"
    with pytest.raises(ValueError, match=message):
        product_terms(ghz8[0][1], factors)
    with pytest.raises(ValueError, match=message):
        check_certificate(ghz8, factors)


def test_certificates_hold_for_shipped_decompositions():
    sets_ = reg.locc_candidate_sets()
    for name, factors in reg.certificate_factors().items():
        rep = check_certificate(sets_[name], factors)
        if name == "omega16":
            assert not rep.ok
            assert rep.cross_overlap == pytest.approx(0.5)
            assert "share" in rep.detail
        else:
            assert rep.ok, (name, rep.detail)
            assert rep.reconstruction_error < 1e-10
            assert rep.cross_overlap == 0.0
            assert rep.empty_supports == ()


def test_ghz_minus_block_pairs_antisymmetric_terms():
    sets_ = reg.locc_candidate_sets()
    rep = check_certificate(sets_["ghz8"], reg.certificate_factors()["ghz8"])
    assert rep.blocks["4GHZ2-"] == (("psi+", "phi-"), ("psi-", "phi+"))


@pytest.mark.parametrize("tol", [float("nan"), -1.0, 0.0, 1.0, 2.0])
def test_certificate_bad_tolerance_rejected(tol):
    # these used to return a wrong detail instead of failing
    with pytest.raises(ValueError, match="tol must be a finite number"):
        check_certificate(reg.locc_candidate_sets()["ghz8"],
                          reg.certificate_factors()["ghz8"], tol=tol)


def test_certificate_flags_overcomplete_candidates():
    # two identical candidates can never have disjoint supports
    cands = [("x", _bell("phi+")), ("y", _bell("phi+"))]
    comp1 = make_basis("computational:1")
    rep = check_certificate(cands, [((0,), comp1), ((1,), comp1)])
    assert not rep.ok and rep.cross_overlap > 0.0


def test_certificate_flags_empty_support():
    cands = [("x", _bell("phi+"))]
    # a factor family too small to see the state: project onto |1>|1> only
    one = make_basis("computational:1")
    from quadproto.catalog import NamedBasis
    partial = NamedBasis(name="one_only", labels=("1",), matrix=one.matrix[1:])
    rep = check_certificate(cands, [((0,), partial), ((1,), partial)])
    assert not rep.ok
    assert rep.reconstruction_error > 0.4
    assert "residual" in rep.detail or rep.empty_supports


def test_certificate_refuses_bad_candidate_lists():
    ghz8 = reg.locc_candidate_sets()["ghz8"]
    factors = reg.certificate_factors()["ghz8"]
    # an empty list used to hold as an empty verdict
    with pytest.raises(ValueError, match="one or more states on one register"):
        check_certificate([], factors)
    # two different states with disjoint supports under one label used to
    # share product outcomes in a single block
    assert check_certificate(ghz8[:2], factors).ok
    with pytest.raises(ValueError, match="repeated: \\['x'\\]"):
        check_certificate([("x", ghz8[0][1]), ("x", ghz8[1][1])], factors)
    with pytest.raises(ValueError, match="one or more states on one register"):
        check_certificate([("a", ghz8[0][1]), ("b", basis_state("000"))], factors)


@pytest.mark.parametrize("tol", [float("nan"), -1.0, 0.0, 1.0])
def test_product_terms_bad_tolerance_rejected(tol):
    # nan used to return no term, -1 all 16, zeros included
    with pytest.raises(ValueError, match="tol must be a finite number"):
        product_terms(reg.locc_candidate_sets()["ghz8"][0][1],
                      reg.certificate_factors()["ghz8"], tol=tol)


# --- one contraction against the per-combination kron chain ------------------------

def _reference_product_terms(state, factors, tol=ASSERT_TOL):
    """``product_terms`` as it was before the one contraction: each product
    vector is a chain of ``np.kron`` calls, reordered into qubit order with
    ``np.moveaxis``, and projected on its own."""
    n = state.num_qubits
    covered = [q for qubits, _ in factors for q in qubits]
    if sorted(covered) != list(range(n)):
        raise ValueError("factors must partition the qubit set")
    out = {}
    label_sets = [f.labels for _, f in factors]
    for combo in itertools.product(*[range(len(ls)) for ls in label_sets]):
        vec = np.ones(1, dtype=np.complex128)
        order = []
        for (qubits, basis), idx in zip(factors, combo):
            vec = np.kron(vec, basis.vectors[idx].amplitudes)
            order.extend(qubits)
        # axis i of the product tensor is qubit order[i]; move it there
        aligned = np.moveaxis(vec.reshape([2] * n), range(n), order).reshape(-1)
        coeff = complex(np.vdot(aligned, state.amplitudes))
        if abs(coeff) > tol:
            out[tuple(label_sets[i][combo[i]] for i in range(len(factors)))] = coeff
    return out


def _reference_certificate(candidates, factors, tol=ASSERT_TOL):
    """``check_certificate`` as it was before the one contraction: one term
    dict per candidate, compared pair by pair."""
    supports = {}
    recon_err = 0.0
    empty = []
    for label, state in candidates:
        terms = _reference_product_terms(state, factors, tol=tol)
        supports[label] = terms
        weight = sum(abs(c) ** 2 for c in terms.values())
        recon_err = max(recon_err, abs(1.0 - weight))
        if not terms:
            empty.append(label)
    cross = 0.0
    labels = [lbl for lbl, _ in candidates]
    for i, a in enumerate(labels):
        for b in labels[i + 1:]:
            for term in set(supports[a]) & set(supports[b]):
                cross = max(cross, abs(supports[a][term]), abs(supports[b][term]))
    detail = ""
    if cross > 0.0:
        detail = "candidates share product outcomes"
    elif empty:
        detail = "empty support for %s" % ", ".join(empty)
    elif recon_err >= tol:
        detail = "reconstruction residual %.3e" % recon_err
    return locc.CertificateReport(
        ok=recon_err < tol and cross == 0.0 and not empty,
        reconstruction_error=recon_err,
        cross_overlap=cross,
        empty_supports=tuple(empty),
        blocks={lbl: tuple(sorted(supports[lbl])) for lbl in labels},
        detail=detail,
    )


def _certificate_cases():
    sets_ = reg.locc_candidate_sets()
    for fname, factors in reg.certificate_factors().items():
        for sname, candidates in sets_.items():
            yield "%s/%s" % (sname, fname), candidates, factors
    comp1 = make_basis("computational:1")
    bell = make_basis("bell")
    phi = NamedBasis("phi_only", ("phi+", "phi-"), bell.matrix[:2])
    rng = np.random.default_rng(45)
    haar4 = [("h%d" % i, random_state(4, rng)) for i in range(4)]
    for order in (((2,), (0, 3), (1,)), ((3,), (2,), (1,), (0,)),
                  ((3, 1), (2, 0))):
        factors = [(qubits, bell if len(qubits) == 2 else comp1) for qubits in order]
        yield "haar4 %s" % (order,), haar4, factors
        # a subspace factor basis leaves weight out and may leave supports empty
        sub = [(qubits, phi if len(qubits) == 2 else comp1) for qubits in order]
        yield "haar4 phi %s" % (order,), haar4, sub
        yield "haar4 phi alone %s" % (order,), haar4[:1], sub
    yield "empty", [("e", basis_state("0110"))], [((0, 1), phi), ((2, 3), phi)]
    haar5 = [("h%d" % i, random_state(5, rng)) for i in range(3)]
    yield "haar5 reversed", haar5, [((q,), comp1) for q in range(4, -1, -1)]
    yield "haar5 omega_meas", haar5, [((3,), comp1),
                                      ((4, 0, 2, 1), make_basis("omega_meas"))]
    yield "haar5 mixed", haar5, [((4, 1), bell), ((3,), make_basis("plus_minus")),
                                 ((0, 2), phi)]


@pytest.mark.parametrize("tol", [1e-10, 0.3])
def test_product_terms_match_kron_reference(tol):
    for name, candidates, factors in _certificate_cases():
        for label, state in candidates:
            got = product_terms(state, factors, tol=tol)
            want = _reference_product_terms(state, factors, tol=tol)
            assert list(got) == list(want), (name, label)
            for key, coeff in want.items():
                assert abs(got[key] - coeff) < 1e-12, (name, label, key)


@pytest.mark.parametrize("tol", [1e-10, 0.3])
def test_certificate_matches_pairwise_reference(tol):
    outcomes = set()
    for name, candidates, factors in _certificate_cases():
        got = check_certificate(candidates, factors, tol=tol)
        want = _reference_certificate(candidates, factors, tol=tol)
        assert (got.ok, got.detail, got.empty_supports) == \
            (want.ok, want.detail, want.empty_supports), name
        assert got.blocks == want.blocks, name
        assert list(got.blocks) == list(want.blocks), name
        assert abs(got.reconstruction_error - want.reconstruction_error) <= 1e-15, name
        # the declared sets agree bit for bit; a Haar coefficient summed in
        # another order may differ in its last place
        if name.startswith("haar"):
            assert abs(got.cross_overlap - want.cross_overlap) <= 1e-15, name
        else:
            assert got.cross_overlap == want.cross_overlap, name
            assert got.reconstruction_error == want.reconstruction_error, name
        outcomes.add(got.detail.split(" ")[0])
    # the cases reach every verdict
    assert outcomes == {"", "candidates", "empty", "reconstruction"}


def test_certificate_contracts_once(monkeypatch):
    calls = []

    def counting(amplitudes, factors):
        calls.append(len(amplitudes))
        return coefficients(amplitudes, factors)

    coefficients = locc._coefficients
    monkeypatch.setattr(locc, "_coefficients", counting)
    check_certificate(reg.locc_candidate_sets()["omega16"],
                      reg.certificate_factors()["omega16"])
    assert calls == [16]


# --- two-vs-four Bell discrimination ---------------------------------------------------

def test_sequential_rounds_separate_two_bell_states():
    seq = LoccProtocol("seq", (
        StepSpec((0,), "computational:1", party="B1"),
        StepSpec((1,), "computational:1", party="B2"),
    ))
    assert run_discrimination(
        [("phi+", _bell("phi+")), ("psi+", _bell("psi+"))], seq).success


def test_no_sequential_rounds_for_all_four_bell_states():
    seq = LoccProtocol("seq", (
        StepSpec((0,), "computational:1", party="B1"),
        StepSpec((1,), "computational:1", party="B2"),
    ))
    four = [(lbl, _bell(lbl)) for lbl in make_basis("bell").labels]
    assert not run_discrimination(four, seq).success
