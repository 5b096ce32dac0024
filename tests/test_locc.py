"""LOCC discrimination and product-decomposition certificates."""

import numpy as np
import pytest

from quadproto import scenarios as reg
from quadproto.catalog import make_basis
from quadproto.locc import (
    LoccProtocol,
    check_certificate,
    product_terms,
    run_discrimination,
)
from quadproto.measure import StepSpec
from quadproto.states import PureState, basis_state


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


def test_sixteen_set_defeats_every_catalog_protocol():
    cands = reg.locc_candidate_sets()["omega16"]
    assert len(cands) == 16
    for protocol in reg.catalog_protocols():
        assert not run_discrimination(cands, protocol).success, \
            protocol.protocol_id


def test_protocol_plan_is_built_once():
    for protocol in reg.catalog_protocols():
        assert protocol.plan is protocol.plan
        assert [s.party for s in protocol.plan.steps] == ["B1", "B2"]


def test_catalog_protocol_sweep_shape():
    ids = [p.protocol_id for p in reg.catalog_protocols()]
    assert len(ids) == len(set(ids)) == 20


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
    partial = NamedBasis(name="one_only", labels=("1",),
                         vectors=(one.vectors[1],))
    rep = check_certificate(cands, [((0,), partial), ((1,), partial)])
    assert not rep.ok
    assert rep.reconstruction_error > 0.4
    assert "residual" in rep.detail or rep.empty_supports


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
