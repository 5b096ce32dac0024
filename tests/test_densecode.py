"""Dense-coding message counting."""

import numpy as np
import pytest

from quadproto import scenarios as reg
from quadproto.catalog import make_state
from quadproto.densecode import (
    ENCODING_PAULIS,
    best_over_subsets,
    distinguishable_messages,
    encoded_states,
)

PRINCIPAL = ("GHZ4", "W4", "Omega", "Q4", "Q5")


def _count(name, qubits, **state_params):
    st = make_state(name, **state_params).state
    return distinguishable_messages(st, qubits).count


# --- structural properties -----------------------------------------------------

def test_encoding_enumeration_is_lexicographic():
    st = make_state("Bell:phi+").state
    enc = encoded_states(st, (0,))
    assert [names for names, _ in enc] == [(p,) for p in ENCODING_PAULIS]
    enc2 = encoded_states(st, (0, 1))
    assert len(enc2) == 16
    assert enc2[0][0] == ("s0", "s0") and enc2[-1][0] == ("s3", "s3")


def test_counts_monotone_in_sender_size():
    for name in PRINCIPAL:
        st = make_state(name).state
        best = [best_over_subsets(st, k)[0].count for k in (1, 2, 3)]
        assert best[0] <= best[1] <= best[2] <= 16, name


def test_witness_states_are_mutually_orthogonal():
    for name in PRINCIPAL:
        st = make_state(name).state
        res = distinguishable_messages(st, (0, 1))
        vecs = []
        for names in res.witness:
            enc = st
            for qubit, p in zip((0, 1), names):
                from quadproto.states import SIGMA, apply_local
                enc = apply_local(enc, SIGMA[p], [qubit])
            vecs.append(enc.amplitudes)
        g = np.abs(np.conj(vecs) @ np.transpose(vecs))
        assert np.max(np.abs(g - np.eye(len(vecs)))) < 1e-10, name


def test_witness_is_deterministic_and_lex_smallest():
    st = make_state("Omega").state
    a = distinguishable_messages(st, (0, 1))
    b = distinguishable_messages(st, (0, 1))
    assert a == b
    # the all-identity encoding is always in some maximum clique, and the
    # lex-smallest clique must therefore start with it
    assert a.witness[0] == ("s0", "s0")


def test_antisymmetric_pauli_phase_is_immaterial():
    # swapping i*sigma2 for plain sigma2 changes phases only
    for name in PRINCIPAL:
        st = make_state(name).state
        with_is2 = distinguishable_messages(st, (0, 1))
        with_s2 = distinguishable_messages(st, (0, 1),
                                           paulis=("s0", "s1", "s2", "s3"))
        assert with_is2.count == with_s2.count, name


def test_class_counts_bounded_by_encodings():
    st = make_state("GHZ4").state
    res = distinguishable_messages(st, (0, 1, 2))
    assert res.num_encodings == 64
    assert res.count <= res.num_classes <= res.num_encodings


# --- frozen capacities -----------------------------------------------------------

def test_ghz_capacities():
    assert _count("GHZ4", (0,)) == 4
    assert _count("GHZ4", (0, 1)) == 8
    assert _count("GHZ4", (0, 1, 2)) == 16


def test_w_capacities():
    assert _count("W4", (0,)) < 4
    assert _count("W4", (0, 1)) == 8
    assert _count("W4", (0, 1, 2)) == 8


def test_omega_saturates_two_qubit_bound():
    assert _count("Omega", (0,)) == 4
    assert _count("Omega", (0, 1)) == 16
    assert _count("Omega", (0, 1, 2)) == 16


def test_q4_sender_position_matters():
    st = make_state("Q4").state
    best, per = best_over_subsets(st, 1)
    assert per == {(0,): 2, (1,): 4, (2,): 2, (3,): 2}
    assert best.sender_qubits == (1,) and best.count == 4
    assert _count("Q4", (0, 1)) == 8
    assert _count("Q4", (0, 1, 2)) == 8


def test_q5_capacities():
    st = make_state("Q5").state
    _, per = best_over_subsets(st, 1)
    assert per == {(0,): 2, (1,): 4, (2,): 4, (3,): 4}
    assert _count("Q5", (0, 1)) == 8
    assert _count("Q5", (0, 1, 2)) == 16


def test_five_qubit_cat_reaches_thirty_two():
    res = distinguishable_messages(make_state("GHZ:5").state, (0, 1, 2, 3))
    assert res.count == 32
    assert res.num_encodings == 256


def test_capacity_table_rows_hold():
    for cid, name, params, subsets, want, rel in reg.CAPACITY_TABLE:
        st = make_state(name, **dict(params)).state
        got = max(distinguishable_messages(st, q).count for q in subsets)
        if rel == "==":
            assert got == want, cid
        else:
            assert got < want, cid


def test_distribution_dependence_counterexamples():
    for cid, name, params, qubits, stated, _ in reg.CAPACITY_REFUTATIONS:
        st = make_state(name, **dict(params)).state
        assert distinguishable_messages(st, qubits).count == stated, cid


# --- argument handling ------------------------------------------------------------

def test_bad_arguments_rejected():
    st = make_state("GHZ4").state
    with pytest.raises(KeyError):
        distinguishable_messages(st, (0,), paulis=("s0", "sx"))
    with pytest.raises(ValueError, match="out of range"):
        distinguishable_messages(st, (9,))


def test_repeated_sender_qubit_rejected():
    st = make_state("GHZ4").state
    with pytest.raises(ValueError, match="repeated sender qubit"):
        distinguishable_messages(st, (0, 0))
    with pytest.raises(ValueError, match="repeated sender qubit"):
        encoded_states(st, (1, 2, 1))
