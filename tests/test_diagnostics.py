"""Entanglement diagnostics: concurrence, tangle, purity structure."""

import itertools
import hashlib

import numpy as np
import pytest

from quadproto import diagnostics

from quadproto import scenarios as reg
from quadproto.catalog import make_state
from quadproto.cli import main
from quadproto.diagnostics import (
    genuine_multipartite,
    pair_concurrence,
    profile,
    purity_profile,
    three_tangle_pure,
    wootters_concurrence,
)
from quadproto.states import (
    PureState,
    apply_local,
    basis_state,
    permute_qubits,
    random_unitary,
    reduced_density,
    tensor,
)


# --- concurrence oracles ----------------------------------------------------------

def test_bell_states_are_maximally_concurrent():
    for name in ("Bell:phi+", "Bell:phi-", "Bell:psi+", "Bell:psi-"):
        st = make_state(name).state
        rho = np.outer(st.amplitudes, st.amplitudes.conj())
        assert abs(wootters_concurrence(rho) - 1.0) < 1e-12, name


def test_product_states_have_zero_concurrence():
    for label in ("00", "01", "10", "11"):
        st = basis_state(label)
        rho = np.outer(st.amplitudes, st.amplitudes.conj())
        assert wootters_concurrence(rho) < 1e-12


def test_werner_state_closed_form():
    # p |psi-><psi-| + (1-p) I/4 has C = max(0, (3p-1)/2)
    psi = make_state("Bell:psi-").state.amplitudes
    pure = np.outer(psi, psi.conj())
    for p in (0.0, 0.2, 1.0 / 3.0, 0.5, 0.8, 1.0):
        rho = p * pure + (1.0 - p) * np.eye(4) / 4.0
        want = max(0.0, (3.0 * p - 1.0) / 2.0)
        assert abs(wootters_concurrence(rho) - want) < 1e-10, p


def test_concurrence_needs_two_qubits():
    with pytest.raises(ValueError):
        wootters_concurrence(np.eye(8) / 8.0)


# --- pair concurrences across the catalog ------------------------------------------

def test_pair_concurrence_tables():
    for name, table in reg.PAIR_CONCURRENCE_TABLE.items():
        st = make_state(name).state
        default = table.get("default")
        for i, j in itertools.combinations(range(st.num_qubits), 2):
            want = table.get((i, j), default)
            got = pair_concurrence(st, i, j)
            assert abs(got - want) < 1e-9, (name, i, j, got)


def test_pair_concurrence_is_local_unitary_invariant():
    st = make_state("W4").state
    rng = np.random.default_rng(3)
    dressed = st
    for q in range(4):
        dressed = apply_local(dressed, random_unitary(1, rng), [q])
    for i, j in itertools.combinations(range(4), 2):
        a = pair_concurrence(st, i, j)
        b = pair_concurrence(dressed, i, j)
        # eigena-value splitting near degeneracies costs some precision
        assert abs(a - b) < 1e-7, (i, j)


# --- three-tangle -------------------------------------------------------------------

def test_tangle_extremes():
    ghz3 = make_state("GHZ:3").state
    w3 = PureState.from_kets({"001": 1, "010": 1, "100": 1}, normalize=True)
    assert abs(three_tangle_pure(ghz3) - 1.0) < 1e-9
    assert three_tangle_pure(w3) < 1e-9


def test_tangle_permutation_invariant():
    rng = np.random.default_rng(11)
    vec = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    st = PureState(vec / np.linalg.norm(vec))
    base = three_tangle_pure(st)
    for perm in itertools.permutations(range(3)):
        # the non-hermitian eigensolve behind the concurrence loses a
        # couple of digits on generic states
        assert abs(three_tangle_pure(permute_qubits(st, perm)) - base) < 1e-7


def test_tangle_rejects_wrong_size():
    with pytest.raises(ValueError):
        three_tangle_pure(make_state("GHZ4").state)


# --- purity structure ----------------------------------------------------------------

def test_purity_profile_covers_all_proper_subsets():
    st = make_state("Omega").state
    prof = purity_profile(st)
    assert len(prof) == 2 ** 4 - 2
    for keep, p in prof.items():
        assert 2.0 ** -len(keep) - 1e-12 <= p <= 1.0 + 1e-12, keep


def test_principal_states_are_genuinely_entangled():
    expected_max = {"GHZ4": 0.5, "W4": 0.625, "Omega": 0.5,
                    "Q4": 0.625, "Q5": 0.625}
    for name, want in expected_max.items():
        st = make_state(name).state
        prof = profile(name, st)
        assert prof.genuine, name
        assert abs(prof.max_reduction_purity - want) < 1e-9, name


def test_factorizable_states_flagged():
    assert not genuine_multipartite(basis_state("0000"))
    ghz3_padded = tensor(make_state("GHZ:3").state, basis_state("0"))
    assert not genuine_multipartite(ghz3_padded)
    bell_pairs = tensor(make_state("Bell:phi+").state,
                        make_state("Bell:phi+").state)
    assert not genuine_multipartite(bell_pairs)


def test_profile_computes_the_purities_once(monkeypatch):
    # genuine is read off the purities profile already has
    calls = []

    def counting(state):
        calls.append(state)
        return purity_profile(state)

    monkeypatch.setattr(diagnostics, "purity_profile", counting)
    states = [make_state(name).state for name in ("GHZ4", "W4", "Omega", "Q4", "Q5")]
    states += [basis_state("0000"), tensor(make_state("GHZ:3").state, basis_state("0"))]
    for st in states:
        prof = profile("x", st)
        assert len(calls) == 1
        assert prof.genuine == genuine_multipartite(st)
        calls.clear()


def test_diagnose_all_json_bytes_pinned(capsys):
    assert main(["diagnose", "--all", "--format", "json"]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == \
        "1aad2b65f19b9eca719495da945a42a964b179f2803824194776d076ff7f5c72"


def test_reduced_density_agrees_with_partial_trace_oracle():
    st = make_state("Q5").state
    amp = st.amplitudes.reshape([2] * 4)
    rho = np.einsum("abcd,ebcd->ae", amp, amp.conj())
    got = reduced_density(st, [0]).matrix
    assert np.max(np.abs(got - rho)) < 1e-12
