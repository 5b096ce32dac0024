"""Catalog states, measurement bases, and the correction registry.

The correction oracles re-derive each documented fix independently: sign
completion by brute force, Gram defects of the as-printed vectors, and
zero-probability branches that would kill the protocol.
"""

import tracemalloc

import numpy as np
import pytest

from quadproto.catalog import (
    CORRECTIONS,
    NamedBasis,
    basis_names,
    corrections_for,
    make_basis,
    make_state,
    state_names,
    validate_orthonormal,
)
from quadproto.measure import MeasurementPlan, MeasurementStep, enumerate_outcomes
from quadproto.states import (GRAM_TOL, NORM_TOL, CapacityError, PureState, inner,
                              ket_vector, purity, reduced_density, tensor)

S2 = 1 / np.sqrt(2)


# ---------------------------------------------------------------------------
# states


def test_principal_states_frozen():
    expected = {
        "GHZ4": {"0000": S2, "1111": S2},
        "W4": {"0001": 0.5, "0010": 0.5, "0100": 0.5, "1000": 0.5},
        "Omega": {"0000": 0.5, "0110": 0.5, "1001": 0.5, "1111": -0.5},
        "Q4": {"0000": 0.5, "0101": 0.5, "1000": 0.5, "1110": 0.5},
        "Q5": {"0000": 0.5, "1011": 0.5, "1101": 0.5, "1110": 0.5},
    }
    for name, kets in expected.items():
        state = make_state(name).state
        got = dict(state.ket_terms())
        assert set(got) == set(kets), name
        for label, amp in kets.items():
            assert abs(got[label] - amp) < 1e-12, (name, label)


def test_q4_11_weights():
    got = dict(make_state("Q4_11").state.ket_terms())
    r6 = np.sqrt(6)
    assert abs(got["0101"] - np.sqrt(3) / r6) < 1e-12
    for label in ("0000", "1000", "1110"):
        assert abs(got[label] - 1 / r6) < 1e-12


def test_aliases_resolve():
    assert make_state("Q1").name == "GHZ4"
    assert make_state("GHZ").name == "GHZ4"
    assert make_state("Q2").name == "W4"
    assert make_state("Q3").name == "Omega"


def test_slocc_tags():
    assert make_state("GHZ4").slocc == "G_abcd"
    assert make_state("Omega").slocc == "G_abcd"
    assert make_state("W4").slocc == "L_ab3"
    assert make_state("Q4").slocc == "L_0_{5+3bar}"
    assert make_state("Q5").slocc == "L_0_{7+1bar}"


def test_w_mn_marginal_of_last_qubit_is_maximally_mixed():
    # the weighted-W family keeps qubit 4 at rho = I/2 for every m, n
    for m, n in ((1, 1), (1, 2), (3, 2)):
        state = make_state("W_mn", m=m, n=n).state
        rho = reduced_density(state, (3,)).matrix
        assert np.allclose(rho, np.eye(2) / 2, atol=1e-12), (m, n)


def test_w_pqrs_requires_matching_norms():
    make_state("W_pqrs", p=1, q=2, r=2, s=3)
    with pytest.raises(ValueError):
        make_state("W_pqrs", p=1, q=1, r=1, s=1)


def test_weighted_w_families_name_missing_parameters():
    with pytest.raises(ValueError, match="W_mn is missing parameters: m, n"):
        make_state("W_mn")
    with pytest.raises(ValueError, match="W_mn is missing parameters: n"):
        make_state("W_mn", m=1)
    with pytest.raises(ValueError, match="W_pqrs is missing parameters: r, s"):
        make_state("W_pqrs", p=1, q=1)


def test_ghz_n_and_bell():
    ghz3 = dict(make_state("GHZ:3").state.ket_terms())
    assert set(ghz3) == {"000", "111"}
    psi_minus = dict(make_state("Bell:psi-").state.ket_terms())
    assert abs(psi_minus["01"] - S2) < 1e-12
    assert abs(psi_minus["10"] + S2) < 1e-12


def test_wide_ghz_is_refused_before_allocating():
    # GHZ:40 fails fast whatever the order, as its 16 TiB vector cannot be
    # allocated; only after it is refused by name is GHZ:24 (256 MiB) tried
    with pytest.raises(CapacityError, match="^40 qubits exceeds the 12-qubit capacity$"):
        make_state("GHZ:40")
    tracemalloc.start()
    try:
        with pytest.raises(CapacityError,
                           match="^24 qubits exceeds the 12-qubit capacity$"):
            make_state("GHZ:24")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20


def test_state_names_constructible():
    for name in state_names():
        named = make_state(name)
        assert abs(np.linalg.norm(named.state.amplitudes) - 1.0) < 1e-12


def test_unknown_state_rejected():
    with pytest.raises(ValueError):
        make_state("nope")


@pytest.mark.parametrize("name, params", [
    ("GHZ4", {"m": 1}), ("GHZ:5", {"n": 3}), ("GHZ", {"n": 4}),
    ("Bell:phi+", {"p": 1.0}), ("W3", {"m": 0.5}),
])
def test_fixed_name_states_reject_parameters(name, params):
    with pytest.raises(ValueError, match="takes no parameters"):
        make_state(name, **params)


# ---------------------------------------------------------------------------
# bases


def test_every_catalog_basis_orthonormal():
    for name in basis_names():
        report = validate_orthonormal(make_basis(name))
        assert report["ok"], (name, report)
        assert report["max_offdiag"] <= 1e-12, name


def test_completeness_flags():
    assert validate_orthonormal(make_basis("bell"))["complete"]
    assert validate_orthonormal(make_basis("ghz3_full"))["complete"]
    assert not validate_orthonormal(make_basis("omega_meas"))["complete"]


def test_eta_zeta_w_needs_params():
    with pytest.raises(ValueError, match=r"^basis 'eta_zeta_w' takes parameters "
                                         r"p, q, r, s, got none$"):
        make_basis("eta_zeta_w")
    basis = make_basis("eta_zeta_w", p=1, q=2, r=2, s=3)
    assert validate_orthonormal(basis)["ok"]


def test_basis_parameters_are_checked_by_name():
    cases = [("bell", {"x": 1}, "'bell' takes no parameters, got x"),
             ("pi_2q", {"i": 1, "k": 0}, "'pi_2q' takes parameters i, j, got i, k"),
             ("eta_zeta_w", {"p": 1}, "'eta_zeta_w' takes parameters p, q, r, s, got p"),
             ("plus_minus", {"name": 1}, "'plus_minus' takes no parameters, got name")]
    for name, params, message in cases:
        with pytest.raises(ValueError) as err:
            make_basis(name, **params)
        assert str(err.value) == "basis " + message


def test_basis_memo_keys_parameters_with_their_type():
    make_basis.cache_clear()
    pi = make_basis("pi_2q", i=1)
    assert make_basis("pi_2q", i=1) is pi
    # the float and the bool compare equal to the cached int, and are still
    # refused; a refused call is not memoized, so it is refused again
    for bad in (1.0, True, 1.0):
        with pytest.raises(ValueError, match="Pauli index must be an integer"):
            make_basis("pi_2q", i=bad)
    info = make_basis.cache_info()
    assert (info.currsize, info.hits, info.misses) == (1, 1, 4)


def test_the_sign_of_zero_does_not_reach_a_catalog_entry():
    # -0.0 == 0.0, so both signs share one memo entry: what the first call
    # builds, parameters echoed and amplitude signs alike, must not depend
    # on the sign of a zero
    cases = [(make_state, "W_mn", {"n": 1.0}, "m", (0.0, -0.0)),
             (make_state, "W_mn", {"m": 1.0, "n": 1.0}, "rho", (0.0, -0.0)),
             (make_state, "W_pqrs", {"q": 1.0, "r": 1.0, "s": 2 ** 0.5}, "p",
              (0.0, -0.0, complex(-0.0, -0.0))),
             (make_basis, "eta_zeta_w", {"q": 1.0, "r": 1.0, "s": 2 ** 0.5}, "p",
              (0.0, -0.0, complex(-0.0, -0.0)))]
    for make, name, params, key, zeros in cases:
        seen = set()
        for zero in zeros:
            make.cache_clear()
            built = make(name, **params, **{key: zero})
            rows = built.state.amplitudes if make is make_state else built.matrix
            seen.add((repr(dict(getattr(built, "params", {}))),
                      np.signbit(rows.real).tobytes(), np.signbit(rows.imag).tobytes()))
        assert len(seen) == 1, name


def test_named_basis_holds_one_read_only_copy():
    bell = make_basis("bell")
    rows = bell.matrix.copy()
    basis = NamedBasis("copy", bell.labels, rows)
    rows[0] = 0.0
    assert np.array_equal(basis.matrix, bell.matrix)
    assert basis.matrix.dtype == np.complex128 and basis.matrix.shape == (4, 4)
    assert not basis.matrix.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        basis.matrix[0, 0] = 0.0
    # the boundary view: one PureState per row
    assert [np.array_equal(v.amplitudes, row)
            for v, row in zip(basis.vectors, basis.matrix)] == [True] * 4
    # compared by identity, so hashable although an array cannot hash
    same = NamedBasis("copy", bell.labels, bell.matrix)
    assert basis == basis and basis != same and hash(basis) != hash(same)


def test_named_basis_refuses_malformed_matrices():
    bell = make_basis("bell").matrix
    nan_row = np.vstack([bell[:1], np.full((1, 4), np.nan)])
    cases = [
        ((), np.zeros((0, 4)), "non-empty"),
        (("a",), np.zeros((1, 0)), "non-empty"),
        (("a",), bell[0], "non-empty"),
        (("a", "b"), bell[:1], "label/vector count mismatch"),
        (("a",), bell[:2], "label/vector count mismatch"),
        (("a",), np.full((1, 3), 3 ** -0.5), "dimension 3 is not a power of two"),
        (("a", "b"), bell[[0, 0]], "not orthonormal"),
        (("a", "b"), bell[:2] * 2, "not orthonormal"),
        (("a", "b"), nan_row, "not orthonormal"),
        (("a",), nan_row[1:], "not orthonormal"),
    ]
    for labels, matrix, message in cases:
        with pytest.raises(ValueError, match=message):
            NamedBasis("bad", labels, matrix)
    with pytest.raises(CapacityError):
        NamedBasis("wide", ("a",), np.eye(1, 2 ** 13))


def test_named_basis_gram_check_is_tighter_than_the_state_check():
    # a row off unit norm by 0.8 NORM_TOL passes as a PureState, but its
    # Gram diagonal is off by twice that, beyond GRAM_TOL
    assert GRAM_TOL == NORM_TOL
    row = make_basis("plus_minus").matrix[0] * (1 + 0.8 * NORM_TOL)
    PureState(row)
    with pytest.raises(ValueError, match="not orthonormal"):
        NamedBasis("long", ("+",), row[None])


def test_dressed_bases_accept_indices():
    for i in range(4):
        for j in range(4):
            assert validate_orthonormal(make_basis("pi_2q", i=i, j=j))["ok"]


def test_dressed_bases_reject_non_integer_indices():
    for bad in (0.0, 1.5, True, "1"):
        with pytest.raises(ValueError, match="Pauli index must be an integer"):
            make_basis("pi_2q", i=bad)
    with pytest.raises(ValueError, match="Pauli index must be 0..3"):
        make_basis("omega34_3q", i=0, j=4)


# ---------------------------------------------------------------------------
# correction oracles


def _omega16_vector(label):
    basis = make_basis("omega16")
    return dict(zip(basis.labels, basis.vectors))[label]


def test_omega15_sign_completion_is_unique():
    # brute force over sign patterns on the {0011,0101,1010,1100} group:
    # exactly one pattern (global sign fixed) is orthogonal to the other
    # three vectors of the group, and it is the operative Omega15
    group = ("0011", "0101", "1010", "1100")
    others = [_omega16_vector("Omega%d" % k) for k in (13, 14, 16)]
    survivors = []
    for bits in range(8):
        signs = [1] + [1 - 2 * ((bits >> k) & 1) for k in range(3)]
        cand = PureState.from_kets(
            {ket: s for ket, s in zip(group, signs)}, normalize=True)
        if all(abs(inner(cand, o)) < 1e-12 for o in others):
            survivors.append(cand)
    assert len(survivors) == 1
    operative = _omega16_vector("Omega15")
    assert abs(abs(inner(survivors[0], operative)) - 1.0) < 1e-12


def test_omega15_printed_duplicates_omega14():
    rec = next(c for c in CORRECTIONS
               if c.basis == "omega16" and c.label == "Omega15")
    printed = PureState.from_kets(rec.printed, normalize=True)
    other = _omega16_vector("Omega14")
    assert abs(abs(inner(printed, other)) - 1.0) < 1e-12


def test_rho_printed_vectors_break_gram():
    # as printed, rho1 and rho2 share |1001> and their Gram picks up 1/4
    vecs = []
    for kets in ({"0000": 1, "0100": 1, "1001": 1, "1011": 1},
                 {"0000": 1, "0100": 1, "1001": -1, "1011": -1},
                 {"0001": 1, "0011": 1, "1001": 1, "1100": 1},
                 {"0001": 1, "0011": 1, "1001": -1, "1100": -1}):
        vecs.append(PureState.from_kets(kets, normalize=True))
    gram = np.array([[inner(a, b) for b in vecs] for a in vecs])
    off = np.abs(gram - np.eye(4))
    assert abs(off.max() - 0.25) < 1e-12


def _branch_probabilities(probe_kets, resource_name, qubits, basis):
    probe = PureState.from_kets(probe_kets, normalize=True)
    joint = tensor(probe, make_state(resource_name).state)
    plan = MeasurementPlan((MeasurementStep(qubits, basis),))
    return enumerate_outcomes(joint.amplitudes[None], plan, drop_tol=0.0)


def test_tau_printed_pairs_are_protocol_dead():
    # the printed tau3/tau4 kets |1011>/|0011> never receive amplitude, so
    # those branches fire on one arm only (residual independent of the
    # input) and a quarter of the probability leaks off the declared basis
    printed = NamedBasis("tau_printed", ("tau1+", "tau1-", "tau2+", "tau2-",
                                         "tau3+", "tau3-", "tau4+", "tau4-"),
                         np.array([ket_vector({a: 1, b: s}, normalize=True)
                                   for a, b in (("0000", "1001"), ("0001", "1000"),
                                                ("0100", "1011"), ("0011", "1100"))
                                   for s in (1, -1)]))
    for probe in ({"0": 1}, {"1": 1}, {"0": 1, "1": 1}):
        out = _branch_probabilities(probe, "Q4", (0, 1, 3, 4), printed)
        leak = sum(out.probabilities[out.perp, 0])
        assert abs(leak - 0.25) < 1e-12, probe
    # superposition input: the printed tau3 branch keeps only the alpha arm
    out = _branch_probabilities({"0": 1, "1": 1}, "Q4", (0, 1, 3, 4), printed)
    tau3 = out.residuals[out.keys.index("tau3+"), 0]
    assert abs(abs(tau3[0]) - 1.0) < 1e-12  # residual |0>
    assert abs(tau3[1]) < 1e-12


def test_tau_corrected_basis_covers_all_branches():
    basis = make_basis("tau_q4")
    for probe in ({"0": 1}, {"1": 1}, {"0": 1, "1": 1j}):
        out = _branch_probabilities(probe, "Q4", (0, 1, 3, 4), basis)
        leak = sum(out.probabilities[out.perp, 0])
        assert leak < 1e-12, probe


def test_omega34_printed_pair_has_zero_probability():
    # the printed third pair pairs the phi+ component with |00>/|11> on the
    # trailing qubits, which the expansion never populates
    corrected = make_basis("omega34_3q", i=0, j=0)
    by_label = dict(zip(corrected.labels, corrected.matrix))
    printed_pair = [ket_vector({"0000": 1, "1100": 1, "0011": s, "1111": -s},
                               normalize=True)
                    for s in (1, -1)]
    printed = NamedBasis("omega3_printed", ("Omega3+", "Omega3-",
                                            "Omega4+", "Omega4-"),
                         np.array(printed_pair + [by_label["Omega4+"],
                                                  by_label["Omega4-"]]))
    from quadproto.teleport import FamilySpec, family_span
    for member in family_span(FamilySpec("omega_sub", 3, (0, 0))):
        joint = tensor(PureState(member), make_state("Omega").state)
        plan = MeasurementPlan((MeasurementStep((0, 1, 2, 3), printed),))
        out = enumerate_outcomes(joint.amplitudes[None], plan, drop_tol=1e-12)
        fired = {key for key, perp in zip(out.keys, out.perp) if not perp}
        assert "Omega4+" in fired and "Omega4-" in fired
        assert not fired & {"Omega3+", "Omega3-"}


def test_sigma_w_labels_unique():
    basis = make_basis("sigma_w")
    assert len(set(basis.labels)) == len(basis.labels) == 8
    assert "Sigma4+" in basis.labels and "Sigma4-" in basis.labels


def test_corrections_registry_contents():
    keyed = {(c.basis, c.label) for c in CORRECTIONS}
    assert keyed == {
        ("omega16", "Omega15"),
        ("rho_q4", "rho1+/-"), ("rho_q4", "rho2+/-"),
        ("tau_q4", "tau3+/-"), ("tau_q4", "tau4+/-"),
        ("omega34_3q", "Omega3+/-"), ("sigma_w", "Sigma4+/-"),
    }
    for c in CORRECTIONS:
        assert c.method  # every correction carries its derivation
    assert len(corrections_for("rho_q4")) == 2
    assert corrections_for("bell") == []
