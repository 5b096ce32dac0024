"""Core state container and operator plumbing."""

import itertools
import inspect
import tracemalloc

import numpy as np
import pytest

import quadproto
from quadproto import scenarios as reg
from quadproto import states
from quadproto.teleport import FamilySpec, family_span

from quadproto.states import (
    MAX_QUBITS,
    PAULI_ORDER,
    SIGMA,
    CapacityError,
    PureState,
    apply_local,
    apply_paulis,
    basis_state,
    check_tolerance,
    fidelity,
    inner,
    ket_vector,
    pauli_coefficients,
    pauli_table,
    permute_qubits,
    purity,
    random_state,
    random_unitary,
    reduced_density,
    tensor,
)


def test_from_kets_round_trip():
    st = PureState.from_kets({"010": 0.6, "111": 0.8j})
    assert dict(st.ket_terms()) == {"010": (0.6 + 0j), "111": 0.8j}


def test_from_kets_normalize_drops_prefactor():
    st = PureState.from_kets({"00": 1, "11": 1}, normalize=True)
    assert abs(st.amplitudes[0] - 1 / np.sqrt(2)) < 1e-15


def test_from_kets_refuses_a_norm_beyond_the_float_range():
    # each square is finite, their sum is not; warnings are errors here
    with pytest.raises(ValueError, match="overflow the float range"):
        PureState.from_kets({"00": 1e154, "11": 1e154}, normalize=True)
    st = PureState.from_kets({"00": 1e153, "11": 1e153}, normalize=True)
    assert np.abs(st.amplitudes - [2 ** -0.5, 0, 0, 2 ** -0.5]).max() < 1e-15


def test_from_kets_accumulates_duplicate_labels():
    st = PureState.from_kets([("0", 0.5), ("0", 0.5), ("1", 1 / np.sqrt(2))],
                             normalize=True)
    ratio = abs(st.amplitudes[0]) / abs(st.amplitudes[1])
    assert abs(ratio - np.sqrt(2)) < 1e-12


def test_unnormalized_rejected():
    with pytest.raises(ValueError):
        PureState(np.array([1.0, 1.0]))


def test_bad_labels_rejected():
    with pytest.raises(ValueError):
        PureState.from_kets({"0x": 1.0})
    with pytest.raises(ValueError):
        PureState.from_kets({"0": 1.0, "00": 1.0})


def test_ket_labels_wider_than_capacity_are_refused_before_allocation():
    # a 40-qubit vector (16 TiB) could never be allocated, so only a check
    # made before the allocation refuses it by name
    for terms in ({"0" * 40: 1.0}, [("1" * 40, 1.0), ("0" * 40, 1.0)]):
        with pytest.raises(CapacityError,
                           match="^40 qubits exceeds the 12-qubit capacity$"):
            ket_vector(terms, normalize=True)
        with pytest.raises(CapacityError,
                           match="^40 qubits exceeds the 12-qubit capacity$"):
            PureState.from_kets(terms)


def test_from_kets_wraps_the_ket_vector():
    terms = [("011", 0.5), ("110", -1j), ("011", 0.25)]
    vec = ket_vector(terms, normalize=True)
    assert vec.flags.writeable
    assert np.array_equal(PureState.from_kets(terms, normalize=True).amplitudes, vec)
    assert np.array_equal(ket_vector(terms)[[3, 6]], [0.75, -1j])


def test_capacity_cap():
    with pytest.raises(CapacityError):
        vec = np.zeros(2 ** (MAX_QUBITS + 1))
        vec[0] = 1.0
        PureState(vec)


def test_big_endian_labeling():
    # qubit 0 is the leftmost symbol: |10> flips qubit 0, not qubit 1
    st = apply_local(basis_state("00"), SIGMA["s1"], (0,))
    assert dict(st.ket_terms()) == {"10": (1 + 0j)}
    st = apply_local(basis_state("00"), SIGMA["s1"], (1,))
    assert dict(st.ket_terms()) == {"01": (1 + 0j)}


def test_apply_local_matches_dense_kron():
    rng = np.random.default_rng(7)
    for _ in range(50):
        n = int(rng.integers(2, 5))
        st = random_state(n, rng)
        target = int(rng.integers(0, n))
        u = random_unitary(1, rng)
        moved = apply_local(st, u, (target,))
        mats = [u.matrix if q == target else np.eye(2) for q in range(n)]
        full = mats[0]
        for m in mats[1:]:
            full = np.kron(full, m)
        assert np.allclose(moved.amplitudes, full @ st.amplitudes, atol=1e-12)


def test_apply_local_two_qubit_nonadjacent():
    rng = np.random.default_rng(11)
    st = random_state(3, rng)
    cz = np.diag([1, 1, 1, -1])
    a = apply_local(st, cz, (0, 2))
    # oracle: permute target pair to the front, apply, permute back
    b = permute_qubits(st, (0, 2, 1))
    b = apply_local(b, cz, (0, 1))
    b = permute_qubits(b, (0, 2, 1))
    assert np.allclose(a.amplitudes, b.amplitudes, atol=1e-12)


def test_permute_round_trip():
    rng = np.random.default_rng(3)
    st = random_state(4, rng)
    perm = (2, 0, 3, 1)
    inverse = tuple(np.argsort(perm))
    back = permute_qubits(permute_qubits(st, perm), inverse)
    assert np.allclose(back.amplitudes, st.amplitudes, atol=1e-14)


def test_inner_fidelity_consistency():
    rng = np.random.default_rng(5)
    a, b = random_state(3, rng), random_state(3, rng)
    assert abs(fidelity(a, b) - abs(inner(a, b)) ** 2) < 1e-14
    assert abs(fidelity(a, a) - 1.0) < 1e-14


def test_tensor_orders_registers():
    st = tensor(basis_state("1"), basis_state("00"))
    assert dict(st.ket_terms()) == {"100": (1 + 0j)}


def test_reduced_density_pure_product():
    st = tensor(basis_state("0"), PureState.from_kets({"0": 1, "1": 1},
                                                      normalize=True))
    rho = reduced_density(st, (1,))
    assert abs(purity(rho) - 1.0) < 1e-12
    assert np.allclose(rho.matrix, np.full((2, 2), 0.5), atol=1e-12)


def test_reduced_density_entangled_half():
    bell = PureState.from_kets({"00": 1, "11": 1}, normalize=True)
    rho = reduced_density(bell, (0,))
    assert abs(purity(rho) - 0.5) < 1e-12


def test_pauli_algebra():
    s1, s2, s3 = (SIGMA[n] for n in ("s1", "s2", "s3"))
    assert np.allclose(s1 @ s2, 1j * s3)
    assert np.allclose(SIGMA["is2"], 1j * s2)


def test_apply_paulis_matches_dense_oracle():
    # the same values as the dense SIGMA matrices, and the same sign on every
    # real and imaginary part of a nonzero amplitude (what a ket listing
    # prints), over all five names, s2 included, on seeded random stacks and
    # on real basis kets like the catalog's; a zero amplitude may come out of
    # the dense product as -0.0, so its signs are not compared
    rng = np.random.default_rng(18)
    names = tuple(SIGMA)
    for k in range(1, 5):
        kets = np.eye(2 ** k, dtype=np.complex128)
        for stack in (np.array([random_state(k, rng).amplitudes for _ in range(3)]),
                      kets, -kets):
            words = itertools.product(names, repeat=k) if k <= 3 else \
                [[names[i] for i in rng.integers(0, 5, size=k)] for _ in range(40)]
            for word in words:
                got = apply_paulis(stack, word)
                want = []
                for row in stack:
                    st = PureState(row)
                    for q, name in enumerate(word):
                        st = apply_local(st, SIGMA[name], (q,))
                    want.append(st.amplitudes)
                want = np.array(want)
                assert np.array_equal(got, want), word
                listed = want != 0
                for part in (np.real, np.imag):
                    assert np.array_equal(np.signbit(part(got[listed])),
                                          np.signbit(part(want[listed]))), word
    for word in (["s1"], ["s1", "s4"]):
        with pytest.raises(ValueError):
            apply_paulis(np.eye(4), word)


def test_randomized_core_consistency():
    # randomized block covering container + operator invariants
    rng = np.random.default_rng(2024)
    cases = 0
    for _ in range(200):
        n = int(rng.integers(1, 6))
        st = random_state(n, rng)
        assert abs(np.linalg.norm(st.amplitudes) - 1.0) < 1e-12
        u = random_unitary(1, rng)
        q = int(rng.integers(0, n))
        rotated = apply_local(st, u, (q,))
        # unitaries preserve overlaps
        other = random_state(n, rng)
        rotated_other = apply_local(other, u, (q,))
        assert abs(inner(rotated, rotated_other) - inner(st, other)) < 1e-10
        # purity of any marginal is within [1/2^k, 1]
        keep = tuple(sorted(rng.choice(n, size=max(1, n // 2), replace=False)))
        p = purity(reduced_density(st, keep))
        assert 1.0 / 2 ** len(keep) - 1e-12 <= p <= 1.0 + 1e-12
        cases += 1
    assert cases == 200


def test_random_state_seeded_determinism():
    a = random_state(3, np.random.default_rng(9))
    b = random_state(3, np.random.default_rng(9))
    assert np.array_equal(a.amplitudes, b.amplitudes)


def test_random_unitary_is_unitary():
    rng = np.random.default_rng(13)
    for n in (1, 2):
        u = random_unitary(n, rng).matrix
        assert np.allclose(u @ u.conj().T, np.eye(2 ** n), atol=1e-12)


def test_amplitudes_locked():
    st = basis_state("01")
    with pytest.raises(ValueError):
        st.amplitudes[0] = 1.0


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf"),
                                   -1.0, 0.0, 1.0, 2.0])
def test_check_tolerance_rejects_outside_open_unit_interval(value):
    with pytest.raises(ValueError, match="tol must be a finite number"):
        check_tolerance(value)


def test_check_tolerance_accepts_zero_only_for_drop_tolerances():
    for value in (1e-300, 1e-12, 0.5, 0.999):
        assert check_tolerance(value) == value
        assert check_tolerance(value, allow_zero=True) == value
    assert check_tolerance(0.0, "drop_tol", allow_zero=True) == 0.0
    for value in (-1e-300, 1.0, float("nan")):
        with pytest.raises(ValueError, match=r"drop_tol .* in \[0, 1\)"):
            check_tolerance(value, "drop_tol", allow_zero=True)


def _valid_arguments():
    """Positional and keyword arguments, all but the tolerance, of every
    exported callable that takes one; each call is cheap once the tolerance
    is accepted."""
    ghz4 = quadproto.make_state("GHZ4").state
    ghz8 = reg.locc_candidate_sets()["ghz8"]
    bell = quadproto.build_plan([quadproto.StepSpec((0, 1), "bell")])
    return {
        "PureState.ket_terms": ((ghz4,), {}),
        "enumerate_outcomes": ((ghz4.amplitudes[None], bell), {}),
        "run_scenario": ((reg.TELEPORT_SCENARIOS["ghz2_pi_01"],), {}),
        "distinguishable_messages": ((ghz4, (0,)), {}),
        "best_over_subsets": ((ghz4, 1), {}),
        "product_terms": ((ghz8[0][1], reg.certificate_factors()["ghz8"]), {}),
        "check_certificate": ((ghz8, reg.certificate_factors()["ghz8"]), {}),
        "genuine_multipartite": ((ghz4,), {}),
        "run_suite": ((), {"sections": ("bases",)}),
    }


def _exported_tolerance_parameters():
    """(name, callable, parameter) for every parameter named tol or drop_tol
    of a function in ``quadproto.__all__`` or a method of an exported class."""
    found = []
    for name in quadproto.__all__:
        obj = getattr(quadproto, name)
        if inspect.isclass(obj):
            members = [("%s.%s" % (name, attr), getattr(obj, attr))
                       for attr in vars(obj)]
        else:
            members = [(name, obj)]
        for qualname, member in members:
            if not (inspect.isfunction(member) or inspect.ismethod(member)
                    or inspect.isfunction(inspect.unwrap(member))):
                continue
            for param in inspect.signature(member).parameters:
                if param in ("tol", "drop_tol"):
                    found.append((qualname, member, param))
    return found


def test_every_exported_tolerance_refuses_nan():
    valid = _valid_arguments()
    found = _exported_tolerance_parameters()
    names = [qualname for qualname, _, _ in found]
    assert sorted(names) == sorted(valid), \
        "give valid arguments for each callable that takes a tolerance"
    for qualname, member, param in found:
        args, kwargs = valid[qualname]
        kwargs = {**kwargs, param: float("nan")}
        with pytest.raises(ValueError, match="%s must be a finite number" % param):
            member(*args, **kwargs)


def _dense_product(names):
    mat = np.ones((1, 1), dtype=np.complex128)
    for name in names:
        mat = np.kron(mat, SIGMA[name])
    return mat


@pytest.mark.parametrize("k", [0, 1, 2, 3, 4, 5])
def test_pauli_table_matches_dense_kron(k):
    table = pauli_table(k)
    assert pauli_table(k) is table
    assert table.names == tuple(itertools.product(PAULI_ORDER, repeat=k))
    assert table.flip.shape == (4 ** k,)
    assert table.sign.shape == (4 ** k, 2 ** k) and table.sign.dtype == np.int8
    assert not table.flip.flags.writeable and not table.sign.flags.writeable
    # one byte per sign: no index or float array of the table's size is kept
    assert table.flip.nbytes + table.sign.nbytes <= 4 ** k * 2 ** k + 8 * 4 ** k
    rows = np.arange(2 ** k)
    for names, flip, sign in zip(*table):
        got = np.zeros((2 ** k, 2 ** k), dtype=np.complex128)
        got[rows, rows ^ flip] = sign
        assert np.array_equal(got, _dense_product(names)), names


@pytest.mark.parametrize("k", range(9))
def test_pauli_table_signs_are_parities_read_off_the_names(k):
    # up to the largest admitted k, on a sample of rows: s1 and is2 flip their
    # qubit's bit, is2 and s3 negate where it is 1
    table = pauli_table(k)
    t = np.arange(2 ** k)
    bits = [1 << k - 1 - q for q in range(k)]
    for x in range(0, 4 ** k, 1 + 4 ** k // 300):
        names = table.names[x]
        flip = sum(b for b, name in zip(bits, names) if name in ("s1", "is2"))
        z = sum(b for b, name in zip(bits, names) if name in ("is2", "s3"))
        parity = np.array([bin(z & col).count("1") & 1 for col in t])
        assert table.flip[x] == flip, names
        assert np.array_equal(table.sign[x], 1 - 2 * parity), names


def test_pauli_table_builds_no_wide_product_array():
    # an int64 index or float64 sign array of 4^7 x 2^7 entries alone is 16 MiB
    k = 7
    tracemalloc.start()
    try:
        table = pauli_table.__wrapped__(k)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert table.sign.nbytes == 4 ** k * 2 ** k
    assert peak < 4 * 4 ** k * 2 ** k


def test_pauli_table_above_the_stack_limit_is_refused():
    with pytest.raises(CapacityError, match="over the limit of 2"):
        pauli_table(9)


def test_single_pauli_products_are_table_rows():
    # a dressed family's span is the undressed span under the dense product
    # of its PAULI_ORDER matrices, which family_span reads off pauli_table
    cases = [("ghz_diag", k, word) for k in (1, 2, 3)
             for word in itertools.product(range(4), repeat=k)]
    cases += [("omega_sub", 3, pair) for pair in itertools.product(range(4), repeat=2)]
    for kind, k, dressing in cases:
        bare = family_span(FamilySpec(kind, k, (0,) * len(dressing)))
        word = dressing if kind == "ghz_diag" else (dressing[0], 0, dressing[1])
        want = bare @ _dense_product(PAULI_ORDER[i] for i in word).T
        got = family_span(FamilySpec(kind, k, dressing))
        assert np.array_equal(got, want), (kind, dressing)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_pauli_coefficients_are_traces_against_dense_kron(k):
    rng = np.random.default_rng(k)
    d = 2 ** k
    # complex and not Hermitian, so a transposed or conjugated gather shows
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    got = pauli_coefficients(a)
    want = []
    for names in pauli_table(k).names:
        want.append(np.trace(_dense_product(names) @ a))
    assert got.shape == (4 ** k,)
    assert np.abs(got - want).max() < 1e-12


@pytest.mark.parametrize("k", [1, 2, 3])
def test_stacked_pauli_coefficients_are_per_matrix_calls(k):
    rng = np.random.default_rng(10 + k)
    d = 2 ** k
    stack = rng.normal(size=(3, 2, d, d)) + 1j * rng.normal(size=(3, 2, d, d))
    got = pauli_coefficients(stack)
    assert got.shape == (3, 2, 4 ** k)
    paulis = [_dense_product(names) for names in pauli_table(k).names]
    for i, j in itertools.product(range(3), range(2)):
        a = stack[i, j]
        assert np.array_equal(got[i, j], pauli_coefficients(a)), (i, j)
        want = [np.trace(mat @ a) for mat in paulis]
        assert np.abs(got[i, j] - want).max() < 1e-12, (i, j)


def _two_step_pauli_coefficients(a):
    """The two-gather form the one ``np.take`` replaced: the 2**k flip
    diagonals a[..., t ^ f, t] first, then one row per product by its flip."""
    _, flip, sign = pauli_table(a.shape[-1].bit_length() - 1)
    t = np.arange(a.shape[-1])
    terms = np.take(a[..., t ^ t[:, None], t], flip, axis=-2)
    terms *= sign
    return terms.sum(-1)


@pytest.mark.parametrize("k", [0, 1, 2, 3, 4])
def test_one_gather_matches_the_two_step_gather(k, monkeypatch):
    # bit for bit, whatever the layout: the sum over t must round as before,
    # also gathered two products per slice, as a k = 8 gather is sliced
    rng = np.random.default_rng(20 + k)
    d = 2 ** k
    base = rng.normal(size=(3, 4, d, d)) + 1j * rng.normal(size=(3, 4, d, d))
    stacks = [base, base[1, 2], base.transpose(1, 0, 3, 2), base[::-1, ::2],
              base[..., ::-1, :], np.asfortranarray(base), base.real]
    for i, a in enumerate(stacks):
        want = _two_step_pauli_coefficients(a)
        assert np.array_equal(pauli_coefficients(a), want), i
        with monkeypatch.context() as patch:
            patch.setattr(states, "SLICE_ENTRIES", 2 << k)
            assert np.array_equal(pauli_coefficients(a), want), i


def test_pauli_coefficients_reject_a_matrix_that_is_not_square():
    for bad in (np.zeros(4), np.zeros((2, 4)), np.zeros((3, 3)),
                np.zeros((5, 2, 4)), np.zeros((5, 3, 3))):
        with pytest.raises(ValueError):
            pauli_coefficients(bad)
