"""Core state container and operator plumbing."""

import ast
import functools
import itertools
import inspect
import pathlib
import re
import tracemalloc

import numpy as np
import pytest

import quadproto
from quadproto import scenarios as reg
from quadproto import states
from quadproto.teleport import FamilySpec, build_probes

from quadproto.states import (
    MAX_QUBITS,
    PAULI_ORDER,
    SIGMA,
    CapacityError,
    PureState,
    apply_local,
    apply_paulis,
    check_tolerance,
    ket_vector,
    pauli_coefficients,
    pauli_table,
    purity,
    reduced_density,
    tensor,
)

from reference_inputs import haar_unitary, ref


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
    st = apply_local(PureState.from_kets({"00": 1.0}), SIGMA["s1"], (0,))
    assert dict(st.ket_terms()) == {"10": (1 + 0j)}
    st = apply_local(PureState.from_kets({"00": 1.0}), SIGMA["s1"], (1,))
    assert dict(st.ket_terms()) == {"01": (1 + 0j)}


def test_apply_local_matches_dense_kron():
    rng = np.random.default_rng(7)
    for _ in range(50):
        n = int(rng.integers(2, 5))
        st = PureState(ref.haar(n, rng))
        target = int(rng.integers(0, n))
        u = haar_unitary(1, rng)
        moved = apply_local(st, u, (target,))
        mats = [u if q == target else np.eye(2) for q in range(n)]
        full = mats[0]
        for m in mats[1:]:
            full = np.kron(full, m)
        assert np.allclose(moved.amplitudes, full @ st.amplitudes, atol=1e-12)


def test_apply_local_two_qubit_nonadjacent():
    rng = np.random.default_rng(11)
    st = PureState(ref.haar(3, rng))
    cz = np.diag([1, 1, 1, -1])
    a = apply_local(st, cz, (0, 2))
    # oracle: swap the target pair to the front, apply, swap back
    b = PureState(ref.to_qubit_order(st.amplitudes, (0, 2, 1)))
    b = apply_local(b, cz, (0, 1))
    b = ref.to_qubit_order(b.amplitudes, (0, 2, 1))
    assert np.allclose(a.amplitudes, b, atol=1e-12)


@pytest.mark.parametrize("u, targets, message", [
    (np.eye(2)[:1], (0,), "unitary must be square"),
    (np.ones(2), (0,), "unitary must be square"),
    (np.diag([1.0, 2.0]), (0,), "fails unitarity"),
    ((1 + 2e-12) * np.eye(2), (0,), "fails unitarity"),
    (np.full((2, 2), np.nan), (0,), "fails unitarity"),
    (np.eye(4), (0,), "operator size does not match target count"),
    (np.eye(2), (0, 1), "operator size does not match target count"),
    (np.eye(4), (1, 1), "repeated target qubit in [1, 1]"),
    (np.eye(2), (2,), "target qubit 2 is out of range for a 2-qubit resource"),
    (np.eye(2), (-1,), "target qubit -1 is out of range for a 2-qubit resource"),
])
def test_apply_local_refuses_a_bad_matrix_or_target(u, targets, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        apply_local(PureState.from_kets({"00": 1.0}), u, targets)


def test_non_integer_qubits_are_refused_whatever_the_index_memo_holds():
    # the sender-index memo is keyed by value, where 1.0 == 1 == True: a
    # float or bool qubit would be answered once the equal int was asked
    st = PureState(ref.haar(3, np.random.default_rng(4)))
    h = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
    apply_local(st, h, (1,))
    reduced_density(st, (1,))
    for bad in (1.0, True, np.float64(1), np.bool_(True), "1", None):
        with pytest.raises(ValueError, match=r"^target qubit must be an integer, "
                                             r"got %s$" % re.escape(repr(bad))):
            apply_local(st, h, (bad,))
        with pytest.raises(ValueError, match=r"^kept qubit must be an integer, "
                                             r"got %s$" % re.escape(repr(bad))):
            reduced_density(st, (bad,))
    # numpy integers stay accepted
    assert np.array_equal(apply_local(st, h, (np.int64(1),)).amplitudes,
                          apply_local(st, h, (1,)).amplitudes)
    assert np.array_equal(reduced_density(st, np.array([2, 0])),
                          reduced_density(st, (2, 0)))


def test_apply_local_takes_a_state_and_a_matrix_each_within_tolerance():
    # norm 1 + 0.9e-12 passes NORM_TOL and U = (1 + 0.45e-12) I passes
    # UNITARY_TOL (U^dag U - I = 0.9e-12), but the two deviations add to an
    # output norm of 1 + 1.35e-12: that output is rescaled, not refused
    st = PureState(np.array([1 + 0.9e-12, 0.0]))
    out = apply_local(st, (1 + 0.45e-12) * np.eye(2), (0,))
    assert abs(np.linalg.norm(out.amplitudes) - 1.0) <= states.NORM_TOL
    assert out.amplitudes[1] == 0 and out.amplitudes[0].real > 0
    # an output within NORM_TOL is returned as computed
    assert np.array_equal(apply_local(st, np.eye(2), (0,)).amplitudes, st.amplitudes)
    # a matrix or a state off by more than its own tolerance is still refused
    with pytest.raises(ValueError, match="fails unitarity"):
        apply_local(st, (1 + 0.6e-12) * np.eye(2), (0,))
    with pytest.raises(ValueError, match="state norm"):
        PureState(np.array([1 + 1.1e-12, 0.0]))


def test_tensor_orders_registers():
    st = tensor(PureState.from_kets({"1": 1.0}), PureState.from_kets({"00": 1.0}))
    assert dict(st.ket_terms()) == {"100": (1 + 0j)}


def test_reduced_density_pure_product():
    plus = PureState.from_kets({"0": 1, "1": 1}, normalize=True)
    st = tensor(PureState.from_kets({"0": 1.0}), plus)
    rho = reduced_density(st, (1,))
    assert abs(purity(rho) - 1.0) < 1e-12
    assert np.allclose(rho, np.full((2, 2), 0.5), atol=1e-12)


def test_reduced_density_entangled_half():
    bell = PureState.from_kets({"00": 1, "11": 1}, normalize=True)
    rho = reduced_density(bell, (0,))
    assert abs(purity(rho) - 0.5) < 1e-12


def test_reduced_density_is_a_read_only_array():
    rho = reduced_density(PureState.from_kets({"01": 1.0}), (1, 0))
    assert type(rho) is np.ndarray and rho.shape == (4, 4)
    assert np.array_equal(rho, np.diag([0, 0, 1, 0]))
    with pytest.raises(ValueError):
        rho[0, 0] = 1.0


# --- the sender-major index against the reshape/transpose forms it replaced --

def _reduced_density_by_transpose(st, keep):
    n = st.num_qubits
    env = [i for i in range(n) if i not in keep]
    psi = st.amplitudes.reshape([2] * n).transpose(list(keep) + env)
    psi = psi.reshape(1 << len(keep), -1)
    return psi @ psi.conj().T


def _apply_local_by_transpose(st, u, targets):
    n = st.num_qubits
    perm = list(targets) + [i for i in range(n) if i not in targets]
    psi = st.amplitudes.reshape([2] * n).transpose(perm)
    psi = u @ psi.reshape(1 << len(targets), -1)
    psi = psi.reshape([2] * n).transpose(np.argsort(perm)).reshape(-1)
    norm = np.linalg.norm(psi)
    if not abs(norm - 1.0) <= states.NORM_TOL:
        psi /= norm
    return psi


def _ordered_subsets(n):
    """Every ordered tuple of distinct qubits of an n-qubit register, by size."""
    return [tuple(itertools.permutations(range(n), k)) for k in range(n + 1)]


@pytest.mark.parametrize("n", range(2, 8))
def test_reduced_densities_are_the_transpose_path(n):
    # every ordered subset, k = 0..n, stacked in chunks of 32 and one at a
    # time: the gathered reductions are bit for bit the transposed ones
    st = PureState(ref.haar(n, np.random.default_rng(100 + n)))
    for subsets in _ordered_subsets(n):
        want = [_reduced_density_by_transpose(st, s) for s in subsets]
        for lo in range(0, len(subsets), 32):
            stack = states.reduced_densities(st.amplitudes, subsets[lo:lo + 32])
            assert stack.shape == (len(subsets[lo:lo + 32]),) + want[0].shape
            for s, got, w in zip(subsets[lo:lo + 32], stack, want[lo:lo + 32]):
                assert got.tobytes() == w.tobytes(), s
        # reduced_density is the one-subset case; it refuses k = 0
        for s, w in zip(subsets, want):
            if s:
                assert reduced_density(st, s).tobytes() == w.tobytes(), s


@pytest.mark.parametrize("n", range(2, 8))
def test_apply_local_is_the_transpose_path(n):
    # every ordered target tuple, k = 0..n, one Haar unitary per k
    rng = np.random.default_rng(200 + n)
    st = PureState(ref.haar(n, rng))
    for subsets in _ordered_subsets(n):
        u = haar_unitary(len(subsets[0]), rng)
        for s in subsets:
            want = _apply_local_by_transpose(st, u, s)
            assert apply_local(st, u, s).amplitudes.tobytes() == want.tobytes(), s


def test_sender_index_is_memoized_per_call(monkeypatch):
    # an index of at most INDEX_MEMO_ENTRIES entries is kept by value; a
    # larger one is built on every call and never kept
    built = []
    real = states._sender_index

    def spy(n, subsets):
        built.append(len(subsets))
        return real(n, subsets)

    monkeypatch.setattr(states, "_sender_index", spy)
    monkeypatch.setattr(states, "_cached_sender_index",
                        functools.lru_cache(maxsize=256)(spy))
    n = 12
    small = tuple(itertools.permutations(range(3), 2))[:4] * 4
    large = small + ((5, 7),)
    assert len(small) << n == states.INDEX_MEMO_ENTRIES < len(large) << n
    amps = states.ket_vector({"0" * n: 1.0, "1" * n: 1.0}, normalize=True)
    for _ in range(2):
        assert states.reduced_densities(amps, small).shape == (16, 4, 4)
        assert states.reduced_densities(amps, large).shape == (17, 4, 4)
    index = states.sender_index(n, small)
    assert index is states.sender_index(n, small) and not index.flags.writeable
    assert states.sender_index(n, large) is not states.sender_index(n, large)
    assert built == [16, 17, 17, 17, 17]
    info = states._cached_sender_index.cache_info()
    assert (info.currsize, info.hits) == (1, 3)
    # one subset's index holds 2^n <= 2^MAX_QUBITS entries, so a reduction
    # and a local unitary on the same qubits of a register share one entry
    st = PureState(amps)
    reduced_density(st, (3, 1))
    apply_local(st, np.eye(4), (3, 1))
    assert built[5:] == [1]
    assert states._cached_sender_index.cache_info().currsize == 2


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
        for stack in (np.array([ref.haar(k, rng) for _ in range(3)]),
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
        st = PureState(ref.haar(n, rng))
        assert abs(np.linalg.norm(st.amplitudes) - 1.0) < 1e-12
        u = haar_unitary(1, rng)
        q = int(rng.integers(0, n))
        rotated = apply_local(st, u, (q,))
        # unitaries preserve overlaps
        other = PureState(ref.haar(n, rng))
        rotated_other = apply_local(other, u, (q,))
        assert abs(np.vdot(rotated.amplitudes, rotated_other.amplitudes)
                   - np.vdot(st.amplitudes, other.amplitudes)) < 1e-10
        # purity of any marginal is within [1/2^k, 1]
        keep = tuple(sorted(rng.choice(n, size=max(1, n // 2), replace=False)))
        p = purity(reduced_density(st, keep))
        assert 1.0 / 2 ** len(keep) - 1e-12 <= p <= 1.0 + 1e-12
        cases += 1
    assert cases == 200


def test_amplitudes_locked():
    st = PureState.from_kets({"01": 1.0})
    with pytest.raises(ValueError):
        st.amplitudes[0] = 1.0


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf"),
                                   -1.0, 0.0, 1.0, 2.0, "x", None, True])
def test_check_tolerance_rejects_outside_open_unit_interval(value):
    with pytest.raises(ValueError, match="tol must be a finite number"):
        check_tolerance(value)


def test_check_tolerance_accepts_the_open_unit_interval():
    for value in (1e-300, 1e-12, 0.5, 0.999, np.float64(0.5)):
        assert check_tolerance(value) == value
    # False is not 0: a bool is refused, as a string is
    for value in (-1e-300, False, "0"):
        with pytest.raises(ValueError, match=r"^tol must be a finite number "
                                             r"strictly between 0 and 1, got "):
            check_tolerance(value)


def _valid_arguments():
    """Positional and keyword arguments, all but the tolerance, of every
    exported callable that takes one; each call is cheap once the tolerance
    is accepted."""
    ghz4 = quadproto.make_state("GHZ4").state
    ghz8 = reg.locc_candidate_sets()["ghz8"]
    return {
        "run_scenario": ((reg.TELEPORT_SCENARIOS["ghz2_pi_01"],), {}),
        "distinguishable_messages": ((ghz4, (0,)), {}),
        "best_over_subsets": ((ghz4, 1), {}),
        "product_terms": ((ghz8[0][1], reg.certificate_factors()["ghz8"]), {}),
        "check_certificate": ((ghz8, reg.certificate_factors()["ghz8"]), {}),
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


def test_every_tolerance_in_the_table_is_read():
    # a tolerance whose last reader is gone would still look like a setting
    lines = inspect.getsource(states).splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith("# Tolerances."))
    table = []
    for line in lines[start + 1:]:
        if not line:
            break
        table.append(line.split(" = ")[0])
    assert table[0] == "NORM_TOL" and table[-1] == "NEGATIVE_GAP"
    read = set()
    for path in pathlib.Path(states.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    assert [name for name in table if name not in read] == []


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
    assert table.flip.shape == table.z.shape == (4 ** k,)
    assert table.walsh.shape == (2 ** k, 2 ** k) and table.walsh.dtype == np.int8
    assert not any(a.flags.writeable for a in (table.flip, table.z, table.walsh))
    with pytest.raises(ValueError):
        table.walsh[0, 0] = -1
    # one byte per entry of H, and no array of 4^k x 2^k entries is kept
    assert table.walsh.nbytes == 4 ** k
    assert table.flip.nbytes + table.z.nbytes <= 16 * 4 ** k
    # the Sylvester-Hadamard matrix: +-1 rows, pairwise orthogonal
    walsh = table.walsh.astype(np.int64)
    assert np.array_equal(walsh @ walsh.T, 2 ** k * np.eye(2 ** k, dtype=np.int64))
    rows = np.arange(2 ** k)
    parity = np.array([[bin(z & t).count("1") & 1 for t in rows] for z in rows])
    assert np.array_equal(table.walsh, 1 - 2 * parity)
    # one product per name, each reading its signs as row z[x] of H
    assert len(table.names) == 4 ** k
    for names, flip, z in zip(table.names, table.flip, table.z):
        got = np.zeros((2 ** k, 2 ** k), dtype=np.complex128)
        got[rows, rows ^ flip] = table.walsh[z]
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
        assert (table.flip[x], table.z[x]) == (flip, z), names
        assert np.array_equal(table.walsh[table.z[x]], 1 - 2 * parity), names


def test_pauli_table_builds_no_wide_product_array():
    # an int64 index or float64 sign array of 4^7 x 2^7 entries alone is 16 MiB
    k = 7
    tracemalloc.start()
    try:
        table = pauli_table.__wrapped__(k)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert table.walsh.nbytes == 4 ** k
    assert peak < 4 * 4 ** k * 2 ** k


def test_eight_qubit_pauli_table_keeps_no_sign_rows():
    # at the largest admitted k the table keeps its 4^8 names (7 MiB of
    # tuples), flip and z masks (1 MiB) and one 64 KiB H: 8.1 MiB measured;
    # 4^8 x 2^8 int8 sign rows would add 16 MiB
    tracemalloc.start()
    try:
        table = pauli_table.__wrapped__(8)
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert table.walsh.shape == (2 ** 8, 2 ** 8)
    assert kept < 9 * 2 ** 20


def test_eight_qubit_pauli_coefficients_hold_one_gather():
    # a k = 8 call holds its 4^8 gathered diagonal entries, their
    # Walsh-Hadamard transform and the table-order read of it, 1 MiB each:
    # 3.5 MiB measured
    k = 8
    rng = np.random.default_rng(8)
    a = rng.normal(size=(2 ** k, 2 ** k)) + 1j * rng.normal(size=(2 ** k, 2 ** k))
    pauli_coefficients(a)  # the memoized table and index are built before the count
    tracemalloc.start()
    try:
        pauli_coefficients(a)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * 2 ** 20


def test_pauli_table_above_the_stack_limit_is_refused():
    with pytest.raises(CapacityError, match=r"^a Walsh-Hadamard transform on 9 qubits "
                                            r"sums 8\^9 terms, over the limit of 2\^24$"):
        pauli_table(9)


def test_unknown_pauli_names_are_refused_by_name():
    # "sx" used to fail inside tuple.index without naming itself
    for bad in ("sx", "S1", "i", 1):
        with pytest.raises(ValueError, match=r"^unknown Pauli %s, expected one of "
                                             r"s0, s1, s2, is2, s3$" % re.escape(repr(bad))):
            apply_paulis(np.ones(2) / 2 ** 0.5, [bad])
    with pytest.raises(ValueError, match="unknown Pauli 'sx'"):
        apply_paulis(np.eye(4), ["s0", "sx"])


def test_single_pauli_products_are_table_rows():
    # a dressed family's span is the undressed span under the dense product
    # of its PAULI_ORDER matrices, which build_probes reads off pauli_table
    cases = [("ghz_diag", k, word) for k in (1, 2, 3)
             for word in itertools.product(range(4), repeat=k)]
    cases += [("omega_sub", 3, pair) for pair in itertools.product(range(4), repeat=2)]
    for kind, k, dressing in cases:
        bare = build_probes(FamilySpec(kind, k, (0,) * len(dressing)))
        word = dressing if kind == "ghz_diag" else (dressing[0], 0, dressing[1])
        want = bare @ _dense_product(PAULI_ORDER[i] for i in word).T
        got = build_probes(FamilySpec(kind, k, dressing))
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
    """The two-gather form: the 2**k flip diagonals a[..., t ^ f, t] first,
    then one signed row per product by its flip, summed over t."""
    _, flip, z, walsh = pauli_table(a.shape[-1].bit_length() - 1)
    t = np.arange(a.shape[-1])
    terms = np.take(a[..., t ^ t[:, None], t], flip, axis=-2)
    terms *= walsh[z]
    return terms.sum(-1)


@pytest.mark.parametrize("k", [0, 1, 2, 3, 4])
def test_one_gather_matches_the_two_step_gather(k):
    # the Walsh-Hadamard matmul sums each trace's 2^k terms in another
    # order than the two-step gather and than a dense np.kron build.  Each
    # order is within (2^k - 1) u of the exact sum, per unit of the sum of
    # the terms' magnitudes (u = 2^-53, the products being exact), so two
    # orders differ by at most 2^k x 2^-52 of it.  Whatever the layout of the
    # input, the one gather makes the same C-contiguous diagonals, so the
    # coefficients are those of a contiguous copy, bit for bit
    rng = np.random.default_rng(20 + k)
    d = 2 ** k
    base = rng.normal(size=(3, 4, d, d)) + 1j * rng.normal(size=(3, 4, d, d))
    stacks = [base, base[1, 2], base.transpose(1, 0, 3, 2), base[::-1, ::2],
              base[..., ::-1, :], np.asfortranarray(base), base.real]
    table = pauli_table(k)
    dense = np.array([_dense_product(names) for names in table.names])
    t = np.arange(d)
    for i, a in enumerate(stacks):
        got = pauli_coefficients(a)
        assert np.array_equal(got, pauli_coefficients(np.ascontiguousarray(a))), i
        # the sum of the magnitudes of each product's terms
        scale = np.abs(a[..., t ^ table.flip[:, None], t]).sum(-1)
        bound = d * 2.0 ** -52 * scale
        assert (np.abs(got - _two_step_pauli_coefficients(a)) <= bound).all(), i
        want = np.einsum("xst,...ts->...x", dense, a)
        assert (np.abs(got - want) <= bound).all(), i


def test_pauli_coefficients_reject_a_matrix_that_is_not_square():
    for bad in (np.zeros(4), np.zeros((2, 4)), np.zeros((3, 3)),
                np.zeros((5, 2, 4)), np.zeros((5, 3, 3))):
        with pytest.raises(ValueError):
            pauli_coefficients(bad)
