"""Dense-coding message counting."""

import functools
import itertools
import math
import re
import time
import tracemalloc

import numpy as np
import pytest

from quadproto import densecode
from quadproto import scenarios as reg
from quadproto import states
from quadproto.catalog import make_state
from quadproto.densecode import (
    DenseCodingResult,
    _lex_smallest_maximum_clique,
    best_over_subsets,
    distinguishable_messages,
    encoded_states,
)
from quadproto.states import (ASSERT_TOL, MAX_STACK_ENTRIES, PAULI_ORDER, SIGMA,
                              PureState, apply_local, pauli_coefficients, pauli_table)

from reference_inputs import ref

PRINCIPAL = ("GHZ4", "W4", "Omega", "Q4", "Q5")


def _count(name, qubits, **state_params):
    st = make_state(name, **state_params).state
    return distinguishable_messages(st, qubits).count


# --- structural properties -----------------------------------------------------

def test_encoding_enumeration_is_lexicographic():
    st = make_state("Bell:phi+").state
    enc = encoded_states(st, (0,))
    assert [names for names, _ in enc] == [(p,) for p in PAULI_ORDER]
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
    for query in distinguishable_messages, encoded_states:
        for senders, bad in ((9,), 9), ((0, 7), 7), ((0, -1), -1):
            with pytest.raises(ValueError, match=r"^sender qubit %d is out of range "
                                                 r"for a 4-qubit resource$" % bad):
                query(st, senders)


def test_repeated_sender_qubit_rejected():
    st = make_state("GHZ4").state
    with pytest.raises(ValueError, match=r"^repeated sender qubit in \[0, 0\]$"):
        distinguishable_messages(st, (0, 0))
    with pytest.raises(ValueError, match=r"^repeated sender qubit in \[1, 2, 1\]$"):
        encoded_states(st, (1, 2, 1))
    # a repeat is named before a sender out of range, and that before the size
    for query in distinguishable_messages, encoded_states:
        with pytest.raises(ValueError, match=r"^repeated sender qubit in \[9, 9\]$"):
            query(st, (9, 9))
        with pytest.raises(ValueError, match=r"^sender qubit 12 is out of range "
                                             r"for a 12-qubit resource$"):
            query(make_state("GHZ:12").state, tuple(range(8)) + (12,))


@pytest.mark.parametrize("tol", [float("nan"), -1.0, 0.0, 1.0, 2.0])
def test_bad_tolerance_rejected(tol):
    # these used to answer N = 1 instead of failing
    st = make_state("GHZ4").state
    with pytest.raises(ValueError, match="tol must be a finite number"):
        distinguishable_messages(st, (0, 1), tol=tol)
    with pytest.raises(ValueError, match="tol must be a finite number"):
        best_over_subsets(st, 1, tol=tol)


@pytest.mark.parametrize("name,params", [("Q4_11", {}), ("W_mn", {"m": 1, "n": 1})])
def test_counts_past_the_dimension_are_refused(name, params):
    # at tol 0.6, 32 encodings of a 16-dimensional span pass as orthogonal:
    # their Gram matrix has off-diagonal magnitudes up to 1/3, and 31 / 3 >= 1
    st = make_state(name, **params).state
    message = (r"^tolerance 0\.6 counts N = 32 messages, but their encoded states "
               r"overlap by up to 0\.333 and \(N - 1\) x 0\.333 = 10\.3 is not below 1")
    with pytest.raises(ValueError, match=message):
        distinguishable_messages(st, (0, 1, 2), tol=0.6)
    with pytest.raises(ValueError, match=message):
        best_over_subsets(st, 3, tol=0.6)


def test_a_gram_tie_at_exactly_one_is_refused():
    # Q4_11 with sender 0 or 1 at tol 0.6: N = 4 messages whose pair overlaps
    # are 1/3, so (N - 1) x max is exactly 1, which is not below 1.  The
    # kernel rounds the overlap to 1/3 + 2 ulp (0x1.5555555555557p-2); a
    # kernel that rounded it below 1/3 would let N = 4 through, and fail here
    st = make_state("Q4_11").state
    message = (r"^tolerance 0\.6 counts N = 4 messages, but their encoded states "
               r"overlap by up to 0\.333 and \(N - 1\) x 0\.333 = 1 is not below 1, ")
    for sender in (0,), (1,):
        mag = densecode._pauli_magnitudes(st, (sender,), 1)[0]
        assert 3 * mag[mag < 0.6].max() >= 1
        with pytest.raises(ValueError, match=message):
            distinguishable_messages(st, sender, tol=0.6)
    with pytest.raises(ValueError, match=message):
        best_over_subsets(st, 1, tol=0.6)


def test_count_within_the_dimension_passes_the_gram_check():
    # Q4_11 at tol 0.3: N = 16, and the witness pairs are below 1e-16
    st = make_state("Q4_11").state
    res = distinguishable_messages(st, (0, 1, 2), tol=0.3)
    assert res.count == 16
    rows = _witness_rows(res.witness)
    gram = _mag(st, (0, 1, 2))[rows[:, None] ^ rows]
    np.fill_diagonal(gram, 0.0)
    assert 15 * 0.3 >= 1 and gram.max() < 1e-16


def test_gram_check_reads_nothing_when_the_tolerance_settles_it():
    # (N - 1) * tol < 1 bounds every witness pair: a table of ones, which
    # fails the check whenever it is read, is never read
    ones = np.ones(16)
    densecode._check_independent(ones, [0, 5, 10, 15], 0.3)
    with pytest.raises(ValueError, match=r"^tolerance 0\.4 counts N = 4 messages"):
        densecode._check_independent(ones, [0, 5, 10, 15], 0.4)


@pytest.mark.parametrize("k", [9, 12])
def test_oversized_query_rejected_before_allocation(k, monkeypatch):
    # a query's Walsh-Hadamard transform sums 8^k terms, 2^27 at k = 9
    # whatever the resource size; the encodings of 4^k x 2^12 amplitudes are
    # larger still
    def no_table(k):
        raise AssertionError("the Pauli table was built for k = %d" % k)

    monkeypatch.setattr(densecode, "pauli_table", no_table)
    monkeypatch.setattr(states, "_sender_index", no_table)
    monkeypatch.setattr(states, "_cached_sender_index", no_table)
    st = make_state("GHZ:12").state
    assert 8 ** k > MAX_STACK_ENTRIES
    table = (r"^a Walsh-Hadamard transform on %d qubits sums 8\^%d terms, over the "
             r"limit of 2\^24$" % (k, k))
    with pytest.raises(ValueError, match=table):
        distinguishable_messages(st, tuple(range(k)))
    with pytest.raises(ValueError, match=table):
        best_over_subsets(st, k)
    with pytest.raises(ValueError, match=r"^%d sender qubits of a 12-qubit resource "
                                         r"need 4\^%d x 2\^12 encoded amplitudes, "
                                         r"over the limit of 2\^24$" % (k, k)):
        encoded_states(st, tuple(range(k)))
    # 4^7 x 2^12 encoded amplitudes would take 1.1 GB
    with pytest.raises(ValueError, match=r"4\^7 x 2\^12 encoded amplitudes"):
        encoded_states(st, tuple(range(7)))


def test_size_refusals_are_capacity_errors():
    # a stack past MAX_STACK_ENTRIES is a CapacityError, as in pauli_table
    # and the teleport scores; it stays a ValueError, so the CLI exits 2
    st = make_state("GHZ:12").state
    with pytest.raises(states.CapacityError, match=r"^a Walsh-Hadamard transform on "
                                                   r"9 qubits sums 8\^9 terms"):
        distinguishable_messages(st, range(9))
    with pytest.raises(states.CapacityError, match=r"^7 sender qubits .* 4\^7 x 2\^12 "
                                                   r"encoded amplitudes"):
        encoded_states(st, tuple(range(7)))
    assert issubclass(states.CapacityError, ValueError)


def test_query_at_the_limit_is_answered(monkeypatch):
    # the bound admits a query on 8 sender qubits, whose Walsh-Hadamard
    # transform sums 8^8 terms, and the encodings of GHZ:12 with sender
    # 0..5, 4^6 x 2^12 amplitudes; the same boundaries are checked here at
    # sizes that are cheap to run
    assert 8 ** 8 == 4 ** 6 * 2 ** 12 == MAX_STACK_ENTRIES
    monkeypatch.setattr(states, "MAX_STACK_ENTRIES", 8 ** 2)
    st = make_state("GHZ4").state
    assert distinguishable_messages(st, (1, 0)).count == 8
    with pytest.raises(ValueError, match=r"transform on 3 qubits sums 8\^3 terms"):
        distinguishable_messages(st, (0, 1, 2))
    assert best_over_subsets(st, 2)[0].count == 8
    with pytest.raises(ValueError, match=r"transform on 3 qubits sums 8\^3 terms"):
        best_over_subsets(st, 3)
    assert len(encoded_states(st, (1,))) == 4
    with pytest.raises(ValueError, match="2 sender qubits of a 4-qubit"):
        encoded_states(st, (1, 0))


def _w_state(n):
    return PureState.from_kets({format(1 << q, "0%db" % n): 1.0 for q in range(n)},
                               normalize=True)


def test_class_graph_past_the_stack_limit_is_refused_from_its_size():
    # the W state on 7 or 8 qubits, every qubit a sender, has 8,192 or 32,768
    # phase classes: an n x n class graph and the intp index that builds it
    # would hold 2^26 or 2^30 entries (8 GiB at n = 8), refused from n before
    # either is built
    for n, classes in (7, 8192), (8, 32768):
        msg = (r"^%d sender qubits at tolerance 1e-10: a graph over %d phase classes "
               r"needs %d\^2 entries, over the limit of 2\^24$" % (n, classes, classes))
        w = _w_state(n)
        start = time.perf_counter()
        with pytest.raises(states.CapacityError, match=msg):
            distinguishable_messages(w, tuple(range(n)))
        assert time.perf_counter() - start < 1.0, n
    # the W7 graph's index alone would take 512 MiB
    tracemalloc.start()
    try:
        with pytest.raises(states.CapacityError, match="8192 phase classes"):
            best_over_subsets(_w_state(7), 7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2 ** 20


def test_class_graph_at_the_limit_is_answered(monkeypatch):
    # GHZ4 with sender 0 has four classes, none matching another: a 4 x 4
    # graph, which a limit of 16 entries admits and 15 refuses; the Pauli
    # kernel's 8^1 terms are within both
    st = make_state("GHZ4").state
    monkeypatch.setattr(states, "MAX_STACK_ENTRIES", 16)
    res = distinguishable_messages(st, (0,))
    assert (res.count, res.num_classes) == (4, 4)
    monkeypatch.setattr(states, "MAX_STACK_ENTRIES", 15)
    with pytest.raises(states.CapacityError, match=r"a graph over 4 phase classes "
                                                   r"needs 4\^2 entries"):
        distinguishable_messages(st, (0,))


def test_twelve_qubit_cat_with_six_senders_is_answered():
    # once refused for its 4^6 x 2^12 encodings, which a query no longer builds
    res = distinguishable_messages(make_state("GHZ:12").state, tuple(range(6)))
    assert (res.count, res.num_classes, res.num_encodings) == (128, 128, 4096)


def test_eight_sender_query_keeps_no_pauli_index():
    # an index of the 4^8 x 2^8 trace terms would take 128 MiB as int64: the
    # kernel gathers the 4^8 flip diagonal entries instead, and keeps only
    # their index (512 KiB)
    states._diagonal_index.cache_clear()
    res = distinguishable_messages(make_state("GHZ:8").state, tuple(range(8)))
    assert (res.count, res.num_classes, res.num_encodings) == (256, 256, 65536)
    assert states._diagonal_index.cache_info().currsize == 1
    assert states._diagonal_index(8).nbytes <= 8 * 4 ** 8
    rho = np.diag(np.full(256, 1 / 256)).astype(complex)
    tracemalloc.start()
    try:
        mag = pauli_coefficients(rho)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the traceless products of a maximally mixed state
    assert mag[0] == 1 and np.count_nonzero(mag) == 1
    # the gather, its transform and its read, 1 MiB each
    assert peak < 4 * 2 ** 20


@pytest.mark.parametrize("k", [-1, 5, 9])
def test_best_over_subsets_rejects_k_out_of_range(k):
    st = make_state("GHZ4").state
    with pytest.raises(ValueError, match=r"k = %d .* 4-qubit" % k):
        best_over_subsets(st, k)


def test_best_over_subsets_accepts_every_k_in_range():
    st = make_state("GHZ4").state
    assert best_over_subsets(st, 0)[1] == {(): 1}
    assert best_over_subsets(st, 4)[1] == {(0, 1, 2, 3): 16}


# --- the array kernel against the per-state path it replaced ---------------------

def _reference_encoded(resource, sender_qubits):
    out = []
    for names in itertools.product(PAULI_ORDER, repeat=len(sender_qubits)):
        st = resource
        for qubit, name in zip(sender_qubits, names):
            st = apply_local(st, SIGMA[name], [qubit])
        out.append((names, st))
    return out


def _reference_max_clique_size(adj, cand):
    """Exact maximum clique size within the candidate bitmask: the search as
    it was before the Cayley shortcut, kept verbatim as the oracle."""
    best = 0

    def expand(size, pool):
        nonlocal best
        if pool == 0:
            if size > best:
                best = size
            return
        order = []
        uncolored = pool
        color = 0
        while uncolored:
            color += 1
            avail = uncolored
            while avail:
                v = (avail & -avail).bit_length() - 1
                order.append((v, color))
                avail &= ~adj[v]
                avail &= ~(1 << v)
                uncolored &= ~(1 << v)
        for v, bound in reversed(order):
            if size + bound <= best:
                return
            expand(size + 1, pool & adj[v])
            pool &= ~(1 << v)

    expand(0, cand)
    return best


_CLIQUES = {}


def _reference_lex_clique(adj, n):
    """The lexicographically smallest maximum clique, with the first bound
    searched over the whole graph; cached by graph, since the reference path
    meets the same graph under several orders and tolerances."""
    key = (tuple(adj), n)
    if key not in _CLIQUES:
        full = (1 << n) - 1
        target = _reference_max_clique_size(adj, full)
        chosen = []
        pool = full
        for v in range(n):
            if not (pool >> v) & 1:
                continue
            inner = pool & adj[v]
            if len(chosen) + 1 + _reference_max_clique_size(adj, inner) >= target:
                chosen.append(v)
                pool = inner
                if len(chosen) == target:
                    break
        _CLIQUES[key] = chosen
    return list(_CLIQUES[key])


def _reference_messages(encoded, sender_qubits, tol):
    """The path the kernel replaced: states from an apply_local chain, a vdot
    per (representative, encoding) pair for the phase classes and a double
    loop for the adjacency."""
    reps = []
    for names, st in encoded:
        for _, rep in reps:
            if abs(abs(np.vdot(rep.amplitudes, st.amplitudes)) - 1.0) < tol:
                break
        else:
            reps.append((names, st))
    vecs = np.array([st.amplitudes for _, st in reps])
    overlaps = np.abs(vecs.conj() @ vecs.T)
    n = len(reps)
    adj = [0] * n
    for i in range(n):
        for j in range(n):
            if i != j and overlaps[i, j] < tol:
                adj[i] |= 1 << j
    clique = _reference_lex_clique(adj, n)
    return DenseCodingResult(
        sender_qubits=tuple(sender_qubits),
        count=len(clique),
        witness=tuple(reps[i][0] for i in clique),
        num_encodings=len(encoded),
        num_classes=n,
    )


def _reference_cases():
    """label -> (state, sender subsets): every subset of size 1..3, and
    GHZ:5 at size 4."""
    states = {name: make_state(name).state for name in PRINCIPAL + ("Q4_11",)}
    states["W_mn(1,1)"] = make_state("W_mn", m=1, n=1).state
    rng = np.random.default_rng(20261018)
    for i in range(3):
        states["haar4_%d" % i] = PureState(ref.haar(4, rng))
    states["haar5"] = PureState(ref.haar(5, rng))
    cases = {label: (st, [q for k in (1, 2, 3)
                          for q in itertools.combinations(range(st.num_qubits), k)])
             for label, st in states.items()}
    cases["GHZ:5"] = (make_state("GHZ:5").state,
                      list(itertools.combinations(range(5), 4)))
    return cases


_REFERENCE_CASES = _reference_cases()
_TOLERANCES = (1e-15, 1e-10, 0.3, 0.6, 0.9)


def _assert_matches_reference(st, subset, tolerances):
    encoded = _reference_encoded(st, subset)
    got_states = encoded_states(st, subset)
    assert [n for n, _ in got_states] == [n for n, _ in encoded]
    for (names, a), (_, b) in zip(got_states, encoded):
        assert np.array_equal(a.amplitudes, b.amplitudes), (subset, names)
    amplitudes = {names: enc.amplitudes for names, enc in encoded}
    for tol in tolerances:
        want = _reference_messages(encoded, subset, tol)
        where = (subset, tol)
        # the kernel refuses exactly the counts whose witness Gram matrix,
        # built densely from the reference witness, fails Gershgorin
        vecs = np.array([amplitudes[names] for names in want.witness])
        gram = np.abs(vecs.conj() @ vecs.T)
        np.fill_diagonal(gram, 0.0)
        unproven = (want.count - 1) * gram.max() >= 1
        try:
            got = distinguishable_messages(st, subset, tol=tol)
        except ValueError as exc:
            assert unproven, where
            assert str(exc).startswith("tolerance %g counts N = %d messages, "
                                       % (tol, want.count)), where
            continue
        assert not unproven, where
        assert got.sender_qubits == want.sender_qubits, where
        assert got.count == want.count, where
        assert got.witness == want.witness, where
        assert got.num_encodings == want.num_encodings, where
        assert got.num_classes == want.num_classes, where


@pytest.mark.parametrize("label", list(_REFERENCE_CASES))
def test_kernel_matches_reference_path(label):
    st, subsets = _REFERENCE_CASES[label]
    for subset in subsets:
        _assert_matches_reference(st, subset, _TOLERANCES)
        # the kernel moves the sender axes to the front in the caller's order
        # and back: a reversed and a rotated order, at the default tolerance
        for order in dict.fromkeys((subset[::-1], subset[1:] + subset[:1])):
            if order != subset:
                _assert_matches_reference(st, order, (ASSERT_TOL,))


# --- the Cayley certificate and the clique search against the reference ----------

def _sender_major(st, qubits):
    """The resource as a (2^k, 2^(n-k)) matrix, sender axes first in the
    caller's order: the reshape/transpose the index gather replaced, kept
    as the oracle."""
    n = st.num_qubits
    axes = list(qubits) + [q for q in range(n) if q not in qubits]
    return st.amplitudes.reshape((2,) * n).transpose(axes).reshape(1 << len(qubits), -1)


def _mag(st, qubits):
    """|Tr(P_x rho_S)| over every encoding x, as ``distinguishable_messages``
    reads it, from the reshape/transpose path."""
    psi_t = _sender_major(st, qubits)
    return np.abs(pauli_coefficients(psi_t @ psi_t.conj().T))


@pytest.mark.parametrize("n", range(1, 7))
def test_gather_is_the_reshape_transpose_path(n):
    # every ordered tuple of distinct qubits, k = 0..n, one at a time and
    # stacked: the gathered matrices are bit for bit the transposed ones
    st = PureState(ref.haar(n, np.random.default_rng(n)))
    for k in range(n + 1):
        subsets = tuple(itertools.permutations(range(n), k))
        index = states._sender_index(n, subsets)
        assert index.dtype == np.intp and not index.flags.writeable
        assert index.shape == (len(subsets), 2 ** k, 2 ** (n - k))
        want = np.stack([_sender_major(st, s) for s in subsets])
        assert np.array_equal(st.amplitudes[index], want), k
        for s, stacked in zip(subsets, index):
            one, = states._sender_index(n, (s,))
            assert np.array_equal(one, stacked), s


def test_sender_index_memo_keeps_only_small_indices(monkeypatch):
    # GHZ:10 at k = 7: the whole 120 x 2^10 index would be over the memo cap;
    # each slice of 32 subsets (4 x 4^7 kernel entries each), 32 x 2^10
    # entries, is within it, but a sweep of several slices builds its four
    # slice indices on each call and keeps none, so a large sweep cannot fill
    # the memo or evict what others keep
    assert 120 * 2 ** 10 > states.INDEX_MEMO_ENTRIES >= 32 * 2 ** 10
    states._cached_sender_index.cache_clear()
    built = []
    real = states._sender_index

    def spy(n, subsets):
        built.append(len(subsets))
        return real(n, subsets)

    monkeypatch.setattr(states, "_sender_index", spy)
    monkeypatch.setattr(states, "_cached_sender_index",
                        functools.lru_cache(maxsize=256)(spy))
    ghz10 = make_state("GHZ:10").state
    for _ in range(2):
        best, _ = best_over_subsets(ghz10, 7)
        assert best.count == 256
    assert built == [32, 32, 32, 24] * 2
    info = states._cached_sender_index.cache_info()
    assert (info.currsize, info.hits) == (0, 0)
    # GHZ:11 at k = 3: one slice of all 165 subsets, 165 x 2^11 entries, is
    # over the cap, so it is built on each call and not kept
    assert 165 * 2 ** 11 > states.INDEX_MEMO_ENTRIES
    ghz11 = make_state("GHZ:11").state
    for _ in range(2):
        assert best_over_subsets(ghz11, 3)[0].count == 16
    assert built[8:] == [165, 165]
    assert states._cached_sender_index.cache_info().currsize == 0
    # a small sweep's index is kept, and the next sweep reads it
    st = make_state("GHZ4").state
    best_over_subsets(st, 2)
    best_over_subsets(st, 2)
    info = states._cached_sender_index.cache_info()
    assert (info.currsize, info.hits) == (1, 1)
    assert len(built) == 11


def _thresholds(mag, tol):
    """(same, low): the two boolean rows of ``mag`` that the answer reads."""
    return np.abs(mag - 1.0) < tol, mag < tol


def _graph(st, qubits, tol=ASSERT_TOL):
    """(cls, rep_rows, ortho) as ``distinguishable_messages`` builds them."""
    mag = _mag(st, qubits)
    rep_rows, cls = densecode._representatives(np.abs(mag - 1.0) < tol)
    reps = np.asarray(rep_rows)
    ortho = mag[reps[:, None] ^ reps] < tol
    np.fill_diagonal(ortho, False)
    return cls, rep_rows, ortho


@pytest.mark.parametrize("label", list(_REFERENCE_CASES))
def test_gram_matrix_is_the_pauli_table_read_by_xor(label):
    # |<P_a psi|P_b psi>| = |Tr(P_(a xor b) rho_S)| on the oracle's states
    st, subsets = _REFERENCE_CASES[label]
    for subset in subsets:
        vecs = np.array([enc.amplitudes
                         for _, enc in _reference_encoded(st, subset)])
        gram = np.abs(vecs.conj() @ vecs.T)
        index = np.arange(len(vecs))
        mag = _mag(st, subset)
        assert np.abs(gram - mag[index[:, None] ^ index]).max() <= 1e-15, subset


def test_query_builds_no_encoded_state(monkeypatch):
    def no_encoding(*args):
        raise AssertionError("the encodings were built")

    monkeypatch.setattr(densecode, "encoded_states", no_encoding)
    monkeypatch.setattr(densecode, "PureState", no_encoding)
    for name in PRINCIPAL:
        st = make_state(name).state
        for k in (1, 2, 3):
            best_over_subsets(st, k)
    assert _count("GHZ:5", (0, 1, 2, 3)) == 32


def _adj(ortho):
    return [sum(1 << int(j) for j in np.flatnonzero(row)) for row in ortho]


@pytest.mark.parametrize("name", ["GHZ4", "Q4", "Q4_11"])
def test_catalog_graphs_are_certified_cayley(name):
    st = make_state(name).state
    for k in (1, 2, 3):
        for qubits in itertools.combinations(range(4), k):
            cls, rep_rows, ortho = _graph(st, qubits)
            assert densecode._is_cayley(cls, rep_rows, ortho), qubits


def test_certificate_is_not_built_when_the_colouring_bound_decides(monkeypatch):
    # complete GHZ graphs: c0 meets the greedy colouring bound, so cheap
    # queries never pay for the certificate; Haar rows build no graph at all
    def no_certificate(*args):
        raise AssertionError("the certificate was built")

    monkeypatch.setattr(densecode, "_is_cayley", no_certificate)
    assert distinguishable_messages(make_state("GHZ4").state, (0, 1, 2)).count == 16
    haar = PureState(ref.haar(4, np.random.default_rng(3)))
    assert distinguishable_messages(haar, (0, 1), tol=1e-15).count == 1


def test_representatives_take_the_first_matching_class():
    # at a loose tolerance a row can match several representatives; its class
    # is the first of them, as in the sequential rule
    rng = np.random.default_rng(7)
    multiple = 0
    for st in (PureState(ref.haar(4, rng)), make_state("W4").state):
        rows = [enc.amplitudes for _, enc in encoded_states(st, (0, 1, 2))]
        mag = _mag(st, (0, 1, 2))
        for tol in (0.6, 0.9):
            rep_rows, cls = densecode._representatives(np.abs(mag - 1.0) < tol)
            reps = []
            for j, row in enumerate(rows):
                hits = [i for i, r in enumerate(reps)
                        if abs(abs(np.vdot(rows[r], row)) - 1.0) < tol]
                multiple += len(hits) > 1
                if hits:
                    assert cls[j] == hits[0], (tol, j)
                else:
                    assert cls[j] == len(reps), (tol, j)
                    reps.append(j)
            assert rep_rows == reps
    assert multiple


def _sequential_representatives(mag, tol):
    """The row-by-row rule the claiming pass replaced, kept as its oracle."""
    same = np.abs(mag - 1.0) < tol
    reps = np.empty(len(mag), dtype=np.intp)
    cls = np.empty(len(mag), dtype=np.intp)
    r = 0
    for j in range(len(mag)):
        if r:
            hits = same[reps[:r] ^ j]
            first = hits.argmax()
            if hits[first]:
                cls[j] = first
                continue
        reps[r] = j
        cls[j] = r
        r += 1
    return reps[:r].tolist(), cls


def _assert_same_representatives(mag, tol):
    """Whether some row matched more than one representative."""
    want_reps, want_cls = _sequential_representatives(mag, tol)
    got_reps, got_cls = densecode._representatives(np.abs(mag - 1.0) < tol)
    assert got_reps == want_reps, tol
    assert got_cls.dtype == want_cls.dtype and np.array_equal(got_cls, want_cls), tol
    same = np.abs(mag - 1.0) < tol
    return any(same[np.asarray(want_reps) ^ j].sum() > 1 for j in range(len(mag)))


def test_claiming_pass_matches_the_sequential_rule():
    # random magnitudes, a fifth of them exactly 1 as whole cosets give, so
    # at loose tolerances rows match several representatives; mag[0] is
    # often outside the tolerance, so a representative may not match itself
    rng = np.random.default_rng(20261019)
    multiple = 0
    for k in (1, 2, 3, 4):
        for _ in range(10):
            mag = rng.random(4 ** k)
            mag[rng.random(4 ** k) < 0.2] = 1.0
            for tol in (1e-10, 1e-2, 0.3, 0.9):
                multiple += _assert_same_representatives(mag, tol)
    assert multiple
    # a cat state with every qubit sending: 16,384 rows in 128 cosets
    mag = _mag(make_state("GHZ:7").state, tuple(range(7)))
    _assert_same_representatives(mag, ASSERT_TOL)
    assert len(densecode._representatives(np.abs(mag - 1.0) < ASSERT_TOL)[0]) == 128


# --- rows decided from the table alone, against the graph path -----------------

def _claiming_representatives(mag, tol):
    """The claiming pass as it was before the identity-only shortcut, kept
    verbatim as the oracle."""
    same = np.flatnonzero(np.abs(mag - 1.0) < tol).tolist()
    cls = [-1] * len(mag)
    reps = []
    for j, c in enumerate(cls):
        if c < 0:
            c = cls[j] = len(reps)
            reps.append(j)
            for s in same:
                if cls[j ^ s] < 0:
                    cls[j ^ s] = c
    return reps, np.array(cls, dtype=np.intp)


def _graph_answer(mag, k, tol):
    """The answer as it was before the edgeless shortcut and the Gram check:
    classes, adjacency, clique search and witness for every row, kept
    verbatim as the oracle."""
    rep_rows, cls = _claiming_representatives(mag, tol)
    reps = np.asarray(rep_rows)
    ortho = mag[reps[:, None] ^ reps] < tol
    np.fill_diagonal(ortho, False)
    packed = np.packbits(ortho, axis=1, bitorder="little")
    flat, width = packed.tobytes(), packed.shape[1]
    adj = [int.from_bytes(flat[i:i + width], "little")
           for i in range(0, len(flat), width)]
    n = len(rep_rows)
    clique = _lex_smallest_maximum_clique(
        adj, n, lambda: densecode._is_cayley(cls, rep_rows, ortho))
    names = pauli_table(k).names
    return tuple(names[rep_rows[i]] for i in clique), n


def _witness_rows(witness):
    """The encoding index of each witness entry: its Pauli labels read as
    base-4 digits, first sender slowest."""
    return np.array([int("".join("%d" % PAULI_ORDER.index(p) for p in names), 4)
                     for names in witness])


def _assert_same_answer(mag, k, tol):
    """The shortcut path against the graph path on one row: the answer of
    its thresholded pattern, and the Gram check of the row, which refuses
    exactly when the graph path's witness fails it."""
    same, low = _thresholds(mag, tol)
    want_reps, want_cls = _claiming_representatives(mag, tol)
    got_reps, got_cls = densecode._representatives(same)
    assert got_reps == want_reps, tol
    assert got_cls.dtype == want_cls.dtype and np.array_equal(got_cls, want_cls), tol
    want = _graph_answer(mag, k, tol)
    rows = _witness_rows(want[0])
    assert densecode._answer(same, low) == (rows.tolist(), want[1]), tol
    gram = mag[rows[:, None] ^ rows]
    np.fill_diagonal(gram, 0.0)
    try:
        densecode._check_independent(mag, rows.tolist(), tol)
    except ValueError:
        assert (len(rows) - 1) * gram.max() >= 1, tol
        return
    assert (len(rows) - 1) * gram.max() < 1, tol


# 1e-300 sits below the rounding of mag[0] = |Tr rho_S| on most rows, which
# then leaves no encoding matching the identity at all
_ANSWER_TOLERANCES = (1e-300,) + _TOLERANCES


@pytest.mark.parametrize("label", list(_REFERENCE_CASES))
def test_table_decided_rows_match_the_graph_path(label):
    st, subsets = _REFERENCE_CASES[label]
    for subset in subsets:
        mag = _mag(st, subset)
        for tol in _ANSWER_TOLERANCES:
            _assert_same_answer(mag, len(subset), tol)


def _spy_claims(monkeypatch):
    """A list that grows by one for each claiming pass ``_representatives``
    runs, seen through its ``enumerate`` over the classes."""
    passes = []

    def spy(seq):
        passes.append(len(seq))
        return enumerate(seq)

    monkeypatch.setattr(densecode, "enumerate", spy, raising=False)
    return passes


def test_one_non_identity_match_takes_the_claiming_pass(monkeypatch):
    # mag[0] one ulp below 1 misses tol 1e-300, so the only match is row 3
    # and the rows pair up as {0, 3} and {1, 2}
    mag = np.array([1.0 - 2.0 ** -53, 0.5, 0.5, 1.0])
    passes = _spy_claims(monkeypatch)
    reps, cls = densecode._representatives(np.abs(mag - 1.0) < 1e-300)
    assert passes == [4]
    assert reps == [0, 1] and cls.tolist() == [0, 1, 1, 0]
    monkeypatch.undo()
    _assert_same_answer(mag, 1, 1e-300)


def test_an_entry_below_tol_between_no_representatives_builds_the_graph(monkeypatch):
    # row 1 matches the identity, so the classes are {0, 1} and {2, 3}; row 3
    # is below tol but is no XOR of the representatives 0 and 2, so the graph
    # is built and has no edge
    mag = np.array([1.0, 1.0, 0.5, 0.0])
    calls = []
    real = densecode._lex_smallest_maximum_clique

    def spy(adj, n, transitive):
        calls.append(list(adj))
        return real(adj, n, transitive)

    monkeypatch.setattr(densecode, "_lex_smallest_maximum_clique", spy)
    assert densecode._answer(*_thresholds(mag, 0.3)) == ([0], 2)
    assert calls == [[0, 0]]
    monkeypatch.undo()
    _assert_same_answer(mag, 1, 0.3)


def test_haar_rows_are_answered_from_the_table(monkeypatch):
    # a Haar state's rows have no entry below tol and only the identity near
    # 1, at every k: no claiming pass, no adjacency and no clique search
    def no_graph(*args, **kwargs):
        raise AssertionError("a graph was built")

    queries = [(st, k) for label, (st, _) in _REFERENCE_CASES.items()
               if label.startswith("haar") for k in range(st.num_qubits + 1)]
    want = [_reference_best_over_subsets(st, k) for st, k in queries]
    passes = _spy_claims(monkeypatch)
    monkeypatch.setattr(densecode, "_lex_smallest_maximum_clique", no_graph)
    monkeypatch.setattr(densecode, "_is_cayley", no_graph)
    monkeypatch.setattr(np, "packbits", no_graph)
    for (st, k), expected in zip(queries, want):
        best, per_subset = best_over_subsets(st, k)
        assert (best, per_subset) == expected, k
        assert best.count == 1 and best.num_classes == 4 ** k
    assert passes == []


def test_identity_only_rows_skip_the_claiming_pass(monkeypatch):
    # W4's one-qubit reduction diag(3/4, 1/4) gives the row (1, 0, 0, 1/2):
    # no class to merge, but an edge, so the graph is still searched
    mag = _mag(make_state("W4").state, (0,))
    np.testing.assert_allclose(mag, [1, 0, 0, 0.5], atol=1e-15)
    passes = _spy_claims(monkeypatch)
    reps, cls = densecode._representatives(np.abs(mag - 1.0) < ASSERT_TOL)
    assert passes == []
    assert reps == [0, 1, 2, 3] and cls.dtype == np.intp and cls.tolist() == reps
    monkeypatch.undo()
    assert distinguishable_messages(make_state("W4").state, (0,)).count == 2
    _assert_same_answer(mag, 1, ASSERT_TOL)


def _cosets_of_s(s, reps):
    """cls over the 16 rows of k = 2 for classes r ^ s, one per
    representative r."""
    cls = np.full(16, -1)
    for c, r in enumerate(reps):
        cls[[r ^ x for x in s]] = c
    assert (cls >= 0).all()
    return cls


def _complete(n):
    return ~np.eye(n, dtype=bool)


def test_certificate_holds_on_a_hand_built_quotient():
    cls = _cosets_of_s([0, 1, 2, 3], [0, 4, 8, 12])
    assert densecode._is_cayley(cls, [0, 4, 8, 12], _complete(4))
    # a 4-cycle 0-4-12-8: adjacency set {4, 8} in the quotient
    cycle = np.array([[0, 1, 1, 0], [1, 0, 0, 1], [1, 0, 0, 1], [0, 1, 1, 0]], bool)
    assert densecode._is_cayley(cls, [0, 4, 8, 12], cycle)


def test_certificate_refuses_merged_cosets():
    # class 3 folded into class 1: S is still a subgroup, every coset of a
    # representative lies in its class and the graph is complete, but three
    # classes of four rows cannot be the cosets of 16 rows
    cls = _cosets_of_s([0, 1, 2, 3], [0, 4, 8, 12])
    cls[cls == 3] = 1
    assert not densecode._is_cayley(cls, [0, 4, 8], _complete(3))


def test_certificate_refuses_an_s_not_closed():
    # {0, 1, 2, 4} tiles the 16 rows by translates, yet 1 ^ 2 = 3 lies outside
    cls = _cosets_of_s([0, 1, 2, 4], [0, 7, 8, 15])
    assert not densecode._is_cayley(cls, [0, 7, 8, 15], _complete(4))


def test_certificate_refuses_classes_that_are_not_cosets():
    # rows 5 and 9 swap classes: sizes and adjacency still fit, but the
    # coset 4 ^ S = {4, 5, 6, 7} no longer lies in one class
    cls = _cosets_of_s([0, 1, 2, 3], [0, 4, 8, 12])
    cls[5], cls[9] = cls[9], cls[5]
    assert not densecode._is_cayley(cls, [0, 4, 8, 12], _complete(4))


def test_certificate_refuses_a_flipped_edge():
    for name, qubits in (("Q4", (0, 1, 2)), ("Q4_11", (0, 2, 3))):
        cls, rep_rows, ortho = _graph(make_state(name).state, qubits)
        assert densecode._is_cayley(cls, rep_rows, ortho)
        ortho[1, 2] = ortho[2, 1] = not ortho[1, 2]
        assert not densecode._is_cayley(cls, rep_rows, ortho), name


def _spied_search(monkeypatch, adj, n, transitive):
    """The search's clique, whether it asked ``transitive``, every
    (candidate, lower) pair it searched in ``adj`` for the size, every
    candidate it searched in another adjacency (the complement's, for the
    clique-coclique bound) and every candidate the walk probed.  The
    walk's probes are the searches in ``adj`` given neither bound."""
    searched = []
    elsewhere = []
    probes = []
    asked = []
    real = densecode._max_clique_size

    def spy(adj_, cand, lower=0, upper=math.inf, **colour):
        if adj_ is not adj:
            elsewhere.append(cand)
        elif lower == 0 and upper == math.inf:
            probes.append(cand)
        else:
            searched.append((cand, lower))
        return real(adj_, cand, lower, upper, **colour)

    def ask():
        asked.append(True)
        return transitive

    monkeypatch.setattr(densecode, "_max_clique_size", spy)
    got = _lex_smallest_maximum_clique(adj, n, ask)
    return got, bool(asked), searched, elsewhere, probes


@pytest.mark.parametrize("edges,n,want", [
    # vertex 0 isolated next to the triangle 1-2-3
    ([(1, 2), (1, 3), (2, 3)], 4, [1, 2, 3]),
    # the path 0-2-3-1: greedy colouring in index order needs three colours
    ([(0, 2), (2, 3), (3, 1)], 4, [0, 2]),
])
def test_search_falls_back_to_the_full_graph(edges, n, want, monkeypatch):
    adj = [0] * n
    for a, b in edges:
        adj[a] |= 1 << b
        adj[b] |= 1 << a
    got, asked, searched, _, _ = _spied_search(monkeypatch, adj, n, False)
    assert got == _reference_lex_clique(adj, n) == want
    assert asked
    c0 = 1 + densecode._max_clique_size(adj, adj[0])
    assert ((1 << n) - 1, c0) in searched


def test_full_graph_search_reuses_the_bounding_colouring(monkeypatch):
    # a seeded G(20, 1/2) with degrees 6 to 12, so not vertex-transitive: c0
    # falls short of the colouring bound and the whole graph is searched,
    # its first pool taking the colouring that gave the bound.  31
    # colourings, the whole graph coloured once; colouring it again for the
    # search took 32
    rng = np.random.default_rng(3)
    upper = np.triu(rng.random((20, 20)) < 0.5, 1)
    adj = _adj(upper | upper.T)
    assert len({a.bit_count() for a in adj}) > 1
    calls = []
    real = densecode._greedy_colouring

    def counting(adj_, pool):
        calls.append(pool)
        return real(adj_, pool)

    monkeypatch.setattr(densecode, "_greedy_colouring", counting)
    got = _lex_smallest_maximum_clique(adj, 20, lambda: False)
    assert got == _reference_lex_clique(adj, 20) == [6, 8, 10, 15, 18]
    assert len(calls) == 31 and calls.count((1 << 20) - 1) == 1


def test_search_matches_reference_on_random_graphs(monkeypatch):
    rng = np.random.default_rng(20261018)
    branches = set()
    exits = set()
    for _ in range(200):
        n = int(rng.integers(1, 25))
        upper = np.triu(rng.random((n, n)) < rng.uniform(0.1, 0.9), 1)
        adj = _adj(upper | upper.T)
        got, asked, searched, elsewhere, probes = _spied_search(
            monkeypatch, adj, n, False)
        assert got == _reference_lex_clique(adj, n), adj
        branches.add((asked, any(cand == (1 << n) - 1 for cand, _ in searched)))
        if not (asked or searched or elsewhere or probes):
            exits.add("colouring bound")
        else:
            exits.add("probe" if probes else "walk completion")
    # both the colouring shortcut and the full search were taken
    assert (False, False) in branches and (True, True) in branches
    # some graphs stop at the completion of {0}, some at the walk's first
    # completion and some need a probe before a completion reaches the size
    assert exits == {"colouring bound", "walk completion", "probe"}


def test_search_trusts_the_certificate_on_cayley_graphs(monkeypatch):
    # random Cayley graphs on XOR groups of 2..32 elements: the certificate
    # holds, and the clique taken through vertex 0 is the reference clique
    rng = np.random.default_rng(11)
    asked_any = False
    for _ in range(60):
        m = int(rng.integers(1, 6))
        size = 1 << m
        conn = rng.random(size) < rng.uniform(0.2, 0.8)
        conn[0] = False
        ortho = conn[np.bitwise_xor.outer(np.arange(size), np.arange(size))]
        assert densecode._is_cayley(np.arange(size), list(range(size)), ortho)
        adj = _adj(ortho)
        got, asked, searched, _, _ = _spied_search(monkeypatch, adj, size, True)
        assert got == _reference_lex_clique(adj, size)
        assert all(cand != (1 << size) - 1 for cand, _ in searched)
        asked_any |= asked
    assert asked_any


def test_clique_coclique_bound_left_open_on_the_clebsch_graph(monkeypatch):
    # the Clebsch graph, a Cayley graph on Z2^4 with connection set
    # {1, 2, 4, 8, 15}: omega = 2 and alpha = 5, so the bound floor(16 / 5) = 3
    # is never reached and the search through vertex 0 runs to the end
    ortho = np.isin(np.bitwise_xor.outer(np.arange(16), np.arange(16)),
                    [1, 2, 4, 8, 15])
    assert densecode._is_cayley(np.arange(16), list(range(16)), ortho)
    adj = _adj(ortho)
    full = (1 << 16) - 1
    assert _reference_max_clique_size(_adj(~ortho & ~np.eye(16, dtype=bool)), full) == 5
    got, asked, searched, elsewhere, _ = _spied_search(monkeypatch, adj, 16, True)
    assert got == _reference_lex_clique(adj, 16)
    assert len(got) == 2 < 16 // 5
    assert asked and elsewhere == [full]
    assert all(cand != full for cand, _ in searched)


@pytest.mark.parametrize("name,qubits", [
    ("Q4", (0, 1, 2)), ("Q4_11", (0, 2, 3)), ("W4", (0, 1, 2))])
def test_clique_coclique_bound_settles_the_heavy_cayley_graphs(name, qubits, monkeypatch):
    # 64 classes, greedy colouring bound 16: the largest independent set has
    # 8 vertices, so floor(64 / 8) = 8 = omega, and the search through vertex
    # 0 stops at its first clique of 7 neighbours
    st = make_state(name).state
    adj = _adj(_graph(st, qubits)[2])
    full = (1 << len(adj)) - 1
    assert len(densecode._greedy_colouring(adj, full)) == 16
    calls = []
    real = densecode._max_clique_size

    def spy(adj_, cand, lower=0, upper=math.inf, **colour):
        got = real(adj_, cand, lower, upper, **colour)
        calls.append((adj_ == adj, cand, upper, got))
        return got

    monkeypatch.setattr(densecode, "_max_clique_size", spy)
    res = distinguishable_messages(st, qubits)
    assert res.count == 8
    assert calls[:2] == [(False, full, math.inf, 8), (True, adj[0], 7, 7)]
    assert not any(same and cand == full for same, cand, _, _ in calls)


@pytest.mark.parametrize("n", [1, 2, 16, 128])
def test_complete_graph_walk_colours_each_pool_once(n, monkeypatch):
    # a complete graph is a clique: the completion of {0} meets the colouring
    # bound, so no pool is searched
    calls = []
    real = densecode._greedy_colouring

    def counting(adj_, pool):
        calls.append(pool)
        return real(adj_, pool)

    monkeypatch.setattr(densecode, "_greedy_colouring", counting)
    adj = _adj(_complete(n))
    assert _lex_smallest_maximum_clique(adj, n, lambda: True) == list(range(n))
    assert len(calls) <= n + 1


def test_capacity_queries_colour_few_pools(monkeypatch):
    # the 26 CAPACITY_TABLE and CAPACITY_REFUTATIONS queries: 24 stop at the
    # smallest-first completion of {0}, and W4 and Q4 with senders 0, 1, 2 at
    # the walk's first completion.  51 colourings, against 569 when the walk
    # probed vertex by vertex
    calls = []
    real = densecode._greedy_colouring

    def counting(adj_, pool):
        calls.append(pool)
        return real(adj_, pool)

    monkeypatch.setattr(densecode, "_greedy_colouring", counting)
    queries = [(name, params, qubits) for _, name, params, subsets, _, _
               in reg.CAPACITY_TABLE for qubits in subsets]
    queries += [(name, params, qubits) for _, name, params, qubits, _, _
                in reg.CAPACITY_REFUTATIONS]
    assert len(queries) == 26
    for name, params, qubits in queries:
        distinguishable_messages(make_state(name, **dict(params)).state, qubits)
    assert len(calls) == 51


def _pair_colouring(adj, pool):
    """(vertex, colour) pairs of a greedy colouring of the pool, colours
    assigned in index order: the colouring before the class bitmasks, kept
    verbatim as the oracle."""
    order = []
    uncolored = pool
    color = 0
    while uncolored:
        color += 1
        avail = uncolored
        while avail:
            v = (avail & -avail).bit_length() - 1
            order.append((v, color))
            avail &= ~adj[v]
            avail &= ~(1 << v)
            uncolored &= ~(1 << v)
    return order


def _assert_same_colouring(adj, pool):
    classes = densecode._greedy_colouring(adj, pool)
    # each class's members in index order, the classes in order: the pairs
    # the old colouring appended, so the search walks them alike
    pairs = [(v, c) for c, members in enumerate(classes, 1)
             for v in range(members.bit_length()) if members >> v & 1]
    assert pairs == _pair_colouring(adj, pool), (adj, pool)


def test_class_colouring_is_the_pair_colouring():
    # random graphs of 1..70 vertices, coloured whole, on random pools and on
    # each neighbourhood
    rng = np.random.default_rng(20261019)
    for n in range(1, 71):
        upper = np.triu(rng.random((n, n)) < rng.uniform(0.05, 0.95), 1)
        adj = _adj(upper | upper.T)
        full = (1 << n) - 1
        pools = [full, 0] + adj
        pools += [sum(1 << int(v) for v in np.flatnonzero(rng.random(n) < 0.5))
                  for _ in range(5)]
        for pool in pools:
            _assert_same_colouring(adj, pool)
    # the oracle states' graphs, whole and on each neighbourhood
    for st, subsets in _REFERENCE_CASES.values():
        for subset in subsets:
            for tol in (ASSERT_TOL, 0.3):
                adj = _adj(_graph(st, subset, tol)[2])
                for pool in [(1 << len(adj)) - 1] + adj:
                    _assert_same_colouring(adj, pool)


def _counting_colourings(monkeypatch):
    """The greedy colourings of each clique search, one count per search."""
    counts = []
    colour = densecode._greedy_colouring
    search = densecode._lex_smallest_maximum_clique

    def counting(adj_, pool):
        counts[-1] += 1
        return colour(adj_, pool)

    def spy(adj, n, transitive):
        counts.append(0)
        return search(adj, n, transitive)

    monkeypatch.setattr(densecode, "_greedy_colouring", counting)
    monkeypatch.setattr(densecode, "_lex_smallest_maximum_clique", spy)
    return counts


def test_pinned_queries_stay_far_under_the_colouring_budget(monkeypatch):
    # every ordered sender tuple of the CLI's per-state pin: the heaviest,
    # Q4_11 with senders 1, 0, 3, 2, takes 245 colourings, 1/40 of the budget
    counts = _counting_colourings(monkeypatch)
    for name, params in (("GHZ4", {}), ("W4", {}), ("Omega", {}), ("Q4", {}),
                         ("Q5", {}), ("Q4_11", {}), ("W_mn", {"m": 1, "n": 1})):
        st = make_state(name, **params).state
        for size in range(1, 5):
            for qubits in itertools.permutations(range(4), size):
                distinguishable_messages(st, qubits)
    assert 20 * max(counts) <= densecode.MAX_COLOURINGS


def test_colouring_budget_counts_every_colouring(monkeypatch):
    st = make_state("Q4_11").state
    counts = _counting_colourings(monkeypatch)
    want = distinguishable_messages(st, (1, 0, 3, 2))
    spent, = counts
    monkeypatch.setattr(densecode, "MAX_COLOURINGS", spent)
    assert distinguishable_messages(st, (1, 0, 3, 2)) == want
    monkeypatch.setattr(densecode, "MAX_COLOURINGS", spent - 1)
    with pytest.raises(states.CapacityError, match=r"^4 sender qubits at tolerance "
                       r"1e-10: the clique search needs more than MAX_COLOURINGS "
                       r"= %d greedy colourings$" % (spent - 1)):
        distinguishable_messages(st, (1, 0, 3, 2))


def test_search_past_the_colouring_budget_is_refused_quickly():
    # haar4_1 with all four senders at tol 0.3 spent 2.6 s and 112,900
    # colourings before the Gram check refused its N = 20
    st = _REFERENCE_CASES["haar4_1"][0]
    message = (r"^4 sender qubits at tolerance 0\.3: the clique search needs more "
               r"than MAX_COLOURINGS = 10000 greedy colourings$")
    for query in (lambda: distinguishable_messages(st, (0, 1, 2, 3), tol=0.3),
                  lambda: best_over_subsets(st, 4, tol=0.3)):
        start = time.perf_counter()
        with pytest.raises(states.CapacityError, match=message):
            query()
        assert time.perf_counter() - start < 0.5


# --- the stacked sweep against the per-subset loop it replaced --------------------

def _reference_best_over_subsets(resource, k, tol=ASSERT_TOL):
    """Best message count over all k-qubit sender subsets: one query per
    subset, as the sweep ran before its stacked transform, kept verbatim as
    the oracle."""
    n = resource.num_qubits
    if not 0 <= k <= n:
        raise ValueError("k = %r sender qubits is out of range for a %d-qubit "
                         "resource" % (k, n))
    per_subset = {}
    best = None
    for subset in itertools.combinations(range(n), k):
        res = distinguishable_messages(resource, subset, tol)
        per_subset[subset] = res.count
        if best is None or res.count > best.count:
            best = res
    return best, per_subset


def _sweep_or_refusal(sweep, st, k, tol):
    try:
        return sweep(st, k, tol)
    except ValueError as exc:
        return str(exc)


def _assert_sweep_matches_reference(st, k, tol):
    got = _sweep_or_refusal(best_over_subsets, st, k, tol)
    want = _sweep_or_refusal(_reference_best_over_subsets, st, k, tol)
    where = (k, tol)
    # both refuse at the first subset, in combinations order, whose count the
    # Gram check does not certify, and with the same message
    if isinstance(want, str) or isinstance(got, str):
        assert got == want, where
        return
    best, per_subset = got
    want_best, want_per = want
    # the first maximal subset in combinations order, and the dict's order
    assert best == want_best, where
    assert list(per_subset.items()) == list(want_per.items()), where
    assert repr(got) == repr(want), where


def _first_completion(adj, n, transitive):
    return densecode._smallest_first(adj, (1 << n) - 1)


@pytest.mark.parametrize("label", list(_REFERENCE_CASES))
def test_sweep_matches_per_subset_loop(label, monkeypatch):
    st, _ = _REFERENCE_CASES[label]
    for k in range(st.num_qubits + 1):
        for tol in _ANSWER_TOLERANCES + (ASSERT_TOL,):
            with monkeypatch.context() as m:
                # on a Haar state at k >= 4 and tol 0.3 the exact search over
                # 128-1,024 near-random classes takes seconds (haar4) to more
                # than minutes (haar5) a query; both paths then take the
                # smallest-first completion of {0}, which still checks the
                # stacking, the sharing and the best-subset rule
                if label.startswith("haar") and k >= 4 and tol == 0.3:
                    m.setattr(densecode, "_lex_smallest_maximum_clique",
                              _first_completion)
                _assert_sweep_matches_reference(st, k, tol)


@pytest.mark.parametrize("label", list(_REFERENCE_CASES))
def test_stacked_rows_are_the_one_subset_rows(label):
    # a row of the stacked transform is bit for bit the 2-D transform of its
    # own subset, so the shared answers are the answers of one-subset queries
    st, _ = _REFERENCE_CASES[label]
    for k in range(st.num_qubits + 1):
        subsets = tuple(itertools.combinations(range(st.num_qubits), k))
        rows = densecode._pauli_magnitudes(st, subsets, k)
        assert rows.shape == (len(subsets), 4 ** k)
        for subset, row in zip(subsets, rows):
            assert row.tobytes() == _mag(st, subset).tobytes(), subset
            one, = densecode._pauli_magnitudes(st, (subset,), k)
            assert one.tobytes() == row.tobytes(), subset


def test_equal_tables_are_answered_once(monkeypatch):
    # the four sender subsets of W4 at k = 3 have bitwise-equal Pauli tables
    calls = []
    real = densecode._lex_smallest_maximum_clique

    def spy(adj, n, transitive):
        calls.append(n)
        return real(adj, n, transitive)

    monkeypatch.setattr(densecode, "_lex_smallest_maximum_clique", spy)
    st = make_state("W4").state
    best, per_subset = best_over_subsets(st, 3)
    assert len(calls) == 1
    assert per_subset == dict.fromkeys(itertools.combinations(range(4), 3), 8)
    assert best.sender_qubits == (0, 1, 2)
    # a second sweep shares nothing with the first
    best_over_subsets(st, 3)
    assert len(calls) == 2
    monkeypatch.undo()
    assert (best, per_subset) == _reference_best_over_subsets(st, 3)


def test_weighted_w_rows_are_answered_once_per_pattern(monkeypatch):
    # a weighted W_mn with phases, drawn as the benchmark draws them: its four
    # k = 3 rows are bitwise distinct but threshold to two patterns, so the
    # sweep searches two graphs
    rng = np.random.default_rng(5)
    m, n = rng.uniform(0.25, 4.0, 2)
    rho, eta, sigma = rng.uniform(0.0, 2 * math.pi, 3)
    st = make_state("W_mn", m=m, n=n, rho=rho, eta=eta, sigma=sigma).state
    subsets = tuple(itertools.combinations(range(4), 3))
    rows = densecode._pauli_magnitudes(st, subsets, 3)
    assert len({row.tobytes() for row in rows}) == 4
    counts = _counting_colourings(monkeypatch)
    got = best_over_subsets(st, 3)
    assert len(counts) == 2
    monkeypatch.undo()
    assert repr(got) == repr(_reference_best_over_subsets(st, 3))


def test_gram_check_reads_every_row_of_a_shared_pattern(monkeypatch):
    # an even-parity 3-qubit state has diagonal one-qubit reductions, so
    # sender q's row is (1, 0, 0, |<Z_q>|); with <Z> = (0.2, 0.35, 0.2) all
    # three rows threshold alike at tol 0.6, to four mutually orthogonal
    # classes, and one search answers N = 4.  The Gram check still reads each
    # row: 3 x 0.2 < 1 passes qubit 0, and 3 x 0.35 >= 1 refuses qubit 1, as
    # the per-subset loop does
    z = np.array([0.2, 0.35, 0.2])
    signs = np.array([[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]])
    amps = np.zeros(8)
    amps[[0b000, 0b011, 0b101, 0b110]] = np.sqrt((1 + signs @ z) / 4)
    st = states.PureState(amps)
    rows = densecode._pauli_magnitudes(st, ((0,), (1,), (2,)), 1)
    np.testing.assert_allclose(rows, [[1, 0, 0, x] for x in z], atol=1e-15)
    message = ("tolerance 0.6 counts N = 4 messages, but their encoded states "
               "overlap by up to 0.35 and (N - 1) x 0.35 = 1.05 is not below 1, "
               "so they are not shown to be independent; use a smaller tolerance")
    counts = _counting_colourings(monkeypatch)
    with pytest.raises(ValueError) as exc:
        best_over_subsets(st, 1, tol=0.6)
    assert str(exc.value) == message
    assert len(counts) == 1
    monkeypatch.undo()
    assert distinguishable_messages(st, (0,), tol=0.6).count == 4
    assert _sweep_or_refusal(_reference_best_over_subsets, st, 1, 0.6) == message


def test_tables_equal_only_to_rounding_are_answered_apart():
    # an even-parity 3-qubit state has diagonal one-qubit reductions, so each
    # sender's row is (1, 0, 0, |<Z>|); <Z> of qubits 0 and 1 lies 1e-9 below
    # and above tol, so their rows agree to 8 decimals and their graphs differ
    delta, tol = 1e-9, 0.3
    amps = np.zeros(8)
    amps[[0b000, 0b011, 0b101, 0b110]] = np.sqrt(
        [0.45 - delta / 2, 0.2, 0.2 + delta, 0.15 - delta / 2])
    st = states.PureState(amps)
    rows = densecode._pauli_magnitudes(st, ((0,), (1,)), 1)
    assert np.allclose(rows[0], rows[1], rtol=0, atol=1e-8)
    assert rows[0].tobytes() != rows[1].tobytes()
    best, per_subset = best_over_subsets(st, 1, tol=tol)
    assert per_subset == {(0,): 4, (1,): 2, (2,): 4}
    assert (best, per_subset) == _reference_best_over_subsets(st, 1, tol)


def _record_stacks(monkeypatch):
    """The shapes of every stack the sweep hands to ``pauli_coefficients``."""
    shapes = []
    real = densecode.pauli_coefficients

    def spy(a):
        shapes.append(a.shape)
        return real(a)

    monkeypatch.setattr(densecode, "pauli_coefficients", spy)
    return shapes


@pytest.mark.parametrize("entries", [1, 8 ** 2, 3 * 8 ** 2, 2 ** 9])
def test_sweep_results_do_not_depend_on_the_slicing(entries, monkeypatch):
    st = make_state("W_mn", m=1, n=1).state
    haar = _REFERENCE_CASES["haar5"][0]
    want = {(s, k): best_over_subsets(s, k) for s in (st, haar)
            for k in range(s.num_qubits + 1)}
    monkeypatch.setattr(densecode, "SLICE_ENTRIES", entries)
    shapes = _record_stacks(monkeypatch)
    for (s, k), (best, per_subset) in want.items():
        shapes.clear()
        got_best, got_per = best_over_subsets(s, k)
        assert got_best == best and list(got_per.items()) == list(per_subset.items())
        # the gathered amplitudes, their conjugate and rho_S, then rho_S,
        # its diagonals, their transform and the traces
        per = max(2 * 2 ** s.num_qubits + 4 ** k, 4 * 4 ** k)
        assert sum(shape[0] for shape in shapes) == math.comb(s.num_qubits, k)
        assert all(size == 1 or size * per <= entries for size, *_ in shapes), shapes
        # a slice is full unless it is the last one
        assert all(size == max(1, entries // per) for size, *_ in shapes[:-1])


def test_many_subset_sweep_stays_within_the_slice_budget(monkeypatch):
    # GHZ:10 at k = 5: 252 subsets, each holding at most 4 x 4^5 complex
    # entries in the kernel (rho_S, its diagonals, their transform and the
    # traces) and 2 x 2^10 + 4^5 in the reduction, so the sweep is one slice
    # of 16.5 MiB, within the 32 MiB of SLICE_ENTRIES
    st = make_state("GHZ:10").state
    shapes = _record_stacks(monkeypatch)
    states._diagonal_index(5)
    pauli_table(5)
    tracemalloc.start()
    try:
        best, per_subset = best_over_subsets(st, 5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (best.count, len(per_subset)) == (64, 252)
    assert set(per_subset.values()) == {64}
    assert [shape[0] for shape in shapes] == [252]
    assert all(shape[0] * 4 * 4 ** 5 <= states.SLICE_ENTRIES for shape in shapes)
    assert peak <= states.SLICE_ENTRIES * 16


def test_non_integer_k_and_senders_are_refused_before_anything_is_built(monkeypatch):
    def nothing(*args):
        raise AssertionError("a Pauli table was built")

    st = make_state("GHZ4").state
    monkeypatch.setattr(densecode, "pauli_table", nothing)
    monkeypatch.setattr(densecode, "pauli_coefficients", nothing)
    for k in (True, False, 1.5, 1.0, "1", None, np.bool_(True)):
        with pytest.raises(ValueError, match=r"^k must be an integer, got %s$"
                                             % re.escape(repr(k))):
            best_over_subsets(st, k)
    for senders, bad in (((True,), True), ([1.0], 1.0), ((0, np.float64(1)), np.float64(1)),
                         (("0",), "0"), ((None,), None), ((2, np.bool_(False)), np.bool_(False))):
        for query in distinguishable_messages, encoded_states:
            with pytest.raises(ValueError, match=r"^sender qubit must be an integer, "
                                                 r"got %s$" % re.escape(repr(bad))):
                query(st, senders)
    monkeypatch.undo()
    # numpy integers stay accepted
    assert best_over_subsets(st, np.int64(2)) == best_over_subsets(st, 2)
    assert (distinguishable_messages(st, (np.int8(0), np.uint64(1)))
            == distinguishable_messages(st, (0, 1)))
    assert len(encoded_states(st, np.array([2, 3]))) == 16
