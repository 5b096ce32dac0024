"""Dense-coding message counting."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest

from quadproto import densecode
from quadproto import scenarios as reg
from quadproto import states
from quadproto.catalog import make_state
from quadproto.densecode import (
    MAX_ENCODED_ENTRIES,
    DenseCodingResult,
    _lex_smallest_maximum_clique,
    best_over_subsets,
    distinguishable_messages,
    encoded_states,
)
from quadproto.states import (ASSERT_TOL, PAULI_ORDER, SIGMA, apply_local,
                              pauli_coefficients, random_state)

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
    with pytest.raises(ValueError, match="repeated sender qubit"):
        distinguishable_messages(st, (0, 0))
    with pytest.raises(ValueError, match="repeated sender qubit"):
        encoded_states(st, (1, 2, 1))


@pytest.mark.parametrize("tol", [float("nan"), -1.0, 0.0, 1.0, 2.0])
def test_bad_tolerance_rejected(tol):
    # these used to answer N = 1 instead of failing
    st = make_state("GHZ4").state
    with pytest.raises(ValueError, match="tol must be a finite number"):
        distinguishable_messages(st, (0, 1), tol=tol)
    with pytest.raises(ValueError, match="tol must be a finite number"):
        best_over_subsets(st, 1, tol=tol)


@pytest.mark.parametrize("k", [9, 12])
def test_oversized_query_rejected_before_allocation(k, monkeypatch):
    # a query gathers a 4^k x 2^k Pauli table, 2.1 GB at k = 9 whatever the
    # resource size; the encodings of 4^k x 2^12 amplitudes are larger still
    def no_table(k):
        raise AssertionError("the Pauli table was built for k = %d" % k)

    monkeypatch.setattr(densecode, "pauli_table", no_table)
    st = make_state("GHZ:12").state
    assert 8 ** k > MAX_ENCODED_ENTRIES
    for call in (distinguishable_messages, encoded_states):
        with pytest.raises(ValueError, match=r"over the limit of 2\^24"):
            call(st, tuple(range(k)))
    # 4^7 x 2^12 encoded amplitudes would take 1.1 GB
    with pytest.raises(ValueError, match=r"4\^7 x 2\^12 encoded amplitudes"):
        encoded_states(st, tuple(range(7)))


def test_query_at_the_limit_is_answered(monkeypatch):
    # the bound admits a query on 8 sender qubits, 4^8 x 2^8 table entries,
    # and the encodings of GHZ:12 with sender 0..5, 4^6 x 2^12 amplitudes; the
    # same boundaries are checked here at sizes that are cheap to run
    assert 8 ** 8 == 4 ** 6 * 2 ** 12 == MAX_ENCODED_ENTRIES
    monkeypatch.setattr(densecode, "MAX_ENCODED_ENTRIES", 8 ** 2)
    st = make_state("GHZ4").state
    assert distinguishable_messages(st, (1, 0)).count == 8
    with pytest.raises(ValueError, match="3 sender qubits of a 4-qubit"):
        distinguishable_messages(st, (0, 1, 2))
    assert len(encoded_states(st, (1,))) == 4
    with pytest.raises(ValueError, match="2 sender qubits of a 4-qubit"):
        encoded_states(st, (1, 0))


def test_twelve_qubit_cat_with_six_senders_is_answered():
    # once refused for its 4^6 x 2^12 encodings, which a query no longer builds
    res = distinguishable_messages(make_state("GHZ:12").state, tuple(range(6)))
    assert (res.count, res.num_classes, res.num_encodings) == (128, 128, 4096)


def test_eight_sender_query_keeps_no_pauli_index():
    # the k = 8 gather index, 4^8 x 2^8 int64, would take 128 MiB: it is built
    # per call, a slice of SLICE_ENTRIES at a time, and not cached
    assert 8 ** 7 <= states.SLICE_ENTRIES < 8 ** 8
    states._cached_pauli_diagonals.cache_clear()
    res = distinguishable_messages(make_state("GHZ:8").state, tuple(range(8)))
    assert (res.count, res.num_classes, res.num_encodings) == (256, 256, 65536)
    assert states._cached_pauli_diagonals.cache_info().currsize == 0
    rho = np.diag(np.full(256, 1 / 256)).astype(complex)
    tracemalloc.start()
    try:
        mag = pauli_coefficients(rho)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the traceless products of a maximally mixed state
    assert mag[0] == 1 and np.count_nonzero(mag) == 1
    # under the 128 MiB of the whole index; the unsliced gather took 384 MiB
    assert peak < 2 ** 27


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
        states["haar4_%d" % i] = random_state(4, rng)
    states["haar5"] = random_state(5, rng)
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
    for tol in tolerances:
        got = distinguishable_messages(st, subset, tol=tol)
        want = _reference_messages(encoded, subset, tol)
        where = (subset, tol)
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

def _mag(st, qubits):
    """|Tr(P_x rho_S)| over every encoding x, as ``distinguishable_messages``
    reads it."""
    psi_t, _ = densecode._sender_major(st, qubits, len(qubits), "entries")
    return np.abs(pauli_coefficients(psi_t @ psi_t.conj().T))


def _graph(st, qubits, tol=ASSERT_TOL):
    """(cls, rep_rows, ortho) as ``distinguishable_messages`` builds them."""
    mag = _mag(st, qubits)
    rep_rows, cls = densecode._representatives(mag, tol)
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

    monkeypatch.setattr(densecode, "_encode", no_encoding)
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
    # complete GHZ graphs and edgeless Haar graphs: c0 meets the greedy
    # colouring bound, so cheap queries never pay for the certificate
    def no_certificate(*args):
        raise AssertionError("the certificate was built")

    monkeypatch.setattr(densecode, "_is_cayley", no_certificate)
    assert distinguishable_messages(make_state("GHZ4").state, (0, 1, 2)).count == 16
    haar = random_state(4, np.random.default_rng(3))
    assert distinguishable_messages(haar, (0, 1), tol=1e-15).count == 1


def test_representatives_take_the_first_matching_class():
    # at a loose tolerance a row can match several representatives; its class
    # is the first of them, as in the sequential rule
    rng = np.random.default_rng(7)
    multiple = 0
    for st in (random_state(4, rng), make_state("W4").state):
        rows = [enc.amplitudes for _, enc in encoded_states(st, (0, 1, 2))]
        mag = _mag(st, (0, 1, 2))
        for tol in (0.6, 0.9):
            rep_rows, cls = densecode._representatives(mag, tol)
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
    got_reps, got_cls = densecode._representatives(mag, tol)
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
    assert len(densecode._representatives(mag, ASSERT_TOL)[0]) == 128


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
    (candidate, lower) pair it searched in ``adj`` and every candidate it
    searched in another adjacency (the complement's, for the
    clique-coclique bound)."""
    searched = []
    elsewhere = []
    asked = []
    real = densecode._max_clique_size

    def spy(adj_, cand, lower=0, upper=math.inf):
        if adj_ is adj:
            searched.append((cand, lower))
        else:
            elsewhere.append(cand)
        return real(adj_, cand, lower, upper)

    def ask():
        asked.append(True)
        return transitive

    monkeypatch.setattr(densecode, "_max_clique_size", spy)
    return _lex_smallest_maximum_clique(adj, n, ask), bool(asked), searched, elsewhere


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
    got, asked, searched, _ = _spied_search(monkeypatch, adj, n, False)
    assert got == _reference_lex_clique(adj, n) == want
    assert asked
    c0 = 1 + densecode._max_clique_size(adj, adj[0])
    assert ((1 << n) - 1, c0) in searched


def test_search_matches_reference_on_random_graphs(monkeypatch):
    rng = np.random.default_rng(20261018)
    branches = set()
    for _ in range(200):
        n = int(rng.integers(1, 25))
        upper = np.triu(rng.random((n, n)) < rng.uniform(0.1, 0.9), 1)
        adj = _adj(upper | upper.T)
        got, asked, searched, _ = _spied_search(monkeypatch, adj, n, False)
        assert got == _reference_lex_clique(adj, n), adj
        branches.add((asked, any(cand == (1 << n) - 1 for cand, _ in searched)))
    # both the colouring shortcut and the full search were taken
    assert (False, False) in branches and (True, True) in branches


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
        got, asked, searched, _ = _spied_search(monkeypatch, adj, size, True)
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
    got, asked, searched, elsewhere = _spied_search(monkeypatch, adj, 16, True)
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
    assert densecode._greedy_colouring(adj, full)[-1][1] == 16
    calls = []
    real = densecode._max_clique_size

    def spy(adj_, cand, lower=0, upper=math.inf):
        got = real(adj_, cand, lower, upper)
        calls.append((adj_ == adj, cand, upper, got))
        return got

    monkeypatch.setattr(densecode, "_max_clique_size", spy)
    res = distinguishable_messages(st, qubits)
    assert res.count == 8
    assert calls[:2] == [(False, full, math.inf, 8), (True, adj[0], 7, 7)]
    assert not any(same and cand == full for same, cand, _, _ in calls)


@pytest.mark.parametrize("n", [1, 2, 16, 128])
def test_complete_graph_walk_colours_each_pool_once(n, monkeypatch):
    # every pool the walk meets is a clique, which its colouring shows at once
    calls = []
    real = densecode._greedy_colouring

    def counting(adj_, pool):
        calls.append(pool)
        return real(adj_, pool)

    monkeypatch.setattr(densecode, "_greedy_colouring", counting)
    adj = _adj(_complete(n))
    assert _lex_smallest_maximum_clique(adj, n, lambda: True) == list(range(n))
    assert len(calls) <= n + 1
