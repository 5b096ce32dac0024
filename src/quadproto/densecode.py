"""Dense-coding message counting.

The sender holds some qubits of a shared resource state and encodes a
message by applying one Pauli from {sigma0, sigma1, i*sigma2, sigma3} to
each held qubit.  The receiver, holding everything, can read the message
only if the encoded states are mutually orthogonal, so the number of
distinguishable messages is the size of a maximum clique in the
orthogonality graph over the 4^k encoded states, in lexicographic encoding
order (first sender qubit slowest).

The XOR of two encoding indices is their Pauli product up to phase, so
|<P_a psi|P_b psi>| = |Tr(P_(a xor b) rho_S)| with rho_S the reduction of
psi to the sender qubits.  A query reads everything off the 4^k numbers
mag = |Tr(P_x rho_S)|, one gather of ``states.pauli_coefficients`` by the
flip masks and int8 signs of ``states.pauli_table``, which teleport
corrections also read; no encoded state is built.  That gather is a
(4^k, 2^k) array, so a query with 8^k above ``MAX_ENCODED_ENTRIES`` (k of 9
or more, whatever the resource size) is refused before the table is built.
``encoded_states`` alone builds the encodings, as rows of one (4^k, 2^n)
array, and refuses 4^k x 2^n above the same limit.

A query has two parts.  The front end takes a list of sender subsets and
reads their sender-major amplitudes (sender qubits first, in the caller's
order, the others ascending) with one gather through a flat index, then
runs one ``psi @ psi^dag`` and one ``pauli_coefficients`` over the stack,
giving one mag row per subset.  The stack is worked in slices of at most
``SLICE_ENTRIES`` gathered entries (8^k per subset) and stacked amplitudes
(2^n per subset), and of at least one subset.  The index depends on n and
the subsets alone, so a query's whole index is memoized by value when it
has at most ``INDEX_MEMO_ENTRIES`` (2^16) entries; a larger one is built a
slice at a time and not kept.  The subsets are checked once per query,
before anything is built: ``distinguishable_messages`` and
``encoded_states`` check their one subset, and ``best_over_subsets``,
whose combinations are valid, only the size.  The answer reads the
classes, the adjacency, the clique and the witness off one row.  ``distinguishable_messages`` is the one-subset case;
``best_over_subsets`` sends all C(n, k) subsets through the front end at
once, and answers each distinct row once: the answer reads nothing but the
row, k and tol, and bitwise-equal rows (every subset of a symmetric state)
share it for the length of the call.

Encodings that produce the same state up to global phase are collapsed to
one class first (they can never be distinguished): in encoding order, an
encoding j starts a new class unless abs(mag[r xor j] - 1) < tol for a
representative r already found.  One claiming pass applies that rule: an
unclaimed j starts a class and at once claims every unclaimed j xor s with
abs(mag[s] - 1) < tol, so the earliest matching representative claims each
row first.  Representatives i and j are adjacent when mag[i xor j] < tol.
The clique search is exact and returns the lexicographically smallest
maximum clique over the representatives, so results are deterministic.

Two shapes of the row are decided before any graph is built, with the
answer the claiming pass and the search would give.  When no encoding but
the identity has abs(mag - 1) < tol, every encoding is its own class and
the pass is skipped.  When no entry of the row is below tol, no XOR of two
representatives is either, so the graph has no edge and the witness is the
identity alone: a generic state, such as a Haar-random one, has no Pauli
expectation near 0, so its rows end there.

A count is read at the tolerance it was asked at: N encodings whose states
pairwise overlap by less than tol.  A loose tol can admit more such states
than their dimension holds, so every witness must pass a Gershgorin check
on its Gram matrix, whose entries are mag[w_i xor w_j]: the query is refused
with ``ValueError`` unless (N - 1) times the largest pair value is below 1,
which shows the N states independent.  When (N - 1) * tol < 1 this holds
without reading the table, so a query at the default tolerance pays nothing.

The search first completes {0} smallest-first, each pick the smallest
vertex adjacent to all picked so far, and returns that clique when it
reaches the greedy-colouring bound of the whole graph.  Otherwise it finds
c0, one more than the largest clique in vertex 0's neighbourhood, so the
largest clique through the identity encoding.  The maximum is c0 when c0
reaches the greedy-colouring bound of the whole graph, or when the graph is
certified to be a Cayley graph of the Pauli group modulo the identity's
class.  The certificate is read off the classes and the thresholded
adjacency alone (class 0 closed under XOR, every class one of its cosets,
every edge i-j equal to the edge from 0 to the class of rep_i xor rep_j),
so it adds no floating-point comparison and cannot change a result; it is
built only when the colouring bound leaves the question open.  A Cayley
graph is vertex-transitive, so some maximum clique contains vertex 0, and
its clique number is at most floor(n / alpha) with alpha its independence
number (the clique-coclique bound): the search through vertex 0 stops as
soon as it reaches that bound, and otherwise runs to the end.  Without the
certificate the whole graph is searched, starting from c0.  The witness is
then walked smallest vertex first; a step probes its vertex with an exact
search only where the smallest-first completion of its pool falls short.
Every greedy colouring of one search counts against ``MAX_COLOURINGS``
(10,000, 40 times the 245 of the heaviest pinned query); one more refuses
the query with ``CapacityError`` naming the limit, k and tol, as a
near-random graph at a loose tolerance would otherwise search for seconds
to minutes.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .states import (ASSERT_TOL, MAX_COLOURINGS, SLICE_ENTRIES, CapacityError,
                     PureState, check_tolerance, pauli_coefficients, pauli_table)
# the shared stack limit, under the name dense coding exports
from .states import MAX_STACK_ENTRIES as MAX_ENCODED_ENTRIES

__all__ = [
    "DenseCodingResult",
    "encoded_states",
    "distinguishable_messages",
    "best_over_subsets",
]


def _check_integer(value, what: str) -> None:
    """Refuse anything but a Python or numpy integer, bools included, which
    would otherwise be read as 0 and 1 or fail inside numpy."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError("%s must be an integer, got %r" % (what, value))


def _senders(sender_qubits) -> tuple[int, ...]:
    """The caller's sender qubits as a tuple, each checked to be an integer."""
    sender_qubits = tuple(sender_qubits)
    for q in sender_qubits:
        _check_integer(q, "sender qubit")
    return sender_qubits


def _check_size(k: int, n: int, width: int, what: str) -> None:
    """Refuse a query whose 4^k x 2^width ``what`` exceed
    ``MAX_ENCODED_ENTRIES``, from the sizes alone."""
    if 4 ** k << width > MAX_ENCODED_ENTRIES:
        raise ValueError(
            "%d sender qubits of a %d-qubit resource need 4^%d x 2^%d %s, "
            "over the limit of 2^%d"
            % (k, n, k, width, what, MAX_ENCODED_ENTRIES.bit_length() - 1))


def _check_senders(sender_qubits: tuple[int, ...], n: int, width: int,
                   what: str) -> None:
    """Refuse repeated or out-of-range senders, then an oversized query."""
    if len(set(sender_qubits)) != len(sender_qubits):
        raise ValueError("repeated sender qubit in %s" % (list(sender_qubits),))
    bad = [q for q in sender_qubits if not 0 <= q < n]
    if bad:
        raise ValueError("sender qubit %d is out of range for a %d-qubit resource" % (bad[0], n))
    _check_size(len(sender_qubits), n, width, what)


def _sender_index(n: int, subsets: tuple[tuple[int, ...], ...]) -> np.ndarray:
    """The read-only (S, 2^k, 2^(n-k)) gather of every subset's sender-major
    matrix: entry [i, t_s, t_r] is the flat amplitude index where subset i's
    qubits, in its order, read t_s and the other qubits, ascending, read t_r.
    Each subset is valid, distinct qubits in range, and all have k of them."""
    flat = np.arange(1 << n, dtype=np.intp).reshape((2,) * n)
    index = np.stack([flat.transpose(list(s) + [q for q in range(n) if q not in s])
                      .reshape(1 << len(s), -1) for s in subsets])
    index.setflags(write=False)
    return index


# a query's whole index is kept, by value, when it has at most
# INDEX_MEMO_ENTRIES entries (512 KiB; 256 indices, 128 MiB at most); a
# larger one is built per call, a slice at a time, and not kept
INDEX_MEMO_ENTRIES = 2 ** 16
_cached_sender_index = functools.lru_cache(maxsize=256)(_sender_index)


def _encode(resource: PureState, sender_qubits: tuple[int, ...]) -> np.ndarray:
    """All 4^k encodings as rows, in lexicographic encoding order."""
    n = resource.num_qubits
    _check_senders(sender_qubits, n, n, "encoded amplitudes")
    # one subset's index holds 2^n <= 2^MAX_QUBITS entries, within the memo
    index, = _cached_sender_index(n, (sender_qubits,))
    _, flip, sign = pauli_table(len(sender_qubits))
    psi_t = resource.amplitudes[index]
    rows = psi_t[np.arange(len(psi_t)) ^ flip[:, None]]
    rows *= sign[:, :, None]
    out = np.empty((len(rows), 1 << n), dtype=rows.dtype)
    out[:, index] = rows
    return out


def encoded_states(resource: PureState, sender_qubits: tuple[int, ...],
                   ) -> list[tuple[tuple[str, ...], PureState]]:
    """All 4^k encoded states in lexicographic encoding order."""
    sender_qubits = _senders(sender_qubits)
    rows = _encode(resource, sender_qubits)
    names = pauli_table(len(sender_qubits)).names
    return [(label, PureState(row)) for label, row in zip(names, rows)]


def _representatives(mag: np.ndarray, tol: float) -> tuple[list[int], np.ndarray]:
    """Encoding indices of the first member of each global-phase class, and
    the class of every encoding: a representative's own class index, or the
    first representative it matched.  ``mag[x]`` is |<psi|P_x|psi>|.

    Encodings are walked in order; an unclaimed j starts a class and at once
    claims every unclaimed j ^ s with abs(mag[s] - 1) < tol.  The earliest
    matching representative claims a row first, so this is the sequential
    first-match rule, at one step per (representative, s) pair."""
    same = np.flatnonzero(np.abs(mag - 1.0) < tol).tolist()
    if not same or same == [0]:
        # no encoding matches another: each is its own class
        return list(range(len(mag))), np.arange(len(mag), dtype=np.intp)
    cls = [-1] * len(mag)
    reps: list[int] = []
    for j, c in enumerate(cls):
        if c < 0:
            c = cls[j] = len(reps)
            reps.append(j)
            for s in same:
                if cls[j ^ s] < 0:
                    cls[j ^ s] = c
    return reps, np.array(cls, dtype=np.intp)


def _is_cayley(cls: np.ndarray, rep_rows: list[int], ortho: np.ndarray) -> bool:
    """Whether the orthogonality graph is a Cayley graph, hence
    vertex-transitive, proved from the classes and adjacency alone.

    The XOR of two encoding indices is their Pauli product up to phase.  With
    S the rows of class 0 (the identity's), the classes are exactly the
    cosets of S when S is closed under XOR, the n classes hold 4^k / n rows
    each and every coset r ^ S lies in r's class.  The graph is then a
    Cayley graph on the quotient group when each edge i-j reads the same as
    the edge from 0 to the class of rep_i ^ rep_j."""
    s = np.flatnonzero(cls == 0)
    basis: list[int] = []   # distinct leading bits, largest first
    for x in s.tolist():
        for b in basis:
            x = min(x, x ^ b)
        if x:
            basis.append(x)
            basis.sort(reverse=True)
    n = len(rep_rows)
    if len(s) != 1 << len(basis) or len(s) * n != len(cls):
        return False
    reps = np.asarray(rep_rows)
    if not (cls[reps[:, None] ^ s] == cls[reps][:, None]).all():
        return False
    return bool((ortho == ortho[0, cls[reps[:, None] ^ reps]]).all())


def _greedy_colouring(adj: list[int], pool: int) -> list[tuple[int, int]]:
    """(vertex, colour) pairs of a greedy colouring of the pool, colours
    assigned in index order; no clique in the pool exceeds the last colour."""
    order: list[tuple[int, int]] = []
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


def _max_clique_size(adj: list[int], cand: int, lower: int = 0,
                     upper: float = math.inf,
                     colour: Callable[[list[int], int], list[tuple[int, int]]]
                     = _greedy_colouring) -> int:
    """Exact maximum clique size within the candidate bitmask, or ``lower``
    when no clique there is larger.  ``upper`` is a known bound on it: the
    search stops as soon as it finds a clique that large.  ``colour``
    colours each pool: ``_greedy_colouring``, or a wrapper that counts it."""
    best = lower

    def expand(size: int, pool: int) -> None:
        nonlocal best
        colouring = colour(adj, pool)
        # one colour per vertex exactly when the pool is a clique (or empty)
        if len(colouring) == (colouring[-1][1] if colouring else 0):
            best = max(best, size + len(colouring))
            return
        for v, bound in reversed(colouring):
            if size + bound <= best or best >= upper:
                return
            expand(size + 1, pool & adj[v])
            pool &= ~(1 << v)

    expand(0, cand)
    return best


def _smallest_first(adj: list[int], pool: int) -> list[int]:
    """A maximal clique of the pool, grown by taking the pool's smallest
    vertex and keeping only its neighbours, until the pool is empty."""
    clique = []
    while pool:
        v = (pool & -pool).bit_length() - 1
        clique.append(v)
        pool &= adj[v]
    return clique


def _lex_smallest_maximum_clique(adj: list[int], n: int,
                                 transitive: Callable[[], bool]) -> list[int]:
    """The lexicographically smallest maximum clique.  ``transitive`` is asked,
    only when the greedy-colouring bound leaves the size open, whether the
    graph is known to be vertex-transitive, so that vertex 0 lies in a
    maximum clique.

    Before any search, {0} is completed smallest-first: each pick is the
    smallest vertex adjacent to all picked so far.  When that clique reaches
    the greedy-colouring bound of the whole graph it is returned at once.  A
    clique as large as an upper bound is a maximum clique; a maximum clique
    through 0 makes the lexicographically smallest one start at 0; and each
    pick is the smallest vertex of its pool, which the completion itself
    proves extends to a maximum clique, exactly the rule of the walk below.

    The bound starts as the colour count of a greedy colouring of the whole
    graph.  For a vertex-transitive graph on n vertices it becomes
    floor(n / alpha), alpha the independence number, found as the largest
    clique of the complement: a clique and an independent set share at most
    one vertex, and averaging over the automorphisms that move the clique
    around the graph gives omega * alpha <= n (the clique-coclique bound;
    Godsil & Royle, Algebraic Graph Theory, Springer 2001).  It never exceeds
    the colouring bound, whose colour classes are independent sets.  The
    search through vertex 0 stops once it reaches the bound and otherwise
    runs to the end, so c0 is exact either way.  When the graph is not known
    to be vertex-transitive and c0 falls short of the colouring bound, the
    whole graph is searched from c0 up.

    The witness is then walked vertex by vertex, smallest first.  Each step
    first completes the current pool smallest-first and stops there if that
    reaches the target; only where it falls short is the pool's smallest
    vertex probed with an exact search of its neighbourhood in the pool.

    Every greedy colouring, the searches' included, counts against
    ``MAX_COLOURINGS``: one more raises ``CapacityError``."""
    spent = 0

    def colour(adj_: list[int], pool: int) -> list[tuple[int, int]]:
        nonlocal spent
        spent += 1
        if spent > MAX_COLOURINGS:
            raise CapacityError("the clique search needs more than MAX_COLOURINGS "
                                "= %d greedy colourings" % MAX_COLOURINGS)
        return _greedy_colouring(adj_, pool)

    full = (1 << n) - 1
    bound = colour(adj, full)[-1][1]
    first = [0] + _smallest_first(adj, adj[0])
    if len(first) >= bound:
        return first
    # asked before c0 when c0 cannot reach the bound, since c0 is at most 1 +
    # the colour count of vertex 0's neighbourhood; otherwise asked only if
    # c0 falls short.  Past the exit above the graph is neither edgeless nor
    # complete (a greedy colouring of n colours means a complete graph)
    early = not adj[0] or 1 + colour(adj, adj[0])[-1][1] < bound
    cayley = early and transitive()
    if cayley:
        coclique = [full ^ a ^ (1 << v) for v, a in enumerate(adj)]
        bound = n // _max_clique_size(coclique, full, colour=colour)
    c0 = 1 + _max_clique_size(adj, adj[0], upper=bound - 1, colour=colour)
    if c0 >= bound or cayley or not early and transitive():
        target = c0
    else:
        target = _max_clique_size(adj, full, lower=c0, colour=colour)
    # vertex 0 is left out of the pool when no maximum clique holds it
    chosen = [0] if c0 == target else []
    pool = adj[0] if chosen else full ^ 1
    while len(chosen) < target:
        rest = _smallest_first(adj, pool)
        if len(chosen) + len(rest) >= target:
            return chosen + rest
        v = rest[0]
        inner = pool & adj[v]
        if len(chosen) + 1 + _max_clique_size(adj, inner, colour=colour) >= target:
            chosen.append(v)
            pool = inner
        else:
            pool ^= 1 << v
    return chosen


@dataclass(frozen=True)
class DenseCodingResult:
    sender_qubits: tuple[int, ...]
    count: int
    witness: tuple[tuple[str, ...], ...]
    num_encodings: int
    num_classes: int

    @property
    def bits(self) -> float:
        return math.log2(self.count)


def _pauli_magnitudes(resource: PureState, subsets: list[tuple[int, ...]],
                      k: int) -> np.ndarray:
    """The (S, 4^k) table of mag = |Tr(P_x rho_S)|, one row per k-qubit sender
    subset, from one stacked ``psi @ psi^dag`` and one ``pauli_coefficients``
    per slice.  A slice holds at least one subset and otherwise at most
    ``SLICE_ENTRIES`` of both the gather (8^k per subset) and the stacked
    amplitudes (2^n per subset); its amplitudes are read by one gather
    through ``_sender_index``.  The caller has checked the subsets."""
    n = resource.num_qubits
    step = max(1, SLICE_ENTRIES // max(8 ** k, 1 << n))
    cached = len(subsets) << n <= INDEX_MEMO_ENTRIES
    parts = []
    for lo in range(0, len(subsets), step):
        index = (_cached_sender_index(n, tuple(subsets))[lo:lo + step] if cached
                 else _sender_index(n, tuple(subsets[lo:lo + step])))
        psi = resource.amplitudes[index]
        parts.append(np.abs(pauli_coefficients(psi @ psi.conj().transpose(0, 2, 1))))
    return parts[0] if len(parts) == 1 else np.concatenate(parts)


# the witness of a query and its number of phase classes
_Answer = tuple[tuple[tuple[str, ...], ...], int]


def _answer(mag: np.ndarray, k: int, tol: float) -> _Answer:
    """The witness of one Pauli table row ``mag`` and its number of phase
    classes.  They read nothing but ``mag``, ``k`` and ``tol``, so sender
    subsets with bitwise-equal rows share one answer.  Raises ``ValueError``
    when the witness fails ``_check_independent``, and ``CapacityError``,
    naming k and tol, when the search runs past ``MAX_COLOURINGS``."""
    rep_rows, cls = _representatives(mag, tol)
    n = len(rep_rows)
    names = pauli_table(k).names
    if not (mag < tol).any():
        # no two classes are orthogonal: the identity, the first
        # representative, is the lexicographically smallest maximum clique
        return (names[0],), n
    reps = np.asarray(rep_rows)
    ortho = mag[reps[:, None] ^ reps] < tol
    np.fill_diagonal(ortho, False)
    packed = np.packbits(ortho, axis=1, bitorder="little")
    flat, width = packed.tobytes(), packed.shape[1]
    adj = [int.from_bytes(flat[i:i + width], "little")
           for i in range(0, len(flat), width)]
    try:
        clique = _lex_smallest_maximum_clique(
            adj, n, lambda: _is_cayley(cls, rep_rows, ortho))
    except CapacityError as exc:
        raise CapacityError("%d sender qubits at tolerance %g: %s"
                            % (k, tol, exc)) from None
    witness = [rep_rows[i] for i in clique]
    _check_independent(mag, witness, tol)
    return tuple(names[x] for x in witness), n


def _check_independent(mag: np.ndarray, witness: list[int], tol: float) -> None:
    """Refuse a witness of N encodings unless Gershgorin shows their states
    linearly independent, so that N cannot exceed the dimension they live in.

    The Gram matrix of the witness has a unit diagonal and off-diagonal
    magnitudes mag[w_i ^ w_j]; it is positive definite when (N - 1) times
    the largest of them is below 1.  Every witness pair is below ``tol``, so
    (N - 1) * tol < 1 settles this without reading the table."""
    n = len(witness)
    if (n - 1) * tol < 1:
        return
    w = np.asarray(witness)
    gram = mag[w[:, None] ^ w]
    np.fill_diagonal(gram, 0.0)
    worst = float(gram.max())
    if (n - 1) * worst >= 1:
        raise ValueError(
            "tolerance %g counts N = %d messages, but their encoded states "
            "overlap by up to %.3g and (N - 1) x %.3g = %.3g is not below 1, so "
            "they are not shown to be independent; use a smaller tolerance"
            % (tol, n, worst, worst, (n - 1) * worst))


def _result(sender_qubits: tuple[int, ...], k: int,
            answer: _Answer) -> DenseCodingResult:
    witness, num_classes = answer
    return DenseCodingResult(sender_qubits=sender_qubits, count=len(witness),
                             witness=witness, num_encodings=4 ** k,
                             num_classes=num_classes)


def distinguishable_messages(resource: PureState, sender_qubits: tuple[int, ...],
                             tol: float = ASSERT_TOL) -> DenseCodingResult:
    check_tolerance(tol)
    sender_qubits = _senders(sender_qubits)
    k = len(sender_qubits)
    _check_senders(sender_qubits, resource.num_qubits, k, "Pauli table entries")
    mag, = _pauli_magnitudes(resource, [sender_qubits], k)
    return _result(sender_qubits, k, _answer(mag, k, tol))


def best_over_subsets(resource: PureState, k: int,
                      tol: float = ASSERT_TOL,
                      ) -> tuple[DenseCodingResult, dict[tuple[int, ...], int]]:
    """Best message count over all k-qubit sender subsets, the first maximal
    subset in ``itertools.combinations`` order, and every subset's count.
    All subsets go through one stacked transform, and subsets whose Pauli
    table rows are bitwise equal share one answer.  The first subset, in
    that order, whose count fails the Gram check refuses the whole sweep
    with ``ValueError``."""
    _check_integer(k, "k")
    n = resource.num_qubits
    if not 0 <= k <= n:
        raise ValueError("k = %r sender qubits is out of range for a %d-qubit "
                         "resource" % (k, n))
    check_tolerance(tol)
    _check_size(k, n, k, "Pauli table entries")
    subsets = list(itertools.combinations(range(n), k))
    answers: dict[bytes, _Answer] = {}
    per_subset: dict[tuple[int, ...], int] = {}
    best: DenseCodingResult | None = None
    for subset, mag in zip(subsets, _pauli_magnitudes(resource, subsets, k)):
        key = mag.tobytes()
        if key not in answers:
            answers[key] = _answer(mag, k, tol)
        per_subset[subset] = len(answers[key][0])
        if best is None or per_subset[subset] > best.count:
            best = _result(subset, k, answers[key])
    return best, per_subset
