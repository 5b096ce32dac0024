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
mag = |Tr(P_x rho_S)|, from ``states.pauli_coefficients``: one gather of
the 4^k flip-diagonal entries of rho_S and one matmul by the 2^k x 2^k
Walsh-Hadamard matrix of ``states.pauli_table``, the kernel teleport
corrections also read; no encoded state is built.  That matmul sums 8^k
terms, so a query past ``states.check_pauli_qubits`` (k of 9 or more,
whatever the resource size) is refused before anything is built.
``encoded_states`` alone builds the encodings, as rows of one (4^k, 2^n)
array, and refuses 4^k x 2^n above ``MAX_STACK_ENTRIES``.

A query has two parts.  The front end takes a list of sender subsets,
reads their reductions rho_S with one ``states.reduced_densities`` (one
gather through the memoized sender-major index of ``states.sender_index``,
then one stacked ``psi @ psi^dag``) and runs one ``pauli_coefficients``
over the stack, giving one mag row per subset.  The stack is worked in
slices of at least one subset and at most ``SLICE_ENTRIES`` complex
entries, budgeting per subset what the front end holds at once (see
``_pauli_magnitudes``); only a one-slice query keeps its index in the
memo.  The subsets are checked once
per query, before anything is built: ``distinguishable_messages`` and
``encoded_states`` check their one subset with ``states.check_qubits``,
and ``best_over_subsets``, whose combinations are valid, only the size.

A query thresholds its whole (S, 4^k) table once, into two boolean rows
per subset: same = abs(mag - 1) < tol and low = mag < tol.  The classes,
the adjacency, the clique and the witness read nothing else, so each
distinct (same, low) pattern is answered once per call and shared by every
subset that thresholds to it: every subset of a symmetric state, or the
four bitwise-distinct k = 3 rows of a weighted W_mn state, which give two
patterns.  ``distinguishable_messages`` is the one-subset case of the same
path; ``best_over_subsets`` sends all C(n, k) subsets through the front end
at once.  Nothing is shared across calls.

Encodings that produce the same state up to global phase are collapsed to
one class first (they can never be distinguished): in encoding order, an
encoding j starts a new class unless abs(mag[r xor j] - 1) < tol for a
representative r already found.  One claiming pass applies that rule: an
unclaimed j starts a class and at once claims every unclaimed j xor s with
same[s], so the earliest matching representative claims each row first.
Representatives i and j are adjacent when low[i xor j].
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
which shows the N states independent.  The check reads each subset's own
row, so subsets that share a pattern are checked one by one, in order.
When (N - 1) * tol < 1 this holds without reading the table, so a query at
the default tolerance pays nothing.

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
A greedy colouring keeps one bitmask per colour class (bit-parallel
colouring; San Segundo, Rodriguez-Losada & Jimenez, Comput. Oper. Res. 38,
571 (2011)): the branch and bound walks the classes last to first, each
from its highest vertex, and a pool is a clique exactly when it has as
many classes as vertices.
Every greedy colouring of one search counts against ``MAX_COLOURINGS``
(10,000, 40 times the 245 of the heaviest pinned query); one more refuses
the query with ``CapacityError`` naming the limit, k and tol, as a
near-random graph at a loose tolerance would otherwise search for seconds
to minutes.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .states import (ASSERT_TOL, MAX_COLOURINGS, SLICE_ENTRIES, CapacityError,
                     PureState, check_integer, check_pauli_qubits, check_qubits,
                     check_stack, check_tolerance, pauli_coefficients, pauli_table,
                     reduced_densities, sender_index)

__all__ = [
    "DenseCodingResult",
    "encoded_states",
    "distinguishable_messages",
    "best_over_subsets",
]


def encoded_states(resource: PureState, sender_qubits: tuple[int, ...],
                   ) -> list[tuple[tuple[str, ...], PureState]]:
    """All 4^k encoded states in lexicographic encoding order."""
    n = resource.num_qubits
    sender_qubits = check_qubits("sender qubit", sender_qubits, n)
    k = len(sender_qubits)
    check_stack(4 ** k << n, "%d sender qubits of a %d-qubit resource need "
                "4^%d x 2^%d encoded amplitudes", k, n, k, n)
    index, = sender_index(n, (sender_qubits,))
    names, flip, z, walsh = pauli_table(k)
    psi_t = resource.amplitudes[index]
    rows = psi_t[np.arange(len(psi_t)) ^ flip[:, None]]
    rows *= walsh[z, :, None]
    out = np.empty((len(rows), 1 << n), dtype=rows.dtype)
    out[:, index] = rows
    return [(label, PureState(row)) for label, row in zip(names, out)]


def _representatives(same: np.ndarray) -> tuple[list[int], np.ndarray]:
    """Encoding indices of the first member of each global-phase class, and
    the class of every encoding: a representative's own class index, or the
    first representative it matched.  ``same[x]`` is whether
    abs(|<psi|P_x|psi>| - 1) < tol.

    Encodings are walked in order; an unclaimed j starts a class and at once
    claims every unclaimed j ^ s with ``same[s]``.  The earliest matching
    representative claims a row first, so this is the sequential first-match
    rule, at one step per (representative, s) pair."""
    if not same[1:].any():
        # no encoding matches another: each is its own class
        return list(range(len(same))), np.arange(len(same), dtype=np.intp)
    hits = np.flatnonzero(same).tolist()
    cls = [-1] * len(same)
    reps: list[int] = []
    for j, c in enumerate(cls):
        if c < 0:
            c = cls[j] = len(reps)
            reps.append(j)
            for s in hits:
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


def _greedy_colouring(adj: list[int], pool: int) -> list[int]:
    """A greedy colouring of the pool as one bitmask per colour class: each
    class takes, in index order, every uncoloured vertex adjacent to none it
    took before.  No clique in the pool has more vertices than there are
    classes."""
    classes = []
    while pool:
        avail, members = pool, 0
        while avail:
            bit = avail & -avail
            members |= bit
            avail = (avail ^ bit) & ~adj[bit.bit_length() - 1]
        classes.append(members)
        pool ^= members
    return classes


def _max_clique_size(adj: list[int], cand: int, lower: int = 0,
                     upper: float = math.inf,
                     colour: Callable[[list[int], int], list[int]]
                     = _greedy_colouring,
                     classes: list[int] | None = None) -> int:
    """Exact maximum clique size within the candidate bitmask, or ``lower``
    when no clique there is larger.  ``upper`` is a known bound on it: the
    search stops as soon as it finds a clique that large.  ``colour``
    colours each pool: ``_greedy_colouring``, or a wrapper that counts it;
    ``classes``, when given, is the colouring of ``cand`` it would make."""
    best = lower

    def expand(size: int, pool: int, classes: list[int] | None = None) -> None:
        nonlocal best
        if classes is None:
            classes = colour(adj, pool)
        # one class per vertex exactly when the pool is a clique (or empty)
        if len(classes) == pool.bit_count():
            best = max(best, size + len(classes))
            return
        # classes last to first, each from its highest vertex: when a vertex
        # of class c is expanded the pool holds only classes 1..c, so no
        # clique through it has more than c vertices
        for bound in range(len(classes), 0, -1):
            members = classes[bound - 1]
            while members:
                if size + bound <= best or best >= upper:
                    return
                v = members.bit_length() - 1
                expand(size + 1, pool & adj[v])
                pool ^= 1 << v
                members ^= 1 << v

    expand(0, cand, classes)
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
    whole graph is searched from c0 up, its first pool taking the colouring
    that gave the bound rather than a second one.

    The witness is then walked vertex by vertex, smallest first.  Each step
    first completes the current pool smallest-first and stops there if that
    reaches the target; only where it falls short is the pool's smallest
    vertex probed with an exact search of its neighbourhood in the pool.

    Every greedy colouring, the searches' included, counts against
    ``MAX_COLOURINGS``: one more raises ``CapacityError``."""
    spent = 0

    def colour(adj_: list[int], pool: int) -> list[int]:
        nonlocal spent
        spent += 1
        if spent > MAX_COLOURINGS:
            raise CapacityError("the clique search needs more than MAX_COLOURINGS "
                                "= %d greedy colourings" % MAX_COLOURINGS)
        return _greedy_colouring(adj_, pool)

    full = (1 << n) - 1
    whole = colour(adj, full)
    bound = len(whole)
    first = [0] + _smallest_first(adj, adj[0])
    if len(first) >= bound:
        return first
    # asked before c0 when c0 cannot reach the bound, since c0 is at most 1 +
    # the colour count of vertex 0's neighbourhood; otherwise asked only if
    # c0 falls short.  Past the exit above the graph is neither edgeless nor
    # complete (a greedy colouring of n colours means a complete graph)
    early = not adj[0] or 1 + len(colour(adj, adj[0])) < bound
    cayley = early and transitive()
    if cayley:
        coclique = [full ^ a ^ (1 << v) for v, a in enumerate(adj)]
        bound = n // _max_clique_size(coclique, full, colour=colour)
    c0 = 1 + _max_clique_size(adj, adj[0], upper=bound - 1, colour=colour)
    if c0 >= bound or cayley or not early and transitive():
        target = c0
    else:
        target = _max_clique_size(adj, full, lower=c0, colour=colour, classes=whole)
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


def _pauli_magnitudes(resource: PureState, subsets: tuple[tuple[int, ...], ...],
                      k: int) -> np.ndarray:
    """The (S, 4^k) table of mag = |Tr(P_x rho_S)|, one row per k-qubit sender
    subset, from one ``reduced_densities`` and one ``pauli_coefficients`` per
    slice.  A slice holds at least one subset and otherwise at most
    ``SLICE_ENTRIES`` complex entries, per subset the most either call holds:
    the amplitudes, their conjugate and rho_S (2 x 2^n + 4^k), then rho_S,
    its diagonals, their transform and the traces (4 x 4^k).  Only a
    one-slice query memoizes its index; a sweep of several slices builds
    each slice's index and keeps none.  The caller has checked the subsets."""
    step = max(1, SLICE_ENTRIES // max(2 * resource.dim + 4 ** k, 4 ** (k + 1)))
    memo = step >= len(subsets)
    parts = [np.abs(pauli_coefficients(
                 reduced_densities(resource.amplitudes, subsets[lo:lo + step], memo)))
             for lo in range(0, len(subsets), step)]
    return parts[0] if len(parts) == 1 else np.concatenate(parts)


def _answer(same: np.ndarray, low: np.ndarray) -> tuple[list[int], int]:
    """The witness encodings of one thresholded Pauli table row and its
    number of phase classes: ``same`` marks abs(mag - 1) < tol and ``low``
    mag < tol.  They read nothing but the two rows, so sender subsets with
    equal patterns share one answer.  Raises ``CapacityError``, from n alone,
    when the n x n class graph is past ``MAX_STACK_ENTRIES``, or when the
    search runs past ``MAX_COLOURINGS``."""
    rep_rows, cls = _representatives(same)
    n = len(rep_rows)
    if not low.any():
        # no two classes are orthogonal: the identity, the first
        # representative, is the lexicographically smallest maximum clique
        return [0], n
    check_stack(n * n, "a graph over %d phase classes needs %d^2 entries", n, n)
    reps = np.asarray(rep_rows)
    ortho = low[reps[:, None] ^ reps]
    np.fill_diagonal(ortho, False)
    packed = np.packbits(ortho, axis=1, bitorder="little")
    flat, width = packed.tobytes(), packed.shape[1]
    adj = [int.from_bytes(flat[i:i + width], "little")
           for i in range(0, len(flat), width)]
    clique = _lex_smallest_maximum_clique(
        adj, n, lambda: _is_cayley(cls, rep_rows, ortho))
    return [rep_rows[i] for i in clique], n


# the witness of a query and its number of phase classes
_Answer = tuple[tuple[tuple[str, ...], ...], int]


def _answers(mags: np.ndarray, k: int, tol: float) -> list[_Answer]:
    """The answer of each row of the (S, 4^k) table ``mags``, in order.  The
    table is thresholded once and each distinct (same, low) pattern is
    answered once, for the length of the call; every row's witness then
    passes ``_check_independent`` on its own magnitudes, so the first row
    whose count fails it refuses the query with ``ValueError``.  A search
    past ``MAX_COLOURINGS`` raises ``CapacityError`` naming k and tol."""
    patterns = np.concatenate((np.abs(mags - 1.0) < tol, mags < tol),
                              axis=1).reshape(len(mags), 2, -1)
    names = pauli_table(k).names
    shared: dict[bytes, tuple[list[int], _Answer]] = {}
    out = []
    for mag, pattern in zip(mags, patterns):
        key = pattern.tobytes()
        if key not in shared:
            try:
                witness, n = _answer(*pattern)
            except CapacityError as exc:
                raise CapacityError("%d sender qubits at tolerance %g: %s"
                                    % (k, tol, exc)) from None
            shared[key] = witness, (tuple(names[x] for x in witness), n)
        witness, answer = shared[key]
        _check_independent(mag, witness, tol)
        out.append(answer)
    return out


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
    n = resource.num_qubits
    sender_qubits = check_qubits("sender qubit", sender_qubits, n)
    k = len(sender_qubits)
    check_pauli_qubits(k)
    answer, = _answers(_pauli_magnitudes(resource, (sender_qubits,), k), k, tol)
    return _result(sender_qubits, k, answer)


def best_over_subsets(resource: PureState, k: int,
                      tol: float = ASSERT_TOL,
                      ) -> tuple[DenseCodingResult, dict[tuple[int, ...], int]]:
    """Best message count over all k-qubit sender subsets, the first maximal
    subset in ``itertools.combinations`` order, and every subset's count.
    All subsets go through one stacked transform, and subsets whose Pauli
    table rows threshold to the same pattern share one answer.  The first
    subset, in that order, whose count fails the Gram check refuses the
    whole sweep with ``ValueError``."""
    check_integer("k", k)
    n = resource.num_qubits
    if not 0 <= k <= n:
        raise ValueError("k = %r sender qubits is out of range for a %d-qubit "
                         "resource" % (k, n))
    check_tolerance(tol)
    check_pauli_qubits(k)
    subsets = tuple(itertools.combinations(range(n), k))
    answers = _answers(_pauli_magnitudes(resource, subsets, k), k, tol)
    per_subset: dict[tuple[int, ...], int] = {}
    best: DenseCodingResult | None = None
    for subset, answer in zip(subsets, answers):
        per_subset[subset] = len(answer[0])
        if best is None or per_subset[subset] > best.count:
            best = _result(subset, k, answer)
    return best, per_subset
