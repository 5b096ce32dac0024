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

Encodings that produce the same state up to global phase are collapsed to
one class first (they can never be distinguished): in encoding order, an
encoding j starts a new class unless abs(mag[r xor j] - 1) < tol for a
representative r already found.  One claiming pass applies that rule: an
unclaimed j starts a class and at once claims every unclaimed j xor s with
abs(mag[s] - 1) < tol, so the earliest matching representative claims each
row first.  Representatives i and j are adjacent when mag[i xor j] < tol.
The clique search is exact and returns the lexicographically smallest
maximum clique over the representatives, so results are deterministic.

The search first finds c0, one more than the largest clique in vertex 0's
neighbourhood, so the largest clique through the identity encoding.  The
maximum is c0 when c0 reaches the greedy-colouring bound of the whole graph
(edgeless and complete graphs), or when the graph is certified to be a
Cayley graph of the Pauli group modulo the identity's class.  The
certificate is read off the classes and the thresholded adjacency alone
(class 0 closed under XOR, every class one of its cosets, every edge i-j
equal to the edge from 0 to the class of rep_i xor rep_j), so it adds no
floating-point comparison and cannot change a result; it is built only
when the colouring bound leaves the question open.  A Cayley graph is
vertex-transitive, so some maximum clique contains vertex 0, and its
clique number is at most floor(n / alpha) with alpha its independence
number (the clique-coclique bound): the search through vertex 0 stops as
soon as it reaches that bound, and otherwise runs to the end.  Without the
certificate the whole graph is searched, starting from c0.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .states import (ASSERT_TOL, PureState, check_tolerance,
                     pauli_coefficients, pauli_table)
# the shared stack limit, under the name dense coding exports
from .states import MAX_STACK_ENTRIES as MAX_ENCODED_ENTRIES

__all__ = [
    "DenseCodingResult",
    "encoded_states",
    "distinguishable_messages",
    "best_over_subsets",
]


def _sender_major(resource: PureState, sender_qubits: tuple[int, ...],
                  width: int, what: str) -> tuple[np.ndarray, list[int]]:
    """The resource as a (2^k, 2^(n-k)) matrix with the sender axes first in
    the caller's order, and that axis order.  Refuses repeated or
    out-of-range senders, and a query whose 4^k x 2^width ``what`` exceed
    ``MAX_ENCODED_ENTRIES``."""
    if len(set(sender_qubits)) != len(sender_qubits):
        raise ValueError("repeated sender qubit in %s" % (list(sender_qubits),))
    n = resource.num_qubits
    bad = [q for q in sender_qubits if not 0 <= q < n]
    if bad:
        raise ValueError("sender qubit %d is out of range for a %d-qubit resource" % (bad[0], n))
    k = len(sender_qubits)
    if 4 ** k << width > MAX_ENCODED_ENTRIES:
        raise ValueError(
            "%d sender qubits of a %d-qubit resource need 4^%d x 2^%d %s, "
            "over the limit of 2^%d"
            % (k, n, k, width, what, MAX_ENCODED_ENTRIES.bit_length() - 1))
    axes = list(sender_qubits) + [q for q in range(n) if q not in sender_qubits]
    psi_t = resource.amplitudes.reshape((2,) * n).transpose(axes).reshape(1 << k, -1)
    return psi_t, axes


def _encode(resource: PureState, sender_qubits: tuple[int, ...]) -> np.ndarray:
    """All 4^k encodings as rows, in lexicographic encoding order."""
    n = resource.num_qubits
    psi_t, axes = _sender_major(resource, sender_qubits, n, "encoded amplitudes")
    _, flip, sign = pauli_table(len(sender_qubits))
    rows = psi_t[np.arange(len(psi_t)) ^ flip[:, None]]
    rows *= sign[:, :, None]
    back = [0] + [1 + a for a in np.argsort(axes)]
    return rows.reshape((len(rows),) + (2,) * n).transpose(back).reshape(len(rows), -1)


def encoded_states(resource: PureState, sender_qubits: tuple[int, ...],
                   ) -> list[tuple[tuple[str, ...], PureState]]:
    """All 4^k encoded states in lexicographic encoding order."""
    sender_qubits = tuple(sender_qubits)
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
                     upper: float = math.inf) -> int:
    """Exact maximum clique size within the candidate bitmask, or ``lower``
    when no clique there is larger.  ``upper`` is a known bound on it: the
    search stops as soon as it finds a clique that large."""
    best = lower

    def expand(size: int, pool: int) -> None:
        nonlocal best
        colouring = _greedy_colouring(adj, pool)
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


def _lex_smallest_maximum_clique(adj: list[int], n: int,
                                 transitive: Callable[[], bool]) -> list[int]:
    """The lexicographically smallest maximum clique.  ``transitive`` is asked,
    only when the greedy-colouring bound leaves the size open, whether the
    graph is known to be vertex-transitive, so that vertex 0 lies in a
    maximum clique.

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
    whole graph is searched from c0 up."""
    full = (1 << n) - 1
    bound = _greedy_colouring(adj, full)[-1][1]
    # asked before c0 when c0 cannot reach the bound: the graph is neither
    # edgeless nor complete, and c0 is at most 1 + the colour count of vertex
    # 0's neighbourhood; otherwise asked only if c0 falls short
    early = 1 < bound < n and (
        not adj[0] or 1 + _greedy_colouring(adj, adj[0])[-1][1] < bound)
    cayley = early and transitive()
    if cayley:
        coclique = [full ^ a ^ (1 << v) for v, a in enumerate(adj)]
        bound = n // _max_clique_size(coclique, full)
    c0 = 1 + _max_clique_size(adj, adj[0], upper=bound - 1)
    if c0 >= bound or cayley or not early and transitive():
        target = c0
    else:
        target = _max_clique_size(adj, full, lower=c0)
    chosen = [0] if c0 == target else []
    pool = adj[0] if chosen else full
    for v in range(1, n):
        if len(chosen) == target:
            break
        if not (pool >> v) & 1:
            continue
        inner = pool & adj[v]
        if len(chosen) + 1 + _max_clique_size(adj, inner) >= target:
            chosen.append(v)
            pool = inner
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


def distinguishable_messages(resource: PureState, sender_qubits: tuple[int, ...],
                             tol: float = ASSERT_TOL) -> DenseCodingResult:
    check_tolerance(tol)
    sender_qubits = tuple(sender_qubits)
    k = len(sender_qubits)
    psi_t, _ = _sender_major(resource, sender_qubits, k, "Pauli table entries")
    mag = np.abs(pauli_coefficients(psi_t @ psi_t.conj().T))
    rep_rows, cls = _representatives(mag, tol)
    reps = np.asarray(rep_rows)
    ortho = mag[reps[:, None] ^ reps] < tol
    np.fill_diagonal(ortho, False)
    packed = np.packbits(ortho, axis=1, bitorder="little")
    flat, width = packed.tobytes(), packed.shape[1]
    adj = [int.from_bytes(flat[i:i + width], "little")
           for i in range(0, len(flat), width)]
    n = len(rep_rows)
    clique = _lex_smallest_maximum_clique(
        adj, n, lambda: _is_cayley(cls, rep_rows, ortho))
    names = pauli_table(k).names
    return DenseCodingResult(
        sender_qubits=sender_qubits,
        count=len(clique),
        witness=tuple(names[rep_rows[i]] for i in clique),
        num_encodings=len(mag),
        num_classes=n,
    )


def best_over_subsets(resource: PureState, k: int,
                      tol: float = ASSERT_TOL,
                      ) -> tuple[DenseCodingResult, dict[tuple[int, ...], int]]:
    """Best message count over all k-qubit sender subsets."""
    n = resource.num_qubits
    if not 0 <= k <= n:
        raise ValueError("k = %r sender qubits is out of range for a %d-qubit "
                         "resource" % (k, n))
    per_subset: dict[tuple[int, ...], int] = {}
    best: DenseCodingResult | None = None
    for subset in itertools.combinations(range(n), k):
        res = distinguishable_messages(resource, subset, tol)
        per_subset[subset] = res.count
        if best is None or res.count > best.count:
            best = res
    return best, per_subset
