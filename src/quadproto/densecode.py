"""Dense-coding message counting.

The sender holds some qubits of a shared resource state and encodes a
message by applying one Pauli from {sigma0, sigma1, i*sigma2, sigma3} to
each held qubit.  The receiver, holding everything, can read the message
only if the encoded states are mutually orthogonal, so the number of
distinguishable messages is the size of a maximum clique in the
orthogonality graph over the 4^k encoded states.

The encodings are rows of one (4^k, 2^n) array in lexicographic encoding
order (first sender qubit slowest), built by one gather: with the sender
axes moved to the front in the caller's order, every Pauli product is a row
of the signed-permutation table ``states.pauli_table`` that teleport
corrections also read, so each amplitude is one exact +-1 multiple.  A query
whose array would exceed ``MAX_ENCODED_ENTRIES`` amplitudes is refused
before anything is allocated.

Encodings that produce the same state up to global phase are collapsed to
one class first (they can never be distinguished): in encoding order, an
encoding starts a new class unless abs(abs(overlap) - 1) < tol against a
representative already found, tested as one matvec against those
representatives.  The orthogonality graph is read off the Gram matrix of
the representatives only; a Gram matrix over all 4^k encodings would grow
with 16^k.  The clique search is exact and returns the lexicographically
smallest maximum clique over the representatives, so results are
deterministic.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .states import ASSERT_TOL, PureState, check_tolerance, pauli_table

__all__ = [
    "DenseCodingResult",
    "encoded_states",
    "distinguishable_messages",
    "best_over_subsets",
]

# complex entries of one encoding array, 4^k x 2^n: 256 MiB
MAX_ENCODED_ENTRIES = 2 ** 24


def _encode(resource: PureState, sender_qubits: tuple[int, ...]) -> np.ndarray:
    """All 4^k encodings as rows, in lexicographic encoding order."""
    if len(set(sender_qubits)) != len(sender_qubits):
        raise ValueError("repeated sender qubit in %s" % (list(sender_qubits),))
    n = resource.num_qubits
    if any(q < 0 or q >= n for q in sender_qubits):
        raise ValueError("target qubit out of range")
    k = len(sender_qubits)
    if 4 ** k << n > MAX_ENCODED_ENTRIES:
        raise ValueError(
            "%d sender qubits of a %d-qubit resource need 4^%d x 2^%d encoded "
            "amplitudes, over the limit of 2^%d"
            % (k, n, k, n, MAX_ENCODED_ENTRIES.bit_length() - 1))
    _, perm, sign = pauli_table(k)
    axes = list(sender_qubits) + [q for q in range(n) if q not in sender_qubits]
    psi_t = resource.amplitudes.reshape((2,) * n).transpose(axes).reshape(1 << k, -1)
    rows = psi_t[perm]
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


def _representatives(rows: np.ndarray, tol: float) -> list[int]:
    """Row indices of the first member of each global-phase class."""
    reps: list[int] = []
    conj_reps = np.empty_like(rows)
    for j, row in enumerate(rows):
        r = len(reps)
        if r and (np.abs(np.abs(conj_reps[:r] @ row) - 1.0) < tol).any():
            continue
        np.conjugate(row, out=conj_reps[r])
        reps.append(j)
    return reps


def _max_clique_size(adj: list[int], cand: int, lower: int = 0) -> int:
    """Exact maximum clique size within the candidate bitmask."""
    best = lower

    def expand(size: int, pool: int) -> None:
        nonlocal best
        if pool == 0:
            if size > best:
                best = size
            return
        # greedy coloring upper bound; colors assigned in index order
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
        for v, bound in reversed(order):
            if size + bound <= best:
                return
            expand(size + 1, pool & adj[v])
            pool &= ~(1 << v)

    expand(0, cand)
    return best


def _lex_smallest_maximum_clique(adj: list[int], n: int) -> list[int]:
    full = (1 << n) - 1
    target = _max_clique_size(adj, full)
    chosen: list[int] = []
    pool = full
    for v in range(n):
        if not (pool >> v) & 1:
            continue
        inner = pool & adj[v]
        if len(chosen) + 1 + _max_clique_size(adj, inner) >= target:
            chosen.append(v)
            pool = inner
            if len(chosen) == target:
                break
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
    rows = _encode(resource, sender_qubits)
    rep_rows = _representatives(rows, tol)
    reps = rows[rep_rows]
    ortho = np.abs(reps.conj() @ reps.T) < tol
    np.fill_diagonal(ortho, False)
    adj = [int.from_bytes(bits.tobytes(), "little")
           for bits in np.packbits(ortho, axis=1, bitorder="little")]
    n = len(rep_rows)
    clique = _lex_smallest_maximum_clique(adj, n)
    names = pauli_table(len(sender_qubits)).names
    return DenseCodingResult(
        sender_qubits=sender_qubits,
        count=len(clique),
        witness=tuple(names[rep_rows[i]] for i in clique),
        num_encodings=len(rows),
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
