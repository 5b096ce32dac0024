"""Dense-coding message counting.

The sender holds some qubits of a shared resource state and encodes a
message by applying one Pauli from {sigma0, sigma1, i*sigma2, sigma3} to
each held qubit.  The receiver, holding everything, can read the message
only if the encoded states are mutually orthogonal, so the number of
distinguishable messages is the size of a maximum clique in the
orthogonality graph over the 4^k encoded states.

Encodings that produce the same state up to global phase are collapsed to
one class first (they can never be distinguished); the clique search is
exact and returns the lexicographically smallest maximum clique over the
class representatives, so results are deterministic.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .states import ASSERT_TOL, SIGMA, PureState, apply_local

__all__ = [
    "ENCODING_PAULIS",
    "DenseCodingResult",
    "encoded_states",
    "distinguishable_messages",
    "best_over_subsets",
]

ENCODING_PAULIS = ("s0", "s1", "is2", "s3")


def encoded_states(resource: PureState, sender_qubits: tuple[int, ...],
                   paulis: tuple[str, ...] = ENCODING_PAULIS,
                   ) -> list[tuple[tuple[str, ...], PureState]]:
    """All 4^k encoded states in lexicographic encoding order."""
    if len(set(sender_qubits)) != len(sender_qubits):
        raise ValueError("repeated sender qubit in %s" % (list(sender_qubits),))
    out = []
    for names in itertools.product(paulis, repeat=len(sender_qubits)):
        st = resource
        for qubit, name in zip(sender_qubits, names):
            st = apply_local(st, SIGMA[name], [qubit])
        out.append((names, st))
    return out


def _dedup(encoded, tol: float):
    """Collapse encodings equal up to global phase; keep first-seen reps."""
    reps: list[tuple[tuple[str, ...], PureState]] = []
    class_sizes: list[int] = []
    for names, st in encoded:
        for idx, (_, rep) in enumerate(reps):
            if abs(abs(np.vdot(rep.amplitudes, st.amplitudes)) - 1.0) < tol:
                class_sizes[idx] += 1
                break
        else:
            reps.append((names, st))
            class_sizes.append(1)
    return reps, class_sizes


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
                             tol: float = ASSERT_TOL,
                             paulis: tuple[str, ...] = ENCODING_PAULIS,
                             ) -> DenseCodingResult:
    encoded = encoded_states(resource, tuple(sender_qubits), paulis)
    reps, _ = _dedup(encoded, tol)
    vecs = np.array([st.amplitudes for _, st in reps])
    overlaps = np.abs(vecs.conj() @ vecs.T)
    n = len(reps)
    adj = [0] * n
    for i in range(n):
        for j in range(n):
            if i != j and overlaps[i, j] < tol:
                adj[i] |= 1 << j
    clique = _lex_smallest_maximum_clique(adj, n)
    return DenseCodingResult(
        sender_qubits=tuple(sender_qubits),
        count=len(clique),
        witness=tuple(reps[i][0] for i in clique),
        num_encodings=len(encoded),
        num_classes=n,
    )


def best_over_subsets(resource: PureState, k: int,
                      tol: float = ASSERT_TOL,
                      ) -> tuple[DenseCodingResult, dict[tuple[int, ...], int]]:
    """Best message count over all k-qubit sender subsets."""
    per_subset: dict[tuple[int, ...], int] = {}
    best: DenseCodingResult | None = None
    for subset in itertools.combinations(range(resource.num_qubits), k):
        res = distinguishable_messages(resource, subset, tol)
        per_subset[subset] = res.count
        if best is None or res.count > best.count:
            best = res
    assert best is not None
    return best, per_subset
