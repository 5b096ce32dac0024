"""Reference algebra for the benchmark's output checks.

Everything here is plain numpy on amplitude vectors, written apart from
quadproto's own state, measurement and correction code, so a check does
not pass merely because it repeats the program's computation.  Qubit 0 is
the leftmost (most significant) bit, as in quadproto.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

PAULI = {
    "s0": np.eye(2, dtype=complex),
    "s1": np.array([[0, 1], [1, 0]], dtype=complex),
    "s2": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "is2": np.array([[0, 1], [-1, 0]], dtype=complex),
    "s3": np.array([[1, 0], [0, -1]], dtype=complex),
}
PAULI_ORDER = ("s0", "s1", "is2", "s3")   # meaning of a dressing index
FIRE_TOL = 1e-12                           # an outcome "fires" above this


def kron_all(mats) -> np.ndarray:
    out = np.ones((1,), dtype=complex)
    for m in mats:
        out = np.kron(out, m)
    return out


def haar(num_qubits: int, rng: np.random.Generator) -> np.ndarray:
    dim = 1 << num_qubits
    vec = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return vec / np.linalg.norm(vec)


def apply_paulis(vec: np.ndarray, qubits, names) -> np.ndarray:
    """Apply one named Pauli per listed qubit (a qubit may repeat)."""
    n = vec.size.bit_length() - 1
    t = vec.reshape([2] * n)
    for q, name in zip(qubits, names):
        t = np.moveaxis(np.tensordot(PAULI[name], t, axes=([1], [q])), 0, q)
    return t.reshape(-1)


def to_qubit_order(vec: np.ndarray, order) -> np.ndarray:
    """Relayout a vector whose tensor axes follow ``order`` into 0..n-1."""
    n = len(order)
    return vec.reshape([2] * n).transpose(np.argsort(order)).reshape(-1)


def product_basis(rounds, num_qubits: int):
    """All product vectors of per-round bases, in qubit order 0..n-1.

    ``rounds`` lists (qubits, vectors); returns the product vectors, one
    per outcome combination, stacked as rows.
    """
    order = [q for qubits, _ in rounds for q in qubits]
    if sorted(order) != list(range(num_qubits)):
        raise ValueError("rounds do not cover every qubit once")
    return np.array([to_qubit_order(kron_all(combo), order)
                     for combo in itertools.product(*[vecs for _, vecs in rounds])])


# ---------------------------------------------------------------------------
# teleportation


def family_members(kind: str, num_qubits: int, dressing, rng, count: int):
    """Fresh members of a teleport input family (see quadproto.FamilySpec)."""
    k = num_qubits
    if kind == "w_equal3":
        vec = np.zeros(8, dtype=complex)
        vec[[0b001, 0b010, 0b100, 0b000]] = 0.5
        return [vec]
    members = []
    for _ in range(count):
        if kind == "arbitrary":
            members.append(haar(k, rng))
            continue
        a, b = haar(1, rng)
        vec = np.zeros(1 << k, dtype=complex)
        if kind == "ghz_diag":
            vec[0], vec[-1] = a, b
            members.append(kron_all(PAULI[PAULI_ORDER[i]] for i in dressing) @ vec)
        elif kind == "omega_sub":
            vec[[0b001, 0b111]] += a / math.sqrt(2)
            vec[0b000] += b / math.sqrt(2)
            vec[0b110] -= b / math.sqrt(2)
            dress = kron_all([PAULI[PAULI_ORDER[dressing[0]]], PAULI["s0"],
                              PAULI[PAULI_ORDER[dressing[1]]]])
            members.append(dress @ vec)
        else:
            raise ValueError("unknown family kind %r" % kind)
    return members


def correction_matrix(desc: str, k: int) -> np.ndarray:
    """Matrix of a reported correction such as ``CZ(0,1);s1*s3``."""
    prefix = np.ones(1 << k)
    if ";" in desc:
        head, desc = desc.split(";")
        if head.startswith("CZ(") and head.endswith(")"):
            i, j = (int(x) for x in head[3:-1].split(","))
            for x in range(1 << k):
                if (x >> (k - 1 - i)) & 1 and (x >> (k - 1 - j)) & 1:
                    prefix[x] = -1.0
        elif head.startswith("D(") and head.endswith(")"):
            signs = head[2:-1]
            if len(signs) != 1 << k or set(signs) - {"+", "-"}:
                raise ValueError("bad sign mask %r" % head)
            prefix = np.array([1.0 if s == "+" else -1.0 for s in signs])
        else:
            raise ValueError("unknown correction prefix %r" % head)
    names = desc.split("*")
    if len(names) != k:
        raise ValueError("correction %r does not act on %d qubits" % (desc, k))
    return kron_all(PAULI[name] for name in names) * prefix[None, :]


def replay_table(inputs, resource: np.ndarray, steps, receiver, table):
    """Worst fidelity of a correction table replayed on fresh inputs.

    ``steps`` lists (qubits, {label: vector}); ``table`` maps outcome keys
    to correction matrices on the receiver register in ascending qubit
    order.  Returns (worst fidelity, smallest total probability covered by
    the table); the second is 1 when no firing outcome is missing.
    """
    k = inputs[0].size.bit_length() - 1
    n = k + resource.size.bit_length() - 1
    measured = [q for qubits, _ in steps for q in qubits]
    rest = [q for q in range(n) if q not in measured]
    if rest != sorted(receiver):
        raise ValueError("measurement leaves %s, receiver holds %s"
                         % (rest, sorted(receiver)))
    bras = {}
    for key in table:
        labels = key.split(",")
        bras[key] = kron_all(vecs[label] for (_, vecs), label
                             in zip(steps, labels)).conj()
    worst, covered = 1.0, 1.0
    for phi in inputs:
        joint = np.kron(phi, resource).reshape([2] * n)
        joint = joint.transpose(measured + rest).reshape(1 << len(measured), -1)
        total = 0.0
        for key, corr in table.items():
            residual = bras[key] @ joint
            p = float(np.vdot(residual, residual).real)
            total += p
            if p > FIRE_TOL:
                out = corr @ (residual / math.sqrt(p))
                worst = min(worst, abs(np.vdot(phi, out)) ** 2)
        covered = min(covered, total)
    return worst, covered


def relay_cost(parties, aggregator: str, keys, corrections) -> int:
    """Classical bits under the relay convention stated in quadproto's README.

    Each measuring party other than the aggregator relays its raw outcome
    (ceil(log2) of the distinct outcomes it sees); the aggregator then
    broadcasts one of the distinct corrections.
    """
    def bits(count: int) -> int:
        return math.ceil(math.log2(count)) if count > 1 else 0

    split = [key.split(",") for key in keys]
    total = 0
    for party in dict.fromkeys(parties):
        if party != aggregator:
            positions = [i for i, p in enumerate(parties) if p == party]
            total += bits(len({tuple(s[i] for i in positions) for s in split}))
    return total + bits(len(set(corrections)))


# ---------------------------------------------------------------------------
# LOCC


def outcome_probabilities(rows: np.ndarray, states: np.ndarray) -> np.ndarray:
    """P[c, o] = |<o|psi_c>|^2 for product vectors ``rows``."""
    return np.abs(states @ rows.conj().T) ** 2


def collisions(prob: np.ndarray) -> int:
    """Outcomes that fire for two or more of the candidates in ``prob``."""
    return int(np.count_nonzero((prob > FIRE_TOL).sum(axis=0) >= 2))


def certificate_holds(rows: np.ndarray, states: np.ndarray,
                      tol: float = 1e-10) -> bool:
    """Do the states occupy disjoint, complete blocks of product outcomes?"""
    coeff = states @ rows.conj().T
    keep = np.abs(coeff) > tol
    weight = (np.abs(coeff) ** 2 * keep).sum(axis=1)
    return bool(keep.any(axis=1).all()
                and (np.abs(1.0 - weight) < tol).all()
                and (keep.sum(axis=0) <= 1).all())


# ---------------------------------------------------------------------------
# dense coding


def max_offdiag_overlap(vecs: np.ndarray) -> float:
    gram = np.abs(vecs.conj() @ vecs.T)
    np.fill_diagonal(gram, 0.0)
    return float(gram.max()) if len(vecs) > 1 else 0.0


def schmidt_rank(vec: np.ndarray, part) -> int:
    """Rank of the reduced state on the complement of ``part``."""
    n = vec.size.bit_length() - 1
    rest = [q for q in range(n) if q not in part]
    mat = vec.reshape([2] * n).transpose(list(part) + rest)
    sv = np.linalg.svd(mat.reshape(1 << len(part), -1), compute_uv=False)
    return int(np.count_nonzero(sv > FIRE_TOL))
