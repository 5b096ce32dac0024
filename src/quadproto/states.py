"""Exact pure-state linear algebra for small qubit registers.

Big-endian labeling throughout: qubit 0 is the leftmost symbol of a ket
label, so in |011> qubit 0 is |0> and qubits 1, 2 are |1>.  States are
immutable values and reductions read-only arrays, each one a fresh object.
"""
from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Mapping, NamedTuple, Sequence

import numpy as np

MAX_QUBITS = 12
# complex entries of one stacked array (dense-coding encodings and tables):
# 256 MiB.  It also caps the 8^k terms of one Walsh-Hadamard transform of a
# k-qubit matrix, so every Pauli kernel runs at k <= 8 (check_pauli_qubits)
MAX_STACK_ENTRIES = 2 ** 24
# complex entries one slice of a dense-coding sweep may hold, the kernel's
# working arrays included: 32 MiB, so a slice stays cache- and RSS-sized
# although one stack may take up to MAX_STACK_ENTRIES
SLICE_ENTRIES = 2 ** 21
# greedy colourings one dense-coding clique search may run before it is
# refused: 40x the 245 of the heaviest pinned, suite or benchmark query
# (Q4_11 with senders 1, 0, 3, 2), about 0.2 s of search
MAX_COLOURINGS = 10_000

# Tolerances.  Every module imports these; none defines its own.
NORM_TOL = 1e-12        # |norm - 1| of a PureState
UNITARY_TOL = 1e-12     # max |U^dag U - I| of a matrix apply_local applies
GRAM_TOL = 1e-12        # max |G - I| of a catalog basis
AMP_TOL = 1e-12         # smaller amplitudes are left out of ket listings
DROP_TOL = 1e-12        # outcome branches at or below this probability never fire
ASSERT_TOL = 1e-10      # default tolerance of every checked claim (CLI --tolerance)
PERP_ALARM = 1e-10      # probability leaking into auto-completed directions
COMPLETION_PICK = 0.5   # complete_basis keeps residuals above this, clear of roundoff,
COMPLETION_MIN = 1e-6   # then, in a second pass, any numerically independent one
VALUE_TOL = 1e-9        # computed values against stated ones; uniform probabilities
MIXED_TOL = 1e-6        # a reduction counts as mixed below purity 1 - MIXED_TOL
NEGATIVE_GAP = 1e-3     # infeasible setups stay this far below unit fidelity


_REALS = (float, int, np.floating, np.integer)


def check_tolerance(tol: float) -> float:
    """Return ``tol`` if it is a finite Python or numpy real number strictly
    between 0 and 1; raise ValueError otherwise, a bool, a string or None
    included, since any other value gives plausible but wrong verdicts or
    fails inside ``math``."""
    if (isinstance(tol, bool) or not isinstance(tol, _REALS)
            or not (math.isfinite(tol) and 0.0 < tol < 1.0)):
        raise ValueError("tol must be a finite number strictly between 0 and 1, "
                         "got %r" % (tol,))
    return tol


class CapacityError(ValueError):
    """A query would exceed a supported size: a register past ``MAX_QUBITS``,
    a Pauli kernel (and so a teleport family) or a dense-coding stack past
    ``MAX_STACK_ENTRIES``, or a clique search past ``MAX_COLOURINGS``."""


def check_stack(entries: int, need: str, *args) -> None:
    """Refuse a stack of ``entries`` entries above ``MAX_STACK_ENTRIES`` with
    ``CapacityError``, saying ``need % args``, over the limit of 2^24."""
    if entries > MAX_STACK_ENTRIES:
        raise CapacityError("%s, over the limit of 2^%d"
                            % (need % args, MAX_STACK_ENTRIES.bit_length() - 1))


def check_pauli_qubits(k: int) -> None:
    """The one k limit of the Pauli table, teleport families and dense coding:
    refuse k >= 9, whose Walsh-Hadamard transform of a (2**k, 2**k) matrix's
    flip diagonals sums 8**k terms, above ``MAX_STACK_ENTRIES``."""
    check_stack(8 ** k, "a Walsh-Hadamard transform on %d qubits sums 8^%d terms", k, k)


def check_integer(what: str, *values) -> None:
    """Refuse the first of ``values`` that is not a Python or numpy integer,
    bools included, which would otherwise be read as 0 and 1, fail inside
    numpy, or share a memo entry with an equal integer."""
    for value in values:
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
            raise ValueError("%s must be an integer, got %r" % (what, value))


def check_seed(seed) -> None:
    """Refuse a seed that is not a non-negative integer; no result reads one."""
    check_integer("seed", seed)
    if seed < 0:
        raise ValueError("seed must be a non-negative integer, got %r" % seed)


def check_iterable(what: str, values) -> tuple:
    """``values`` as a tuple, refusing a value that is not iterable."""
    try:
        return tuple(values)
    except TypeError:
        raise ValueError("%s must be iterable, got %r" % (what, values)) from None


def check_qubits(what: str, qubits: Iterable, n: int | None = None) -> tuple[int, ...]:
    """``qubits`` as a tuple, refusing, in this order, a value that is not
    iterable (a bare qubit), an entry that is not an integer
    (``check_integer``), a repeated qubit and, when the register size ``n`` is
    given, a qubit outside range(n).  The one qubit-list check of every entry
    point, run where the list enters, before any by-value memo sees it."""
    qubits = check_iterable(what + " list", qubits)
    check_integer(what, *qubits)
    if len(set(qubits)) != len(qubits):
        raise ValueError("repeated %s in %s" % (what, list(qubits)))
    if n is not None:
        for q in qubits:
            if not 0 <= q < n:
                raise ValueError("%s %d is out of range for a %d-qubit resource"
                                 % (what, q, n))
    return qubits


def _lock(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


def qubit_count(dim: int) -> int:
    """n for a dimension of 2**n; raise unless n is at most MAX_QUBITS."""
    n = dim.bit_length() - 1
    if dim <= 0 or dim != 1 << n:
        raise ValueError(f"dimension {dim} is not a power of two")
    if n > MAX_QUBITS:
        raise CapacityError(f"{n} qubits exceeds the {MAX_QUBITS}-qubit capacity")
    return n


@dataclass(frozen=True, eq=False)
class PureState:
    """Normalized complex amplitudes over the 2**n computational labels."""

    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        arr = np.array(self.amplitudes, dtype=np.complex128)
        if arr.ndim != 1:
            raise ValueError("amplitudes must be a flat vector")
        qubit_count(arr.size)
        norm = float(np.linalg.norm(arr))
        # written so NaN fails too
        if not abs(norm - 1.0) <= NORM_TOL:
            raise ValueError(f"state norm {norm!r} deviates from 1 beyond {NORM_TOL}")
        object.__setattr__(self, "amplitudes", _lock(arr))

    @property
    def num_qubits(self) -> int:
        return self.amplitudes.size.bit_length() - 1

    @property
    def dim(self) -> int:
        return self.amplitudes.size

    @classmethod
    def from_kets(cls, terms: Mapping[str, complex] | Iterable[tuple[str, complex]],
                  normalize: bool = False) -> "PureState":
        """Build a state from {label: amplitude} ket terms; see ``ket_vector``."""
        return cls(ket_vector(terms, normalize))

    def ket_terms(self) -> list[tuple[str, complex]]:
        """(label, amplitude) pairs above ``AMP_TOL`` in label order."""
        n = self.num_qubits
        return [(format(i, f"0{n}b") if n else "", complex(a))
                for i, a in enumerate(self.amplitudes) if abs(a) > AMP_TOL]


def ket_vector(terms: Mapping[str, complex] | Iterable[tuple[str, complex]],
               normalize: bool = False) -> np.ndarray:
    """The amplitude vector of {label: amplitude} ket terms, duplicate labels
    summed.

    Labels are bit strings of one common length, at most ``MAX_QUBITS``: a
    wider label is refused before the vector is allocated.  With
    normalize=True the vector is rescaled to unit norm, so printed
    prefactors can be ignored.
    """
    items = list(terms.items()) if isinstance(terms, Mapping) else list(terms)
    if not items:
        raise ValueError("at least one ket term is required")
    width = len(items[0][0])
    qubit_count(1 << width)
    vec = np.zeros(1 << width, dtype=np.complex128)
    for label, amp in items:
        if len(label) != width or set(label) - {"0", "1"}:
            raise ValueError(f"bad ket label {label!r}")
        vec[int(label, 2)] += amp
    if normalize:
        with np.errstate(over="ignore"):
            norm = np.linalg.norm(vec)
        if not math.isfinite(norm):
            raise ValueError("ket terms overflow the float range")
        if norm < NORM_TOL:
            raise ValueError("cannot normalize the zero vector")
        vec = vec / norm
    return vec


# Single-qubit constants.  is2 denotes i*sigma_2, the real rotation used in
# correction tables so that every allowed operation has real entries.
SIGMA = {
    "s0": np.eye(2, dtype=np.complex128),
    "s1": np.array([[0, 1], [1, 0]], dtype=np.complex128),
    "s2": np.array([[0, -1j], [1j, 0]], dtype=np.complex128),
    "is2": np.array([[0, 1], [-1, 0]], dtype=np.complex128),
    "s3": np.array([[1, 0], [0, -1]], dtype=np.complex128),
}
for _m in SIGMA.values():
    _m.setflags(write=False)

# Pauli indices 0..3 of corrections, dense-coding encodings and dressings
PAULI_ORDER = ("s0", "s1", "is2", "s3")


class PauliTable(NamedTuple):
    """All 4**k products, qubit 0 slowest, in the binary (x, z) form: product
    ``x`` is named ``names[x]`` and maps amplitudes ``a`` to
    ``walsh[z[x], t] * a[t ^ flip[x]]`` at each row ``t``, with ``walsh`` the
    +-1 Sylvester-Hadamard matrix, (-1)^popcount(z & t) at [z, t]."""

    names: tuple[tuple[str, ...], ...]
    flip: np.ndarray              # (4**k,) bits each product flips
    z: np.ndarray                 # (4**k,) bits whose parity with t negates row t
    walsh: np.ndarray             # (2**k, 2**k) int8, entries +-1


@functools.lru_cache(maxsize=None)
def pauli_table(k: int) -> PauliTable:
    """The read-only table of all 4**k Pauli products on k qubits, in the
    binary (x, z) form of Dehaene & De Moor, PRA 68, 042318 (2003): s1 and
    is2 flip their qubit's bit, is2 and s3 negate rows where it is 1.
    Refuses k past ``check_pauli_qubits``."""
    check_pauli_qubits(k)
    words = np.arange(4 ** k)[:, None] >> 2 * np.arange(k - 1, -1, -1) & 3
    weights = 1 << np.arange(k - 1, -1, -1)
    walsh = functools.reduce(np.kron, [np.array([[1, 1], [1, -1]], dtype=np.int8)] * k,
                             np.ones((1, 1), dtype=np.int8))
    return PauliTable(tuple(itertools.product(PAULI_ORDER, repeat=k)),
                      _lock(((words ^ words >> 1) & 1) @ weights),
                      _lock((words >> 1) @ weights), _lock(walsh))


@functools.lru_cache(maxsize=None)
def _diagonal_index(k: int) -> np.ndarray:
    """(2**k, 2**k) flat indices (t ^ f) * 2**k + t of the entries on each
    flip diagonal f of a (2**k, 2**k) matrix: 4**k entries, 512 KiB at
    k = 8.  Left writeable, since ``np.take`` copies a read-only index on
    every call; only ``flip_diagonals`` reads it."""
    t = np.arange(2 ** k)
    index = t ^ t[:, None]
    index <<= k
    index |= t
    return index


def flip_diagonals(a: np.ndarray) -> np.ndarray:
    """The flip diagonals h[..., f, t] = a[..., t ^ f, t] of a (2**k, 2**k)
    matrix or of each matrix of a (..., 2**k, 2**k) stack, gathered by one
    ``np.take`` of 4**k entries per matrix into a fresh C-contiguous array,
    whatever the memory layout of ``a``."""
    a = np.asarray(a)
    if a.ndim < 2 or a.shape[-2] != a.shape[-1]:
        raise ValueError("matrix must be square")
    k = qubit_count(a.shape[-1])
    return np.take(a.reshape(a.shape[:-2] + (4 ** k,)), _diagonal_index(k), axis=-1)


def pauli_traces(h: np.ndarray) -> np.ndarray:
    """Tr(P_x a) for every product P_x of ``pauli_table(k)``, in table order,
    from the flip diagonals h = ``flip_diagonals(a)`` of a matrix or stack.

    P_x has entry H[z[x], t] at (t, t ^ flip[x]), with H the table's +-1
    Sylvester-Hadamard matrix ``walsh``, so Tr(P_x a) = (h @ H)[flip[x], z[x]]:
    one matmul by H, the Walsh-Hadamard transform of every diagonal, gives
    all 4**k traces."""
    k = h.shape[-1].bit_length() - 1
    _, flip, z, walsh = pauli_table(k)
    terms = h @ walsh
    return np.take(terms.reshape(terms.shape[:-2] + (4 ** k,)), flip << k | z, axis=-1)


def pauli_coefficients(a: np.ndarray) -> np.ndarray:
    """Tr(P_x a) for every product P_x of ``pauli_table(k)``, in table order,
    of a (2**k, 2**k) matrix or of each matrix of a (..., 2**k, 2**k) stack:
    ``pauli_traces(flip_diagonals(a))``, one gather of 4**k entries and one
    Walsh-Hadamard matmul per matrix."""
    return pauli_traces(flip_diagonals(a))


def apply_paulis(rows: np.ndarray, names: Sequence[str]) -> np.ndarray:
    """The product of ``SIGMA[names[q]]`` on each qubit q, applied to each
    row of a (..., 2**k) stack: row x of ``pauli_table(k)``, so entry t is
    ``walsh[z[x], t] * rows[..., t ^ flip[x]]``, times (-i)**m for the m names
    that are s2 = -i is2.  ``+ 0.0`` turns every -0.0 into 0.0, so each part
    of a nonzero amplitude has the sign the dense matrices give it."""
    rows = np.asarray(rows)
    k = qubit_count(rows.shape[-1])
    if len(names) != k:
        raise ValueError("%d Pauli names for %d qubits" % (len(names), k))
    x = 0
    for name in names:
        try:
            x = x << 2 | PAULI_ORDER.index("is2" if name == "s2" else name)
        except ValueError:
            raise ValueError("unknown Pauli %r, expected one of %s"
                             % (name, ", ".join(SIGMA))) from None
    _, flip, z, walsh = pauli_table(k)
    phase = (1, -1j, -1, 1j)[names.count("s2") % 4]
    return phase * walsh[z[x]] * rows[..., np.arange(2 ** k) ^ flip[x]] + 0.0


def _sender_index(n: int, subsets: tuple[tuple[int, ...], ...]) -> np.ndarray:
    """The read-only (S, 2^k, 2^(n-k)) gather of every subset's sender-major
    matrix: entry [i, t_s, t_r] is the flat amplitude index where subset i's
    qubits, in its order, read t_s and the other qubits, ascending, read t_r.
    Each subset is valid, distinct qubits in range, and all have k of them."""
    flat = np.arange(1 << n, dtype=np.intp).reshape((2,) * n)
    return _lock(np.stack([flat.transpose(list(s) + [q for q in range(n) if q not in s])
                           .reshape(1 << len(s), -1) for s in subsets]))


# an index of at most INDEX_MEMO_ENTRIES entries (512 KiB) is kept, by value,
# 256 of them at most (128 MiB); a larger one is built per call and not kept
INDEX_MEMO_ENTRIES = 2 ** 16
_cached_sender_index = functools.lru_cache(maxsize=256)(_sender_index)


def sender_index(n: int, subsets: tuple[tuple[int, ...], ...],
                 memo: bool = True) -> np.ndarray:
    """``_sender_index(n, subsets)``, memoized when ``memo`` holds and it has
    at most ``INDEX_MEMO_ENTRIES`` entries.  Every reduction, local unitary
    and dense-coding encoding reads amplitudes through it."""
    if memo and len(subsets) << n <= INDEX_MEMO_ENTRIES:
        return _cached_sender_index(n, subsets)
    return _sender_index(n, subsets)


def reduced_densities(amplitudes: np.ndarray, subsets: tuple[tuple[int, ...], ...],
                      memo: bool = True) -> np.ndarray:
    """The (S, 2^k, 2^k) stack of the reductions of a state's amplitudes onto
    each k-qubit subset, its qubits in the listed order, from one gather
    through ``sender_index(n, subsets, memo)`` and one stacked psi @ psi^dag.
    Each subset is valid, distinct qubits in range, and all have k of them."""
    psi = amplitudes[sender_index(amplitudes.size.bit_length() - 1, subsets, memo)]
    return psi @ psi.conj().transpose(0, 2, 1)


# only tests and demos call tensor and apply_local; bench/tracer.py wraps both by name
def tensor(a: PureState, b: PureState) -> PureState:
    """Kronecker product; a's qubits occupy the leading label positions."""
    if a.num_qubits + b.num_qubits > MAX_QUBITS:
        raise CapacityError("tensor product exceeds the qubit capacity")
    return PureState(np.kron(a.amplitudes, b.amplitudes))


def apply_local(state: PureState, u: np.ndarray,
                targets: Sequence[int]) -> PureState:
    """Apply a unitary matrix to the listed qubits, identity elsewhere.

    The order of targets fixes which qubit each tensor factor of u acts on.
    u must be square and unitary within ``UNITARY_TOL``.  The state's norm
    deviation and the matrix's add up in the output, so an output that only
    the two together push past ``NORM_TOL`` is rescaled to unit norm, not
    refused; every other output is returned as computed.
    """
    mat = np.asarray(u, dtype=np.complex128)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError("unitary must be square")
    n = state.num_qubits
    targets = check_qubits("target qubit", targets, n)
    if mat.shape[0] != 1 << len(targets):
        raise ValueError("operator size does not match target count")
    dev = np.abs(mat.conj().T @ mat - np.eye(mat.shape[0])).max()
    if not dev <= UNITARY_TOL:  # written so NaN fails too
        raise ValueError(f"matrix fails unitarity by {dev:.3e}")
    index, = sender_index(n, (targets,))
    psi = np.empty_like(state.amplitudes)
    psi[index] = mat @ state.amplitudes[index]
    norm = np.linalg.norm(psi)
    if not abs(norm - 1.0) <= NORM_TOL:
        psi /= norm
    return PureState(psi)


def reduced_density(state: PureState, keep: Sequence[int]) -> np.ndarray:
    """Partial trace onto the kept qubits, ordered as listed, as a read-only
    (2**k, 2**k) array."""
    keep = check_qubits("kept qubit", keep, state.num_qubits)
    if not keep:
        raise ValueError("keep must be a nonempty set of distinct qubits")
    rho, = reduced_densities(state.amplitudes, (keep,))
    return _lock(rho)


def purity(rho: np.ndarray) -> float:
    """Tr(rho**2); equals 1 exactly for pure states."""
    mat = np.asarray(rho)
    return float(np.trace(mat @ mat).real)
