"""Exact pure-state linear algebra for small qubit registers.

Big-endian labeling throughout: qubit 0 is the leftmost symbol of a ket
label, so in |011> qubit 0 is |0> and qubits 1, 2 are |1>.  States and
operators are immutable values; every operation returns a fresh object.
"""
from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Mapping, NamedTuple, Sequence

import numpy as np

MAX_QUBITS = 12
# complex entries of one stacked array (dense-coding encodings, the Pauli-table
# gather of pauli_coefficients, teleport probes tensored with the resource and
# one correction prefix's scores, probes x 4^k x 2^k): 256 MiB.  The Pauli table
# keeps 4^k x 2^k int8 signs under it too, so k <= 8 (16 MiB)
MAX_STACK_ENTRIES = 2 ** 24
# entries of one slice of a stack worked in slices (the teleport correction
# scores of the open outcomes): 32 MiB, so a slice stays cache- and RSS-sized
# although one outcome may take up to MAX_STACK_ENTRIES
SLICE_ENTRIES = 2 ** 21

# Tolerances.  Every module imports these; none defines its own.
NORM_TOL = 1e-12        # |norm - 1| of a PureState
UNITARY_TOL = 1e-12     # max |U^dag U - I| of a LocalUnitary
HERMITIAN_TOL = 1e-12   # DensityMatrix hermiticity and unit trace
PSD_TOL = 1e-10         # most negative DensityMatrix eigenvalue allowed
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


def check_tolerance(tol: float, name: str = "tol", allow_zero: bool = False) -> float:
    """Return ``tol`` if it is a finite number strictly between 0 and 1 (or
    0 itself with ``allow_zero``, for drop tolerances); raise ValueError
    otherwise, since any other value gives plausible but wrong verdicts."""
    if not (math.isfinite(tol) and (0.0 <= tol if allow_zero else 0.0 < tol)
            and tol < 1.0):
        raise ValueError("%s must be a finite number %s, got %r"
                         % (name, "in [0, 1)" if allow_zero
                            else "strictly between 0 and 1", tol))
    return tol


class CapacityError(ValueError):
    """A register would exceed the supported qubit count."""


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

    def ket_terms(self, tol: float = AMP_TOL) -> list[tuple[str, complex]]:
        """Nonzero (label, amplitude) pairs in label order."""
        check_tolerance(tol, allow_zero=True)
        n = self.num_qubits
        return [(format(i, f"0{n}b") if n else "", complex(a))
                for i, a in enumerate(self.amplitudes) if abs(a) > tol]


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


def basis_state(label: str) -> PureState:
    """Computational basis ket for a bit-string label."""
    return PureState.from_kets({label: 1.0})


@dataclass(frozen=True, eq=False)
class LocalUnitary:
    """Unitary matrix on a small register, checked to UNITARY_TOL."""

    matrix: np.ndarray
    name: str = ""

    def __post_init__(self) -> None:
        mat = np.array(self.matrix, dtype=np.complex128)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValueError("unitary must be square")
        qubit_count(mat.shape[0])
        dev = np.abs(mat.conj().T @ mat - np.eye(mat.shape[0])).max()
        if dev > UNITARY_TOL:
            raise ValueError(f"matrix fails unitarity by {dev:.3e}")
        object.__setattr__(self, "matrix", _lock(mat))
        object.__setattr__(self, "name", str(self.name))

    @property
    def num_qubits(self) -> int:
        return self.matrix.shape[0].bit_length() - 1


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Hermitian, unit-trace, positive-semidefinite operator."""

    matrix: np.ndarray

    def __post_init__(self) -> None:
        mat = np.array(self.matrix, dtype=np.complex128)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValueError("density matrix must be square")
        qubit_count(mat.shape[0])
        if np.abs(mat - mat.conj().T).max() > HERMITIAN_TOL:
            raise ValueError("density matrix is not Hermitian within %g" % HERMITIAN_TOL)
        trace = np.trace(mat)
        if abs(trace.real - 1.0) > HERMITIAN_TOL or abs(trace.imag) > HERMITIAN_TOL:
            raise ValueError("density matrix trace deviates from 1")
        if np.linalg.eigvalsh(mat).min() < -PSD_TOL:
            raise ValueError("density matrix has an eigenvalue below %g" % -PSD_TOL)
        object.__setattr__(self, "matrix", _lock(mat))

    @property
    def num_qubits(self) -> int:
        return self.matrix.shape[0].bit_length() - 1


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
    """All 4**k products, qubit 0 slowest: product ``x`` is named
    ``names[x]`` and maps amplitudes ``a`` to ``sign[x, t] * a[t ^ flip[x]]``
    at each row ``t``."""

    names: tuple[tuple[str, ...], ...]
    flip: np.ndarray              # (4**k,) bits each product flips
    sign: np.ndarray              # (4**k, 2**k) int8, entries +-1


@functools.lru_cache(maxsize=None)
def pauli_table(k: int) -> PauliTable:
    """The read-only table of all 4**k Pauli products on k qubits, in the
    binary (x, z) form: s1 and is2 flip their qubit's bit, is2 and s3 negate
    rows where it is 1, so ``sign[x, t]`` is -1 to the parity of z_x & t.
    Refuses k with 8**k above ``MAX_STACK_ENTRIES``."""
    if 8 ** k > MAX_STACK_ENTRIES:
        raise CapacityError("a Pauli table on %d qubits needs 8^%d signs, over the "
                            "limit of 2^%d" % (k, k, MAX_STACK_ENTRIES.bit_length() - 1))
    words = np.arange(4 ** k)[:, None] >> 2 * np.arange(k - 1, -1, -1) & 3
    weights = 1 << np.arange(k - 1, -1, -1)
    t = np.arange(2 ** k)
    # k <= 8, so three XOR folds leave the parity of z & t in bit 0
    parity = t[:, None] & t
    for shift in 1, 2, 4:
        parity ^= parity >> shift
    signs = (1 - 2 * (parity & 1)).astype(np.int8)
    return PauliTable(tuple(itertools.product(PAULI_ORDER, repeat=k)),
                      _lock(((words ^ words >> 1) & 1) @ weights),
                      _lock(signs[(words >> 1) @ weights]))


def _pauli_diagonals(k: int, products: slice = slice(None)) -> np.ndarray:
    """(len(products), 2**k) flat indices (t ^ flip[x]) * 2**k + t of the
    entries each product x of ``pauli_table(k)`` in ``products`` picks from a
    (2**k, 2**k) matrix.  Left writeable, since ``np.take`` copies a
    read-only index on every call; only ``pauli_coefficients`` reads it."""
    t = np.arange(2 ** k)
    index = t ^ pauli_table(k).flip[products, None]
    index <<= k
    index |= t
    return index


# the whole index of every k whose 8**k entries fit SLICE_ENTRIES (k <= 7,
# 16 MiB); a k = 8 index is built per call, a slice at a time, and not kept
_cached_pauli_diagonals = functools.lru_cache(maxsize=None)(_pauli_diagonals)


def pauli_coefficients(a: np.ndarray) -> np.ndarray:
    """Tr(P_x a) for every product P_x of ``pauli_table(k)``, in table order,
    of a (2**k, 2**k) matrix or of each matrix of a (..., 2**k, 2**k) stack.
    P_x has entry sign[x, t] at (t, t ^ flip[x]), so each trace is a signed
    sum along the diagonal a[t ^ flip[x], t], gathered by one ``np.take``
    into a fresh C-contiguous array: the sum over t then rounds the same way
    whatever the memory layout of ``a``.  Products are gathered in slices of
    ``SLICE_ENTRIES`` index entries, which is one slice up to k = 7; each
    row's sum is the same whatever the slicing."""
    a = np.asarray(a)
    if a.ndim < 2 or a.shape[-2] != a.shape[-1]:
        raise ValueError("matrix must be square")
    k = qubit_count(a.shape[-1])
    flat = a.reshape(a.shape[:-2] + (4 ** k,))
    sign = pauli_table(k).sign
    step = SLICE_ENTRIES >> k
    parts = []
    for lo in range(0, 4 ** k, step):
        index = (_cached_pauli_diagonals(k) if step >= 4 ** k
                 else _pauli_diagonals(k, slice(lo, lo + step)))
        terms = np.take(flat, index, axis=-1)
        terms *= sign[lo:lo + step]
        parts.append(terms.sum(-1))
    return parts[0] if len(parts) == 1 else np.concatenate(parts, axis=-1)


def apply_paulis(rows: np.ndarray, names: Sequence[str]) -> np.ndarray:
    """The product of ``SIGMA[names[q]]`` on each qubit q, applied to each
    row of a (..., 2**k) stack: row x of ``pauli_table(k)``, so entry t is
    ``sign[x, t] * rows[..., t ^ flip[x]]``, times (-i)**m for the m names
    that are s2 = -i is2.  ``+ 0.0`` turns every -0.0 into 0.0, so each part
    of a nonzero amplitude has the sign the dense matrices give it."""
    rows = np.asarray(rows)
    k = qubit_count(rows.shape[-1])
    if len(names) != k:
        raise ValueError("%d Pauli names for %d qubits" % (len(names), k))
    x = 0
    for name in names:
        x = x << 2 | PAULI_ORDER.index("is2" if name == "s2" else name)
    _, flip, sign = pauli_table(k)
    phase = (1, -1j, -1, 1j)[names.count("s2") % 4]
    return phase * sign[x] * rows[..., np.arange(2 ** k) ^ flip[x]] + 0.0


def tensor(a: PureState, b: PureState) -> PureState:
    """Kronecker product; a's qubits occupy the leading label positions."""
    if a.num_qubits + b.num_qubits > MAX_QUBITS:
        raise CapacityError("tensor product exceeds the qubit capacity")
    return PureState(np.kron(a.amplitudes, b.amplitudes))


def _resolve_matrix(u: LocalUnitary | np.ndarray) -> np.ndarray:
    if isinstance(u, LocalUnitary):
        return u.matrix
    return LocalUnitary(np.asarray(u)).matrix


def apply_local(state: PureState, u: LocalUnitary | np.ndarray,
                targets: Sequence[int]) -> PureState:
    """Apply a unitary to the listed qubits, identity elsewhere.

    The order of targets fixes which qubit each tensor factor of u acts on.
    """
    mat = _resolve_matrix(u)
    targets = tuple(targets)
    n = state.num_qubits
    if len(set(targets)) != len(targets):
        raise ValueError("duplicate target qubit")
    if any(t < 0 or t >= n for t in targets):
        raise ValueError("target qubit out of range")
    if mat.shape[0] != 1 << len(targets):
        raise ValueError("operator size does not match target count")
    rest = [i for i in range(n) if i not in targets]
    perm = list(targets) + rest
    psi = state.amplitudes.reshape([2] * n).transpose(perm)
    psi = mat @ psi.reshape(1 << len(targets), -1)
    psi = psi.reshape([2] * n).transpose(np.argsort(perm)).reshape(-1)
    return PureState(psi)


def permute_qubits(state: PureState, perm: Sequence[int]) -> PureState:
    """Relabel qubits: qubit i of the input becomes qubit perm[i]."""
    n = state.num_qubits
    perm = tuple(perm)
    if sorted(perm) != list(range(n)):
        raise ValueError("perm must be a permutation of range(num_qubits)")
    inverse = np.argsort(perm)
    out = state.amplitudes.reshape([2] * n).transpose(inverse).reshape(-1)
    return PureState(out)


def inner(a: PureState, b: PureState) -> complex:
    """<a|b> with the left argument conjugated."""
    if a.num_qubits != b.num_qubits:
        raise ValueError("states live on different registers")
    return complex(np.vdot(a.amplitudes, b.amplitudes))


def fidelity(a: PureState, b: PureState) -> float:
    """|<a|b>|**2, insensitive to global phase on either state."""
    return float(abs(inner(a, b)) ** 2)


def reduced_density(state: PureState, keep: Sequence[int]) -> DensityMatrix:
    """Partial trace onto the kept qubits, ordered as listed."""
    keep = tuple(keep)
    n = state.num_qubits
    if not keep or len(set(keep)) != len(keep):
        raise ValueError("keep must be a nonempty set of distinct qubits")
    if any(q < 0 or q >= n for q in keep):
        raise ValueError("kept qubit out of range")
    env = [i for i in range(n) if i not in keep]
    psi = state.amplitudes.reshape([2] * n).transpose(list(keep) + env)
    psi = psi.reshape(1 << len(keep), -1)
    return DensityMatrix(psi @ psi.conj().T)


def purity(rho: DensityMatrix | np.ndarray) -> float:
    """Tr(rho**2); equals 1 exactly for pure states."""
    mat = rho.matrix if isinstance(rho, DensityMatrix) else np.asarray(rho)
    return float(np.trace(mat @ mat).real)


def random_state(num_qubits: int, rng: np.random.Generator) -> PureState:
    """Haar-distributed pure state drawn from the given generator."""
    vec = rng.normal(size=1 << num_qubits) + 1j * rng.normal(size=1 << num_qubits)
    return PureState(vec / np.linalg.norm(vec))


def random_unitary(num_qubits: int, rng: np.random.Generator) -> LocalUnitary:
    """Haar-distributed unitary via QR of a Ginibre matrix."""
    dim = 1 << num_qubits
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    q = q * (np.diagonal(r) / np.abs(np.diagonal(r)))
    return LocalUnitary(q)
