"""Named resource states and measurement bases.

Every state and basis used by the protocol suites is constructed here from
its ket list, never from a stored amplitude blob, so the normalization and
orthogonality invariants are recomputed on every call.  A few printed sources
of these sets circulate with transcription defects (sign-pattern duplicates,
kets that break orthogonality or orphan a measurement branch); the operative
vectors below are the corrected ones, and every correction is recorded in
``CORRECTIONS`` with both forms so reports can show as-printed next to
as-corrected.
"""

from __future__ import annotations

import functools
import inspect
import math
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Callable, Mapping, Sequence

import numpy as np

from .states import (ASSERT_TOL, GRAM_TOL, PureState, apply_paulis, ket_vector,
                     qubit_count)

__all__ = [
    "NamedState",
    "NamedBasis",
    "BasisCorrection",
    "CORRECTIONS",
    "make_state",
    "make_basis",
    "state_names",
    "basis_names",
    "validate_orthonormal",
]

SQ2 = math.sqrt(2.0)
SQ3 = math.sqrt(3.0)
SQ6 = math.sqrt(6.0)


@dataclass(frozen=True)
class NamedState:
    """A catalog state: resolved name, read-only parameters, and the state."""

    name: str
    state: PureState
    params: Mapping[str, float] = field(default_factory=dict)
    slocc: str | None = None
    note: str = ""

    def __post_init__(self) -> None:
        object.__setattr__(self, "params", MappingProxyType(dict(self.params)))

    @property
    def num_qubits(self) -> int:
        return self.state.num_qubits


@dataclass(frozen=True, eq=False)
class NamedBasis:
    """Ordered orthonormal vectors with outcome labels: row i of the
    read-only (m, 2**q) ``matrix`` is the vector labeled ``labels[i]``.

    The rows may span a proper subspace; measurement plans complete the
    set before use.  ``complete`` is True only when the count equals the
    full dimension.  Bases compare by identity, as their arrays cannot hash.
    """

    name: str
    labels: tuple[str, ...]
    matrix: np.ndarray

    def __post_init__(self) -> None:
        mat = np.array(self.matrix, dtype=np.complex128)
        if mat.ndim != 2 or not mat.size:
            raise ValueError("basis %r needs a non-empty (m, 2**q) matrix, got "
                             "shape %s" % (self.name, mat.shape))
        if len(self.labels) != len(mat):
            raise ValueError("label/vector count mismatch")
        qubit_count(mat.shape[1])
        mat.flags.writeable = False
        object.__setattr__(self, "matrix", mat)
        # one Gram check: unit diagonals to GRAM_TOL are unit norms to half
        # of it, tighter than NORM_TOL, and NaN fails both comparisons
        rep = validate_orthonormal(self)
        if not rep["ok"]:
            raise ValueError(
                "basis %r is not orthonormal: max off-diagonal %.3e, "
                "max norm deviation %.3e"
                % (self.name, rep["max_offdiag"], rep["max_norm_dev"])
            )

    @property
    def num_qubits(self) -> int:
        return self.dim.bit_length() - 1

    @property
    def dim(self) -> int:
        return self.matrix.shape[1]

    @property
    def complete(self) -> bool:
        return len(self.matrix) == self.dim

    @property
    def vectors(self) -> tuple[PureState, ...]:
        """Each row as a ``PureState``, for callers at the API boundary."""
        return tuple(map(PureState, self.matrix))


def validate_orthonormal(basis: NamedBasis) -> dict:
    """Gram-matrix report: max off-diagonal, max norm deviation, completeness."""
    m = basis.matrix
    gram = m.conj() @ m.T
    k = gram.shape[0]
    off = gram - np.diag(np.diag(gram))
    max_off = float(np.max(np.abs(off))) if k > 1 else 0.0
    max_norm_dev = float(np.max(np.abs(np.diag(gram).real - 1.0)))
    ok = max_off < GRAM_TOL and max_norm_dev < GRAM_TOL
    return {
        "basis": basis.name,
        "count": k,
        "dim": basis.dim,
        "complete": k == basis.dim,
        "max_offdiag": max_off,
        "max_norm_dev": max_norm_dev,
        "ok": ok,
    }


@dataclass(frozen=True)
class BasisCorrection:
    """Record of one corrected basis vector (or label), both forms kept."""

    basis: str
    label: str
    printed: Mapping[str, complex] | None
    corrected: Mapping[str, complex]
    method: str
    note: str


# ---------------------------------------------------------------------------
# states


# fixed-name states: ket terms (normalized when built), SLOCC class, note
_FIXED_STATES = {
    "GHZ4": ({"0000": 1.0, "1111": 1.0}, "G_abcd", ""),
    "W4": ({"0001": 1.0, "0010": 1.0, "0100": 1.0, "1000": 1.0}, "L_ab3", ""),
    # |0>|phi+>|0> + |1>|phi->|1>, all over sqrt(2)
    "Omega": ({"0000": 1.0, "0110": 1.0, "1001": 1.0, "1111": -1.0}, "G_abcd",
              "cluster state"),
    "Q4": ({"0000": 1.0, "0101": 1.0, "1000": 1.0, "1110": 1.0}, "L_0_{5+3bar}", ""),
    "Q5": ({"0000": 1.0, "1011": 1.0, "1101": 1.0, "1110": 1.0}, "L_0_{7+1bar}", ""),
    "Q4_11": ({"0000": 1.0, "1000": 1.0, "1110": 1.0, "0101": SQ3}, None,
              "teleport-capable member of the Q4 class"),
    "W3": ({"001": 1.0, "010": 1.0, "100": 1.0}, None, ""),
}


def _w_mn(m: float, n: float, rho: float = 0.0, eta: float = 0.0, sigma: float = 0.0) -> PureState:
    if m < 0 or n < 0:
        raise ValueError("W_mn weights must be nonnegative")
    if not math.isfinite(m + n + 1.0):
        raise ValueError("W_mn needs m + n + 1 within the float range, got "
                         "m=%r, n=%r" % (m, n))
    return PureState.from_kets({
        "1000": 1.0,
        "0100": math.sqrt(m) * np.exp(1j * rho),
        "0010": math.sqrt(n) * np.exp(1j * eta),
        "0001": math.sqrt(m + n + 1.0) * np.exp(1j * sigma),
    }, normalize=True)


def _w_pqrs(p: complex, q: complex, r: complex, s: complex) -> PureState:
    try:
        gap = abs(p) ** 2 + abs(q) ** 2 + abs(r) ** 2 - abs(s) ** 2
    except OverflowError:
        raise ValueError("W_pqrs needs |p|^2, |q|^2, |r|^2 and |s|^2 within the "
                         "float range, got p=%r, q=%r, r=%r, s=%r"
                         % (p, q, r, s)) from None
    if abs(gap) > ASSERT_TOL:
        raise ValueError(
            "teleportation-capable W family needs |p|^2+|q|^2+|r|^2 = |s|^2 "
            "(got residual %.3e)" % gap
        )
    return PureState.from_kets({"1000": p, "0100": q, "0010": r, "0001": s},
                               normalize=True)


def _bell(kind: str) -> PureState:
    sign = 1.0 if kind.endswith("+") else -1.0
    if kind.startswith("phi"):
        return PureState.from_kets({"00": 1.0, "11": sign}, normalize=True)
    return PureState.from_kets({"01": 1.0, "10": sign}, normalize=True)


_STATE_ALIASES = {
    "Q1": "GHZ4",
    "GHZ": "GHZ4",
    "Q2": "W4",
    "W": "W4",
    "Q3": "Omega",
}


def _take(params: dict, family: str, names: str) -> list:
    """Pop the required one-letter parameters, naming any that are missing."""
    missing = [k for k in names if k not in params]
    if missing:
        raise ValueError("%s is missing parameters: %s"
                         % (family, ", ".join(missing)))
    return [params.pop(k) for k in names]


@functools.lru_cache(maxsize=1024, typed=True)
def make_state(name: str, /, **params) -> NamedState:
    """Construct a catalog state by name; memoized on the call as written.

    Parametric families: ``W_mn`` (m, n, optional phases rho/eta/sigma),
    ``W_pqrs`` (p, q, r, s with |p|^2+|q|^2+|r|^2=|s|^2), ``GHZ:n`` (n).
    """
    canonical = _STATE_ALIASES.get(name, name)
    if params and canonical not in ("W_mn", "W_pqrs"):
        raise ValueError("state %r takes no parameters, got %s"
                         % (name, ", ".join(sorted(params))))
    if canonical in _FIXED_STATES:
        kets, slocc, note = _FIXED_STATES[canonical]
        return NamedState(canonical, PureState.from_kets(kets, normalize=True),
                          slocc=slocc, note=note)
    if canonical == "W_mn":
        imaginary = sorted(k for k, v in params.items() if isinstance(v, complex))
        if imaginary:
            raise ValueError("W_mn parameters must be real: %s"
                             % ", ".join(imaginary))
        m, n = (float(v) + 0.0 for v in _take(params, "W_mn", "mn"))
        phases = {k: float(params.pop(k, 0.0)) + 0.0 for k in ("rho", "eta", "sigma")}
        if params:
            raise ValueError("unknown W_mn parameters: %s" % sorted(params))
        st = _w_mn(m, n, **phases)
        return NamedState("W_mn", st, params={"m": m, "n": n, **phases})
    if canonical == "W_pqrs":
        vals = [complex(v) + 0j for v in _take(params, "W_pqrs", "pqrs")]
        if params:
            raise ValueError("unknown W_pqrs parameters: %s" % sorted(params))
        st = _w_pqrs(*vals)
        return NamedState(
            "W_pqrs", st,
            params={k: v for k, v in zip("pqrs", vals)},
        )
    if canonical.startswith("GHZ:"):
        text = canonical.split(":", 1)[1]
        try:
            n = int(text)
        except ValueError:
            raise ValueError("GHZ:n needs an integer n, got %r" % text) from None
        if n < 2:
            raise ValueError("GHZ:n needs n >= 2")
        ghz = PureState.from_kets({"0" * n: 1.0, "1" * n: 1.0}, normalize=True)
        return NamedState(canonical, ghz, params={"n": n})
    if canonical.startswith("Bell:"):
        kind = canonical.split(":", 1)[1]
        if kind not in ("phi+", "phi-", "psi+", "psi-"):
            raise ValueError("unknown Bell state %r" % kind)
        return NamedState(canonical, _bell(kind))
    raise ValueError("unknown state name %r" % name)


def state_names() -> list[str]:
    """Concrete (non-parametric) catalog names, for dumps and CLI listings."""
    return [
        "GHZ4", "W4", "Omega", "Q4", "Q5", "Q4_11", "W3",
        "GHZ:3", "GHZ:5",
        "Bell:phi+", "Bell:phi-", "Bell:psi+", "Bell:psi-",
    ]


# ---------------------------------------------------------------------------
# bases


def _basis(name: str, entries: Sequence[tuple[str, Mapping[str, complex]]]) -> NamedBasis:
    return NamedBasis(name, tuple(label for label, _ in entries),
                      [ket_vector(kets, normalize=True) for _, kets in entries])


def _pair_basis(name: str, prefix: str, pairs: Sequence[tuple[str, str]],
                start: int = 1) -> NamedBasis:
    """(|a> +/- |b>)/sqrt(2) for each pair, labeled prefix<k>+ / prefix<k>-."""
    entries: list[tuple[str, Mapping[str, complex]]] = []
    for k, (a, b) in enumerate(pairs, start=start):
        entries.append(("%s%d+" % (prefix, k), {a: 1.0, b: 1.0}))
        entries.append(("%s%d-" % (prefix, k), {a: 1.0, b: -1.0}))
    return _basis(name, entries)


def _bell_basis() -> NamedBasis:
    return _basis("bell", [
        ("phi+", {"00": 1.0, "11": 1.0}),
        ("phi-", {"00": 1.0, "11": -1.0}),
        ("psi+", {"01": 1.0, "10": 1.0}),
        ("psi-", {"01": 1.0, "10": -1.0}),
    ])


def _plus_minus() -> NamedBasis:
    return _basis("plus_minus", [("+", {"0": 1.0, "1": 1.0}),
                                 ("-", {"0": 1.0, "1": -1.0})])


def _computational(k: int) -> NamedBasis:
    labels = [format(i, "0%db" % k) for i in range(2 ** k)]
    return _basis("computational:%d" % k, [(s, {s: 1.0}) for s in labels])


def _ghz4_full() -> NamedBasis:
    return _pair_basis("ghz4_full", "4GHZ", [
        ("0000", "1111"),
        ("0111", "1000"),
        ("0011", "1100"),
        ("0100", "1011"),
    ])


def _ghz3_full() -> NamedBasis:
    return _pair_basis("ghz3_full", "3GHZ", [
        ("000", "111"),
        ("011", "100"),
        ("001", "110"),
        ("010", "101"),
    ])


def _omega_meas() -> NamedBasis:
    # |00>|phi+> +/- |11>|phi->  and  |01>|phi-> +/- |10>|phi+>
    return _basis("omega_meas", [
        ("Omega1+", {"0000": 1.0, "0011": 1.0, "1100": 1.0, "1111": -1.0}),
        ("Omega1-", {"0000": 1.0, "0011": 1.0, "1100": -1.0, "1111": 1.0}),
        ("Omega2+", {"0100": 1.0, "0111": -1.0, "1000": 1.0, "1011": 1.0}),
        ("Omega2-", {"0100": 1.0, "0111": -1.0, "1000": -1.0, "1011": -1.0}),
    ])


def _eta_zeta_w(p: complex, q: complex, r: complex, s: complex) -> NamedBasis:
    pc, qc, rc, sc = np.conj(p), np.conj(q), np.conj(r), np.conj(s)
    name = "eta_zeta_w11" if (p, q, r, s) == (1.0, 1.0, 1.0, SQ3) else "eta_zeta_w"
    return _basis(name, [
        ("eta+", {"0100": pc, "0010": qc, "0001": rc, "1000": sc}),
        ("eta-", {"0100": pc, "0010": qc, "0001": rc, "1000": -sc}),
        ("zeta+", {"1100": pc, "1010": qc, "1001": rc, "0000": sc}),
        ("zeta-", {"1100": pc, "1010": qc, "1001": rc, "0000": -sc}),
    ])


def _rho_q4() -> NamedBasis:
    # corrected kets; printed rho1 uses |1011> and rho2 uses |0011>,|1001>,
    # which breaks the Gram condition (see CORRECTIONS)
    return _basis("rho_q4", [
        ("rho1+", {"0000": 1.0, "0100": 1.0, "1001": 1.0, "1110": 1.0}),
        ("rho1-", {"0000": 1.0, "0100": 1.0, "1001": -1.0, "1110": -1.0}),
        ("rho2+", {"0001": 1.0, "0110": 1.0, "1000": 1.0, "1100": 1.0}),
        ("rho2-", {"0001": 1.0, "0110": 1.0, "1000": -1.0, "1100": -1.0}),
    ])


def _tau_q4() -> NamedBasis:
    return _pair_basis("tau_q4", "tau", [
        ("0000", "1001"),
        ("0001", "1000"),
        ("0100", "1110"),
        ("0110", "1100"),
    ])


def _eta_zeta_q4_11() -> NamedBasis:
    return _basis("eta_zeta_q4_11", [
        ("eta+", {"0000": 1.0, "0100": 1.0, "0111": 1.0, "1010": SQ3}),
        ("eta-", {"0000": 1.0, "0100": 1.0, "0111": 1.0, "1010": -SQ3}),
        ("zeta+", {"1000": 1.0, "1100": 1.0, "1111": 1.0, "0010": SQ3}),
        ("zeta-", {"1000": 1.0, "1100": 1.0, "1111": 1.0, "0010": -SQ3}),
    ])


def _varphi_q5() -> NamedBasis:
    return _basis("varphi_q5", [
        ("varphi1+", {"0000": 1.0, "0111": 1.0, "1101": 1.0, "1110": 1.0}),
        ("varphi1-", {"0000": 1.0, "0111": 1.0, "1101": -1.0, "1110": -1.0}),
        ("varphi2+", {"0101": 1.0, "0110": 1.0, "1000": 1.0, "1111": 1.0}),
        ("varphi2-", {"0101": 1.0, "0110": 1.0, "1000": -1.0, "1111": -1.0}),
    ])


def _xi_q5() -> NamedBasis:
    return _pair_basis("xi_q5", "xi", [
        ("0000", "1101"),
        ("0111", "1110"),
        ("0101", "1000"),
        ("0110", "1111"),
    ])


def _omega3_q5() -> NamedBasis:
    return _pair_basis("omega3_q5", "omega", [
        ("000", "101"),
        ("001", "100"),
        ("010", "111"),
        ("011", "110"),
    ])


# omega16 groups: each group of four kets carries the same four sign patterns.
_OMEGA16_GROUPS = [
    ("0000", "0110", "1001", "1111"),
    ("0001", "0111", "1000", "1110"),
    ("0010", "0100", "1011", "1101"),
    ("0011", "0101", "1010", "1100"),
]
_OMEGA16_PATTERNS = [
    (1, 1, 1, -1),
    (1, 1, -1, 1),
    (1, -1, 1, 1),
    (1, -1, -1, -1),
]


def _omega16() -> NamedBasis:
    entries = []
    k = 1
    for kets in _OMEGA16_GROUPS:
        for pattern in _OMEGA16_PATTERNS:
            entries.append(("Omega%d" % k, dict(zip(kets, map(float, pattern)))))
            k += 1
    return _basis("omega16", entries)


_PAULI_NAMES = ("s0", "s1", "s2", "s3")


def _check_pauli_index(i: int) -> str:
    if isinstance(i, bool) or not isinstance(i, (int, np.integer)):
        raise ValueError("Pauli index must be an integer, got %r" % (i,))
    if i not in (0, 1, 2, 3):
        raise ValueError("Pauli index must be 0..3, got %r" % i)
    return _PAULI_NAMES[i]


def _dress(basis: NamedBasis, name: str, *indices: int) -> NamedBasis:
    """Apply Pauli ``indices[q]`` of s0..s3 to qubit q of every vector of a
    basis, s0 to the qubits past the last index."""
    word = [_check_pauli_index(i) for i in indices]
    word += ["s0"] * (basis.num_qubits - len(word))
    return NamedBasis(name, basis.labels, apply_paulis(basis.matrix, word))


def _pi_2q(i: int = 0, j: int = 0) -> NamedBasis:
    base = _pair_basis("", "pi", [("0000", "1111"), ("0011", "1100")])
    return _dress(base, "pi_2q", i, j)


def _pi_3q(i: int = 0, j: int = 0, k: int = 0) -> NamedBasis:
    base = _pair_basis("", "pi", [("0000", "1111"), ("0001", "1110")], start=3)
    return _dress(base, "pi_3q", i, j, k)


def _omega34_3q(i: int = 0, j: int = 0) -> NamedBasis:
    # corrected kets: phi+_ab pairs with |10>,|11> on (c,1) and phi-_ab with
    # |01>,|00>; the printed Omega3 pair uses |00>/|11> and never occurs
    base = _basis("", [
        ("Omega3+", {"0010": 1.0, "1110": 1.0, "0001": 1.0, "1101": -1.0}),
        ("Omega3-", {"0010": 1.0, "1110": 1.0, "0001": -1.0, "1101": 1.0}),
        ("Omega4+", {"0011": 1.0, "1111": 1.0, "0000": 1.0, "1100": -1.0}),
        ("Omega4-", {"0011": 1.0, "1111": 1.0, "0000": -1.0, "1100": 1.0}),
    ])
    return _dress(base, "omega34_3q", i, 0, j)


def _sigma_w() -> NamedBasis:
    return _pair_basis("sigma_w", "Sigma", [
        ("0010", "0011"),
        ("0100", "0101"),
        ("1000", "1001"),
        ("0000", "0001"),
    ])


_BASIS_BUILDERS: dict[str, Callable[..., NamedBasis]] = {
    "bell": _bell_basis,
    "plus_minus": _plus_minus,
    "computational:1": lambda: _computational(1),
    "computational:2": lambda: _computational(2),
    "ghz4_full": _ghz4_full,
    "ghz3_full": _ghz3_full,
    "omega_meas": _omega_meas,
    "eta_zeta_w11": lambda: _eta_zeta_w(1.0, 1.0, 1.0, SQ3),
    "eta_zeta_w": _eta_zeta_w,
    "rho_q4": _rho_q4,
    "tau_q4": _tau_q4,
    "eta_zeta_q4_11": _eta_zeta_q4_11,
    "varphi_q5": _varphi_q5,
    "xi_q5": _xi_q5,
    "omega3_q5": _omega3_q5,
    "omega16": _omega16,
    "pi_2q": _pi_2q,
    "pi_3q": _pi_3q,
    "omega34_3q": _omega34_3q,
    "sigma_w": _sigma_w,
}


@functools.lru_cache(maxsize=1024, typed=True)
def make_basis(name: str, /, **params) -> NamedBasis:
    """Construct a catalog basis by name; memoized on the call as written.

    Parametric bases: ``pi_2q(i, j)``, ``pi_3q(i, j, k)``,
    ``omega34_3q(i, j)`` take Pauli dressing indices 0..3;
    ``eta_zeta_w(p, q, r, s)`` matches the generalized W family.
    """
    try:
        builder = _BASIS_BUILDERS[name]
    except KeyError:
        raise ValueError("unknown basis name %r" % name) from None
    takes = inspect.signature(builder).parameters
    required = {k for k, p in takes.items() if p.default is p.empty}
    if not required <= set(params) <= set(takes):
        raise ValueError("basis %r takes %s, got %s" % (
            name, "parameters " + ", ".join(takes) if takes else "no parameters",
            ", ".join(params) or "none"))
    return builder(**params)


def basis_names() -> list[str]:
    """Basis names constructible without parameters.

    ``eta_zeta_w`` is omitted: it always needs its family coefficients.
    The Pauli-dressed bases appear here with identity dressing.
    """
    return sorted(n for n in _BASIS_BUILDERS if n != "eta_zeta_w")


# ---------------------------------------------------------------------------
# correction records
#
# Operative vectors above differ from their printed sources exactly where
# listed here.  "printed" is the circulated ket content, "corrected" the one
# used; "method" names the derivation that fixes it and is re-run by the
# test suite as the certificate.

CORRECTIONS: tuple[BasisCorrection, ...] = (
    BasisCorrection(
        basis="omega16",
        label="Omega15",
        printed={"0011": 1, "0101": 1, "1010": -1, "1100": 1},
        corrected={"0011": 1, "0101": -1, "1010": 1, "1100": 1},
        method="sign-completion: unique pattern (up to global sign) in "
               "span{0011,0101,1010,1100} orthogonal to Omega13, Omega14, "
               "Omega16; brute force over the 8 sign patterns",
        note="printed row repeats the Omega14 pattern",
    ),
    BasisCorrection(
        basis="rho_q4",
        label="rho1+/-",
        printed={"0000": 1, "0100": 1, "1001": 1, "1011": 1},
        corrected={"0000": 1, "0100": 1, "1001": 1, "1110": 1},
        method="re-derivation of the (a,1,3,4)x(2) expansion of psi x Q4; "
               "printed set fails the Gram condition at 1/4",
        note="the +/- sign applies to the last two kets",
    ),
    BasisCorrection(
        basis="rho_q4",
        label="rho2+/-",
        printed={"0001": 1, "0011": 1, "1001": 1, "1100": 1},
        corrected={"0001": 1, "0110": 1, "1000": 1, "1100": 1},
        method="re-derivation of the (a,1,3,4)x(2) expansion of psi x Q4",
        note="printed |1001> collides with rho1",
    ),
    BasisCorrection(
        basis="tau_q4",
        label="tau3+/-",
        printed={"0100": 1, "1011": 1},
        corrected={"0100": 1, "1110": 1},
        method="re-derivation: the beta branch of the expansion populates "
               "|1110>, not |1011>; the printed pair still fires but its "
               "residual never depends on the input's second amplitude, and "
               "a quarter of the probability leaks off the declared basis",
        note="",
    ),
    BasisCorrection(
        basis="tau_q4",
        label="tau4+/-",
        printed={"0011": 1, "1100": 1},
        corrected={"0110": 1, "1100": 1},
        method="re-derivation: the alpha branch populates |0110>, not "
               "|0011>; same defect as tau3 on the other arm",
        note="",
    ),
    BasisCorrection(
        basis="omega34_3q",
        label="Omega3+/-",
        printed={"0000": 1, "0011": 1, "1100": 1, "1111": -1},
        corrected={"0010": 1, "1110": 1, "0001": 1, "1101": -1},
        method="re-derivation of the (a,b,c,1)x(2,3,4) expansion: the "
               "phi+_ab component pairs with |10>,|11> on (c,1), never "
               "|00>/|11>; printed Omega3 has zero outcome probability",
        note="printed kets written here in phi/ket product shorthand "
             "(phi+|00> +/- phi-|11>) expanded to the computational frame",
    ),
    BasisCorrection(
        basis="sigma_w",
        label="Sigma4+/-",
        printed=None,
        corrected={"0000": 1, "0001": 1},
        method="label fix only: the printed list names its fourth pair "
               "Sigma1 a second time; ket content unchanged",
        note="",
    ),
)


def corrections_for(basis_name: str) -> list[BasisCorrection]:
    return [c for c in CORRECTIONS if c.basis == basis_name]
