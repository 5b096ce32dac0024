"""Projective product-basis measurements on pure states.

A plan is an ordered list of steps; each step measures a disjoint set of
qubits in a named basis.  Subspace bases are completed automatically with
Gram-Schmidt vectors labeled ``perp0``, ``perp1``, ...  once, when the step
is built.  Enumeration walks every outcome combination exactly (no
sampling), returning normalized residual states together with the original
indices of the surviving qubits.

Teleport scenarios and LOCC protocols both describe their measurements as
``StepSpec`` values (catalog basis names); ``build_plan`` resolves them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

import numpy as np

from .catalog import NamedBasis, make_basis
from .states import DROP_TOL, PureState

__all__ = [
    "StepSpec",
    "MeasurementStep",
    "MeasurementPlan",
    "OutcomeBranch",
    "build_plan",
    "complete_basis",
    "enumerate_outcomes",
    "perp_probability",
    "sample_counts",
]


def complete_basis(basis: NamedBasis) -> NamedBasis:
    """Extend a subspace basis to a complete one.

    Computational unit vectors are Gram-Schmidt orthogonalized against the
    declared vectors (and each other) in index order; survivors are appended
    with labels perp0, perp1, ...
    """
    if basis.complete:
        return basis
    d = basis.dim
    rows = [v.amplitudes for v in basis.vectors]
    labels = list(basis.labels)
    k = 0
    # 0.5 keeps the selection far from roundoff ambiguity; the second pass
    # falls back to accepting any numerically independent column
    for threshold in (0.5, 1e-6):
        for i in range(d):
            if len(rows) == d:
                break
            cand = np.zeros(d, dtype=np.complex128)
            cand[i] = 1.0
            for r in rows:
                cand -= np.vdot(r, cand) * r
            norm = np.linalg.norm(cand)
            if norm > threshold:
                rows.append(cand / norm)
                labels.append("perp%d" % k)
                k += 1
    if len(rows) != d:
        raise ValueError("failed to complete basis %r" % basis.name)
    return NamedBasis(basis.name, tuple(labels),
                      tuple(PureState(r) for r in rows))


@dataclass(frozen=True)
class StepSpec:
    """Measurement step by catalog basis name, resolved by ``build_plan``.

    Teleport scenarios use joint-register coordinates (the unknown state's
    qubits first, then the resource qubits in catalog order); LOCC protocols
    index the candidate register directly.
    """

    qubits: tuple[int, ...]
    basis: str
    basis_params: Mapping[str, object] = field(default_factory=dict)
    party: str = "Alice"


@dataclass(frozen=True)
class MeasurementStep:
    """One projective measurement: ``basis`` applied to ``qubits``.

    The i-th qubit of every basis vector corresponds to ``qubits[i]`` of the
    register being measured, so the tuple order is meaningful.  ``completed``
    is ``basis`` extended to a full basis, computed once here.
    """

    qubits: tuple[int, ...]
    basis: NamedBasis
    party: str = "Alice"
    completed: NamedBasis = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if len(set(self.qubits)) != len(self.qubits):
            raise ValueError("repeated qubit in measurement step")
        if self.basis.num_qubits != len(self.qubits):
            raise ValueError(
                "basis %r is on %d qubits but the step names %d"
                % (self.basis.name, self.basis.num_qubits, len(self.qubits))
            )
        object.__setattr__(self, "completed", complete_basis(self.basis))


@dataclass(frozen=True)
class MeasurementPlan:
    steps: tuple[MeasurementStep, ...]

    def __post_init__(self) -> None:
        seen: set[int] = set()
        for step in self.steps:
            overlap = seen & set(step.qubits)
            if overlap:
                raise ValueError("qubits %s measured twice" % sorted(overlap))
            seen.update(step.qubits)

    @property
    def measured_qubits(self) -> tuple[int, ...]:
        return tuple(q for step in self.steps for q in step.qubits)

    def validate_for(self, num_qubits: int) -> None:
        bad = [q for q in self.measured_qubits if not 0 <= q < num_qubits]
        if bad:
            raise ValueError("plan touches qubits %s outside a %d-qubit register"
                             % (bad, num_qubits))


def build_plan(steps: Iterable[StepSpec]) -> MeasurementPlan:
    """Resolve named steps against the catalog into a measurement plan."""
    return MeasurementPlan(tuple(
        MeasurementStep(s.qubits, make_basis(s.basis, **dict(s.basis_params)),
                        party=s.party)
        for s in steps
    ))


@dataclass(frozen=True)
class OutcomeBranch:
    """One complete outcome combination of a plan."""

    labels: tuple[str, ...]
    probability: float
    state: PureState | None         # None when every qubit was measured
    kept_qubits: tuple[int, ...]    # original indices, ascending
    perp: bool

    @property
    def key(self) -> str:
        return ",".join(self.labels)


def _contract_step(vec: np.ndarray, num_qubits: int, positions: Sequence[int],
                   basis_matrix: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """Project one step; rows of the result are unnormalized residuals."""
    rest = [q for q in range(num_qubits) if q not in positions]
    t = vec.reshape([2] * num_qubits)
    t = t.transpose(list(positions) + rest)
    t = t.reshape(basis_matrix.shape[1], -1)
    return basis_matrix.conj() @ t, rest


def enumerate_outcomes(state: PureState, plan: MeasurementPlan,
                       drop_tol: float = DROP_TOL) -> list[OutcomeBranch]:
    """All outcome branches with probability above ``drop_tol``.

    Probabilities always sum to one before dropping; the returned branches
    carry normalized residual states on the unmeasured qubits.
    """
    if drop_tol < 0.0:
        raise ValueError("drop_tol must be nonnegative")
    plan.validate_for(state.num_qubits)

    # original index of the qubit at each current position
    orig = list(range(state.num_qubits))
    branches: list[tuple[tuple[str, ...], np.ndarray]] = [((), state.amplitudes)]
    for step in plan.steps:
        basis = step.completed
        positions = [orig.index(q) for q in step.qubits]
        matrix = basis.matrix()
        nq = len(orig)
        next_branches: list[tuple[tuple[str, ...], np.ndarray]] = []
        for labels, vec in branches:
            rows, rest = _contract_step(vec, nq, positions, matrix)
            for label, row in zip(basis.labels, rows):
                if float(np.vdot(row, row).real) > drop_tol:
                    next_branches.append((labels + (label,), row))
        branches = next_branches
        orig = [orig[p] for p in range(nq) if p not in positions]

    kept = tuple(orig)
    out: list[OutcomeBranch] = []
    for labels, vec in branches:
        p = float(np.vdot(vec, vec).real)
        if p <= drop_tol:
            continue
        residual = PureState(vec / np.sqrt(p)) if vec.size > 1 else None
        perp = any(lbl.startswith("perp") for lbl in labels)
        out.append(OutcomeBranch(labels, p, residual, kept, perp))
    return out


def perp_probability(branches: Iterable[OutcomeBranch]) -> float:
    """Total probability landing in auto-completed basis directions."""
    return sum(b.probability for b in branches if b.perp)


def sample_counts(state: PureState, plan: MeasurementPlan, shots: int,
                  rng: np.random.Generator) -> dict[str, int]:
    """Multinomial outcome counts keyed by comma-joined labels."""
    branches = enumerate_outcomes(state, plan)
    probs = np.array([b.probability for b in branches])
    probs = probs / probs.sum()
    draws = rng.multinomial(shots, probs)
    return {b.key: int(c) for b, c in zip(branches, draws) if c}
