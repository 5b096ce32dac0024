"""Projective product-basis measurements on pure states.

A plan is an ordered list of steps; each step measures a disjoint set of
qubits in a named basis.  Subspace bases are completed automatically with
Gram-Schmidt vectors labeled ``perp0``, ``perp1``, ...  once, when the step
is built.  Enumeration walks every outcome combination exactly (no
sampling) for a whole stack of input states at once, returning per-input
probabilities and normalized residuals together with the original indices of
the surviving qubits.

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


@dataclass(frozen=True, eq=False)
class OutcomeBranch:
    """One outcome combination of a plan, over a stack of B input states.

    Row i of each array belongs to input i; where the branch does not fire
    for it, its probability is exactly 0.0 and its residual row is zero.
    """

    labels: tuple[str, ...]
    probabilities: np.ndarray       # shape (B,)
    residuals: np.ndarray | None    # (B, 2**len(kept_qubits)) normalized rows;
                                    # None when every qubit was measured
    kept_qubits: tuple[int, ...]    # original indices, ascending
    perp: bool

    @property
    def key(self) -> str:
        return ",".join(self.labels)


def _norms(rows: np.ndarray) -> np.ndarray:
    """Squared norm of every row of a stack; equals ``np.vdot`` bit for bit."""
    return (rows.conj()[..., None, :] @ rows[..., :, None])[..., 0, 0].real


def enumerate_outcomes(states: Sequence[PureState], plan: MeasurementPlan,
                       drop_tol: float = DROP_TOL) -> list[OutcomeBranch]:
    """Measure a stack of states on one register in a single pass.

    Returns every branch whose probability exceeds ``drop_tol`` for at least
    one input, in enumeration order (first step's labels outermost).  Each
    input's probabilities sum to one before dropping, and each input's
    branches are exactly those a one-state stack would give it.
    """
    if drop_tol < 0.0:
        raise ValueError("drop_tol must be nonnegative")
    if not states:
        return []
    n = states[0].num_qubits
    if any(s.num_qubits != n for s in states):
        raise ValueError("states in one stack must share a register size")
    plan.validate_for(n)

    vecs = np.array([s.amplitudes for s in states])
    # original index of the qubit at each current position
    orig = list(range(n))
    # (labels, unnormalized rows, probabilities); rows of inputs the branch
    # has stopped firing for are zero, so they stay zero
    branches = [((), vecs, _norms(vecs))]
    for step in plan.steps:
        basis = step.completed
        conj = basis.matrix().conj()
        positions = [orig.index(q) for q in step.qubits]
        rest = [p for p in range(len(orig)) if p not in positions]
        axes = [0] + [1 + p for p in positions] + [1 + p for p in rest]
        next_branches = []
        for labels, vecs, _ in branches:
            t = vecs.reshape([-1] + [2] * len(orig)).transpose(axes)
            rows = conj @ t.reshape(len(states), conj.shape[1], -1)
            probs = _norms(rows)
            fires = probs > drop_tol
            rows[~fires] = 0.0
            probs = np.where(fires, probs, 0.0)
            for i in np.flatnonzero(fires.any(axis=0)):
                next_branches.append((labels + (basis.labels[i],), rows[:, i],
                                      probs[:, i]))
        branches = next_branches
        orig = [orig[p] for p in rest]

    kept = tuple(orig)
    out: list[OutcomeBranch] = []
    for labels, vecs, probs in branches:
        residuals = (vecs / np.sqrt(np.where(probs > 0.0, probs, 1.0))[:, None]
                     if vecs.shape[1] > 1 else None)
        perp = any(lbl.startswith("perp") for lbl in labels)
        out.append(OutcomeBranch(labels, probs, residuals, kept, perp))
    return out
