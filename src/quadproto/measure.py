"""Projective product-basis measurements on pure states.

A plan is an ordered list of steps; each step measures a disjoint set of
qubits in a named basis.  Subspace bases are completed automatically with
Gram-Schmidt vectors labeled ``perp0``, ``perp1``, ...  once per basis.
Enumeration walks every outcome combination exactly (no sampling) for a
stack of inputs with one contraction, ``contract``, which
LOCC certificates share; branches are dropped once, at the end.  The
result is one ``Outcomes`` record: per branch its labels, its comma-joined
key and whether an auto-completed direction fired; per branch and input
the probability and normalized residual; and the original indices of the
surviving qubits.

Teleport scenarios and LOCC protocols both describe their measurements as
``StepSpec`` values (catalog basis names); ``build_plan`` resolves them.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

import numpy as np

from .catalog import NamedBasis, make_basis
from .states import (COMPLETION_MIN, COMPLETION_PICK, DROP_TOL, NORM_TOL,
                     check_tolerance, qubit_count)

__all__ = [
    "StepSpec",
    "MeasurementStep",
    "MeasurementPlan",
    "Outcomes",
    "build_plan",
    "complete_basis",
    "contract",
    "enumerate_outcomes",
]


@functools.lru_cache(maxsize=1024)
def complete_basis(basis: NamedBasis) -> NamedBasis:
    """Extend a subspace basis to a complete one, memoized on the basis.

    Computational unit vectors are Gram-Schmidt orthogonalized against the
    declared rows (and each other) in index order; survivors are appended
    with labels perp0, perp1, ...
    """
    if basis.complete:
        return basis
    d = basis.dim
    rows = list(basis.matrix)
    labels = list(basis.labels)
    k = 0
    for threshold in (COMPLETION_PICK, COMPLETION_MIN):
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
    return NamedBasis(basis.name, tuple(labels), rows)


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
    is ``basis`` extended to a full basis and ``conj_matrix`` its conjugated
    matrix (one row per label), both computed once here.
    """

    qubits: tuple[int, ...]
    basis: NamedBasis
    party: str = "Alice"
    completed: NamedBasis = field(init=False, repr=False, compare=False)
    conj_matrix: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if len(set(self.qubits)) != len(self.qubits):
            raise ValueError("repeated qubit in measurement step")
        if self.basis.num_qubits != len(self.qubits):
            raise ValueError(
                "basis %r is on %d qubits but the step names %d"
                % (self.basis.name, self.basis.num_qubits, len(self.qubits))
            )
        completed = complete_basis(self.basis)
        conj = completed.matrix.conj()
        conj.flags.writeable = False
        object.__setattr__(self, "completed", completed)
        object.__setattr__(self, "conj_matrix", conj)


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

    @functools.cached_property
    def outcome_table(self) -> tuple[tuple[tuple[str, ...], ...], tuple[str, ...],
                                     np.ndarray]:
        """Labels, comma-joined key and perp flag of every outcome combination,
        first step's labels outermost; built once, so results share the keys."""
        labels = tuple(itertools.product(*(s.completed.labels for s in self.steps)))
        keys = tuple(",".join(combo) for combo in labels)
        perp = np.array([any(lbl.startswith("perp") for lbl in combo)
                         for combo in labels], dtype=bool)
        return labels, keys, perp

    def validate_for(self, num_qubits: int) -> None:
        bad = [q for step in self.steps for q in step.qubits
               if not 0 <= q < num_qubits]
        if bad:
            raise ValueError("plan touches qubits %s outside a %d-qubit register"
                             % (bad, num_qubits))


def build_plan(steps: Iterable[StepSpec]) -> MeasurementPlan:
    """Resolve named steps against the catalog into a measurement plan,
    memoized on the resolved (qubits, basis, party) steps: ``make_basis``
    shares one basis per name and typed parameters, so equal steps share
    one plan and its ``outcome_table``."""
    return _plan(tuple([(tuple(s.qubits), make_basis(s.basis, **s.basis_params),
                         s.party) for s in steps]))


@functools.lru_cache(maxsize=1024)
def _plan(key: tuple) -> MeasurementPlan:
    return MeasurementPlan(tuple(MeasurementStep(*step) for step in key))


@dataclass(frozen=True, eq=False)
class Outcomes:
    """Every firing outcome combination of a plan over a stack of B inputs.

    Branch j, in enumeration order (first step's labels outermost), has
    labels ``labels[j]`` and key ``keys[j]`` (the labels comma-joined);
    ``probabilities[j, i]`` is its probability for input i, exactly 0.0
    where it does not fire for that input, and ``residuals[j, i]`` the
    normalized post-measurement state, a zero row where it does not fire.
    ``len()`` is the number of branches.
    """

    labels: tuple[tuple[str, ...], ...]
    keys: tuple[str, ...]
    probabilities: np.ndarray       # (nb, B)
    residuals: np.ndarray | None    # (nb, B, 2**len(kept_qubits)); None when
                                    # every qubit was measured
    perp: np.ndarray                # (nb,) bool: an auto-completed label fired
    kept_qubits: tuple[int, ...]    # original indices, ascending

    def __len__(self) -> int:
        return len(self.keys)


def _norms(rows: np.ndarray) -> np.ndarray:
    """Squared norm of every row of a stack; equals ``np.vdot`` bit for bit."""
    return (rows.conj()[..., None, :] @ rows[..., :, None])[..., 0, 0].real


def contract(amplitudes: np.ndarray,
             steps: Sequence[tuple[tuple[int, ...], np.ndarray]],
             ) -> tuple[np.ndarray, tuple[int, ...]]:
    """(B, outcomes, 2**r) coefficients of a (B, 2**n) stack, first step's
    labels outermost, and the r unmeasured qubits, ascending.  Each step is
    its qubits and conjugated basis matrix; the stack is transposed once
    (measured qubits in step order, then the rest) and each step applied
    as ``conj @ c.reshape(B, done, d_in, -1)``."""
    b, n = len(amplitudes), amplitudes.shape[1].bit_length() - 1
    measured = [q for qubits, _ in steps for q in qubits]
    kept = [q for q in range(n) if q not in measured]
    c = amplitudes.reshape((b,) + (2,) * n).transpose(
        [0] + [1 + q for q in measured + kept])
    done = 1
    for _, conj in steps:
        c = conj @ c.reshape(b, done, conj.shape[1], -1)
        done *= conj.shape[0]
    return c.reshape(b, done, -1), tuple(kept)


def enumerate_outcomes(amplitudes: np.ndarray, plan: MeasurementPlan,
                       drop_tol: float = DROP_TOL) -> Outcomes:
    """Measure a stack of states on one register in a single pass.

    ``amplitudes`` is a (B, 2**n) array, one input state per row; every row
    must be finite with unit norm within ``NORM_TOL``.  Returns every branch
    whose probability exceeds ``drop_tol`` for at least one input, in
    enumeration order (first step's labels outermost).  Each input's
    probabilities sum to one before dropping, and each input's branches are
    exactly those a one-row stack would give it.  Dropping once, at the
    end, keeps what pruning each step would: no outcome outweighs its parent.
    """
    check_tolerance(drop_tol, "drop_tol", allow_zero=True)
    vecs = np.asarray(amplitudes)
    if vecs.ndim != 2:
        raise ValueError("enumerate_outcomes takes a (B, 2**n) amplitude array, "
                         "got %d dimensions" % vecs.ndim)
    n = qubit_count(vecs.shape[1])  # before anything is allocated
    plan.validate_for(n)
    if not len(vecs):
        return Outcomes((), (), np.zeros((0, 0)), None, np.zeros(0, dtype=bool), ())

    vecs = vecs.astype(np.complex128, copy=False)
    norms = np.sqrt(_norms(vecs))
    bad = np.flatnonzero(~(np.abs(norms - 1.0) <= NORM_TOL))  # NaN fails too
    if bad.size:
        raise ValueError("row %d has norm %r, not 1 within %g"
                         % (bad[0], float(norms[bad[0]]), NORM_TOL))
    c, kept = contract(vecs, [(step.qubits, step.conj_matrix)
                              for step in plan.steps])
    probs = _norms(c)
    fires = probs > drop_tol
    index = np.flatnonzero(fires.any(axis=0))
    fires = fires[:, index].T  # (branches, B): 0.0 and zero rows if not fired
    probs = np.where(fires, probs[:, index].T, 0.0)
    residuals = None
    if c.shape[2] > 1:
        residuals = c.transpose(1, 0, 2)[index]
        residuals[~fires] = 0.0
        residuals /= np.sqrt(np.where(fires, probs, 1.0))[..., None]
    labels, keys, perp = plan.outcome_table
    at = index.tolist()
    return Outcomes(tuple(labels[i] for i in at), tuple(keys[i] for i in at),
                    probs, residuals, perp[index], kept)
