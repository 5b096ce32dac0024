"""Projective product-basis measurements on pure states.

A plan measures ordered (qubits, ``NamedBasis``) pairs on disjoint
qubits, the pairs LOCC certificates take as factors; ``check_pairs``
checks both.  Subspace bases are completed automatically with
Gram-Schmidt vectors labeled ``perp0``, ``perp1``, ...  once per basis.
Enumeration walks every outcome combination exactly (no sampling) for a
stack of inputs with one contraction, ``contract``, which LOCC
certificates share; branches are dropped once, at the end, at ``DROP_TOL``.
The result is one ``Outcomes`` record: per branch its labels, its
comma-joined key and whether an auto-completed direction (one past its
basis's declared rows) fired; per branch and input the probability and
the unnormalized amplitude row, whose squared norm it is; and the original
indices of the surviving qubits.

Teleport scenarios and LOCC protocols both describe their measurements as
``StepSpec`` values (catalog basis names); ``build_plan`` resolves them,
leaving ``party`` to the callers' classical-cost accounting.
"""

from __future__ import annotations

import functools
import itertools
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass, field

import numpy as np

from .catalog import NamedBasis, make_basis
from .states import (COMPLETION_MIN, COMPLETION_PICK, DROP_TOL, NORM_TOL,
                     check_iterable, check_qubits, qubit_count)

__all__ = [
    "StepSpec",
    "MeasurementPlan",
    "Outcomes",
    "build_plan",
    "check_pairs",
    "check_steps",
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
    index the candidate register directly.  Every field is checked here,
    when the step is built.
    """

    qubits: tuple[int, ...]
    basis: str
    basis_params: Mapping[str, object] = field(default_factory=dict)
    party: str = "Alice"

    def __post_init__(self) -> None:
        object.__setattr__(self, "qubits", check_qubits("measured qubit", self.qubits))
        if not isinstance(self.basis, str):
            raise ValueError("basis must be a catalog name, got %r" % (self.basis,))
        if (not isinstance(self.basis_params, Mapping)
                or not all(isinstance(key, str) for key in self.basis_params)):
            raise ValueError("basis_params must be a mapping with string keys, got %r"
                             % (self.basis_params,))
        if not isinstance(self.party, str):
            raise ValueError("party must be a string, got %r" % (self.party,))


def check_steps(what: str, steps: Iterable) -> tuple[StepSpec, ...]:
    """``steps`` as a tuple, refusing a value that is not iterable and an
    entry that is not a ``StepSpec``."""
    steps = check_iterable(what, steps)
    for step in steps:
        if not isinstance(step, StepSpec):
            raise ValueError("%s must be StepSpecs, got %r" % (what, step))
    return steps


def check_pairs(what: str, part: str, pairs: Iterable, n: int | None = None,
                ) -> tuple[tuple[tuple[int, ...], NamedBasis], ...]:
    """(qubits, basis) pairs as a tuple, refusing, in order, a value or an
    entry that is not iterable or not a 2-item tuple or list, a qubit list
    that is not iterable, a basis that is not a ``NamedBasis``, bad qubits
    over all lists as one ``check_qubits`` list (with ``n`` when given) and a
    basis on another number of qubits than its ``part`` names: the one check
    of plan steps and factors."""
    out = []
    for pair in check_iterable(part + "s", pairs):
        if not (isinstance(pair, (tuple, list)) and len(pair) == 2):
            shown = type(pair).__name__
            if isinstance(pair, (tuple, list)):
                shown = "a %d-item %s" % (len(pair), shown)
            raise ValueError("%s list and basis must be a (qubits, NamedBasis) "
                             "pair, got %s" % (what, shown))
        qubits, basis = pair
        qubits = check_iterable(what + " list", qubits)
        if not isinstance(basis, NamedBasis):
            raise ValueError("%s list %s needs a NamedBasis, got %r"
                             % (what, list(qubits), basis))
        out.append((qubits, basis))
    check_qubits(what, [q for qubits, _ in out for q in qubits], n)
    for qubits, basis in out:
        if basis.num_qubits != len(qubits):
            raise ValueError("basis %r is on %d qubits but the %s names %d"
                             % (basis.name, basis.num_qubits, part, len(qubits)))
    return tuple(out)


@dataclass(frozen=True)
class MeasurementPlan:
    """Measure each (qubits, basis) pair in turn, the i-th qubit of each
    basis vector being ``qubits[i]`` of the register.  Each basis is
    completed once, here, into ``steps``, the (qubits, conjugated matrix)
    pairs ``contract`` reads, and ``outcome_table``, the labels, joined key
    and perp flag (an outcome past its basis's declared rows) of every
    outcome combination, first step's outermost."""

    pairs: tuple[tuple[tuple[int, ...], NamedBasis], ...]
    steps: tuple = field(init=False, repr=False, compare=False)
    outcome_table: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        pairs = check_pairs("measured qubit", "step", self.pairs)
        completed = [complete_basis(basis) for _, basis in pairs]
        labels = tuple(itertools.product(*(basis.labels for basis in completed)))
        perp = np.zeros(1, dtype=bool)
        for (_, basis), full in zip(pairs, completed):
            perp = (perp[:, None] | (np.arange(full.dim) >= len(basis.labels))).ravel()
        steps = tuple((qubits, basis.matrix.conj())
                      for (qubits, _), basis in zip(pairs, completed))
        for _, conj in steps:
            conj.flags.writeable = False
        object.__setattr__(self, "pairs", pairs)
        object.__setattr__(self, "steps", steps)
        object.__setattr__(self, "outcome_table",
                           (labels, tuple(map(",".join, labels)), perp))

    def validate_for(self, num_qubits: int) -> None:
        bad = [q for qubits, _ in self.steps for q in qubits
               if not 0 <= q < num_qubits]
        if bad:
            raise ValueError("plan touches qubits %s outside a %d-qubit register"
                             % (bad, num_qubits))


def build_plan(steps: Iterable[StepSpec]) -> MeasurementPlan:
    """Resolve named steps against the catalog into a measurement plan,
    memoized on the resolved (qubits, basis) pairs: ``make_basis`` shares
    one basis per name and typed parameters, so steps that differ at most
    in ``party`` share one plan and its ``outcome_table``."""
    return _plan(tuple([(s.qubits, make_basis(s.basis, **s.basis_params))
                        for s in steps]))


_plan = functools.lru_cache(maxsize=1024)(MeasurementPlan)


@dataclass(frozen=True, eq=False)
class Outcomes:
    """Every firing outcome combination of a plan over a stack of B inputs.

    Branch j, in enumeration order (first step's labels outermost), has
    labels ``labels[j]`` and key ``keys[j]`` (the labels comma-joined);
    ``probabilities[j, i]`` is its probability for input i, exactly 0.0
    where it does not fire for that input, and ``amplitudes[j, i]`` the
    unnormalized branch row <outcome j|input i> over the kept qubits, whose
    squared norm is ``probabilities[j, i]``, a zero row where it does not
    fire.  ``len()`` is the number of branches.
    """

    labels: tuple[tuple[str, ...], ...]
    keys: tuple[str, ...]
    probabilities: np.ndarray       # (nb, B)
    amplitudes: np.ndarray | None   # (nb, B, 2**len(kept_qubits)); None when
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


def enumerate_outcomes(amplitudes: np.ndarray, plan: MeasurementPlan) -> Outcomes:
    """Measure a stack of states on one register in a single pass.

    ``amplitudes`` is a (B, 2**n) array, one input state per row; every row
    must be finite with unit norm within ``NORM_TOL``.  Returns every branch
    whose probability exceeds ``DROP_TOL`` for at least one input, in
    enumeration order (first step's labels outermost).  Each input's
    probabilities sum to one before dropping, and each input's branches are
    exactly those a one-row stack would give it.  Dropping once, at the
    end, keeps what pruning each step would: no outcome outweighs its parent.
    """
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
    good = np.abs(norms - 1.0) <= NORM_TOL  # NaN fails too
    if not good.all():
        bad = int(good.argmin())
        raise ValueError("row %d has norm %r, not 1 within %g"
                         % (bad, float(norms[bad]), NORM_TOL))
    c, kept = contract(vecs, plan.steps)
    probs = _norms(c)
    fires = probs > DROP_TOL
    index = np.flatnonzero(fires.any(axis=0))
    fires = fires[:, index].T  # (branches, B): 0.0 and zero rows if not fired
    probs = np.where(fires, probs[:, index].T, 0.0)
    rows = None
    if c.shape[2] > 1:
        rows = c.transpose(1, 0, 2)[index]
        if not fires.all():
            rows[~fires] = 0.0
    labels, keys, perp = plan.outcome_table
    at = index.tolist()
    return Outcomes(tuple(labels[i] for i in at), tuple(keys[i] for i in at),
                    probs, rows, perp[index], kept)
