"""Teleportation protocol verification.

A scenario fixes a resource state, a family of unknown input states, a
measurement plan over the sender-side qubits, and the receiver's qubits
(ascending).  The engine measures the family's probe rows, the d members
s_i of an orthonormal basis of its span (``build_probes``), each tensored
with the resource in one step, and searches a deterministic candidate list
for a local correction per outcome that returns every member of the family.

Outcome j acts on the span as a linear map O_j, O_j s_i being the
unnormalized amplitude row the measurement gives member i (its squared
norm p_ji the outcome's probability for that member), and every result is
read off these operators, so each is exact over the span and none depends
on a random draw: uniformity (equal Gram matrices O_j^dagger O_j),
the probability leaked into auto-completed directions (the top eigenvalue
of their summed Gram matrix) and each outcome's probability averaged over
the family (Tr(O_j^dagger O_j)/d).

Correction vocabularies:

* ``paulis``          one of sigma0, sigma1, i*sigma2, sigma3 per qubit
* ``paulis+cz``       optionally one controlled-phase on a receiver pair,
                      applied before the Pauli layer
* ``paulis+diag``     optionally one diagonal sign mask on the whole
                      receiver register, applied before the Pauli layer

A candidate is a prefix D (identity, a CZ or a sign mask, stored as a row
of +-1 entries) followed by a Pauli product P_x of ``states.pauli_table``.
It corrects outcome j when P_x D O_j = c I on the span, that is when its
entanglement fidelity F_e = |Tr(P_x D O_j V V^dagger)|**2 / (d ||O_j V||_F**2)
(V the members as columns; Nielsen, Phys. Lett. A 303, 249 (2002)) is 1.
Each outcome's 4^k flip diagonals h[a, t] = A[t ^ a, t] of
A = O_j V V^dagger are gathered once (``states.flip_diagonals``).  A
prefix multiplies them by its mask read at t ^ a, and one
``states.pauli_traces`` call, a matmul by the +-1 Sylvester-Hadamard
matrix, then scores every Pauli product after it for every outcome still
open; candidates are tried prefix outer, Pauli inner, and an outcome takes
the first with F_e >= 1 - tol.  ``paulis+diag`` tries the identity prefix
so, and solves its sign masks on the diagonals of the outcomes still open
(``_sign_masks``), in O(4^k k) per outcome, with no enumeration of the
2^(2^k - 1) masks.  One transform sums 8^k terms per outcome, so a family
past ``states.check_pauli_qubits`` (k >= 9) is refused from its size.

The inputs of a call are built once per value, each in a memo of
read-only arrays keyed by what determines it: the resource state by its
catalog call (``make_state``), the plan by its resolved steps
(``build_plan``), the probe rows by ``FamilySpec``, and the prefix masks
by vocabulary and family size.  Per call come an inline resource, the
joint stack, its outcomes, the outcome operators and the correction search.

When no candidate works the result carries a certificate: per outcome, the
best entanglement fidelity any candidate reached.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .catalog import NamedState, make_state
from .measure import StepSpec, build_plan, check_steps, enumerate_outcomes
from .states import (ASSERT_TOL, PAULI_ORDER, PERP_ALARM, VALUE_TOL, PureState,
                     apply_paulis, check_integer, check_iterable, check_pauli_qubits,
                     check_qubits, check_seed, check_tolerance, flip_diagonals,
                     ket_vector, pauli_table, pauli_traces, qubit_count)

__all__ = [
    "FamilySpec",
    "TeleportScenario",
    "OutcomeReport",
    "TeleportResult",
    "build_probes",
    "run_scenario",
    "classical_cost",
]


# ---------------------------------------------------------------------------
# unknown-state families


@dataclass(frozen=True)
class FamilySpec:
    """Which states the sender may be handed.

    kind:
      * ``arbitrary``  every ``num_qubits``-qubit state
      * ``ghz_diag``   D(alpha|0..0> + beta|1..1>) for fixed Pauli dressing D
      * ``omega_sub``  D(alpha phi+|1> + beta phi-|0>) on three qubits
      * ``w_equal3``   the single state (|001>+|010>+|100>+|000>)/2
    ``num_qubits`` is at least 1, and 3 for ``omega_sub`` and ``w_equal3``.
    ``dressing`` lists ``PAULI_ORDER`` indices 0..3, kept as a tuple; for
    ``ghz_diag`` one per qubit, for ``omega_sub`` the Paulis on qubits 0 and
    2, and none for the other kinds.  Each rule is checked here, when the
    spec is built.
    """

    kind: str
    num_qubits: int
    dressing: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.kind not in ("arbitrary", "ghz_diag", "omega_sub", "w_equal3"):
            raise ValueError("unknown family kind %r" % self.kind)
        object.__setattr__(self, "dressing", check_iterable("dressing", self.dressing))
        k, d = self.num_qubits, self.dressing
        check_integer("num_qubits", k)
        if k < 1:
            raise ValueError("num_qubits must be at least 1, got %d" % k)
        if k != 3 and self.kind in ("omega_sub", "w_equal3"):
            raise ValueError("%s is a 3-qubit family, got num_qubits %d"
                             % (self.kind, k))
        check_integer("Pauli index", *d)
        if any(not 0 <= i < len(PAULI_ORDER) for i in d):
            raise ValueError("dressing lists Pauli indices 0..3, got %s" % list(d))
        if self.kind == "ghz_diag" and len(d) != k:
            raise ValueError("ghz_diag dressing needs one Pauli index per qubit")
        if self.kind == "omega_sub" and len(d) != 2:
            raise ValueError("omega_sub dressing needs two Pauli indices")
        if self.kind in ("arbitrary", "w_equal3") and d:
            raise ValueError("%s takes no dressing, got %s" % (self.kind, list(d)))


@functools.lru_cache(maxsize=1024)
def build_probes(spec: FamilySpec) -> np.ndarray:
    """The family's probe rows: an orthonormal basis of its span, one member
    per row of a read-only (d, 2**num_qubits) array, memoized by value; d is
    2**num_qubits, 2, 2 or 1 by kind."""
    k = spec.num_qubits
    d = spec.dressing
    if spec.kind == "arbitrary":
        span = np.eye(2 ** k, dtype=np.complex128)
    else:
        if spec.kind == "w_equal3":
            kets, word = [{"001": 1.0, "010": 1.0, "100": 1.0, "000": 1.0}], (0, 0, 0)
        elif spec.kind == "ghz_diag":
            kets, word = [{"0" * k: 1.0}, {"1" * k: 1.0}], d
        else:  # omega_sub
            kets = [{"001": 1.0, "111": 1.0}, {"000": 1.0, "110": -1.0}]
            word = (d[0], 0, d[1])
        bare = np.array([ket_vector(terms, normalize=True) for terms in kets])
        span = apply_paulis(bare, [PAULI_ORDER[w] for w in word])
    span.flags.writeable = False
    return span


# ---------------------------------------------------------------------------
# scenario structure


@dataclass(frozen=True)
class TeleportScenario:
    scenario_id: str
    resource: str
    family: FamilySpec
    steps: tuple[StepSpec, ...]
    receiver: tuple[int, ...]
    resource_params: Mapping[str, object] = field(default_factory=dict)
    # inline alternative to a catalog name: ((ket, amplitude), ...)
    resource_kets: tuple[tuple[str, complex], ...] = ()
    allowed_ops: str = "paulis"
    aggregator: str = "Alice"
    receiver_party: str = "Bob"
    note: str = ""

    def __post_init__(self) -> None:
        if not isinstance(self.resource, str):
            raise ValueError("resource must be a string, got %r" % (self.resource,))
        if not isinstance(self.family, FamilySpec):
            raise ValueError("family must be a FamilySpec, got %r" % (self.family,))
        object.__setattr__(self, "steps", check_steps("steps", self.steps))
        if self.allowed_ops not in ("paulis", "paulis+cz", "paulis+diag"):
            raise ValueError("unknown correction vocabulary %r" % self.allowed_ops)
        object.__setattr__(self, "receiver", check_qubits("receiver qubit", self.receiver))
        if len(self.receiver) != self.family.num_qubits:
            raise ValueError("receiver register size must match the family")
        # the engine and the correction names read the receiver in ascending order
        if list(self.receiver) != sorted(self.receiver):
            raise ValueError("receiver qubits must be strictly ascending, got %s"
                             % list(self.receiver))

    def resource_state(self) -> NamedState:
        if self.resource_kets:
            return NamedState(self.resource, PureState.from_kets(
                dict(self.resource_kets), normalize=True), note="inline resource")
        return make_state(self.resource, **self.resource_params)


# ---------------------------------------------------------------------------
# correction vocabulary


@functools.lru_cache(maxsize=None)
def _prefixes(allowed: str, k: int) -> tuple[tuple[str, ...], np.ndarray]:
    """Descriptors and (num_prefixes, 2**k) +-1 masks of the listed diagonal
    prefixes of one vocabulary on k receiver qubits, identity first.

    Candidate ``(p, x)`` is the matrix ``P_x @ diag(masks[p])``, scanned
    prefix outer, Pauli inner; its descriptor is the prefix's followed by
    the names of ``pauli_table(k)`` product x joined by ``*``.  The sign
    masks of ``paulis+diag`` are not listed: ``_sign_masks`` solves them.
    """
    d = 2 ** k
    rows = np.arange(d)
    prefixes = [""]
    masks = [np.ones(d)]
    if allowed == "paulis+cz":
        for i in range(k):
            for j in range(i + 1, k):
                prefixes.append("CZ(%d,%d);" % (i, j))
                # qubit 0 is the most significant bit
                both = (rows >> (k - 1 - i)) & (rows >> (k - 1 - j)) & 1
                masks.append(1.0 - 2.0 * both)
    masks = np.array(masks)
    masks.flags.writeable = False
    return tuple(prefixes), masks


def _sign_masks(h: np.ndarray, norms: np.ndarray, tol: float,
                ) -> tuple[list[str | None], np.ndarray]:
    """The ``paulis+diag`` candidates D(m);P_x past the identity prefix, for
    each outcome of the (nb, 2**k, 2**k) flip diagonals ``h`` of A_j and its
    ``norms``: the descriptor of the candidate taken, or None, and its F_e,
    or the best F_e of any candidate when none reaches ``1 - tol``.

    P_x D(m) A_j has trace sum_t s_t h[a, t], a = flip[x], for the +-1
    pattern s_t = walsh[z[x], t] m[t ^ a], and every pattern is some (m, x)'s.
    So the best F_e on flip a is max over theta of
    (sum_t |Re(e^(-i theta) h[a, t])|)**2 / norm, which one of 2**k patterns
    attains: each term folded into the half-plane -pi/2 < arg <= pi/2 and
    the terms sorted by argument, pattern i negates the i first.  A
    cumulative sum scores them all.

    Among the flips whose best pattern reaches ``1 - tol``, each pattern is
    read as the (m, x) that the mask scan meets first: the smallest mask
    integer (mask entry 0, on |0...0>, is +; entry b is bit b - 1), then the
    smallest table index, with each term that is exactly 0 taking the sign
    that keeps the mask smallest.  The outcome takes the first such
    candidate over the flips, in the same order.  Where F_e = 1 this is the
    scan's candidate, since two patterns that both reach it differ only on
    such terms; at a loose tolerance the scan may stop at a worse candidate
    before it.
    """
    nb, dim, _ = h.shape
    names, flip, z, walsh = pauli_table(dim.bit_length() - 1)
    fold = np.where((h.real > 0) | ((h.real == 0) & (h.imag >= 0)), 1.0, -1.0)
    g = fold * h
    order = np.argsort(np.arctan2(g.imag, g.real), axis=-1, kind="stable")
    ranked = np.take_along_axis(g, order, axis=-1)
    # pattern i negates the i first terms: sum - 2 * (their sum)
    sums = g.sum(axis=-1, keepdims=True) - 2.0 * (np.cumsum(ranked, axis=-1) - ranked)
    fids = np.abs(sums) ** 2 / norms[:, None, None]
    negated = fids.argmax(axis=-1)
    top = np.take_along_axis(fids, negated[..., None], axis=-1)[..., 0]
    best = top.max(axis=1)
    picks: dict = {}
    t = np.arange(dim)
    for j, a in zip(*np.nonzero(top >= 1.0 - tol)):
        s = fold[j, a].copy()
        s[order[j, a, :negated[j, a]]] *= -1.0
        s[h[j, a] == 0] = 0.0
        # mask entry u of product x flipping a is s[u ^ a] walsh[z[x], u ^ a],
        # up to the sign that makes entry 0 a +, or either sign when s[a] = 0
        xs = np.flatnonzero(flip == a)
        cand = s[t ^ a] * walsh[z[xs]][:, t ^ a]
        if s[a]:
            cand = cand * cand[:, :1]
        else:
            cand, xs = np.concatenate((cand, -cand)), np.concatenate((xs, xs))
        negative = cand < 0
        # the smallest mask integer, whose last entry is its top bit, then x
        pick = np.lexsort(np.vstack((xs, negative.T)))[0]
        key = negative[pick, ::-1].tobytes(), xs[pick]
        if j not in picks or key < picks[j][0]:
            picks[j] = key, negative[pick], top[j, a]
    descs: list[str | None] = [None] * nb
    for j, ((_, x), negative, fid) in picks.items():
        descs[j] = ("D(%s);" % "".join("-" if n else "+" for n in negative)
                    if negative.any() else "") + "*".join(names[x])
        best[j] = fid
    return descs, best


def _find_corrections(allowed: str, ops: np.ndarray, norms: np.ndarray, tol: float,
                      ) -> tuple[list[str | None], np.ndarray]:
    """First candidate per outcome that corrects its span operator.

    ``ops`` is the (nb, 2**k, 2**k) stack of A_j = O_j V V^dagger (V the
    span members as columns) and ``norms`` the (nb,) d ||O_j V||_F^2.
    Candidate P_x D scores its entanglement fidelity
    F_e = |Tr(P_x D A_j)|**2 / norms[j], which is 1 exactly when
    P_x D O_j = c I on the span.  Returns per outcome the descriptor of the
    first candidate of vocabulary ``allowed`` with F_e >= ``1 - tol`` or
    None, and the best F_e over the candidates tried up to and including
    it: a chosen candidate's own, as every one tried before it scores below
    ``1 - tol``.

    The flip diagonals of every A_j are gathered once.  Per prefix of
    ``_prefixes``, the open outcomes' diagonals times the prefix mask go
    through one ``pauli_traces`` call, which scores every Pauli product.
    The first prefix is the identity, scored on the unmasked stack; when it
    corrects every outcome, the search ends there.  ``paulis+diag`` hands
    the outcomes it leaves open to ``_sign_masks``.
    """
    nb, dim, _ = ops.shape
    k = qubit_count(dim)
    names = pauli_table(k).names
    diagonals = flip_diagonals(ops)
    chosen: list[str | None] = [None] * nb
    best = np.zeros(nb)
    open_ = np.arange(nb)
    for p, (desc, mask) in enumerate(zip(*_prefixes(allowed, k))):
        # a mask is read along flip diagonal a at row t ^ a; the identity,
        # first, with every outcome open, is read on the unmasked stack
        h = (diagonals if p == 0 else
             diagonals[open_] * mask[np.arange(dim) ^ np.arange(dim)[:, None]])
        fids = np.abs(pauli_traces(h)) ** 2 / norms[open_, None]
        ok = fids >= 1.0 - tol
        hit = ok.any(axis=1)
        first = ok.argmax(axis=1)
        # every candidate before the first that works scores below it
        score = np.where(hit, fids[np.arange(len(open_)), first], fids.max(axis=1))
        if p == 0 and hit.all():
            return [desc + "*".join(names[x]) for x in first.tolist()], score
        best[open_] = np.maximum(best[open_], score)
        for j, x in zip(open_[hit].tolist(), first[hit].tolist()):
            chosen[j] = desc + "*".join(names[x])
        open_ = open_[~hit]
        if not open_.size:
            return chosen, best
    if allowed == "paulis+diag":
        descs, scores = _sign_masks(diagonals[open_], norms[open_], tol)
        best[open_] = np.maximum(best[open_], scores)
        for j, desc in zip(open_.tolist(), descs):
            chosen[j] = desc
    return chosen, best


# ---------------------------------------------------------------------------
# verification


@dataclass(frozen=True)
class OutcomeReport:
    key: str
    probability: float            # averaged over the family: Tr(O^dagger O)/d
    correction: str | None
    # the entanglement fidelity F_e of its correction on the span, 0.0 without one
    min_fidelity: float
    best_fidelity: float          # best F_e over the candidates tried
    perp: bool


@dataclass(frozen=True)
class TeleportResult:
    scenario_id: str
    feasible: bool
    outcomes: tuple[OutcomeReport, ...]
    worst_fidelity: float         # min over corrected outcomes of min_fidelity
    best_worst_fidelity: float    # min over outcomes of best_fidelity
    perp_probability: float       # max over the span
    uniform_nonzero: bool
    classical_cost: int | None
    cost_breakdown: Mapping[str, int] | None
    num_probes: int
    reason: str = ""

    @property
    def corrections(self) -> dict[str, str]:
        return {o.key: o.correction for o in self.outcomes if o.correction}


def run_scenario(scenario: TeleportScenario, seed: int = 42,
                 tol: float = ASSERT_TOL) -> TeleportResult:
    """Verify one scenario at tolerance ``tol``.  ``seed`` is only checked
    (``check_seed``): no result depends on it."""
    check_tolerance(tol)
    check_seed(seed)
    resource = scenario.resource_state().state
    # refuse a joint register above MAX_QUBITS, and a family past the Pauli
    # kernel's k limit (8^k terms per transform), from the sizes alone,
    # before any probe is built; the joint stack, d x 2^n <= 2^8 x 2^12
    # amplitudes, then fits
    k = scenario.family.num_qubits
    qubit_count(2 ** k * resource.dim)
    check_pauli_qubits(k)
    span = build_probes(scenario.family)
    d = len(span)
    joint = (span[:, :, None] * resource.amplitudes).reshape(d, -1)
    out = enumerate_outcomes(joint, build_plan(scenario.steps))
    if len(out) and out.kept_qubits != scenario.receiver:
        raise ValueError(
            "plan for %s leaves qubits %s but the receiver holds %s"
            % (scenario.scenario_id, out.kept_qubits, scenario.receiver)
        )
    # outcome j maps member s_i to O_j s_i, its amplitude row; branches are
    # reported in the order the members first fire them, and every branch
    # fires for some member
    probs, rows = out.probabilities, out.amplitudes
    sums = probs.sum(axis=1)
    grams = rows.conj() @ rows.transpose(0, 2, 1)
    uniform = bool((np.abs(grams - grams[0]) <= VALUE_TOL).all())
    # the leak: the top eigenvalue of the perp branches' summed Gram matrix
    max_perp = 0.0
    if out.perp.any():
        max_perp = float(np.linalg.eigvalsh(grams[out.perp].sum(axis=0))[-1])
    chosen, best = _find_corrections(
        scenario.allowed_ops, rows.transpose(0, 2, 1) @ span.conj(), d * sums, tol)
    first = (probs > 0.0).argmax(axis=1)
    average = (sums / d).tolist()  # the bits of np.mean
    top, perp = best.tolist(), out.perp.tolist()
    fid = [b if c else 0.0 for b, c in zip(top, chosen)]
    reports = [OutcomeReport(out.keys[j], average[j], chosen[j], fid[j], top[j], perp[j])
               for j in np.argsort(first, kind="stable").tolist()]
    feasible = None not in chosen

    reason = ""
    if max_perp > PERP_ALARM:
        reason = "probability %.3e leaks into auto-completed directions" % max_perp
        feasible = False
    worst = min((f for f, c in zip(fid, chosen) if c), default=0.0)
    best_worst = min(top, default=0.0)
    cost = breakdown = None
    if feasible:
        cost, breakdown = classical_cost(scenario, reports)
    return TeleportResult(
        scenario_id=scenario.scenario_id,
        feasible=feasible,
        outcomes=tuple(reports),
        worst_fidelity=worst,
        best_worst_fidelity=best_worst,
        perp_probability=max_perp,
        uniform_nonzero=uniform,
        classical_cost=cost,
        cost_breakdown=breakdown,
        num_probes=d,
        reason=reason,
    )


def classical_cost(scenario: TeleportScenario,
                   reports: Sequence[OutcomeReport]) -> tuple[int, dict]:
    """Classical bits sent, relay convention.

    Measuring parties other than the aggregator relay their raw outcomes
    (ceil(log2) of the distinct results they can see); the aggregator then
    broadcasts one of the distinct corrections.  Outcomes that fire for no
    member of the family cost nothing.
    """
    step_parties = [s.party for s in scenario.steps]
    firing_keys = [r.key for r in reports]
    breakdown: dict[str, int] = {}
    total = 0
    for party in dict.fromkeys(step_parties):
        if party == scenario.aggregator:
            continue
        positions = [i for i, p in enumerate(step_parties) if p == party]
        seen = {tuple(key.split(",")[i] for i in positions) for key in firing_keys}
        bits = max(len(seen) - 1, 0).bit_length()  # ceil(log2), 0 for one or none
        breakdown["outcomes:" + party] = bits
        total += bits
    distinct = {r.correction for r in reports if r.correction is not None}
    bits = max(len(distinct) - 1, 0).bit_length()
    breakdown["correction:" + scenario.aggregator] = bits
    total += bits
    return total, breakdown
