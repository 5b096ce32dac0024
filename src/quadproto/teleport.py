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
                      receiver register, applied before the Pauli layer;
                      limited to 3 receiver qubits (``MAX_DIAG_QUBITS``),
                      since k qubits have 2**(2**k - 1) masks to scan

A candidate is a prefix D (identity, a CZ or a sign mask, stored as a row
of +-1 entries) followed by a Pauli product P_x of ``states.pauli_table``.
It corrects outcome j when P_x D O_j = c I on the span, that is when its
entanglement fidelity F_e = |Tr(P_x D O_j V V^dagger)|**2 / (d ||O_j V||_F**2)
(V the members as columns; Nielsen, Phys. Lett. A 303, 249 (2002)) is 1.
One ``states.pauli_coefficients`` call scores every Pauli product after
one prefix for every outcome still open; candidates are tried prefix
outer, Pauli inner, and an outcome takes the first with F_e >= 1 - tol.
An outcome's scores gather 4^k x 2^k trace terms, as many as the Pauli
table has entries, so a family whose table is above ``MAX_STACK_ENTRIES``
(k >= 9) is refused from its size, and the open outcomes are scored in
chunks of at most ``SLICE_ENTRIES`` (2^21) gathered terms, one outcome per
chunk when its own are more.

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
from .states import (ASSERT_TOL, PAULI_ORDER, PERP_ALARM, SLICE_ENTRIES,
                     VALUE_TOL, PureState, apply_paulis, check_integer, check_iterable,
                     check_qubits, check_seed, check_tolerance, ket_vector,
                     pauli_coefficients, pauli_table, qubit_count)

__all__ = [
    "FamilySpec",
    "TeleportScenario",
    "OutcomeReport",
    "TeleportResult",
    "build_probes",
    "run_scenario",
    "classical_cost",
]

# paulis+diag tries 2**(2**k - 1) sign masks: 128 at k = 3, 32,768 at k = 4
MAX_DIAG_QUBITS = 3


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
        if (self.allowed_ops == "paulis+diag"
                and self.family.num_qubits > MAX_DIAG_QUBITS):
            raise ValueError(
                "paulis+diag corrections are limited to %d receiver qubits, "
                "got %d: the search still tries each of the 2**(2**k - 1) "
                "sign masks in turn, scoring every Pauli product after it"
                % (MAX_DIAG_QUBITS, self.family.num_qubits))

    def resource_state(self) -> NamedState:
        if self.resource_kets:
            return NamedState(self.resource, PureState.from_kets(
                dict(self.resource_kets), normalize=True), note="inline resource")
        return make_state(self.resource, **self.resource_params)


# ---------------------------------------------------------------------------
# correction vocabulary


@functools.lru_cache(maxsize=None)
def _prefixes(allowed: str, k: int) -> tuple[tuple[str, ...], np.ndarray]:
    """Descriptors and (num_prefixes, 2**k) +-1 masks of the diagonal
    prefixes of one vocabulary on k receiver qubits, identity first.

    Candidate ``(p, x)`` is the matrix ``P_x @ diag(masks[p])``, scanned
    prefix outer, Pauli inner; its descriptor is the prefix's followed by
    the names of ``pauli_table(k)`` product x joined by ``*``.
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
    elif allowed == "paulis+diag":
        # sign masks with a + on |0..0>, one per bit pattern of the rest
        for m in range(1, 2 ** (d - 1)):
            mask = np.ones(d)
            mask[1:] = 1.0 - 2.0 * ((m >> (rows[1:] - 1)) & 1)
            prefixes.append("D(%s);" % "".join("+" if s > 0 else "-" for s in mask))
            masks.append(mask)
    masks = np.array(masks)
    masks.flags.writeable = False
    return tuple(prefixes), masks


def _find_corrections(prefixes: tuple[tuple[str, ...], np.ndarray],
                      ops: np.ndarray, norms: np.ndarray, tol: float,
                      ) -> tuple[list[str | None], np.ndarray]:
    """First candidate per outcome that corrects its span operator.

    ``ops`` is the (nb, 2**k, 2**k) stack of A_j = O_j V V^dagger (V the
    span members as columns) and ``norms`` the (nb,) d ||O_j V||_F^2.
    Candidate P_x D scores its entanglement fidelity
    F_e = |Tr(P_x D A_j)|**2 / norms[j], which is 1 exactly when
    P_x D O_j = c I on the span.  Returns per outcome the descriptor of the
    first candidate with F_e >= ``1 - tol`` or None, and the best F_e over
    the candidates tried up to and including it: a chosen candidate's own,
    as every one tried before it scores below ``1 - tol``.

    Per prefix, one ``pauli_coefficients`` call scores every Pauli product
    for a chunk of the outcomes still open, each gathering 4^k x 2^k trace
    terms, so a chunk holds at most ``SLICE_ENTRIES`` of them (one outcome
    when its own are more).  The first prefix is the identity
    (``_prefixes``), scored on slices of the unmasked stack; when it corrects
    every outcome in one chunk, the search ends there.
    """
    nb, dim, _ = ops.shape
    k = qubit_count(dim)
    names = pauli_table(k).names
    chosen: list[str | None] = [None] * nb
    best = np.zeros(nb)
    step = max(1, SLICE_ENTRIES >> 3 * k)
    open_ = np.arange(nb)
    for p, (desc, mask) in enumerate(zip(*prefixes)):
        left = []
        for lo in range(0, len(open_), step):
            js = open_[lo:lo + step]
            # the identity comes first, every outcome open: slice it unmasked
            at = slice(lo, lo + step) if p == 0 else js
            masked = ops[at] if p == 0 else ops[at] * mask[:, None]
            fids = np.abs(pauli_coefficients(masked)) ** 2 / norms[at, None]
            ok = fids >= 1.0 - tol
            hit = ok.any(axis=1)
            first = ok.argmax(axis=1)
            # every candidate before the first that works scores below it
            score = np.where(hit, fids[np.arange(len(js)), first], fids.max(axis=1))
            if p == 0 and len(js) == nb and hit.all():
                return [desc + "*".join(names[x]) for x in first.tolist()], score
            best[js] = np.maximum(best[js], score)
            done = js[hit]
            for j, x in zip(done.tolist(), first[hit].tolist()):
                chosen[j] = desc + "*".join(names[x])
            left.append(js[~hit])
        open_ = np.concatenate(left)
        if not open_.size:
            break
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
    # refuse a joint register above MAX_QUBITS, and a family whose Pauli
    # table (8^k entries, as many as one outcome's correction scores gather)
    # is above MAX_STACK_ENTRIES, from the sizes alone, before any probe is
    # built; the joint stack, d x 2^n <= 2^8 x 2^12 amplitudes, then fits
    k = scenario.family.num_qubits
    qubit_count(2 ** k * resource.dim)
    pauli_table(k)
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
        _prefixes(scenario.allowed_ops, k), rows.transpose(0, 2, 1) @ span.conj(),
        d * sums, tol)
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
