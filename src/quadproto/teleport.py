"""Teleportation protocol verification.

A scenario fixes a resource state, a family of unknown input states, a
measurement plan over the sender-side qubits, and the receiver's qubits
(ascending).  The engine enumerates every measurement outcome for the
family's probe rows (``build_probes``: the span members, then per pair
the superpositions with and without a relative i; one amplitude row
each, tensored with the resource in one step), then searches a
deterministic candidate list for a local correction per outcome that
maps the residual back onto the input with fidelity one.

The probe rows are a polarization set: outcome j acts on the span as a
linear map O_j, and its probabilities on the rows fix its Gram matrix
O_j^dagger O_j on the whole span (``_gram``).  So uniformity (equal
probability rows, hence equal Gram matrices), the probability leaked into
auto-completed directions (the top eigenvalue of their summed Gram
matrix) and each outcome's probability averaged over the family
(Tr(O_j^dagger O_j)/d) are exact over the span, and a candidate that
returns every row an outcome fires at fidelity one returns every member
of the family.  No result depends on a random draw.

Correction vocabularies:

* ``paulis``          one of sigma0, sigma1, i*sigma2, sigma3 per qubit
* ``paulis+cz``       optionally one controlled-phase on a receiver pair,
                      applied before the Pauli layer
* ``paulis+diag``     optionally one diagonal sign mask on the whole
                      receiver register, applied before the Pauli layer;
                      limited to 3 receiver qubits (``MAX_DIAG_QUBITS``),
                      since k qubits have 2**(2**k - 1) masks

A candidate is a prefix D (identity, a CZ or a sign mask, stored as a row
of +-1 entries) followed by a Pauli product P_x of ``states.pauli_table``.
Probe i's fidelity under P_x D is |Tr(P_x D r_i v_i^dagger)|**2 (r_i its
residual, v_i its input), so one ``states.pauli_coefficients`` call scores
every Pauli product after one prefix on every probe of every outcome
still open.  The scan runs prefix outer and an outcome leaves it at its
first candidate that works.  One outcome's scores take probes x 4^k x 2^k
entries, so a family above ``MAX_STACK_ENTRIES`` is refused from the
sizes, and the open outcomes are scored in slices of at most
``SLICE_ENTRIES`` (2^21) complex entries, counting each outcome's
gathered trace terms (probes x 4^k x 2^k) with the outer products they
are gathered from and the scores they sum to (probes x 4^k each), one
outcome per slice when its own entries are more.

The inputs of a scan are built once per value, each in a memo of
read-only arrays keyed by what determines it: the resource state by its
catalog call (``make_state``), the plan by its resolved steps
(``build_plan``), the family span and its probe rows by ``FamilySpec``,
and the prefix masks by vocabulary and family size.  Per call come an
inline resource, the joint stack, its outcomes, the Gram reads and the
correction scan.

When no candidate works the result carries a certificate: per outcome, the
best achievable worst-case fidelity over the probes it fires.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .catalog import NamedState, make_state
from .measure import StepSpec, build_plan, check_steps, enumerate_outcomes
from .states import (ASSERT_TOL, PAULI_ORDER, PERP_ALARM, SLICE_ENTRIES,
                     VALUE_TOL, PureState, apply_paulis, check_integer, check_iterable,
                     check_qubits, check_stack, check_tolerance, ket_vector,
                     pauli_coefficients, pauli_table, qubit_count)

__all__ = [
    "FamilySpec",
    "TeleportScenario",
    "OutcomeReport",
    "TeleportResult",
    "family_span",
    "build_probes",
    "run_scenario",
    "classical_cost",
]

# paulis+diag scans 2**(2**k - 1) sign masks: 128 at k = 3, 32,768 at k = 4
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

    @property
    def span_dim(self) -> int:
        """The size of the family's span: 2**num_qubits, 2, 2 or 1 by kind."""
        if self.kind == "arbitrary":
            return 2 ** self.num_qubits
        return 1 if self.kind == "w_equal3" else 2


@functools.lru_cache(maxsize=1024)
def family_span(spec: FamilySpec) -> np.ndarray:
    """Orthonormal basis of the family's span, one member per row of a
    read-only (d, 2**num_qubits) array, memoized by value."""
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


@functools.lru_cache(maxsize=1024)
def build_probes(spec: FamilySpec) -> np.ndarray:
    """The probe rows of a family, one read-only row each, memoized by
    value: the span members, then per pair i < j (s_i + s_j)/sqrt(2) and
    (s_i + i s_j)/sqrt(2), span_dim**2 rows in all."""
    span = family_span(spec)
    n, dim = span.shape
    i, j = np.triu_indices(n, 1)
    pairs = np.stack([span[i] + span[j], span[i] + 1j * span[j]], axis=1) / math.sqrt(2)
    rows = np.concatenate([span, pairs.reshape(-1, dim)])
    rows.flags.writeable = False
    return rows


def _gram(p: np.ndarray, d: int) -> np.ndarray:
    """The (d, d) Gram matrix G = O^dagger O, in span coordinates, of a map O
    whose probabilities over the rows of ``build_probes`` are p, by
    polarization: G_ii = p_i and, per pair i < j, Re G_ij = p_plus -
    (p_i + p_j)/2 and Im G_ij = (p_i + p_j)/2 - p_iphase."""
    i, j = np.triu_indices(d, 1)
    mean = (p[i] + p[j]) / 2
    gram = np.diag(p[:d].astype(np.complex128))
    gram[i, j] = (p[d::2] - mean) + 1j * (mean - p[d + 1::2])
    gram[j, i] = gram[i, j].conj()
    return gram


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
                "got %d: the scan would try 2**(2**k - 1) sign masks per "
                "Pauli product (solving for corrections instead of scanning "
                "is an open item in ROADMAP.md)"
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
                      residuals: np.ndarray, expected: np.ndarray,
                      fired: np.ndarray, tol: float,
                      ) -> tuple[list[str | None], np.ndarray, np.ndarray]:
    """First candidate per outcome mapping every row it fires onto its input.

    ``residuals`` is the (nb, rows, 2**k) stack of every outcome, ``fired``
    its (nb, rows) firing mask and ``expected`` the (rows, 2**k) inputs.
    Returns per outcome the descriptor or None, the worst fidelity over its
    fired rows of the chosen candidate or 0.0, and the best such worst
    fidelity over the candidates scanned up to and including the chosen
    one.  A candidate is chosen when every fired row reaches ``1 - tol``.

    Per prefix, one Pauli transform scores every product on every row for
    every outcome still open, in slices of at most ``SLICE_ENTRIES`` complex
    entries held at once (one outcome when its own exceed that).  Outcomes
    leave the open set at their first hit.  The first prefix is the
    identity (``_prefixes``), scored unmasked.
    """
    nb, rows, dim = residuals.shape
    names = pauli_table(qubit_count(dim)).names
    every = fired.all()
    conj = expected[:, None].conj()
    chosen: list[str | None] = [None] * nb
    min_fid = np.zeros(nb)
    best = np.zeros(nb)
    # per outcome, the gathered trace terms (rows x 4^k x 2^k) and, beside
    # them, the outer products and the scores (rows x 4^k each)
    step = max(1, SLICE_ENTRIES // (rows * dim ** 2 * (dim + 2)))
    open_ = np.arange(nb)
    for p, (desc, mask) in enumerate(zip(*prefixes)):
        if not open_.size:
            break
        # while every outcome is open, a slice of outcomes is a view
        whole = len(open_) == nb
        left = []
        for lo in range(0, len(open_), step):
            js = open_[lo:lo + step]
            sel = slice(lo, lo + step) if whole else js
            masked = residuals[sel] if p == 0 else residuals[sel] * mask
            fids = np.abs(pauli_coefficients(conj * masked[..., None])) ** 2
            # per outcome and candidate, the least score of a row it fires
            if every:
                worst = fids.min(axis=1)
            else:
                worst = fids.min(axis=1, where=fired[sel, :, None], initial=np.inf)
            ok = worst >= 1.0 - tol
            hit = ok.any(axis=1)
            first = ok.argmax(axis=1)
            # every candidate before the first that works scores below it
            score = np.where(hit, worst[np.arange(len(js)), first], worst.max(axis=1))
            best[sel] = np.maximum(best[sel], score)
            done = js[hit]
            for j, x in zip(done.tolist(), first[hit].tolist()):
                chosen[j] = desc + "*".join(names[x])
            min_fid[done] = score[hit]
            left.append(js[~hit])
        open_ = left[0] if len(left) == 1 else np.concatenate(left)
    return chosen, min_fid, best


# ---------------------------------------------------------------------------
# verification


@dataclass(frozen=True)
class OutcomeReport:
    key: str
    probability: float            # averaged over the family: Tr(O^dagger O)/d
    correction: str | None
    min_fidelity: float           # over the probes it fires, after correction (if any)
    best_fidelity: float          # best worst-case over candidates
    perp: bool


@dataclass(frozen=True)
class TeleportResult:
    scenario_id: str
    feasible: bool
    outcomes: tuple[OutcomeReport, ...]
    # min over outcomes of min_fidelity: a min over the d^2 probe rows, so
    # at a tolerance above the default it may read above the family's worst
    worst_fidelity: float
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
    """Verify one scenario at tolerance ``tol``.  ``seed`` is refused unless
    it is a non-negative integer, and is otherwise unused: no result depends
    on it."""
    check_tolerance(tol)
    check_integer("seed", seed)
    if seed < 0:
        raise ValueError("seed must be a non-negative integer, got %r" % seed)
    resource = scenario.resource_state().state
    # refuse a joint register above MAX_QUBITS, and a joint probe stack or one
    # outcome's correction scores after a prefix (rows x 4^k Pauli products x
    # 2^k) above MAX_STACK_ENTRIES, from the sizes alone, before any probe is
    # built
    family = scenario.family
    k = family.num_qubits
    n = qubit_count(2 ** k * resource.dim)
    span = family.span_dim
    rows = span ** 2
    check_stack(rows << n, "%d probes of a %d-qubit joint register need %d x "
                "2^%d amplitudes", rows, n, rows, n)
    check_stack(rows << 3 * k, "%d probes of a %d-qubit family need %d x 4^%d x "
                "2^%d correction scores", rows, k, rows, k, k)
    vectors = build_probes(family)
    joint = (vectors[:, :, None] * resource.amplitudes).reshape(rows, -1)
    out = enumerate_outcomes(joint, build_plan(scenario.steps))
    if len(out) and out.kept_qubits != scenario.receiver:
        raise ValueError(
            "plan for %s leaves qubits %s but the receiver holds %s"
            % (scenario.scenario_id, out.kept_qubits, scenario.receiver)
        )
    # branches are reported in the order the probes first fire them; every
    # branch fires for some probe
    probs = out.probabilities
    fired = probs > 0.0
    first = fired.argmax(axis=1)
    # equal probability rows are equal Gram matrices; the leak is the top
    # eigenvalue of the perp branches' summed Gram matrix, its probabilities
    # summed row by row in enumeration order, and 0.0 when none fires
    uniform = bool((np.abs(probs - probs[0]) <= VALUE_TOL).all())
    max_perp = 0.0
    if out.perp.any():
        leak = sum(probs[out.perp], np.zeros(rows))
        max_perp = float(np.linalg.eigvalsh(_gram(leak, span))[-1])
    average = probs[:, :span].mean(axis=1).tolist()
    chosen, min_fid, best = _find_corrections(
        _prefixes(scenario.allowed_ops, k), out.residuals, vectors, fired, tol)
    fid, top, perp = min_fid.tolist(), best.tolist(), out.perp.tolist()
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
        num_probes=rows,
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
        bits = math.ceil(math.log2(len(seen))) if len(seen) > 1 else 0
        breakdown["outcomes:" + party] = bits
        total += bits
    distinct = {r.correction for r in reports if r.correction is not None}
    bits = math.ceil(math.log2(len(distinct))) if len(distinct) > 1 else 0
    breakdown["correction:" + scenario.aggregator] = bits
    total += bits
    return total, breakdown
