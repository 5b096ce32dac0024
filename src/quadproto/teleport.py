"""Teleportation protocol verification.

A scenario fixes a resource state, a family of unknown input states, a
measurement plan over the sender-side qubits, and the receiver's qubits
(ascending).  The engine enumerates every measurement outcome for a finite
probe stack that certifies the whole family (family basis states, pairwise
superpositions with and without a relative i, and seeded random members;
one amplitude row each, tensored with the resource in one step), then
searches a deterministic candidate list for a local correction per outcome
that maps the residual back onto the input with fidelity one.

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
every Pauli product after one prefix for every outcome still open; the scan
runs prefix outer and an outcome leaves it at its first candidate that
works.  One outcome's scores take probes x 4^k x 2^k entries, so a family
above ``MAX_STACK_ENTRIES`` is refused from the sizes, and the open
outcomes are scored in slices of at most ``SLICE_ENTRIES`` (2^21) scores,
one outcome per slice when its own scores are more.

What does not depend on the probe seed is built once per value: the
catalog memoizes the resource state (``make_state``), and the family span
and the certifying probe rows are memoized by ``FamilySpec``, each in a
bounded memo holding read-only arrays.  An inline resource and the random
probe members are built per call.

When no candidate works the result carries a certificate: per outcome, the
best achievable worst-case fidelity over the probe set.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .catalog import NamedState, make_state
from .measure import StepSpec, build_plan, enumerate_outcomes
from .states import (ASSERT_TOL, MAX_STACK_ENTRIES, PAULI_ORDER, PERP_ALARM,
                     SLICE_ENTRIES, VALUE_TOL, CapacityError, PureState,
                     apply_paulis, check_tolerance, ket_vector,
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

NUM_RANDOM_PROBES = 20
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
    ``dressing`` lists ``PAULI_ORDER`` indices 0..3; for ``ghz_diag`` one
    per qubit, for ``omega_sub`` the Paulis on qubits 0 and 2.
    """

    kind: str
    num_qubits: int
    dressing: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.kind not in ("arbitrary", "ghz_diag", "omega_sub", "w_equal3"):
            raise ValueError("unknown family kind %r" % self.kind)
        if any(not 0 <= i < len(PAULI_ORDER) for i in self.dressing):
            raise ValueError("dressing lists Pauli indices 0..3, got %s"
                             % list(self.dressing))


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
            if len(d) != k:
                raise ValueError("ghz_diag dressing needs one Pauli index per qubit")
            kets, word = [{"0" * k: 1.0}, {"1" * k: 1.0}], d
        else:  # omega_sub
            if len(d) != 2:
                raise ValueError("omega_sub dressing needs two Pauli indices")
            kets = [{"001": 1.0, "111": 1.0}, {"000": 1.0, "110": -1.0}]
            word = (d[0], 0, d[1])
        bare = np.array([ket_vector(terms, normalize=True) for terms in kets])
        span = apply_paulis(bare, [PAULI_ORDER[w] for w in word])
    span.flags.writeable = False
    return span


@functools.lru_cache(maxsize=1024)
def _certifying_rows(spec: FamilySpec) -> np.ndarray:
    """The certifying probes of a family, one read-only row each: the span
    members, then per pair i < j (s_i + s_j)/sqrt(2) and (s_i + i s_j)/sqrt(2)."""
    span = family_span(spec)
    n, dim = span.shape
    i, j = np.triu_indices(n, 1)
    pairs = np.stack([span[i] + span[j], span[i] + 1j * span[j]], axis=1) / math.sqrt(2)
    rows = np.concatenate([span, pairs.reshape(-1, dim)])
    rows.flags.writeable = False
    return rows


def build_probes(spec: FamilySpec, rng: np.random.Generator,
                 num_random: int = NUM_RANDOM_PROBES) -> tuple[np.ndarray, np.ndarray]:
    """The probe stack of a family, one probe per row, and which rows certify.

    Rows are the span members, then per pair i < j the superpositions
    (s_i + s_j)/sqrt(2) and (s_i + i s_j)/sqrt(2), all certifying and
    memoized by value; then, when the span has more than one member,
    ``num_random`` seeded random members, drawn per call, which only
    cross-check.
    """
    span = family_span(spec)
    n = len(span)
    rows = [_certifying_rows(spec)]
    if n > 1:
        # one draw, in the order of per-member real then imaginary draws
        z = rng.standard_normal((num_random, 2, n))
        coeff = z[:, 0] + 1j * z[:, 1]
        # each row's norm as np.linalg.norm forms it, bit for bit: the dot
        # of the real parts plus the dot of the imaginary parts
        re, im = coeff.real, coeff.imag
        coeff /= np.sqrt((re[:, None, :] @ re[:, :, None])
                         + (im[:, None, :] @ im[:, :, None]))[:, 0]
        # term by term from 0, member 0 first, as a per-probe sum adds them,
        # so the rows do not depend on how a matrix product would round
        rows.append(sum(coeff[:, m, None] * span[m] for m in range(n)))
    vectors = np.concatenate(rows)
    return vectors, np.arange(len(vectors)) < len(rows[0])


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
        if self.allowed_ops not in ("paulis", "paulis+cz", "paulis+diag"):
            raise ValueError("unknown correction vocabulary %r" % self.allowed_ops)
        if len(self.receiver) != self.family.num_qubits:
            raise ValueError("receiver register size must match the family")
        # the engine and the correction names read the receiver in ascending order
        if list(self.receiver) != sorted(set(self.receiver)):
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
                      fired: np.ndarray, certifying: np.ndarray,
                      tol: float) -> tuple[list[str | None], np.ndarray, np.ndarray]:
    """First candidate per outcome mapping every row it fires onto its input.

    ``residuals`` is the (nb, rows, 2**k) stack of every outcome, ``fired``
    its (nb, rows) firing mask, ``expected`` the (rows, 2**k) inputs and
    ``certifying`` which rows certify; an outcome no certifying row fires
    is certified by every row it fires.  Returns per outcome the descriptor
    or None, the worst fidelity over its fired rows of the chosen candidate
    or 0.0, and the best worst certifying fidelity over the candidates
    scanned up to and including the chosen one.  A candidate is chosen when
    both the certifying rows and all fired rows reach ``1 - tol``: a random
    member failing where the certifying rows pass means the outcome map is
    not linear on the span, so the scan goes on.

    Per prefix, one Pauli transform scores every product for every outcome
    still open, in slices of at most ``SLICE_ENTRIES`` scores (one outcome
    when its scores alone exceed that); outcomes leave the open set at their
    first hit.
    """
    nb, rows, dim = residuals.shape
    k = qubit_count(dim)
    names = pauli_table(k).names
    cert = fired & certifying
    cert = np.where(cert.any(axis=1, keepdims=True), cert, fired)[..., None]
    fired = fired[..., None]
    exp_conj = expected.conj()[:, None, :]
    chosen: list[str | None] = [None] * nb
    min_fid = np.zeros(nb)
    best = np.zeros(nb)
    step = max(1, SLICE_ENTRIES // (rows << 3 * k))
    open_ = np.arange(nb)
    for desc, mask in zip(*prefixes):
        resolved = np.zeros(len(open_), dtype=bool)
        for lo in range(0, len(open_), step):
            js = open_[lo:lo + step]
            outer = exp_conj * (residuals[js] * mask)[..., None]
            fids = np.abs(pauli_coefficients(outer)) ** 2
            worst_cert = fids.min(axis=1, where=cert[js], initial=np.inf)
            worst_all = fids.min(axis=1, where=fired[js], initial=np.inf)
            ok = (worst_cert >= 1.0 - tol) & (worst_all >= 1.0 - tol)
            hit = ok.any(axis=1)
            last = np.where(hit, ok.argmax(axis=1), ok.shape[1] - 1)
            at = np.arange(len(js))
            scanned = np.maximum.accumulate(worst_cert, axis=1)[at, last]
            best[js] = np.maximum(best[js], scanned)
            for i in np.flatnonzero(hit):
                chosen[js[i]] = desc + "*".join(names[last[i]])
            min_fid[js[hit]] = worst_all[at[hit], last[hit]]
            resolved[lo:lo + step] = hit
        open_ = open_[~resolved]
        if not open_.size:
            break
    return chosen, min_fid, best


# ---------------------------------------------------------------------------
# verification


@dataclass(frozen=True)
class OutcomeReport:
    key: str
    probability: float            # for a generic (random or last) probe
    correction: str | None
    min_fidelity: float           # over all probes, after correction (if any)
    best_fidelity: float          # best worst-case over candidates
    perp: bool


@dataclass(frozen=True)
class TeleportResult:
    scenario_id: str
    feasible: bool
    outcomes: tuple[OutcomeReport, ...]
    worst_fidelity: float         # min over outcomes of min_fidelity
    best_worst_fidelity: float    # min over outcomes of best_fidelity
    perp_probability: float       # max over probes
    uniform_nonzero: bool
    classical_cost: int | None
    cost_breakdown: Mapping[str, int] | None
    num_probes: int
    reason: str = ""

    @property
    def corrections(self) -> dict[str, str]:
        return {o.key: o.correction for o in self.outcomes if o.correction}


def run_scenario(scenario: TeleportScenario, seed: int = 42,
                 tol: float = ASSERT_TOL,
                 num_random: int = NUM_RANDOM_PROBES) -> TeleportResult:
    check_tolerance(tol)
    rng = np.random.default_rng(seed)
    resource = scenario.resource_state().state
    # refuse a joint register above MAX_QUBITS, and a joint probe stack or one
    # outcome's correction scores after a prefix (rows x 4^k Pauli products x
    # 2^k) above MAX_STACK_ENTRIES, from the sizes alone, before any probe is
    # built
    family = scenario.family
    k = family.num_qubits
    n = qubit_count(2 ** k * resource.dim)
    span = {"arbitrary": 2 ** k, "w_equal3": 1}.get(family.kind, 2)
    rows = span ** 2 + (num_random if span > 1 else 0)
    limit = "over the limit of 2^%d" % (MAX_STACK_ENTRIES.bit_length() - 1)
    if rows << n > MAX_STACK_ENTRIES:
        raise CapacityError("%d probes of a %d-qubit joint register need %d x "
                            "2^%d amplitudes, %s" % (rows, n, rows, n, limit))
    if rows << 3 * k > MAX_STACK_ENTRIES:
        raise CapacityError("%d probes of a %d-qubit family need %d x 4^%d x "
                            "2^%d correction scores, %s" % (rows, k, rows, k, k, limit))
    vectors, certifying = build_probes(family, rng, num_random)
    joint = (vectors[:, :, None] * resource.amplitudes).reshape(len(vectors), -1)
    out = enumerate_outcomes(joint, build_plan(scenario.steps))
    if len(out) and out.kept_qubits != tuple(scenario.receiver):
        raise ValueError(
            "plan for %s leaves qubits %s but the receiver holds %s"
            % (scenario.scenario_id, out.kept_qubits, scenario.receiver)
        )
    # branches are reported in the order the probes first fire them; every
    # branch fires for some probe
    probs = out.probabilities
    fired = probs > 0.0
    first = fired.argmax(axis=1)
    last = fired.shape[1] - 1 - fired[:, ::-1].argmax(axis=1)
    # row by row in enumeration order: the reported float depends on the order
    perp = sum(probs[out.perp], np.zeros(len(vectors)))
    max_perp = float(perp.max())
    lowest = np.where(fired, probs, np.inf).min(axis=0)
    uniform = not np.any(probs.max(axis=0) - lowest > VALUE_TOL)

    # the generic probe: the last random member, else the last probe that fires
    gen_idx = np.where(certifying.all(), last, len(vectors) - 1)
    chosen, min_fid, best = _find_corrections(
        _prefixes(scenario.allowed_ops, k), out.residuals, vectors,
        fired, certifying, tol)
    reports = [OutcomeReport(out.keys[j], float(probs[j, gen_idx[j]]), chosen[j],
                             float(min_fid[j]), float(best[j]), bool(out.perp[j]))
               for j in np.argsort(first, kind="stable")]
    feasible = all(r.correction is not None for r in reports)

    reason = ""
    if max_perp > PERP_ALARM:
        reason = "probability %.3e leaks into auto-completed directions" % max_perp
        feasible = False
    worst = min((r.min_fidelity for r in reports if r.correction), default=0.0)
    best_worst = min((r.best_fidelity for r in reports), default=0.0)
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
        num_probes=len(vectors),
        reason=reason,
    )


def classical_cost(scenario: TeleportScenario,
                   reports: Sequence[OutcomeReport]) -> tuple[int, dict]:
    """Classical bits sent, relay convention.

    Measuring parties other than the aggregator relay their raw outcomes
    (ceil(log2) of the distinct results they can see); the aggregator then
    broadcasts one of the distinct corrections.  Outcomes that never fire
    on any probe cost nothing.
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
