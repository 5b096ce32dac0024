"""Teleportation protocol verification.

A scenario fixes a resource state, a family of unknown input states, a
measurement plan over the sender-side qubits, and the receiver's qubits.
The engine enumerates every measurement outcome for a finite probe set that
certifies the whole family (family basis states, pairwise superpositions
with and without a relative i, and seeded random members), then searches a
deterministic candidate list for a local correction per outcome that maps
the residual back onto the input with fidelity one.

Correction vocabularies:

* ``paulis``          one of sigma0, sigma1, i*sigma2, sigma3 per qubit
* ``paulis+cz``       optionally one controlled-phase on a receiver pair,
                      applied before the Pauli layer
* ``paulis+diag``     optionally one diagonal sign mask on the whole
                      receiver register, applied before the Pauli layer

When no candidate works the result carries a certificate: per outcome, the
best achievable worst-case fidelity over the probe set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterator, Mapping, Sequence

import numpy as np

from .catalog import NamedState, make_state
from .measure import StepSpec, build_plan, enumerate_outcomes
from .states import ASSERT_TOL, PERP_ALARM, SIGMA, VALUE_TOL, PureState, tensor

__all__ = [
    "FamilySpec",
    "TeleportScenario",
    "Probe",
    "OutcomeReport",
    "TeleportResult",
    "family_span",
    "build_probes",
    "run_scenario",
    "classical_cost",
]

NUM_RANDOM_PROBES = 20
PAULI_ORDER = ("s0", "s1", "is2", "s3")


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
    ``dressing`` lists Pauli indices 0..3; its meaning depends on the kind.
    """

    kind: str
    num_qubits: int
    dressing: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.kind not in ("arbitrary", "ghz_diag", "omega_sub", "w_equal3"):
            raise ValueError("unknown family kind %r" % self.kind)


def _dress_vec(vec: PureState, ops: Sequence[tuple[int, str]]) -> PureState:
    from .states import apply_local, pauli

    for qubit, name in ops:
        vec = apply_local(vec, pauli(name), [qubit])
    return vec


def family_span(spec: FamilySpec) -> tuple[tuple[str, ...], tuple[PureState, ...]]:
    """Orthonormal basis of the family's span, with member labels."""
    k = spec.num_qubits
    d = spec.dressing
    if spec.kind == "arbitrary":
        labels = tuple(format(i, "0%db" % k) for i in range(2 ** k))
        return labels, tuple(PureState.from_kets({s: 1.0}) for s in labels)
    if spec.kind == "ghz_diag":
        if len(d) != k:
            raise ValueError("ghz_diag dressing needs one Pauli index per qubit")
        ops = [(q, PAULI_ORDER[i]) for q, i in enumerate(d)]
        lo = _dress_vec(PureState.from_kets({"0" * k: 1.0}), ops)
        hi = _dress_vec(PureState.from_kets({"1" * k: 1.0}), ops)
        return ("D|0..0>", "D|1..1>"), (lo, hi)
    if spec.kind == "omega_sub":
        if len(d) != 2:
            raise ValueError("omega_sub dressing needs two Pauli indices")
        ops = [(0, PAULI_ORDER[d[0]]), (2, PAULI_ORDER[d[1]])]
        u1 = _dress_vec(PureState.from_kets({"001": 1.0, "111": 1.0},
                                            normalize=True), ops)
        u2 = _dress_vec(PureState.from_kets({"000": 1.0, "110": -1.0},
                                            normalize=True), ops)
        return ("D phi+|1>", "D phi-|0>"), (u1, u2)
    # w_equal3
    w = PureState.from_kets({"001": 1.0, "010": 1.0, "100": 1.0, "000": 1.0},
                            normalize=True)
    return ("w_equal",), (w,)


@dataclass(frozen=True)
class Probe:
    label: str
    state: PureState
    certifying: bool  # basis/pair probes certify; randoms cross-check


def build_probes(spec: FamilySpec, rng: np.random.Generator,
                 num_random: int = NUM_RANDOM_PROBES) -> list[Probe]:
    """Family basis states, pair superpositions, and random members."""
    _, span = family_span(spec)
    probes: list[Probe] = []
    for i, v in enumerate(span):
        probes.append(Probe("b%d" % i, v, True))
    n = len(span)
    for i in range(n):
        for j in range(i + 1, n):
            plus = PureState((span[i].amplitudes + span[j].amplitudes) / math.sqrt(2))
            phase = PureState((span[i].amplitudes + 1j * span[j].amplitudes) / math.sqrt(2))
            probes.append(Probe("p%d%d+" % (i, j), plus, True))
            probes.append(Probe("p%d%di" % (i, j), phase, True))
    if n > 1:
        for t in range(num_random):
            coeff = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            coeff /= np.linalg.norm(coeff)
            vec = sum(c * v.amplitudes for c, v in zip(coeff, span))
            probes.append(Probe("r%d" % t, PureState(np.asarray(vec)), False))
    return probes


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

    def resource_state(self) -> NamedState:
        if self.resource_kets:
            state = PureState.from_kets(dict(self.resource_kets), normalize=True)
            return NamedState(name=self.resource, state=state,
                              note="inline resource")
        return make_state(self.resource, **dict(self.resource_params))


# ---------------------------------------------------------------------------
# correction candidates


def _kron_all(mats: Sequence[np.ndarray]) -> np.ndarray:
    out = np.eye(1, dtype=np.complex128)
    for m in mats:
        out = np.kron(out, m)
    return out


def _cz_matrix(k: int, pair: tuple[int, int]) -> np.ndarray:
    d = 2 ** k
    diag = np.ones(d, dtype=np.complex128)
    i, j = pair
    for x in range(d):
        if (x >> (k - 1 - i)) & 1 and (x >> (k - 1 - j)) & 1:
            diag[x] = -1.0
    return np.diag(diag)


def _iter_candidates(allowed: str, k: int) -> Iterator[tuple[str, np.ndarray]]:
    """Deterministic candidate stream: cheap corrections first.

    Yields (descriptor, matrix) where the matrix acts on the receiver
    register in kept-qubit order.
    """
    d = 2 ** k
    prefixes: list[tuple[str, np.ndarray]] = [("", np.eye(d, dtype=np.complex128))]
    if allowed == "paulis+cz":
        for i in range(k):
            for j in range(i + 1, k):
                prefixes.append(("CZ(%d,%d);" % (i, j), _cz_matrix(k, (i, j))))
    elif allowed == "paulis+diag":
        for m in range(1, 2 ** (d - 1)):
            mask = np.ones(d, dtype=np.complex128)
            for b in range(1, d):
                if (m >> (b - 1)) & 1:
                    mask[b] = -1.0
            desc = "D(%s);" % "".join("+" if s > 0 else "-" for s in mask.real)
            prefixes.append((desc, np.diag(mask)))
    pauli_mats = {name: SIGMA[name] for name in PAULI_ORDER}
    tuples = [()]
    for _ in range(k):
        tuples = [t + (p,) for t in tuples for p in PAULI_ORDER]
    for prefix_desc, prefix in prefixes:
        for names in tuples:
            mat = _kron_all([pauli_mats[n] for n in names]) @ prefix
            yield prefix_desc + "*".join(names), mat


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
    rng = np.random.default_rng(seed)
    resource = scenario.resource_state().state
    probes = build_probes(scenario.family, rng, num_random)
    plan = build_plan(scenario.steps)
    k = scenario.family.num_qubits

    receiver_sorted = tuple(sorted(scenario.receiver))
    branches = enumerate_outcomes(
        [tensor(probe.state, resource) for probe in probes], plan)
    kept = branches[0].kept_qubits if branches else ()
    if branches and kept != receiver_sorted:
        raise ValueError(
            "plan for %s leaves qubits %s but the receiver holds %s"
            % (scenario.scenario_id, kept, receiver_sorted)
        )
    # branches are reported in the order the probes first fire them
    probs = np.array([b.probabilities for b in branches])
    firing = [np.flatnonzero(row) for row in probs]
    order = sorted(range(len(branches)), key=lambda j: firing[j][0])
    perp = sum((b.probabilities for b in branches if b.perp), np.zeros(len(probes)))
    max_perp = float(perp.max())
    lowest = np.where(probs > 0.0, probs, np.inf).min(axis=0)
    uniform = not np.any(probs.max(axis=0) - lowest > VALUE_TOL)

    rand_idx = [i for i, p in enumerate(probes) if not p.certifying]
    expected = np.array([p.state.amplitudes for p in probes])

    candidates = list(_iter_candidates(scenario.allowed_ops, k))
    reports: list[OutcomeReport] = []
    feasible = True
    for j in order:
        branch, fired = branches[j], firing[j]
        res_mat = branch.residuals[fired]
        exp_mat = expected[fired]
        cert_rows = [fi for fi, i in enumerate(fired) if probes[i].certifying]
        chosen = None
        chosen_min = 0.0
        best = 0.0
        for desc, mat in candidates:
            corrected = res_mat @ mat.T
            fids = np.abs(np.sum(exp_mat.conj() * corrected, axis=1)) ** 2
            worst_cert = float(np.min(fids[cert_rows])) if cert_rows else float(np.min(fids))
            if worst_cert > best:
                best = worst_cert
            if worst_cert >= 1.0 - tol:
                worst_all = float(np.min(fids))
                if worst_all < 1.0 - tol:
                    # certifying probes passed but a random member did not:
                    # the outcome map is not linear on the span, so keep
                    # searching
                    continue
                chosen = desc
                chosen_min = worst_all
                break
        gen_idx = rand_idx[-1] if rand_idx else fired[-1]
        feasible &= chosen is not None
        reports.append(OutcomeReport(branch.key, float(probs[j, gen_idx]), chosen,
                                     chosen_min, best, branch.perp))

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
        num_probes=len(probes),
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
