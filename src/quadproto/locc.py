"""LOCC discrimination of orthogonal state sets by separated receivers.

The protocols here are non-adaptive: each receiver measures its qubits in a
fixed product basis and the outcome transcript is pooled classically.  A
candidate set is distinguished when no two candidates can produce the same
transcript.  Certificates decompose each candidate over a declared product
of factor bases and check that the candidates occupy disjoint blocks of
product outcomes.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Collection, Mapping, Sequence

import numpy as np

from .catalog import NamedBasis
from .measure import MeasurementPlan, StepSpec, build_plan, enumerate_outcomes
from .states import ASSERT_TOL, DROP_TOL, PureState

__all__ = [
    "LoccProtocol",
    "DiscriminationResult",
    "run_discrimination",
    "product_terms",
    "CertificateReport",
    "check_certificate",
]


@dataclass(frozen=True)
class LoccProtocol:
    protocol_id: str
    rounds: tuple[StepSpec, ...]

    @functools.cached_property
    def plan(self) -> MeasurementPlan:
        """Built on first use and kept: one protocol serves many candidate sets."""
        return build_plan(self.rounds)


@dataclass(frozen=True)
class DiscriminationResult:
    protocol_id: str
    success: bool
    transcript_map: Mapping[str, str]   # transcript key -> candidate label
    collisions: tuple[tuple[str, tuple[str, ...]], ...]
    inter_receiver_cbits: int
    cbit_breakdown: Mapping[str, int]

    def separates(self, labels: Collection[str]) -> bool:
        """Whether the candidates named in ``labels`` get pairwise distinct
        transcripts, i.e. no collision holds two of them."""
        chosen = set(labels)
        return all(len(chosen.intersection(owners)) < 2
                   for _, owners in self.collisions)


def run_discrimination(candidates: Sequence[tuple[str, PureState]],
                       protocol: LoccProtocol,
                       tol: float = DROP_TOL) -> DiscriminationResult:
    """Check whether the protocol's transcripts separate the candidates.

    Classical cost convention: every round whose party differs from the
    final round's party reports its raw outcome, so the inter-receiver
    traffic is the sum of those rounds' outcome widths (over outcomes that
    actually fire for some candidate).  The final party announces the
    verdict, which is not counted here.
    """
    labels = [label for label, _ in candidates]
    branches = enumerate_outcomes([state for _, state in candidates],
                                  protocol.plan, drop_tol=tol)
    transcripts = {b.key: {labels[i] for i in np.flatnonzero(b.probabilities)}
                   for b in branches}
    collisions = tuple(
        (key, tuple(sorted(owners)))
        for key, owners in sorted(transcripts.items())
        if len(owners) > 1
    )
    final_party = protocol.rounds[-1].party
    breakdown: dict[str, int] = {}
    total = 0
    for i, rnd in enumerate(protocol.rounds):
        if rnd.party == final_party:
            continue
        fired = {b.labels[i] for b in branches}
        bits = math.ceil(math.log2(len(fired))) if len(fired) > 1 else 0
        key = "round:%s" % rnd.party
        breakdown[key] = breakdown.get(key, 0) + bits
        total += bits
    return DiscriminationResult(
        protocol_id=protocol.protocol_id,
        success=not collisions,
        transcript_map={k: next(iter(v)) for k, v in sorted(transcripts.items())
                        if len(v) == 1},
        collisions=collisions,
        inter_receiver_cbits=total,
        cbit_breakdown=breakdown,
    )


# ---------------------------------------------------------------------------
# product-decomposition certificates


def product_terms(state: PureState,
                  factors: Sequence[tuple[tuple[int, ...], NamedBasis]],
                  tol: float = ASSERT_TOL) -> dict[tuple[str, ...], complex]:
    """Expansion coefficients of a state over a product of factor bases.

    Factors must cover every qubit exactly once.  Only coefficients with
    magnitude above tol are returned.
    """
    n = state.num_qubits
    covered = [q for qubits, _ in factors for q in qubits]
    if sorted(covered) != list(range(n)):
        raise ValueError("factors must partition the qubit set")
    out: dict[tuple[str, ...], complex] = {}
    label_sets = [f.labels for _, f in factors]
    for combo in itertools.product(*[range(len(ls)) for ls in label_sets]):
        vec = np.ones(1, dtype=np.complex128)
        order: list[int] = []
        for (qubits, basis), idx in zip(factors, combo):
            vec = np.kron(vec, basis.vectors[idx].amplitudes)
            order.extend(qubits)
        coeff = complex(np.vdot(_align(vec, order, n), state.amplitudes))
        if abs(coeff) > tol:
            labels = tuple(label_sets[i][combo[i]] for i in range(len(factors)))
            out[labels] = coeff
    return out


def _align(vec: np.ndarray, order: Sequence[int], n: int) -> np.ndarray:
    """Reorder a tensor laid out qubit-by-qubit in ``order`` to 0..n-1."""
    t = vec.reshape([2] * n)
    # axis i of t is qubit order[i]; move it to position order[i]
    dest = list(order)
    t = np.moveaxis(t, range(n), dest)
    return t.reshape(-1)


@dataclass(frozen=True)
class CertificateReport:
    ok: bool
    reconstruction_error: float          # max over candidates
    cross_overlap: float                 # max |<term_i|psi_j>| over i != j shared terms
    empty_supports: tuple[str, ...]
    blocks: Mapping[str, tuple[tuple[str, ...], ...]]
    detail: str = ""


def check_certificate(candidates: Sequence[tuple[str, PureState]],
                      factors: Sequence[tuple[tuple[int, ...], NamedBasis]],
                      tol: float = ASSERT_TOL) -> CertificateReport:
    """Generate and verify a disjoint-support certificate.

    Each candidate is projected onto the declared product family.  The
    certificate holds when (a) every candidate is fully reconstructed by
    its retained terms, (b) no product outcome is shared by two candidates,
    and (c) every candidate retains at least one term.
    """
    supports: dict[str, dict[tuple[str, ...], complex]] = {}
    recon_err = 0.0
    empty: list[str] = []
    for label, state in candidates:
        terms = product_terms(state, factors, tol=tol)
        supports[label] = terms
        weight = sum(abs(c) ** 2 for c in terms.values())
        recon_err = max(recon_err, abs(1.0 - weight))
        if not terms:
            empty.append(label)
    cross = 0.0
    labels = [lbl for lbl, _ in candidates]
    for i, a in enumerate(labels):
        for b in labels[i + 1:]:
            shared = set(supports[a]) & set(supports[b])
            for term in shared:
                cross = max(cross, abs(supports[a][term]), abs(supports[b][term]))
    ok = recon_err < tol and cross == 0.0 and not empty
    detail = ""
    if cross > 0.0:
        detail = "candidates share product outcomes"
    elif empty:
        detail = "empty support for %s" % ", ".join(empty)
    elif recon_err >= tol:
        detail = "reconstruction residual %.3e" % recon_err
    return CertificateReport(
        ok=ok,
        reconstruction_error=recon_err,
        cross_overlap=cross,
        empty_supports=tuple(empty),
        blocks={lbl: tuple(sorted(supports[lbl])) for lbl in labels},
        detail=detail,
    )
