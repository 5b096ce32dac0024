"""LOCC discrimination of orthogonal state sets by separated receivers.

The protocols here are non-adaptive: each receiver measures its qubits in a
fixed product basis and the outcome transcript is pooled classically.  A
candidate set is distinguished when no two candidates can produce the same
transcript.  Certificates decompose each candidate over a declared product
of factor bases and check that the candidates occupy disjoint blocks of
product outcomes.

Discrimination and certificates read their candidates the same way: one
check refuses an empty list, repeated labels and mixed register sizes, and
the states become one (B, 2**n) amplitude stack.  The decomposition is
``measure.contract``, the contraction that measures every plan, with the
declared factor bases as its steps: one coefficient per product label
(first factor outermost) and candidate.  No product vector is built.  A
certificate reads every field off which coefficients exceed ``tol``.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Collection, Mapping, Sequence

import numpy as np

from .catalog import NamedBasis
from .measure import (MeasurementPlan, StepSpec, build_plan, contract,
                      enumerate_outcomes)
from .states import ASSERT_TOL, PureState, check_tolerance

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
        """The memoized plan of ``rounds``, shared by every candidate set and
        by every equal protocol; kept on the protocol, so its steps are
        resolved against the catalog once."""
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


def _candidate_stack(candidates: Sequence[tuple[str, PureState]],
                     ) -> tuple[list[str], np.ndarray]:
    """Labels and (B, 2**n) amplitude stack of a candidate list, which must
    be non-empty, with distinct labels, on one register."""
    labels = [label for label, _ in candidates]
    if len(set(labels)) != len(labels):
        raise ValueError("candidate labels must be distinct, repeated: %s"
                         % sorted({lbl for lbl in labels if labels.count(lbl) > 1}))
    if len({state.dim for _, state in candidates}) != 1:
        raise ValueError("candidates must be one or more states on one register")
    return labels, np.array([state.amplitudes for _, state in candidates])


def run_discrimination(candidates: Sequence[tuple[str, PureState]],
                       protocol: LoccProtocol) -> DiscriminationResult:
    """Check whether the protocol's transcripts separate the candidates; a
    branch fires for a candidate above ``DROP_TOL``, the kernel's default.

    Classical cost convention: every round whose party differs from the
    final round's party reports its raw outcome, so the inter-receiver
    traffic is the sum of those rounds' outcome widths (over outcomes that
    actually fire for some candidate).  The final party announces the
    verdict, which is not counted here.
    """
    labels, amplitudes = _candidate_stack(candidates)
    out = enumerate_outcomes(amplitudes, protocol.plan)
    # a branch's owners are the candidates it fires for
    owners = dict(zip(out.keys, (out.probabilities > 0.0).tolist()))
    transcript_map: dict[str, str] = {}
    collisions = []
    for key in sorted(owners):
        who = list(itertools.compress(labels, owners[key]))
        if len(who) > 1:
            collisions.append((key, tuple(sorted(who))))
        else:
            transcript_map[key] = who[0]
    final_party = protocol.rounds[-1].party
    breakdown: dict[str, int] = {}
    total = 0
    for i, rnd in enumerate(protocol.rounds):
        if rnd.party == final_party:
            continue
        fired = {combo[i] for combo in out.labels}
        bits = math.ceil(math.log2(len(fired))) if len(fired) > 1 else 0
        key = "round:%s" % rnd.party
        breakdown[key] = breakdown.get(key, 0) + bits
        total += bits
    return DiscriminationResult(
        protocol_id=protocol.protocol_id,
        success=not collisions,
        transcript_map=transcript_map,
        collisions=tuple(collisions),
        inter_receiver_cbits=total,
        cbit_breakdown=breakdown,
    )


# ---------------------------------------------------------------------------
# product-decomposition certificates


def _coefficients(amplitudes: np.ndarray,
                  factors: Sequence[tuple[tuple[int, ...], NamedBasis]],
                  ) -> tuple[list[tuple[str, ...]], np.ndarray]:
    """Product labels, first factor outermost, and the (labels, B) matrix of
    every row's coefficient over each product of factor basis vectors."""
    order = [q for qubits, _ in factors for q in qubits]
    if sorted(order) != list(range(amplitudes.shape[1].bit_length() - 1)):
        raise ValueError("factors must partition the qubit set")
    for qubits, basis in factors:
        if basis.num_qubits != len(qubits):
            raise ValueError("basis %r is on %d qubits but the factor names %d"
                             % (basis.name, basis.num_qubits, len(qubits)))
    c, _ = contract(amplitudes, [(qubits, basis.matrix.conj())
                                 for qubits, basis in factors])
    labels = list(itertools.product(*(basis.labels for _, basis in factors)))
    return labels, c[:, :, 0].T


def product_terms(state: PureState,
                  factors: Sequence[tuple[tuple[int, ...], NamedBasis]],
                  tol: float = ASSERT_TOL) -> dict[tuple[str, ...], complex]:
    """Expansion coefficients of a state over a product of factor bases.

    Factors must cover every qubit exactly once, each with a basis on as
    many qubits as it names.  Only coefficients with magnitude above tol
    are returned, in label order (first factor outermost).
    """
    check_tolerance(tol)
    labels, coeffs = _coefficients(state.amplitudes[None], factors)
    return {labels[j]: complex(coeffs[j, 0])
            for j in np.flatnonzero(np.abs(coeffs[:, 0]) > tol)}


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
    check_tolerance(tol)
    labels, amplitudes = _candidate_stack(candidates)
    terms, coeffs = _coefficients(amplitudes, factors)
    mags = np.abs(coeffs)
    kept = mags > tol
    # term by term in label order, as a per-candidate sum adds them
    weights = np.cumsum(np.where(kept, mags ** 2, 0.0), axis=0)[-1]
    recon_err = float(np.abs(1.0 - weights).max())
    empty = list(itertools.compress(labels, ~kept.any(axis=0)))
    cross = float(mags[kept.sum(axis=1) > 1].max(initial=0.0))
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
        blocks={lbl: tuple(sorted(terms[j] for j in np.flatnonzero(col)))
                for lbl, col in zip(labels, kept.T)},
        detail=detail,
    )
