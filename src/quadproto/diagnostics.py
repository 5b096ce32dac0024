"""Entanglement diagnostics: purity profiles, concurrence, three-tangle.

Everything here works on exact pure states; the only mixed objects are
reduced density matrices obtained by partial trace.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Mapping

import numpy as np

from .states import MIXED_TOL, SIGMA, PureState, purity, reduced_density

__all__ = [
    "wootters_concurrence",
    "pair_concurrence",
    "three_tangle_pure",
    "purity_profile",
    "genuine_multipartite",
    "EntanglementProfile",
    "profile",
]


def wootters_concurrence(rho: np.ndarray) -> float:
    """Concurrence of a two-qubit density matrix.

    C = max(0, l1 - l2 - l3 - l4) where l_i are the decreasingly sorted
    square roots of the eigenvalues of rho (s2 x s2) rho* (s2 x s2).
    """
    mat = np.asarray(rho)
    if mat.shape != (4, 4):
        raise ValueError("concurrence is defined for two qubits")
    yy = np.kron(SIGMA["s2"], SIGMA["s2"])
    r = mat @ yy @ mat.conj() @ yy
    evals = np.linalg.eigvals(r)
    lam = np.sqrt(np.sort(np.clip(evals.real, 0.0, None))[::-1])
    return float(max(0.0, lam[0] - lam[1] - lam[2] - lam[3]))


def pair_concurrence(state: PureState, i: int, j: int) -> float:
    """Concurrence between qubits i and j after tracing out the rest."""
    return wootters_concurrence(reduced_density(state, [i, j]))


def _one_to_rest_concurrence_sq(state: PureState, i: int) -> float:
    # pure bipartite qubit-vs-rest: C^2 = 4 det(rho_i) = 2 (1 - purity)
    rho = reduced_density(state, [i])
    det = np.linalg.det(rho).real
    return float(max(0.0, 4.0 * det))


def three_tangle_pure(state: PureState) -> float:
    """Residual tangle of a pure three-qubit state.

    tau = C^2_{0(12)} - C^2_{01} - C^2_{02}; clamped at zero against
    roundoff.  Permutation invariance is a test-suite property.
    """
    if state.num_qubits != 3:
        raise ValueError("three-tangle is defined for three qubits")
    c2_bulk = _one_to_rest_concurrence_sq(state, 0)
    c01 = pair_concurrence(state, 0, 1)
    c02 = pair_concurrence(state, 0, 2)
    return float(max(0.0, c2_bulk - c01 ** 2 - c02 ** 2))


def purity_profile(state: PureState) -> dict[tuple[int, ...], float]:
    """Purity of every proper, nonempty reduction."""
    n = state.num_qubits
    out: dict[tuple[int, ...], float] = {}
    for size in range(1, n):
        for keep in combinations(range(n), size):
            out[keep] = purity(reduced_density(state, keep))
    return out


def genuine_multipartite(state: PureState) -> bool:
    """True when every proper reduction is mixed, below purity 1 - ``MIXED_TOL``.

    A pure reduction would mean the state factorizes across that cut.
    """
    return _all_mixed(purity_profile(state))


def _all_mixed(purities: Mapping[tuple[int, ...], float]) -> bool:
    return all(p < 1.0 - MIXED_TOL for p in purities.values())


@dataclass(frozen=True)
class EntanglementProfile:
    name: str
    num_qubits: int
    purities: Mapping[tuple[int, ...], float]
    pair_concurrences: Mapping[tuple[int, int], float]
    genuine: bool
    max_reduction_purity: float


def profile(name: str, state: PureState) -> EntanglementProfile:
    purities = purity_profile(state)
    pairs = {
        (i, j): pair_concurrence(state, i, j)
        for i, j in combinations(range(state.num_qubits), 2)
    }
    return EntanglementProfile(
        name=name,
        num_qubits=state.num_qubits,
        purities=purities,
        pair_concurrences=pairs,
        genuine=_all_mixed(purities),
        max_reduction_purity=max(purities.values()),
    )
