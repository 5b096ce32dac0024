"""Entanglement structure of the catalog states.

Purity of every proper reduction decides genuineness; pairwise Wootters
concurrence separates the W-like states (which keep pair correlations)
from the cat-like ones (which hide everything in the global phase).  The
residual three-tangle tells GHZ from W at three qubits.
"""

from quadproto import (
    PureState,
    make_state,
    profile,
    three_tangle_pure,
)


def main() -> None:
    for name in ("GHZ4", "W4", "Omega", "Q4", "Q5"):
        prof = profile(name, make_state(name).state)
        print("%s: genuine=%s  max reduction purity=%.4f"
              % (name, prof.genuine, prof.max_reduction_purity))
        pairs = ["C(%d,%d)=%.3f" % (i, j, c)
                 for (i, j), c in sorted(prof.pair_concurrences.items())]
        print("   " + "  ".join(pairs))
    print()

    ghz3 = make_state("GHZ:3").state
    w3 = PureState.from_kets({"001": 1, "010": 1, "100": 1}, normalize=True)
    print("three-tangle GHZ:3 = %.6f" % three_tangle_pure(ghz3))
    print("three-tangle W3    = %.6f" % three_tangle_pure(w3))
    print()

    # a state that looks four-partite but is not
    from quadproto import genuine_multipartite, tensor
    pair_of_pairs = tensor(make_state("Bell:phi+").state,
                           make_state("Bell:phi+").state)
    print("two stacked Bell pairs genuine? %s"
          % genuine_multipartite(pair_of_pairs))
    print("product |0000> genuine?        %s"
          % genuine_multipartite(PureState.from_kets({"0000": 1.0})))


if __name__ == "__main__":
    main()
