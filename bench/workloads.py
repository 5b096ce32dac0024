"""The four benchmark workloads: their inputs, operations and output checks.

A workload is built from the seed alone.  ``ops`` is one pass: a fixed list
of operations, each one public quadproto call (or one CLI process for
``cli_mix``).  An operation returns ``(ok, payload)``; ``ok`` is False only
for a known fault that showed.  ``check`` verifies one pass of payloads,
outside any timed region, and returns a list of error strings.

Operations look quadproto functions up on the package at call time, so the
wrappers of a traced run see them.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import subprocess
import sys
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

import quadproto as qp
from quadproto import scenarios as reg

import reference as ref

HERE = os.path.dirname(os.path.abspath(__file__))

TELEPORT_TOL = 1e-10      # fidelity of a positive scenario's corrections
NEGATIVE_GAP = 1e-3       # negatives stay this far below unit fidelity


@dataclass
class Op:
    name: str
    run: Callable[[], tuple[bool, Any]]


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream])


# ---------------------------------------------------------------------------


class TeleportSweep:
    """Every registered and negative scenario, round-tripped through JSON.

    Each scenario runs at PROBE_SEEDS probe seeds drawn from the workload
    seed; one operation is dumps + loads + run_scenario.
    """

    PROBE_SEEDS = 2
    FRESH_INPUTS = 3

    def __init__(self, seed: int) -> None:
        self.seed = seed
        probe_seeds = _rng(seed, 1).integers(0, 2 ** 31 - 1, self.PROBE_SEEDS)
        scenarios = [(sc, True) for sc in reg.TELEPORT_SCENARIOS.values()]
        scenarios += [(sc, False) for group in reg.negative_scenarios().values()
                      for sc in group]
        self.cases = [(sc, positive, int(s)) for sc, positive in scenarios
                      for s in probe_seeds]

    def ops(self) -> list[Op]:
        def run(sc, probe_seed):
            loaded = qp.loads_scenario(qp.dumps_scenario(sc))
            return True, (loaded, qp.run_scenario(loaded, seed=probe_seed))

        return [Op("%s@%d" % (sc.scenario_id, s), lambda sc=sc, s=s: run(sc, s))
                for sc, _, s in self.cases]

    def check(self, payloads) -> list[str]:
        errors = []
        rng = _rng(self.seed, 2)
        for (sc, positive, _), (loaded, res) in zip(self.cases, payloads):
            where = sc.scenario_id
            if loaded != sc:
                errors.append("%s: JSON round trip changed the scenario" % where)
            if not positive:
                if res.feasible or res.best_worst_fidelity >= 1.0 - NEGATIVE_GAP:
                    errors.append("%s: negative scenario feasible=%s best=%.6f"
                                  % (where, res.feasible, res.best_worst_fidelity))
                continue
            errors.extend(self._replay(sc, res, rng))
        return errors

    def _replay(self, sc, res, rng) -> list[str]:
        where = sc.scenario_id
        if not res.feasible or any(o.correction is None for o in res.outcomes):
            return ["%s: no correction table (%s)" % (where, res.reason)]
        k = sc.family.num_qubits
        table = {o.key: ref.correction_matrix(o.correction, k) for o in res.outcomes}
        steps = []
        for step in sc.steps:
            basis = qp.make_basis(step.basis, **dict(step.basis_params))
            steps.append((step.qubits, {lbl: v.amplitudes
                                        for lbl, v in zip(basis.labels, basis.vectors)}))
        inputs = ref.family_members(sc.family.kind, k, sc.family.dressing, rng,
                                    self.FRESH_INPUTS)
        worst, covered = ref.replay_table(inputs, sc.resource_state().state.amplitudes,
                                          steps, sc.receiver, table)
        errors = []
        if worst < 1.0 - TELEPORT_TOL or covered < 1.0 - TELEPORT_TOL:
            errors.append("%s: replay fidelity %.12f, table covers p=%.12f"
                          % (where, worst, covered))
        cost = ref.relay_cost([s.party for s in sc.steps], sc.aggregator,
                              list(table), [o.correction for o in res.outcomes])
        want = reg.TELEPORT_COSTS[sc.scenario_id]
        if not cost == res.classical_cost == want:
            errors.append("%s: cost recomputed %d, reported %s, stated %d"
                          % (where, cost, res.classical_cost, want))
        return errors


# ---------------------------------------------------------------------------


class LoccSearch:
    """Every 2-, 3- and 4-subset of q4_8 and a seeded sample of omega16
    subsets of sizes 2..8, each against all catalog protocols, plus every
    declared certificate."""

    OMEGA16_PER_SIZE = 10

    def __init__(self, seed: int) -> None:
        self.sets = reg.locc_candidate_sets()
        self.protocols = reg.catalog_protocols()
        self.factors = reg.certificate_factors()
        self.subsets = [("q4_8", idx) for r in (2, 3, 4)
                        for idx in itertools.combinations(range(8), r)]
        rng = _rng(seed, 1)
        for size in range(2, 9):
            for _ in range(self.OMEGA16_PER_SIZE):
                pick = rng.choice(16, size=size, replace=False)
                self.subsets.append(("omega16", tuple(sorted(int(i) for i in pick))))
        self.candidates = [[self.sets[name][i] for i in idx]
                           for name, idx in self.subsets]

    def ops(self) -> list[Op]:
        out = []
        for (name, idx), cands in zip(self.subsets, self.candidates):
            for proto in self.protocols:
                out.append(Op("%s%s/%s" % (name, idx, proto.protocol_id),
                              lambda c=cands, p=proto: (True, qp.run_discrimination(c, p))))
        for name, factors in self.factors.items():
            out.append(Op("certificate/" + name,
                          lambda s=self.sets[name], f=factors:
                          (True, qp.check_certificate(s, f))))
        return out

    def _rounds(self, parts):
        rounds = []
        for qubits, basis in parts:
            if isinstance(basis, str):
                basis = qp.make_basis(basis)
            rounds.append((qubits, [v.amplitudes for v in basis.vectors]))
        return rounds

    def check(self, payloads) -> list[str]:
        errors = []
        amps = {name: np.array([st.amplitudes for _, st in cands])
                for name, cands in self.sets.items()}
        prob = {}
        for proto in self.protocols:
            rows = ref.product_basis(
                self._rounds([(r.qubits, r.basis) for r in proto.rounds]), 4)
            for name in ("q4_8", "omega16"):
                prob[name, proto.protocol_id] = ref.outcome_probabilities(rows, amps[name])
        verdicts = {True: 0, False: 0}
        results = iter(payloads)
        for name, idx in self.subsets:
            for proto in self.protocols:
                res = next(results)
                want = ref.collisions(prob[name, proto.protocol_id][list(idx)])
                verdicts[res.success] += 1
                if res.success != (want == 0) or len(res.collisions) != want:
                    errors.append("%s%s/%s: success=%s with %d collisions, "
                                  "recomputed %d" % (name, idx, proto.protocol_id,
                                                     res.success, len(res.collisions), want))
        for name, factors in self.factors.items():
            rep = next(results)
            rows = ref.product_basis(self._rounds(factors), 4)
            want = ref.certificate_holds(rows, amps[name])
            # the suite states that every declared certificate but omega16's holds
            if rep.ok != want or rep.ok != (name != "omega16"):
                errors.append("certificate %s: ok=%s, recomputed %s"
                              % (name, rep.ok, want))
        if not verdicts[True] or not verdicts[False]:
            errors.append("verdicts are not mixed: %s" % verdicts)
        return errors


# ---------------------------------------------------------------------------


class CapacitySweep:
    """best_over_subsets for k = 1, 2, 3 on catalog, weighted-W and Haar
    states, GHZ:5 at k = 4, and one known-fault call."""

    CATALOG = (("GHZ4", {}), ("W4", {}), ("Omega", {}), ("Q4", {}), ("Q5", {}),
               ("Q4_11", {}), ("W_mn", {"m": 1, "n": 1}))
    W_DRAWS = 3
    HAAR_DRAWS = 3

    def __init__(self, seed: int) -> None:
        rng = _rng(seed, 1)
        self.states = [(name, params, qp.make_state(name, **params).state)
                       for name, params in self.CATALOG]
        for _ in range(self.W_DRAWS):
            m, n = rng.uniform(0.25, 4.0, 2)
            rho, eta, sigma = rng.uniform(0.0, 2 * math.pi, 3)
            params = {"m": m, "n": n, "rho": rho, "eta": eta, "sigma": sigma}
            self.states.append(("W_mn", params, qp.make_state("W_mn", **params).state))
        for _ in range(self.HAAR_DRAWS):
            self.states.append(("haar", {}, qp.PureState(ref.haar(4, rng))))
        self.ghz5 = qp.make_state("GHZ:5").state
        self.ghz4 = self.states[0][2]

    def ops(self) -> list[Op]:
        out = [Op("%s%s/k=%d" % (name, params or "", k),
                  lambda st=st, k=k: (True, qp.best_over_subsets(st, k)))
               for name, params, st in self.states for k in (1, 2, 3)]
        out.append(Op("GHZ:5/k=4", lambda: (True, qp.best_over_subsets(self.ghz5, 4))))
        out.append(Op("fault:repeated_sender", self._repeated_sender))
        return out

    def _repeated_sender(self):
        # known fault: a repeated sender qubit is accepted, not rejected
        try:
            res = qp.distinguishable_messages(self.ghz4, (0, 0))
        except ValueError:
            return True, None
        return False, res.count

    def check(self, payloads) -> list[str]:
        errors = []
        results = iter(payloads)
        per_state = []
        for name, params, st in self.states:
            counts = {}
            for k in (1, 2, 3):
                best, per_subset = next(results)
                errors.extend(self._check_query(name, st.amplitudes, best, per_subset))
                counts.update(per_subset)
            per_state.append(counts)
            for subset, count in counts.items():
                for q in range(4):
                    grown = tuple(sorted(subset + (q,)))
                    if q not in subset and grown in counts and counts[grown] < count:
                        errors.append("%s: N drops from %d at %s to %d at %s"
                                      % (name, count, subset, counts[grown], grown))
        best, per_subset = next(results)
        errors.extend(self._check_query("GHZ:5", self.ghz5.amplitudes, best, per_subset))
        per_state.append(per_subset)

        def counts_for(name, params):
            if name == "GHZ:5":
                return per_state[-1]
            return per_state[self.CATALOG.index((name, params))]

        for cid, name, params, subsets, want, op in reg.CAPACITY_TABLE:
            for subset in subsets:
                got = counts_for(name, params)[tuple(subset)]
                if not (got == want if op == "==" else got < want):
                    errors.append("%s: N=%d at %s, stated %s %d"
                                  % (cid, got, subset, op, want))
        for cid, name, params, subset, count, _ in reg.CAPACITY_REFUTATIONS:
            got = counts_for(name, params)[tuple(subset)]
            if got != count:
                errors.append("%s: counter-witness N=%d at %s, recorded %d"
                              % (cid, got, subset, count))
        return errors

    @staticmethod
    def _check_query(name, amps, best, per_subset) -> list[str]:
        errors = []
        k = len(best.sender_qubits)
        vecs = np.array([ref.apply_paulis(amps, best.sender_qubits, names)
                         for names in best.witness])
        overlap = ref.max_offdiag_overlap(vecs)
        if overlap >= 1e-10 or best.count != len(best.witness):
            errors.append("%s %s: witness of %d (count %d) has overlap %.3g"
                          % (name, best.sender_qubits, len(best.witness),
                             best.count, overlap))
        if best.count != max(per_subset.values()):
            errors.append("%s k=%d: best %d is not the subset maximum" % (name, k, best.count))
        for subset, count in per_subset.items():
            bound = min(4 ** k, 2 ** k * ref.schmidt_rank(amps, subset))
            if count > bound:
                errors.append("%s %s: N=%d exceeds the bound %d"
                              % (name, subset, count, bound))
        return errors


# ---------------------------------------------------------------------------


class CliMix:
    """Cold CLI processes covering every command, started through
    ``launch.py``, each with ``--format json``."""

    FILE_SCENARIO = "omega2_bellbell_cz"

    def __init__(self, seed: int, workdir: str) -> None:
        self.workdir = workdir
        scenario_file = os.path.join(workdir, "scenario.json")
        with open(scenario_file, "w", encoding="utf-8") as fh:
            fh.write(qp.dumps_scenario(reg.TELEPORT_SCENARIOS[self.FILE_SCENARIO]))
        s = str(int(_rng(seed, 1).integers(0, 2 ** 31 - 1)))  # probe seed
        # (name, arguments, expected exit code)
        self.commands = [
            ("suite", ["suite", "--seed", s], 0),
            ("catalog_dump", ["catalog", "--dump"], 0),
            ("teleport_w3_sigma", ["teleport", "--scenario", "w3_sigma", "--seed", s], 0),
            ("teleport_q4_bob4_1q", ["teleport", "--scenario", "q4_bob4_1q",
                                     "--seed", s], 0),
            ("teleport_file", ["teleport", "--file", scenario_file, "--seed", s], 0),
            ("densecode_all", ["densecode", "--all"], 0),
            ("locc_certificate_omega16", ["locc", "--certificate", "omega16"], 0),
            ("diagnose_all", ["diagnose", "--all"], 0),
            # known fault: a negative tolerance is a usage error (exit 2) but
            # runs the scenario and exits 1
            ("fault:negative_tolerance", ["teleport", "--scenario", "ghz1_ghz4basis",
                                          "--tolerance", "-1"], 2),
        ]
        self.env = dict(os.environ)
        self.trace_path = None
        self.trace_files: list[str] = []

    def trace_into(self, path) -> None:
        """Have later CLI processes write layer counters to ``path`` (None: off)."""
        self.trace_path = path
        self.env.pop("QUADPROTO_BENCH_TRACE", None)
        if path:
            self.env["QUADPROTO_BENCH_TRACE"] = path

    def _run(self, argv, expected):
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "launch.py"), *argv, "--format", "json"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=self.env,
            cwd=self.workdir, timeout=120, check=False)
        if self.trace_path:
            with open(self.trace_path, encoding="utf-8") as fh:
                self.trace_files.append(fh.read())
        return proc.returncode == expected, (proc.returncode, proc.stdout)

    def ops(self) -> list[Op]:
        return [Op(name, lambda a=argv, e=code: self._run(a, e))
                for name, argv, code in self.commands]

    def check(self, payloads) -> list[str]:
        errors = []
        docs = {}
        for (name, _, expected), (code, out) in zip(self.commands, payloads):
            if name.startswith("fault:"):
                continue
            if code != expected:
                errors.append("%s: exit %d, expected %d" % (name, code, expected))
            try:
                docs[name] = json.loads(out)
            except ValueError:
                errors.append("%s: stdout is not JSON" % name)
        if errors:
            return errors

        suite = docs["suite"]
        ids = [c["claim_id"] for c in suite["claims"]]
        failing = [c["claim_id"] for c in suite["claims"] if c["status"] == "FAIL"]
        if failing or not suite["ok"]:
            errors.append("suite: FAIL rows %s" % failing)
        want = expected_claim_ids()
        if len(ids) != len(set(ids)) or set(ids) != want:
            errors.append("suite: claim ids differ from the registry: extra %s, "
                          "missing %s" % (sorted(set(ids) - want), sorted(want - set(ids))))

        worst = 0.0
        for basis in docs["catalog_dump"]["bases"]:
            rows = []
            for vec in basis["vectors"]:
                width = len(vec["kets"][0]["label"])
                amps = np.zeros(1 << width, dtype=complex)
                for ket in vec["kets"]:
                    amps[int(ket["label"], 2)] += complex(ket["re"], ket["im"])
                rows.append(amps)
            rows = np.array(rows)
            gram = rows.conj() @ rows.T
            worst = max(worst, float(np.abs(gram - np.eye(len(rows))).max()))
        if worst > 1e-12:
            errors.append("catalog --dump: Gram check fails by %.3g" % worst)

        for row in docs["densecode_all"]["capacities"]:
            op, want = row["expected"].split()
            if not (row["N"] == int(want) if op == "==" else row["N"] < int(want)):
                errors.append("densecode %s: N=%d, expected %s"
                              % (row["claim"], row["N"], row["expected"]))

        for name, sid in (("teleport_w3_sigma", "w3_sigma"),
                          ("teleport_file", self.FILE_SCENARIO)):
            doc = docs[name]
            if not doc["feasible"] or doc["cost_cbits"] != reg.TELEPORT_COSTS[sid]:
                errors.append("%s: feasible=%s cost=%s" % (name, doc["feasible"],
                                                           doc["cost_cbits"]))
        for rep in docs["teleport_q4_bob4_1q"]["reports"]:
            if rep["feasible"] or rep["best_worst_fidelity"] >= 1.0 - NEGATIVE_GAP:
                errors.append("%s: negative scenario holds" % rep["scenario_id"])
        if docs["locc_certificate_omega16"]["ok"]:
            errors.append("locc omega16: certificate unexpectedly holds")
        profiles = docs["diagnose_all"]["profiles"]
        if len(profiles) != 5 or not all(p["genuine"] for p in profiles):
            errors.append("diagnose --all: not five genuine profiles")
        return errors


def expected_claim_ids() -> set[str]:
    """Claim ids ``quadproto suite`` must print, derived from the registry.

    The suite's fixed LOCC, tangle and basis rows are named in suite.py
    itself, not in the registry, so they are listed here.
    """
    ids = {"teleport/" + sid for sid in reg.TELEPORT_SCENARIOS}
    ids |= {"teleport/negative/" + group for group in reg.negative_scenarios()}
    ids |= {"densecode/" + row[0] for row in reg.CAPACITY_TABLE}
    ids |= {"densecode/" + cid for cid in reg.PRINTED_ENCODING_SETS}
    ids |= {"densecode/" + row[0] for row in reg.CAPACITY_REFUTATIONS}
    ids |= {"locc/certificate/" + name for name in reg.certificate_factors()
            if name != "omega16"}
    ids |= {"locc/ghz8/ghz_bell_bell", "locc/ghz8/ghz_pm_ghz3",
            "locc/omega4/omega_comp", "locc/w4/w_bell", "locc/q5_4/q5_comp",
            "locc/omega16/no_catalog_protocol", "locc/omega16/certificate_fails",
            "locc/q4/four_subset_search", "locc/bell/two_candidates",
            "locc/bell/four_candidates"}
    for name in reg.PAIR_CONCURRENCE_TABLE:
        ids |= {"diagnostics/%s/%s" % (kind, name)
                for kind in ("genuine", "reduction_purity", "pair_concurrence")}
    ids |= {"diagnostics/tangle/ghz3", "diagnostics/tangle/w3"}
    ids |= {"bases/gram_identity", "bases/corrections_registry"}
    ids |= {"bases/correction/%s/%s" % (c.basis, c.label) for c in qp.CORRECTIONS}
    ids |= {"unverified/" + row[0] for row in reg.UNVERIFIED_CLAIMS}
    return ids


WORKLOADS = {
    "teleport_sweep": TeleportSweep,
    "locc_search": LoccSearch,
    "capacity_sweep": CapacitySweep,
    "cli_mix": CliMix,
}
