"""Run every registered claim and tabulate the verdicts.

Statuses:

* ``PASS``    the claim holds at the stated tolerance
* ``FAIL``    the claim does not hold; this is the only status that
              makes the suite (and the CLI) report failure
* ``REFUTED`` the source statement is contradicted by a machine-verified
              counter-witness; recorded as a finding, not a failure
* ``INFO``    recorded but not checked (no procedure available)

Rows whose check depends on corrected catalog vectors are flagged so the
as-printed forms stay distinguishable from the operative ones.
"""

from __future__ import annotations

import itertools
from dataclasses import asdict, dataclass

import numpy as np

from . import scenarios as reg
from .catalog import CORRECTIONS, basis_names, make_basis, make_state
from .densecode import distinguishable_messages
from .diagnostics import profile, three_tangle_pure
from .locc import LoccProtocol, check_certificate, run_discrimination
from .measure import StepSpec
from .states import (ASSERT_TOL, GRAM_TOL, NEGATIVE_GAP, VALUE_TOL, apply_paulis,
                     check_seed, check_tolerance)
from .teleport import TeleportResult, run_scenario

__all__ = ["ClaimRow", "SuiteReport", "run_suite", "format_text", "report_dict",
           "SECTIONS", "teleport_claim_holds", "capacity_holds"]


@dataclass(frozen=True)
class ClaimRow:
    claim_id: str
    kind: str
    status: str
    expected: str
    actual: str
    corrected: bool = False
    detail: str = ""


@dataclass(frozen=True)
class SuiteReport:
    rows: tuple[ClaimRow, ...]
    seed: int
    tolerance: float

    @property
    def counts(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for row in self.rows:
            out[row.status] = out.get(row.status, 0) + 1
        return out

    @property
    def ok(self) -> bool:
        return all(row.status != "FAIL" for row in self.rows)


def _verdict(cond: bool) -> str:
    return "PASS" if cond else "FAIL"


# ---------------------------------------------------------------------------
# teleportation


def teleport_claim_holds(scenario_id: str, results: list[TeleportResult],
                         tol: float) -> bool:
    """A registered scenario's one result: feasible with unit fidelity and
    no perp leak within ``tol``, at its registered cost.  Any other id names
    a negative group, or one of its setups: none feasible, and none within
    ``NEGATIVE_GAP`` of unit entanglement fidelity."""
    if scenario_id in reg.TELEPORT_SCENARIOS:
        (res,) = results
        return (res.feasible and res.worst_fidelity >= 1.0 - tol
                and res.perp_probability <= tol
                and res.classical_cost == reg.TELEPORT_COSTS[scenario_id])
    return (not any(res.feasible for res in results)
            and max(res.best_worst_fidelity for res in results) < 1.0 - NEGATIVE_GAP)


def _teleport_rows(tol: float) -> list[ClaimRow]:
    rows: list[ClaimRow] = []
    for sid, sc in reg.TELEPORT_SCENARIOS.items():
        res = run_scenario(sc, tol=tol)
        want = reg.TELEPORT_COSTS[sid]
        actual = "feasible=%s worst=%.3g cost=%s" % (
            res.feasible, res.worst_fidelity, res.classical_cost)
        rows.append(ClaimRow(
            claim_id="teleport/%s" % sid, kind="teleport",
            status=_verdict(teleport_claim_holds(sid, [res], tol)),
            expected="unit fidelity, cost %d" % want, actual=actual,
            corrected=sid in reg.CORRECTED_SCENARIOS, detail=sc.note))
    for group, scenarios in reg.negative_scenarios().items():
        results = [run_scenario(sc, tol=tol) for sc in scenarios]
        rows.append(ClaimRow(
            claim_id="teleport/negative/%s" % group, kind="teleport_negative",
            status=_verdict(teleport_claim_holds(group, results, tol)),
            expected="infeasible over %d setups, best entanglement fidelity "
                     "< 1 - %.0e" % (len(scenarios), NEGATIVE_GAP),
            actual="all_infeasible=%s max_best_worst=%.4f"
                   % (not any(res.feasible for res in results),
                      max(res.best_worst_fidelity for res in results))))
    return rows


# ---------------------------------------------------------------------------
# dense coding


def capacity_holds(count: int, want: int, cmp_op: str) -> bool:
    """One sender set's count against a capacity-table entry."""
    return count == want if cmp_op == "==" else count < want


def _densecode_rows(tol: float) -> list[ClaimRow]:
    rows: list[ClaimRow] = []
    for cid, state_name, params, subsets, want, cmp_op in reg.CAPACITY_TABLE:
        state = make_state(state_name, **params).state
        counts = {s: distinguishable_messages(state, s, tol=tol).count
                  for s in subsets}
        ok = all(capacity_holds(c, want, cmp_op) for c in counts.values())
        expected = ("N = %d" if cmp_op == "==" else "N < %d") % want
        actual = ", ".join("%s: %d" % (s, c) for s, c in counts.items())
        rows.append(ClaimRow(
            claim_id="densecode/%s" % cid, kind="densecode",
            status=_verdict(ok), expected=expected, actual=actual))

    for cid, (state_name, qubits, encodings) in reg.PRINTED_ENCODING_SETS.items():
        base = make_state(state_name).state
        vecs = []
        for row in encodings:
            word = ["s0"] * base.num_qubits
            for q, p in zip(qubits, row):
                word[q] = p
            vecs.append(apply_paulis(base.amplitudes, word))
        gram = np.array([[np.vdot(a, b) for b in vecs] for a in vecs])
        off = float(np.max(np.abs(gram - np.eye(len(vecs)))))
        engine = distinguishable_messages(base, qubits, tol=tol).count
        ok = off <= tol and len(vecs) == engine
        rows.append(ClaimRow(
            claim_id="densecode/%s" % cid, kind="densecode_set",
            status=_verdict(ok),
            expected="pairwise orthogonal, size matches engine count %d" % engine,
            actual="size=%d max|G-I|=%.2g" % (len(vecs), off)))

    for cid, state_name, params, subset, count, text in reg.CAPACITY_REFUTATIONS:
        state = make_state(state_name, **params).state
        res = distinguishable_messages(state, subset, tol=tol)
        status = "REFUTED" if res.count == count else "FAIL"
        rows.append(ClaimRow(
            claim_id="densecode/%s" % cid, kind="densecode_refutation",
            status=status,
            expected="stated ceiling contradicted by N = %d" % count,
            actual="N = %d at qubits %r" % (res.count, subset),
            detail=text))
    return rows


# ---------------------------------------------------------------------------
# LOCC discrimination


def _locc_rows(tol: float) -> list[ClaimRow]:
    rows: list[ClaimRow] = []
    sets = reg.locc_candidate_sets()
    protocols = reg.locc_protocols()
    factors = reg.certificate_factors()

    positives = [
        ("ghz8", "ghz_bell_bell", 2),
        ("ghz8", "ghz_pm_ghz3", 1),
        ("omega4", "omega_comp", 2),
        ("w4", "w_bell", 2),
        ("q5_4", "q5_comp", 2),
    ]
    for set_name, proto_name, cbits in positives:
        res = run_discrimination(sets[set_name], protocols[proto_name])
        ok = res.success and res.inter_receiver_cbits == cbits
        rows.append(ClaimRow(
            claim_id="locc/%s/%s" % (set_name, proto_name), kind="locc",
            status=_verdict(ok),
            expected="distinguished, %d relayed cbit(s)" % cbits,
            actual="success=%s cbits=%d collisions=%d"
                   % (res.success, res.inter_receiver_cbits, len(res.collisions))))

    for set_name in ("ghz8", "omega4", "w4", "q5_4"):
        rep = check_certificate(sets[set_name], factors[set_name], tol=tol)
        rows.append(ClaimRow(
            claim_id="locc/certificate/%s" % set_name, kind="locc_certificate",
            status=_verdict(rep.ok),
            expected="disjoint-support certificate holds",
            actual="ok=%s recon_err=%.2g cross=%.2g"
                   % (rep.ok, rep.reconstruction_error, rep.cross_overlap)))

    catalog = reg.catalog_protocols()
    passing = [p.protocol_id for p in catalog
               if run_discrimination(sets["omega16"], p).success]
    rows.append(ClaimRow(
        claim_id="locc/omega16/no_catalog_protocol", kind="locc_negative",
        status=_verdict(not passing),
        expected="none of the %d shipped protocols separates the 16-set"
                 % len(catalog),
        actual="passing=%s" % (passing or "none")))

    rep = check_certificate(sets["omega16"], factors["omega16"], tol=tol)
    rows.append(ClaimRow(
        claim_id="locc/omega16/certificate_fails", kind="locc_negative",
        status=_verdict(not rep.ok),
        expected="product-block certificate cannot hold",
        actual="ok=%s cross=%.3f (%s)" % (rep.ok, rep.cross_overlap, rep.detail)))

    q4 = sets["q4_8"]
    runs = [(p.protocol_id, run_discrimination(q4, p)) for p in catalog]
    found = next(((quad, pid)
                  for quad in itertools.combinations(range(len(q4)), 4)
                  for pid, res in runs if res.separates([q4[i][0] for i in quad])),
                 None)
    rows.append(ClaimRow(
        claim_id="locc/q4/four_subset_search", kind="locc_search",
        status="PASS" if found is None else "FAIL",
        expected="no 4-subset of the 8 encodings separated by shipped protocols",
        actual="found=%s" % (found,),
        detail="bounded search, not an impossibility proof"))

    bell = make_basis("bell")
    bell_states = dict(zip(bell.labels, bell.vectors))
    seq = LoccProtocol("comp_singlewise", (
        StepSpec((0,), "computational:1", party="B1"),
        StepSpec((1,), "computational:1", party="B2"),
    ))
    two = [("phi+", bell_states["phi+"]), ("psi+", bell_states["psi+"])]
    ok2 = run_discrimination(two, seq).success
    rows.append(ClaimRow(
        claim_id="locc/bell/two_candidates", kind="locc",
        status=_verdict(ok2),
        expected="two Bell states separable by single-qubit rounds",
        actual="success=%s" % ok2))
    four = [(lbl, bell_states[lbl]) for lbl in bell.labels]
    ok4 = run_discrimination(four, seq).success
    rows.append(ClaimRow(
        claim_id="locc/bell/four_candidates", kind="locc",
        status=_verdict(not ok4),
        expected="all four Bell states collide under the same rounds",
        actual="success=%s" % ok4))
    return rows


# ---------------------------------------------------------------------------
# entanglement diagnostics


def _diagnostics_rows() -> list[ClaimRow]:
    rows: list[ClaimRow] = []
    for name, want_purity in reg.REDUCTION_PURITY_TABLE.items():
        prof = profile(name, make_state(name).state)
        rows.append(ClaimRow(
            claim_id="diagnostics/genuine/%s" % name, kind="diagnostics",
            status=_verdict(prof.genuine),
            expected="every proper reduction is mixed",
            actual="max reduction purity %.6f" % prof.max_reduction_purity))
        rows.append(ClaimRow(
            claim_id="diagnostics/reduction_purity/%s" % name, kind="diagnostics",
            status=_verdict(abs(prof.max_reduction_purity - want_purity) <= VALUE_TOL),
            expected="max reduction purity %.3f" % want_purity,
            actual="%.12f" % prof.max_reduction_purity))

        table = reg.PAIR_CONCURRENCE_TABLE[name]
        bad = []
        for pair, val in prof.pair_concurrences.items():
            want = table.get(pair, table["default"])
            if abs(val - want) > VALUE_TOL:
                bad.append((pair, val, want))
        shown = {p: round(v, 6) for p, v in sorted(prof.pair_concurrences.items())}
        rows.append(ClaimRow(
            claim_id="diagnostics/pair_concurrence/%s" % name, kind="diagnostics",
            status=_verdict(not bad),
            expected="default %.1f%s" % (
                table["default"],
                "".join(", %s: %.1f" % (p, v)
                        for p, v in sorted((p, v) for p, v in table.items()
                                           if p != "default"))),
            actual=str(shown)))

    ghz3 = make_state("GHZ:3").state
    w3 = make_state("W3").state
    t_ghz = three_tangle_pure(ghz3)
    t_w = three_tangle_pure(w3)
    rows.append(ClaimRow(
        claim_id="diagnostics/tangle/ghz3", kind="diagnostics",
        status=_verdict(abs(t_ghz - 1.0) <= VALUE_TOL),
        expected="three-tangle 1", actual="%.12f" % t_ghz))
    rows.append(ClaimRow(
        claim_id="diagnostics/tangle/w3", kind="diagnostics",
        status=_verdict(abs(t_w) <= VALUE_TOL),
        expected="three-tangle 0", actual="%.3g" % t_w))
    return rows


# ---------------------------------------------------------------------------
# basis hygiene


def _basis_rows() -> list[ClaimRow]:
    rows: list[ClaimRow] = []
    worst = 0.0
    names = basis_names()
    for name in names:
        basis = make_basis(name)
        mat = basis.matrix
        gram = mat @ mat.conj().T
        worst = max(worst, float(np.max(np.abs(gram - np.eye(len(mat))))))
    rows.append(ClaimRow(
        claim_id="bases/gram_identity", kind="basis",
        status=_verdict(worst <= GRAM_TOL),
        expected="max |G-I| <= %g over %d bases" % (GRAM_TOL, len(names)),
        actual="max |G-I| = %.2g" % worst))

    expected_registry = {
        ("omega16", "Omega15"), ("rho_q4", "rho1+/-"), ("rho_q4", "rho2+/-"),
        ("tau_q4", "tau3+/-"), ("tau_q4", "tau4+/-"),
        ("omega34_3q", "Omega3+/-"), ("sigma_w", "Sigma4+/-"),
    }
    actual_registry = {(c.basis, c.label) for c in CORRECTIONS}
    rows.append(ClaimRow(
        claim_id="bases/corrections_registry", kind="basis",
        status=_verdict(actual_registry == expected_registry),
        expected="exactly %d documented corrections" % len(expected_registry),
        actual=", ".join(sorted("%s/%s" % t for t in actual_registry)),
        corrected=True))

    for corr in CORRECTIONS:
        basis = make_basis(corr.basis)
        by_label = dict(zip(basis.labels, basis.vectors))
        labels = ([corr.label] if "+/-" not in corr.label
                  else [corr.label.replace("+/-", s) for s in "+-"])
        present = all(lbl in by_label for lbl in labels)
        support_ok = True
        if present:
            want = {k for k, v in corr.corrected.items() if v != 0}
            for lbl in labels:
                terms = by_label[lbl].ket_terms()
                got = {k for k, _ in terms}
                support_ok &= got == want
        changed = corr.printed is None or corr.printed != corr.corrected
        ok = present and support_ok and changed
        rows.append(ClaimRow(
            claim_id="bases/correction/%s/%s" % (corr.basis, corr.label),
            kind="basis_correction", status=_verdict(ok),
            expected="operative vector carries the derived support",
            actual="labels=%s support_match=%s" % (present, support_ok),
            corrected=True, detail=corr.method))
    return rows


def _registry_rows() -> list[ClaimRow]:
    return [
        ClaimRow(claim_id="unverified/%s" % cid, kind="unverified",
                 status="INFO", expected=stmt, actual="not checked",
                 detail=why)
        for cid, stmt, why in reg.UNVERIFIED_CLAIMS
    ]


SECTIONS = {
    "teleport": _teleport_rows,
    "densecode": _densecode_rows,
    "locc": _locc_rows,
    "diagnostics": lambda tol: _diagnostics_rows(),
    "bases": lambda tol: _basis_rows(),
    "unverified": lambda tol: _registry_rows(),
}


def run_suite(seed: int = 42, tol: float = ASSERT_TOL,
              sections: tuple[str, ...] | None = None) -> SuiteReport:
    check_tolerance(tol)
    check_seed(seed)
    picked = sections or tuple(SECTIONS)
    unknown = [s for s in picked if s not in SECTIONS]
    if unknown:
        raise ValueError("unknown suite sections: %s" % ", ".join(unknown))
    repeated = [s for s in dict.fromkeys(picked) if picked.count(s) > 1]
    if repeated:
        raise ValueError("repeated suite sections: %s" % ", ".join(repeated))
    rows: list[ClaimRow] = []
    for name in picked:
        rows.extend(SECTIONS[name](tol))
    return SuiteReport(rows=tuple(rows), seed=seed, tolerance=tol)


def format_text(report: SuiteReport) -> str:
    width = max(len(row.claim_id) for row in report.rows) + 2
    lines = []
    for row in report.rows:
        flag = " [corrected]" if row.corrected else ""
        lines.append("%-7s %-*s %s | %s%s"
                     % (row.status, width, row.claim_id, row.expected,
                        row.actual, flag))
    counts = report.counts
    summary = "  ".join("%s=%d" % (k, counts[k])
                        for k in ("PASS", "FAIL", "REFUTED", "INFO") if k in counts)
    lines.append("")
    lines.append("result: %s (%s; %d claims)"
                 % ("OK" if report.ok else "FAILED", summary, len(report.rows)))
    return "\n".join(lines)


def report_dict(report: SuiteReport) -> dict:
    return {
        "seed": report.seed,
        "tolerance": report.tolerance,
        "ok": report.ok,
        "counts": report.counts,
        "claims": [asdict(row) for row in report.rows],
    }
