"""Command-line front end.

Commands: ``catalog``, ``teleport``, ``densecode``, ``locc``, ``diagnose``,
``suite``.  Every command prints a human-readable table, machine-readable
JSON, or both (``--format``), optionally mirrored to files (``--out``).
JSON output is deterministic for a fixed seed: keys sorted, no timestamps.

Exit codes: 0 success (all claims hold), 1 a checked claim failed,
2 usage or parse error.
"""

from __future__ import annotations

import argparse
import cmath
import json
import math
import os
import sys

from . import scenarios as reg
from .catalog import (basis_names, corrections_for, make_basis, make_state,
                      state_names)
from .densecode import distinguishable_messages
from .diagnostics import profile
from .locc import check_certificate, run_discrimination
from .scenario_io import ScenarioFormatError, load_scenario
from .states import AMP_TOL, ASSERT_TOL, check_tolerance
from .suite import (SECTIONS, capacity_holds, format_text, report_dict,
                    run_suite, teleport_claim_holds)
from .teleport import TeleportScenario, run_scenario

__all__ = ["main"]


def _kets(state) -> list[dict]:
    return [
        {"label": label, "re": float(amp.real), "im": float(amp.imag)}
        for label, amp in state.ket_terms(tol=AMP_TOL)
    ]


def _dumps(payload: dict) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _emit(args, name: str, payload: dict, text: str) -> None:
    text = text if text.endswith("\n") else text + "\n"
    if args.format in ("json", "both"):
        sys.stdout.write(_dumps(payload))
    if args.format in ("text", "both"):
        sys.stdout.write(text)
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        for ext, body in ((".json", _dumps(payload)), (".txt", text)):
            with open(os.path.join(args.out, name + ext), "w",
                      encoding="utf-8") as fh:
                fh.write(body)


def _parse_params(items: list[str]) -> dict[str, int | float | complex]:
    """``key=value`` pairs; values are Python int, real or complex literals."""
    out: dict[str, int | float | complex] = {}
    for item in items or []:
        if "=" not in item:
            raise ValueError("parameter %r is not key=value" % item)
        key, _, raw = item.partition("=")
        try:
            finite = cmath.isfinite(complex(raw))
        except ValueError:
            raise ValueError("parameter %s must be an int, real or complex "
                             "literal, got %r" % (key, raw)) from None
        if not finite:
            raise ValueError("parameter %s must be a finite number, got %r"
                             % (key, raw))
        for kind in (int, float, complex):
            try:
                out[key] = kind(raw)
                break
            except ValueError:
                continue
    return out


def _params_json(params) -> dict:
    """Parameters for JSON output, complex values written like kets."""
    return {k: {"re": v.real, "im": v.imag} if isinstance(v, complex) else v
            for k, v in params.items()}


def _tolerance(text: str) -> float:
    """argparse type for --tolerance: a finite number in (0, 1)."""
    try:
        return check_tolerance(float(text))
    except ValueError:
        raise argparse.ArgumentTypeError(
            "must be a finite number strictly between 0 and 1, got %r"
            % text) from None


def _seed(text: str) -> int:
    """argparse type for --seed: a non-negative integer, as numpy's
    generators take."""
    try:
        seed = int(text)
    except ValueError:
        seed = -1
    if seed < 0:
        raise argparse.ArgumentTypeError(
            "must be a non-negative integer, got %r" % text)
    return seed


def _parse_qubits(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError as exc:
        raise ValueError("qubit list %r is not comma-separated integers"
                         % text) from exc


# ---------------------------------------------------------------------------
# commands


def _state_payload(named) -> dict:
    return {"name": named.name, "params": _params_json(named.params),
            "slocc": named.slocc, "kets": _kets(named.state)}


def _basis_payload(basis) -> dict:
    return {"name": basis.name, "labels": list(basis.labels),
            "vectors": [{"label": lbl, "kets": _kets(vec)}
                        for lbl, vec in zip(basis.labels, basis.vectors)]}


def _cmd_catalog(args) -> int:
    if args.state:
        _refuse(args, "catalog --state", "basis", "dump")
        named = make_state(args.state, **_parse_params(args.param))
        payload = _state_payload(named)
        text = "%s (%d qubits)\n" % (named.name, named.num_qubits) + "".join(
            "  |%s>  %+.6f%+.6fi\n" % (k["label"], k["re"], k["im"])
            for k in payload["kets"])
        _emit(args, "catalog_%s" % named.name, payload, text)
        return 0
    if args.basis:
        _refuse(args, "catalog --basis", "dump")
        basis = make_basis(args.basis, **_parse_params(args.param))
        payload = _basis_payload(basis)
        payload["corrections"] = [
            {"label": c.label, "method": c.method, "note": c.note}
            for c in corrections_for(args.basis)
        ]
        text = "%s: %d vectors on %d qubits\n" % (
            basis.name, len(basis.labels), basis.num_qubits)
        _emit(args, "catalog_%s" % basis.name, payload, text)
        return 0
    _refuse(args, "catalog without --state or --basis", "param")
    if args.dump:
        payload = {
            "states": [_state_payload(make_state(s)) for s in state_names()],
            "bases": [_basis_payload(make_basis(s)) for s in basis_names()],
        }
        text = "%d states, %d bases\n" % (len(payload["states"]),
                                          len(payload["bases"]))
        _emit(args, "catalog", payload, text)
        return 0
    payload = {"states": state_names(), "bases": basis_names()}
    text = ("states:\n" + "".join("  %s\n" % s for s in state_names())
            + "bases:\n" + "".join("  %s\n" % b for b in basis_names()))
    _emit(args, "catalog", payload, text)
    return 0


def _resolve_teleport(scenario_id: str) -> list[TeleportScenario]:
    if scenario_id in reg.TELEPORT_SCENARIOS:
        return [reg.TELEPORT_SCENARIOS[scenario_id]]
    negatives = reg.negative_scenarios()
    if scenario_id in negatives:
        return negatives[scenario_id]
    for group in negatives.values():
        for sc in group:
            if sc.scenario_id == scenario_id:
                return [sc]
    raise KeyError("unknown scenario %r; see teleport --list" % scenario_id)


def _teleport_payload(sc: TeleportScenario, res) -> dict:
    return {
        "scenario_id": res.scenario_id,
        "feasible": res.feasible,
        "worst_fidelity": res.worst_fidelity,
        "best_worst_fidelity": res.best_worst_fidelity,
        "cost_cbits": res.classical_cost,
        "cost_breakdown": dict(res.cost_breakdown or {}),
        "perp_probability": res.perp_probability,
        "uniform_nonzero": res.uniform_nonzero,
        "num_probes": res.num_probes,
        "allowed_ops": sc.allowed_ops,
        "reason": res.reason,
        "per_outcome": [
            {
                "outcome": o.key,
                "probability": o.probability,
                "correction": o.correction,
                "min_fidelity": o.min_fidelity,
                "best_fidelity": o.best_fidelity,
            }
            for o in res.outcomes
        ],
    }


def _teleport_text(res) -> str:
    """Per-outcome table; outcomes with no correction, and the header of an
    infeasible result, show the best fidelity any candidate reached."""
    worst = res.worst_fidelity if res.feasible else res.best_worst_fidelity
    cost = "%d cbits" % res.classical_cost if res.classical_cost is not None else "-"
    lines = ["%s: feasible=%s worst_fidelity=%.12g cost=%s"
             % (res.scenario_id, res.feasible, worst, cost)]
    if res.reason:
        lines.append("  reason: %s" % res.reason)
    for o in res.outcomes:
        corr = o.correction if o.correction is not None else "-"
        lines.append("  %-28s p=%-10.6g corr=%-22s fid=%.10g"
                     % (o.key, o.probability, corr,
                        o.min_fidelity if o.correction is not None
                        else o.best_fidelity))
    return "\n".join(lines) + "\n"


def _refuse(args, mode: str, *flags: str) -> None:
    """Refuse each of ``flags`` given alongside ``mode``, which ignores it."""
    given = ["--" + f for f in flags if getattr(args, f) not in (None, False, [])]
    if given:
        raise ValueError("%s does not take %s" % (mode, ", ".join(given)))


def _cmd_teleport(args) -> int:
    if args.list:
        _refuse(args, "teleport --list", "scenario", "file")
        ids = sorted(reg.TELEPORT_SCENARIOS)
        neg = sorted(reg.negative_scenarios())
        payload = {"scenarios": ids, "negative_groups": neg}
        text = ("scenarios:\n" + "".join("  %s\n" % s for s in ids)
                + "negative groups:\n" + "".join("  %s\n" % s for s in neg))
        _emit(args, "teleport_list", payload, text)
        return 0
    if args.file:
        _refuse(args, "teleport --file", "scenario")
        scenarios = [load_scenario(args.file)]
    elif args.scenario:
        scenarios = _resolve_teleport(args.scenario)
    else:
        raise ValueError("teleport needs --scenario, --file, or --list")

    results = [run_scenario(sc, seed=args.seed, tol=args.tolerance)
               for sc in scenarios]
    reports = [_teleport_payload(sc, res) for sc, res in zip(scenarios, results)]
    payload = reports[0] if len(reports) == 1 else {"reports": reports}
    name = "teleport_%s" % (args.scenario or
                            os.path.splitext(os.path.basename(args.file))[0])
    _emit(args, name.replace("[", "_").replace("]", ""), payload,
          "".join(_teleport_text(res) for res in results))
    # a registered id is judged as the suite judges its row; a file is not
    if args.file:
        return 0
    return 0 if teleport_claim_holds(args.scenario, results, args.tolerance) else 1


def _capacity_payload(state_name: str, res) -> dict:
    return {"state": state_name, "scenario": "DC%d" % len(res.sender_qubits),
            "distribution": list(res.sender_qubits), "N": res.count,
            "cbits": math.log2(res.count)}


def _cmd_densecode(args) -> int:
    if args.all:
        _refuse(args, "densecode --all", "state", "qubits", "param")
        rows = []
        status = 0
        for cid, state_name, params, subsets, want, cmp_op in reg.CAPACITY_TABLE:
            state = make_state(state_name, **params).state
            for subset in subsets:
                res = distinguishable_messages(state, subset, tol=args.tolerance)
                if not capacity_holds(res.count, want, cmp_op):
                    status = 1
                rows.append({**_capacity_payload(state_name, res), "claim": cid,
                             "expected": ("== %d" % want if cmp_op == "==" else
                                          "< %d" % want)})
        payload = {"capacities": rows}
        text = "".join(
            "%-18s %-6s %-12s N=%-3d cbits=%-4g expected %s\n"
            % (r["claim"], r["scenario"], r["distribution"], r["N"],
               r["cbits"], r["expected"])
            for r in rows)
        _emit(args, "densecode_all", payload, text)
        return status
    if not args.state or not args.qubits:
        raise ValueError("densecode needs --state and --qubits (or --all)")
    qubits = _parse_qubits(args.qubits)
    named = make_state(args.state, **_parse_params(args.param))
    res = distinguishable_messages(named.state, qubits, tol=args.tolerance)
    payload = {**_capacity_payload(named.name, res),
               "num_encodings": res.num_encodings, "num_classes": res.num_classes,
               "witness_labels": ["*".join(names) for names in res.witness]}
    text = ("%s DC%d on qubits %s: N=%d (%.3g cbits)\n  witness: %s\n"
            % (named.name, len(qubits), list(qubits), res.count,
               payload["cbits"], ", ".join(payload["witness_labels"])))
    _emit(args, "densecode_%s" % named.name, payload, text)
    return 0


def _cmd_locc(args) -> int:
    sets = reg.locc_candidate_sets()
    if args.certificate is not None:
        _refuse(args, "locc --certificate", "set", "protocol")
    elif (args.set is None) != (args.protocol is None):
        raise ValueError("locc needs --set and --protocol together")
    if args.set is not None:
        protocols = reg.locc_protocols()
        if args.set not in sets:
            raise KeyError("unknown candidate set %r (have: %s)"
                           % (args.set, ", ".join(sorted(sets))))
        if args.protocol not in protocols:
            raise KeyError("unknown protocol %r (have: %s)"
                           % (args.protocol, ", ".join(sorted(protocols))))
        res = run_discrimination(sets[args.set], protocols[args.protocol])
        payload = {
            "set": args.set, "protocol": args.protocol,
            "success": res.success,
            "inter_receiver_cbits": res.inter_receiver_cbits,
            "cbit_breakdown": dict(res.cbit_breakdown),
            "collisions": [list(c) for c, _ in res.collisions],
            "transcripts": dict(res.transcript_map),
        }
        text = ("%s / %s: success=%s cbits=%d collisions=%d\n"
                % (args.set, args.protocol, res.success,
                   res.inter_receiver_cbits, len(res.collisions)))
        _emit(args, "locc_%s_%s" % (args.set, args.protocol), payload, text)
        return 0
    if args.certificate is not None:
        factors = reg.certificate_factors()
        if args.certificate not in factors:
            raise KeyError("no certificate declared for %r (have: %s)"
                           % (args.certificate, ", ".join(sorted(factors))))
        rep = check_certificate(sets[args.certificate],
                                factors[args.certificate], tol=args.tolerance)
        payload = {
            "set": args.certificate,
            "ok": rep.ok,
            "reconstruction_error": rep.reconstruction_error,
            "cross_overlap": rep.cross_overlap,
            "empty_supports": list(rep.empty_supports),
            "blocks": {lbl: [list(t) for t in terms]
                       for lbl, terms in rep.blocks.items()},
            "detail": rep.detail,
        }
        text = ("certificate %s: ok=%s recon_err=%.3g cross=%.3g %s\n"
                % (args.certificate, rep.ok, rep.reconstruction_error,
                   rep.cross_overlap, rep.detail))
        _emit(args, "locc_cert_%s" % args.certificate, payload, text)
        return 0
    report = run_suite(seed=args.seed, tol=args.tolerance, sections=("locc",))
    _emit(args, "locc", report_dict(report), format_text(report))
    return 0 if report.ok else 1


def _cmd_diagnose(args) -> int:
    if args.all:
        _refuse(args, "diagnose --all", "state")
    names = ["GHZ4", "W4", "Omega", "Q4", "Q5"] if args.all else [args.state]
    if not names[0]:
        raise ValueError("diagnose needs --state or --all")
    profiles = []
    texts = []
    for name in names:
        named = make_state(name, **_parse_params(args.param))
        prof = profile(named.name, named.state)
        profiles.append({
            "state": prof.name,
            "num_qubits": prof.num_qubits,
            "genuine": prof.genuine,
            "max_reduction_purity": prof.max_reduction_purity,
            "purities": {"+".join(map(str, k)): v
                         for k, v in prof.purities.items()},
            "pair_concurrences": {"%d+%d" % k: v
                                  for k, v in prof.pair_concurrences.items()},
        })
        texts.append(
            "%s: genuine=%s max_reduction_purity=%.6f\n" % (
                prof.name, prof.genuine, prof.max_reduction_purity)
            + "".join("  C(%d,%d) = %.6f\n" % (i, j, c)
                      for (i, j), c in sorted(prof.pair_concurrences.items())))
    payload = profiles[0] if len(profiles) == 1 else {"profiles": profiles}
    _emit(args, "diagnose", payload, "".join(texts))
    return 0


def _cmd_suite(args) -> int:
    sections = tuple(args.sections.split(",")) if args.sections else None
    report = run_suite(seed=args.seed, tol=args.tolerance, sections=sections)
    _emit(args, "suite", report_dict(report), format_text(report))
    return 0 if report.ok else 1


# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quadproto",
        description="verify teleportation, dense coding, and LOCC "
                    "discrimination claims on four-qubit resource states")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=_seed, default=42,
                        help="seed for randomized probes (default 42)")
    common.add_argument("--tolerance", type=_tolerance, default=ASSERT_TOL,
                        help="assertion tolerance, strictly between 0 and 1 "
                             "(default %g)" % ASSERT_TOL)
    common.add_argument("--format", choices=("json", "text", "both"),
                        default="both", help="output style (default both)")
    common.add_argument("--out", default=None,
                        help="directory to mirror reports into")

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("catalog", parents=[common],
                       help="list or dump states and measurement bases")
    p.add_argument("--dump", action="store_true",
                   help="emit every state and basis with ket amplitudes")
    p.add_argument("--state", default=None, help="dump one state by name")
    p.add_argument("--basis", default=None, help="dump one basis by name")
    p.add_argument("--param", action="append", default=[],
                   help="family parameter key=value (repeatable)")
    p.set_defaults(func=_cmd_catalog)

    p = sub.add_parser("teleport", parents=[common],
                       help="run a teleportation scenario")
    p.add_argument("--scenario", default=None, help="registered scenario id")
    p.add_argument("--file", default=None, help="scenario JSON file")
    p.add_argument("--list", action="store_true",
                   help="list registered scenario ids")
    p.set_defaults(func=_cmd_teleport)

    p = sub.add_parser("densecode", parents=[common],
                       help="count distinguishable Pauli encodings")
    p.add_argument("--state", default=None, help="resource state name")
    p.add_argument("--qubits", default=None,
                   help="sender qubits, comma separated (0-based)")
    p.add_argument("--param", action="append", default=[],
                   help="family parameter key=value (repeatable)")
    p.add_argument("--all", action="store_true",
                   help="evaluate the full registered capacity table")
    p.set_defaults(func=_cmd_densecode)

    p = sub.add_parser("locc", parents=[common],
                       help="LOCC discrimination checks")
    p.add_argument("--set", default=None, help="candidate set name")
    p.add_argument("--protocol", default=None, help="protocol name")
    p.add_argument("--certificate", default=None,
                   help="verify the disjoint-support certificate for a set")
    p.set_defaults(func=_cmd_locc)

    p = sub.add_parser("diagnose", parents=[common],
                       help="entanglement profile of a catalog state")
    p.add_argument("--state", default=None, help="state name")
    p.add_argument("--param", action="append", default=[],
                   help="family parameter key=value (repeatable)")
    p.add_argument("--all", action="store_true",
                   help="profile the five principal resource states")
    p.set_defaults(func=_cmd_diagnose)

    p = sub.add_parser("suite", parents=[common], aliases=["paper-suite"],
                       help="run every registered claim and tabulate verdicts")
    p.add_argument("--sections", default=None,
                   help="comma-separated subset of: %s" % ", ".join(SECTIONS))
    p.set_defaults(func=_cmd_suite)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe raises here; the exit flush then hits devnull
        return code
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.stderr.write("error: standard output was closed before the output was written\n")
        return 2
    except (ScenarioFormatError, FileNotFoundError, KeyError, TypeError,
            ValueError) as exc:
        message = exc.args[0] if exc.args else str(exc)
        sys.stderr.write("error: %s\n" % message)
        return 2


if __name__ == "__main__":
    sys.exit(main())
