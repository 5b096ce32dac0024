"""Command-line interface: exit codes, output formats, determinism."""

import dataclasses
import hashlib
import itertools
import json
import os
import subprocess
import sys

import pytest

from quadproto import densecode
from quadproto import scenarios as reg
from quadproto import teleport
from quadproto.catalog import make_basis
from quadproto.cli import main
from quadproto.locc import check_certificate
from quadproto.measure import StepSpec
from quadproto.scenario_io import dumps_scenario
from quadproto.states import ASSERT_TOL
from quadproto.suite import ClaimRow, SuiteReport, run_suite
from quadproto.teleport import FamilySpec, TeleportScenario, run_scenario


def _json_out(capsys, argv):
    rc = main(argv + ["--format", "json"])
    return rc, capsys.readouterr().out


# --- exit code 0 -----------------------------------------------------------------

def test_catalog_list(capsys):
    rc, out = _json_out(capsys, ["catalog"])
    assert rc == 0
    doc = json.loads(out)
    assert "GHZ4" in doc["states"]
    assert "ghz4_full" in doc["bases"]
    assert "eta_zeta_w" not in doc["bases"]  # parameterized, needs --param


def test_catalog_state_and_basis(capsys):
    rc, out = _json_out(capsys, ["catalog", "--state", "Omega"])
    assert rc == 0
    doc = json.loads(out)
    assert doc["name"] == "Omega"
    assert len(doc["kets"]) == 4
    rc, out = _json_out(capsys, ["catalog", "--basis", "omega_meas"])
    doc = json.loads(out)
    assert rc == 0 and len(doc["vectors"]) == 4
    assert doc["corrections"] == []
    rc, out = _json_out(capsys, ["catalog", "--basis", "omega16"])
    doc = json.loads(out)
    assert rc == 0 and len(doc["vectors"]) == 16
    labels = [c["label"] for c in doc["corrections"]]
    assert labels == ["Omega15"]


def test_catalog_dump_structure(capsys):
    rc, out = _json_out(capsys, ["catalog", "--dump"])
    assert rc == 0
    doc = json.loads(out)
    assert {s["name"] for s in doc["states"]} >= {"GHZ4", "W4", "Omega",
                                                  "Q4", "Q5"}
    by_name = {b["name"]: b for b in doc["bases"]}
    assert len(by_name["ghz4_full"]["vectors"]) == 8


def test_teleport_positive_scenario(capsys):
    rc, out = _json_out(capsys, ["teleport", "--scenario", "ghz1_ghz4basis"])
    assert rc == 0
    doc = json.loads(out)
    assert doc["feasible"] is True
    assert doc["cost_cbits"] == 2
    corr = {o["outcome"]: o["correction"] for o in doc["per_outcome"]}
    assert corr["4GHZ2-"] == "is2"


def test_teleport_negative_group_confirms_infeasible(capsys):
    rc, out = _json_out(capsys, ["teleport", "--scenario", "q4_bob4_1q"])
    assert rc == 0  # the claim is that these fail, and they do
    doc = json.loads(out)
    assert len(doc["reports"]) == 9
    assert all(not r["feasible"] for r in doc["reports"])


def test_teleport_text_shows_best_fidelity_without_correction(capsys):
    sc = reg.negative_scenarios()["q4_bob4_1q"][1]
    res = run_scenario(sc)
    assert res.best_worst_fidelity > 0.4
    assert main(["teleport", "--scenario", sc.scenario_id,
                 "--format", "text"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert " worst_fidelity=%.12g " % res.best_worst_fidelity in lines[0]
    rows = [line for line in lines if " corr=- " in line]
    assert len(rows) == len(res.outcomes)
    for line, o in zip(rows, res.outcomes):
        assert line.endswith(" fid=%.10g" % o.best_fidelity), line


def test_teleport_list(capsys):
    rc, out = _json_out(capsys, ["teleport", "--list"])
    assert rc == 0
    doc = json.loads(out)
    assert "omega2_bellbell_cz" in doc["scenarios"]
    assert "w4_plain_1q" in doc["negative_groups"]


def test_teleport_from_file(tmp_path, capsys):
    sc = TeleportScenario(
        scenario_id="file_bell",
        resource="pair",
        family=FamilySpec("arbitrary", 1),
        steps=(StepSpec((0, 1), "bell"),),
        receiver=(2,),
        resource_kets=(("00", 1.0), ("11", 1.0)),
    )
    path = str(tmp_path / "bell.json")
    with open(path, "w") as fh:
        fh.write(dumps_scenario(sc))
    rc, out = _json_out(capsys, ["teleport", "--file", path])
    assert rc == 0
    assert json.loads(out)["cost_cbits"] == 2


def test_densecode_single(capsys):
    rc, out = _json_out(capsys, ["densecode", "--state", "Q4",
                                 "--qubits", "0,1"])
    assert rc == 0
    doc = json.loads(out)
    assert doc["N"] == 8 and doc["cbits"] == 3.0
    assert doc["witness_labels"][0] == "s0*s0"


@pytest.mark.parametrize("qubits", ["0, 1", " 0,1 ", "0 ,\t1"])
def test_spaces_around_sender_qubits_are_allowed(qubits, capsys):
    assert _json_out(capsys, ["densecode", "--state", "Q4", "--qubits", qubits]) == \
        _json_out(capsys, ["densecode", "--state", "Q4", "--qubits", "0,1"])


@pytest.mark.parametrize("qubits", [
    "0_1,2",         # int() reads 0_1 as 1: the senders (1, 2) were answered
    "\u0663",        # an Arabic-Indic 3, which int() reads as qubit 3
    "1,\uff12",      # a fullwidth 2
    "+1", "-1", "1.0", "0x1", "1 2", ""])
def test_sender_qubits_must_be_ascii_decimal_digits(qubits, capsys):
    assert main(["densecode", "--state", "W4", "--qubits", "0," + qubits]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: qubit list %r is not comma-separated integers\n"
                            % ("0," + qubits))


_Q4_11_DC3 = ["densecode", "--state", "Q4_11", "--qubits", "0,1,2"]
_N32_REFUSAL = ("error: tolerance 0.6 counts N = 32 messages, but their encoded "
                "states overlap by up to 0.333 and (N - 1) x 0.333 = 10.3 is not "
                "below 1, so they are not shown to be independent; use a smaller "
                "tolerance\n")


@pytest.mark.parametrize("argv", [
    _Q4_11_DC3,
    ["densecode", "--state", "W_mn", "--param", "m=1", "--param", "n=1",
     "--qubits", "0,1,2"]])
def test_loose_tolerance_count_past_the_dimension_exits_two(argv, capsys):
    # 32 encodings of a 16-dimensional span used to be answered N=32 (5 cbits)
    assert main(argv + ["--tolerance", "0.6"]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", _N32_REFUSAL)


def test_loose_tolerance_count_within_the_dimension_is_answered(capsys):
    assert main(_Q4_11_DC3 + ["--tolerance", "0.3", "--format", "text"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out.startswith("Q4_11 DC3 on qubits [0, 1, 2]: N=16 (4 cbits)\n")


def test_search_past_the_colouring_budget_exits_two(monkeypatch, capsys):
    # Q4_11 with senders 1, 0, 3, 2 takes 245 greedy colourings, the most of
    # any pinned query; one fewer allowed refuses it
    argv = ["densecode", "--state", "Q4_11", "--qubits", "1,0,3,2"]
    monkeypatch.setattr(densecode, "MAX_COLOURINGS", 244)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == (
        "", "error: 4 sender qubits at tolerance 1e-10: the clique search needs "
            "more than MAX_COLOURINGS = 244 greedy colourings\n")
    monkeypatch.setattr(densecode, "MAX_COLOURINGS", 245)
    assert main(argv) == 0


def test_densecode_all(capsys):
    rc, out = _json_out(capsys, ["densecode", "--all"])
    assert rc == 0
    rows = json.loads(out)["capacities"]
    assert any(r["claim"] == "omega_dc2" and r["N"] == 16 for r in rows)


def test_densecode_all_json_bytes_pinned(capsys):
    # integers and labels only, so the bytes do not depend on the BLAS build;
    # a faster clique search must leave every count and witness as it was
    rc, out = _json_out(capsys, ["densecode", "--all"])
    assert rc == 0
    assert hashlib.sha256(out.encode()).hexdigest() == \
        "43c9796250d0c5fe5a3d3fc8b703c984b93eadbaece29bacb622a154fc127104"


def test_densecode_per_state_json_bytes_pinned(capsys):
    # counts, class counts and witness labels of every ordered sender tuple of
    # 1-4 qubits on the catalog states: a faster clique search or phase-class
    # pass must leave each query as it was
    out = ""
    for state, params in (("GHZ4", []), ("W4", []), ("Omega", []), ("Q4", []),
                          ("Q5", []), ("Q4_11", []),
                          ("W_mn", ["--param", "m=1", "--param", "n=1"])):
        for size in range(1, 5):
            for qubits in itertools.permutations(range(4), size):
                rc, text = _json_out(capsys, ["densecode", "--state", state, "--qubits",
                                              ",".join(map(str, qubits))] + params)
                assert rc == 0
                out += text
    assert hashlib.sha256(out.encode()).hexdigest() == \
        "679cc33fc586c5c77c954e2e992113900e77633d1cd382d9561f96f818afa6ee"


def test_locc_set_protocol_json_bytes_pinned(capsys):
    # transcripts, collisions and bit counts only, so the bytes do not depend
    # on the BLAS build; the measurement kernel must leave every run as it was
    out = ""
    for set_name in sorted(reg.locc_candidate_sets()):
        for protocol in sorted(reg.locc_protocols()):
            rc, text = _json_out(capsys, ["locc", "--set", set_name,
                                          "--protocol", protocol])
            assert rc == 0
            out += text
    assert hashlib.sha256(out.encode()).hexdigest() == \
        "21be9dcb3e63901fc7a16bd2371a4c10b010a7add015bedccb1c4338f2b7c170"


def test_suite_json_bytes_pinned(capsys):
    # every section's verdicts and reported values; a refactor of any layer
    # must leave them as they were
    rc, out = _json_out(capsys, ["suite"])
    assert rc == 0
    assert hashlib.sha256(out.encode()).hexdigest() == \
        "e61053cabd6f823fc56b586e18d9c1a17367ee645ede6cb8e8bccd26a9b0ea99"


@pytest.mark.parametrize("argv, digest", [
    (["catalog", "--dump"],
     "b6ed6dbc4de2cb6a3f1c3e3156f84172bae38740e31e6936919f3318d7702ed6"),
    (["locc"], "4908845147c61ca79c5173ef59a5e08feca601c1f84683750f51ceb1821e31d2"),
    (["diagnose", "--all"],
     "1aad2b65f19b9eca719495da945a42a964b179f2803824194776d076ff7f5c72"),
])
def test_catalog_locc_and_diagnose_json_bytes_pinned(argv, digest, capsys):
    # every catalog amplitude, the LOCC section's verdicts and the five
    # entanglement profiles; a refactor of any layer must leave them as they were
    rc, out = _json_out(capsys, argv)
    assert rc == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_dressed_basis_json_bytes_pinned(capsys):
    # every Pauli dressing of pi_2q, pi_3q and omega34_3q, indices 0..3 in
    # lexicographic order; `catalog --dump` sees only the identity dressings
    digest = hashlib.sha256()
    for name, params in (("pi_2q", "ij"), ("pi_3q", "ijk"), ("omega34_3q", "ij")):
        for word in itertools.product(range(4), repeat=len(params)):
            argv = ["catalog", "--basis", name]
            for p, i in zip(params, word):
                argv += ["--param", "%s=%d" % (p, i)]
            rc, out = _json_out(capsys, argv)
            assert rc == 0, argv
            digest.update(out.encode())
    assert digest.hexdigest() == \
        "6cbd81005fb51d05cd782a9107610e75ad046c882206a65141fd7b4122616610"


@pytest.mark.parametrize("seed, digest", [
    (42, "cafea8eba39156e105e4c2bcc9c4650b2ea7105a75e523c2ae554151d7b7250e"),
    (7, "cbbfc896252ab02357869b0cfb9287aa9c4fd5c404bb131775ed71f060c89ee7"),
])
def test_teleport_json_and_text_bytes_pinned(seed, digest, capsys):
    # every registered scenario and negative group, corrections, fidelities
    # and costs; the correction search must leave every report as it was
    out = ""
    for scenario in sorted(reg.TELEPORT_SCENARIOS) + sorted(reg.negative_scenarios()):
        rc = main(["teleport", "--scenario", scenario, "--seed", str(seed),
                   "--format", "both"])
        assert rc == 0, scenario
        out += capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_teleport_json_bytes_pinned(capsys):
    # JSON only, every registered scenario and every negative scenario by its
    # own id at two seeds; memoized scenario inputs must leave every report
    # as it was
    ids = sorted(reg.TELEPORT_SCENARIOS) + sorted(
        sc.scenario_id for group in reg.negative_scenarios().values() for sc in group)
    assert len(ids) == len(set(ids)) == 68
    digest = hashlib.sha256()
    for seed in (42, 7):
        for sid in ids:
            rc, out = _json_out(capsys, ["teleport", "--scenario", sid,
                                         "--seed", str(seed)])
            assert rc == 0, sid
            digest.update(out.encode())
    assert digest.hexdigest() == \
        "c8f39ed7b8b612381ca91f92c73de051c438ba82f942265eb313f2470a9d2aec"


def test_locc_single_run(capsys):
    rc, out = _json_out(capsys, ["locc", "--set", "ghz8",
                                 "--protocol", "ghz_bell_bell"])
    assert rc == 0
    doc = json.loads(out)
    assert doc["success"] is True and doc["inter_receiver_cbits"] == 2


def test_locc_certificate(capsys):
    rc, out = _json_out(capsys, ["locc", "--certificate", "omega16"])
    assert rc == 0  # reporting a failed certificate is not a claim failure
    doc = json.loads(out)
    assert doc["ok"] is False and doc["cross_overlap"] == 0.5


def test_locc_certificate_reads_tolerance(capsys):
    # ghz8's certificate holds at the default tolerance and fails at 0.75
    candidates = reg.locc_candidate_sets()["ghz8"]
    factors = reg.certificate_factors()["ghz8"]
    for flags, tol, ok in (([], ASSERT_TOL, True),
                           (["--tolerance", "0.75"], 0.75, False)):
        rep = check_certificate(candidates, factors, tol=tol)
        rc, out = _json_out(capsys, ["locc", "--certificate", "ghz8"] + flags)
        assert rc == 0
        doc = json.loads(out)
        assert rep.ok is ok and doc["ok"] is ok, tol
        assert doc["detail"] == rep.detail
        assert doc["blocks"] == {lbl: [list(t) for t in terms]
                                 for lbl, terms in rep.blocks.items()}


def test_diagnose(capsys):
    rc, out = _json_out(capsys, ["diagnose", "--state", "W4"])
    assert rc == 0
    doc = json.loads(out)
    assert doc["genuine"] is True
    assert abs(doc["pair_concurrences"]["0+1"] - 0.5) < 1e-9


def test_suite_section(capsys):
    rc, out = _json_out(capsys, ["suite", "--sections", "bases"])
    assert rc == 0
    doc = json.loads(out)
    assert doc["ok"] is True
    assert all(r["status"] in ("PASS", "REFUTED", "INFO")
               for r in doc["claims"])


def test_paper_suite_alias(capsys):
    rc, _ = _json_out(capsys, ["paper-suite", "--sections", "bases"])
    assert rc == 0


# --- exit code 1 ------------------------------------------------------------------

def test_suite_exit_one_on_failure(monkeypatch, capsys):
    fake = SuiteReport(rows=(ClaimRow("x", "t", "FAIL", "a", "b"),),
                       seed=42, tolerance=1e-10)
    monkeypatch.setattr("quadproto.cli.run_suite", lambda **kw: fake)
    assert main(["suite", "--format", "json"]) == 1
    assert json.loads(capsys.readouterr().out)["ok"] is False


def test_densecode_all_exit_one_when_a_row_misses(monkeypatch, capsys):
    assert main(["densecode", "--all", "--format", "json"]) == 0
    capsys.readouterr()
    # ghz_dc1 has N = 4; claim == 5 instead
    table = [entry[:4] + (5,) + entry[5:] if entry[0] == "ghz_dc1" else entry
             for entry in reg.CAPACITY_TABLE]
    monkeypatch.setattr(reg, "CAPACITY_TABLE", tuple(table))
    assert main(["densecode", "--all", "--format", "text"]) == 1
    assert "expected == 5" in capsys.readouterr().out
    rows = {r.claim_id: r.status for r in run_suite(sections=("densecode",)).rows}
    assert rows["densecode/ghz_dc1"] == "FAIL"


@pytest.mark.parametrize("scenario, claim_id, patch", [
    ("ghz1_ghz4basis", "teleport/ghz1_ghz4basis",
     lambda mp: mp.setitem(reg.TELEPORT_COSTS, "ghz1_ghz4basis", 3)),
    ("q4_bob4_1q", "teleport/negative/q4_bob4_1q",
     lambda mp: mp.setattr("quadproto.suite.NEGATIVE_GAP", 0.6)),
], ids=["positive", "negative_group"])
def test_teleport_scenario_exit_code_is_the_suite_verdict(scenario, claim_id, patch,
                                                          monkeypatch, capsys):
    # the CLI and the suite row agree before and after the claim is broken
    for want_rc, want_status in ((0, "PASS"), (1, "FAIL")):
        if want_rc:
            patch(monkeypatch)
        rows = {r.claim_id: r.status
                for r in run_suite(sections=("teleport",)).rows}
        assert rows[claim_id] == want_status
        assert main(["teleport", "--scenario", scenario, "--format", "json"]) \
            == want_rc
        capsys.readouterr()


def test_teleport_exit_one_when_expectation_breaks(monkeypatch, capsys):
    import quadproto.cli as cli
    real = cli.run_scenario

    def sabotaged(sc, **kw):
        res = real(sc, **kw)
        object.__setattr__(res, "feasible", False)
        return res

    monkeypatch.setattr("quadproto.cli.run_scenario", sabotaged)
    rc = main(["teleport", "--scenario", "ghz1_ghz4basis", "--format", "json"])
    capsys.readouterr()
    assert rc == 1


# --- exit code 2 -------------------------------------------------------------------

@pytest.mark.parametrize("argv", [
    ["catalog", "--state", "NoSuchState"],
    ["catalog", "--basis", "eta_zeta_w"],          # params required
    ["teleport", "--scenario", "nope"],
    ["teleport"],
    ["densecode", "--state", "GHZ4", "--qubits", "a,b"],
    ["densecode", "--state", "GHZ4"],
    ["locc", "--set", "nope", "--protocol", "ghz_bell_bell"],
    ["locc", "--certificate", "nope"],
    ["suite", "--sections", "nope"],
    ["catalog", "--state", "W_mn", "--param", "m"],
    ["densecode", "--state", "GHZ4", "--qubits", "0,0"],
    ["catalog", "--state", "GHZ4", "--param", "m=1"],   # fixed-name states
    ["catalog", "--state", "GHZ:5", "--param", "n=3"],
    # flags the chosen mode would ignore
    ["locc", "--set", "ghz8"],
    ["locc", "--protocol", "ghz_bell_bell"],
    ["locc", "--certificate", "ghz8", "--set", "ghz8"],
    ["locc", "--certificate", "ghz8", "--protocol", "ghz_bell_bell"],
    ["teleport", "--file", "scenario.json", "--scenario", "ghz1_ghz4basis"],
    ["teleport", "--list", "--scenario", "ghz1_ghz4basis"],
    ["teleport", "--list", "--file", "scenario.json"],
    ["densecode", "--all", "--state", "GHZ4"],
    ["densecode", "--all", "--qubits", "0,1"],
    ["densecode", "--all", "--param", "m=1"],
    ["diagnose", "--all", "--state", "GHZ4"],
    ["catalog", "--state", "GHZ4", "--basis", "bell"],
    ["catalog", "--state", "GHZ4", "--dump"],
    ["catalog", "--basis", "bell", "--dump"],
    ["catalog", "--dump", "--param", "m=1"],
    ["teleport", "--file", "wide.json"],     # 1 + 12 joint qubits
    ["suite", "--sections", "teleport,teleport"],
])
def test_usage_errors_exit_two(argv, capsys, tmp_path, monkeypatch):
    # a valid scenario file, so a --file case fails on its flags alone
    (tmp_path / "scenario.json").write_text(
        dumps_scenario(reg.TELEPORT_SCENARIOS["ghz1_ghz4basis"]))
    (tmp_path / "wide.json").write_text(dumps_scenario(TeleportScenario(
        "too_wide", "GHZ:12", FamilySpec("arbitrary", 1),
        (StepSpec((0, 1), "bell"),), (2,))))
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")


@pytest.mark.parametrize("value", ["-1", "nan", "inf", "0", "1", "5", "1e400", ""])
def test_tolerance_outside_unit_interval_exits_two(value, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["teleport", "--scenario", "q4_bob4_1q", "--tolerance", value])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--tolerance: must be a finite number strictly between 0 and 1" \
        in captured.err


@pytest.mark.parametrize("command", ["teleport", "suite"])
# int() reads 1_0 as 10 and other scripts' digits as numbers
@pytest.mark.parametrize("value", ["-1", "x", "1_0", "\u0663", "+1", "1.0"])
def test_negative_or_non_integer_seed_is_refused_by_name(command, value, capsys):
    argv = [command] + (["--scenario", "ghz1_ghz4basis"] if command == "teleport" else [])
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--help"])
    usage = capsys.readouterr().out.split("\n\n")[0] + "\n"
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--seed", value])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == usage + (
        "quadproto %s: error: argument --seed: must be a non-negative integer, "
        "got %r\n" % (command, value))


def test_repeated_suite_sections_exit_two(capsys):
    assert main(["suite", "--sections", "teleport,bases,teleport"]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "error: repeated suite sections: "
                                                "teleport\n")


@pytest.mark.parametrize("value", ["inf", "-inf", "nan", "1e400"])
def test_non_finite_parameter_is_named(value, capsys):
    argv = ["catalog", "--state", "W_mn", "--param", "m=" + value,
            "--param", "n=1"]
    assert main(argv) == 2
    assert capsys.readouterr().err == \
        "error: parameter m must be a finite number, got %r\n" % value


def test_integer_parameter_reaches_dressed_basis(capsys):
    rc, out = _json_out(capsys, ["catalog", "--basis", "pi_2q", "--param", "i=1"])
    assert rc == 0
    want = make_basis("pi_2q", i=1)
    doc = json.loads(out)
    assert doc["labels"] == list(want.labels)
    got = [[complex(k["re"], k["im"]) for k in v["kets"]] for v in doc["vectors"]]
    assert got == [[amp for _, amp in vec.ket_terms()] for vec in want.vectors]


def test_complex_parameters_written_as_re_im(capsys):
    rc, out = _json_out(capsys, ["catalog", "--state", "W_pqrs", "--param", "p=1",
                                 "--param", "q=2", "--param", "r=2",
                                 "--param", "s=3"])
    assert rc == 0
    params = json.loads(out)["params"]
    assert params == {k: {"re": v, "im": 0.0}
                      for k, v in zip("pqrs", (1.0, 2.0, 2.0, 3.0))}


def test_complex_parameter_literal_accepted(capsys):
    rc, out = _json_out(capsys, ["catalog", "--state", "W_pqrs", "--param", "p=1j",
                                 "--param", "q=2", "--param", "r=2",
                                 "--param", "s=3"])
    assert rc == 0
    params = json.loads(out)["params"]
    assert params["p"] == {"re": 0.0, "im": 1.0}
    assert params["q"] == {"re": 2.0, "im": 0.0}


@pytest.mark.parametrize("argv, message", [
    (["catalog", "--state", "W_pqrs", "--param", "p=1+nanj", "--param", "q=2",
      "--param", "r=2", "--param", "s=3"],
     "parameter p must be a finite number, got '1+nanj'"),
    (["catalog", "--state", "W_pqrs", "--param", "p=infj", "--param", "q=2",
      "--param", "r=2", "--param", "s=3"],
     "parameter p must be a finite number, got 'infj'"),
    (["catalog", "--state", "W_mn", "--param", "m=one", "--param", "n=1"],
     "parameter m must be an int, real or complex literal, got 'one'"),
    (["catalog", "--state", "W_mn", "--param", "m=1", "--param", "n=2j"],
     "W_mn parameters must be real: n"),
    # finite parameters whose squares overflow
    (["catalog", "--state", "W_pqrs", "--param", "p=1e200", "--param", "q=0",
      "--param", "r=0", "--param", "s=1e200"],
     "W_pqrs needs |p|^2, |q|^2, |r|^2 and |s|^2 within the float range, got "
     "p=(1e+200+0j), q=0j, r=0j, s=(1e+200+0j)"),
    (["catalog", "--state", "W_mn", "--param", "m=1e308", "--param", "n=1e308"],
     "W_mn needs m + n + 1 within the float range, got m=1e+308, n=1e+308"),
    (["teleport", "--file", "overflow.json"],
     "W_pqrs needs |p|^2, |q|^2, |r|^2 and |s|^2 within the float range, got "
     "p=(1e+200+0j), q=0j, r=0j, s=(1e+200+0j)"),
])
def test_parameter_errors_are_named(argv, message, capsys, tmp_path, monkeypatch):
    (tmp_path / "overflow.json").write_text(dumps_scenario(dataclasses.replace(
        reg.TELEPORT_SCENARIOS["w_pqrs_1223"],
        resource_params={"p": 1e200, "q": 0.0, "r": 0.0, "s": 1e200})))
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 2
    assert capsys.readouterr().err == "error: %s\n" % message


@pytest.mark.parametrize("qubits", [",".join(map(str, range(k))) for k in (9, 12)])
def test_oversized_densecode_query_exits_two(qubits, monkeypatch, capsys):
    # 2.1 GB and 1.1 TB of Pauli table entries: refused before the table is built
    def no_table(k):
        raise AssertionError("the Pauli table was built for k = %d" % k)

    monkeypatch.setattr(densecode, "pauli_table", no_table)
    assert main(["densecode", "--state", "GHZ:12", "--qubits", qubits]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: %d sender qubits of a 12-qubit resource"
                                   % len(qubits.split(",")))
    assert "over the limit of 2^24" in captured.err


def test_oversized_diag_vocabulary_file_exits_two(tmp_path, capsys):
    # four Bell pairs teleporting four qubits, a valid scenario with paulis
    pairs = tuple((format(x, "04b") * 2, 1.0) for x in range(16))
    sc = TeleportScenario(
        scenario_id="bell4",
        resource="four pairs",
        family=FamilySpec("arbitrary", 4),
        steps=tuple(StepSpec((q, q + 4), "bell") for q in range(4)),
        receiver=(8, 9, 10, 11),
        resource_kets=pairs,
    )
    doc = json.loads(dumps_scenario(sc))
    doc["allowed_ops"] = "paulis+diag"
    path = str(tmp_path / "diag4.json")
    with open(path, "w") as fh:
        json.dump(doc, fh)
    assert main(["teleport", "--file", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "limited to 3 receiver qubits" in captured.err
    assert "ROADMAP.md" in captured.err


def test_oversized_probe_stack_file_exits_two(tmp_path, monkeypatch, capsys):
    # an 8-qubit arbitrary family with GHZ4 asks for 65,556 probes of 4,096
    # amplitudes: refused before any probe is built
    sc = TeleportScenario("wide_family", "GHZ4", FamilySpec("arbitrary", 8),
                          tuple(StepSpec((q,), "computational:1") for q in range(4)),
                          tuple(range(4, 12)))
    path = str(tmp_path / "wide.json")
    with open(path, "w") as fh:
        fh.write(dumps_scenario(sc))

    def no_probes(*args):
        raise AssertionError("build_probes was called")

    monkeypatch.setattr(teleport, "build_probes", no_probes)
    assert main(["teleport", "--file", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: 65556 probes of a 12-qubit joint register")
    assert "over the limit of 2^24" in captured.err


@pytest.mark.parametrize("text", ["x", "5.0", ""])
def test_non_integer_ghz_size_is_named(text, capsys):
    assert main(["catalog", "--state", "GHZ:" + text]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: GHZ:n needs an integer n, got %r\n" % text


def test_missing_family_parameter_is_named(capsys):
    assert main(["densecode", "--state", "W_mn", "--qubits", "0"]) == 2
    assert capsys.readouterr().err == \
        "error: W_mn is missing parameters: m, n\n"


def test_non_integer_dressing_in_file_exits_two(tmp_path, capsys):
    doc = json.loads(dumps_scenario(reg.TELEPORT_SCENARIOS["ghz2_pi_00"]))
    doc["steps"][0]["basis_params"]["i"] = 0.0
    path = str(tmp_path / "float_index.json")
    with open(path, "w") as fh:
        json.dump(doc, fh)
    assert main(["teleport", "--file", path]) == 2
    assert capsys.readouterr().err == \
        "error: Pauli index must be an integer, got 0.0\n"


def test_malformed_file_exits_two(tmp_path, capsys):
    path = str(tmp_path / "bad.json")
    with open(path, "w") as fh:
        fh.write('{"format": "quadproto-scenario", "version": 99}')
    assert main(["teleport", "--file", path]) == 2
    assert "missing keys" in capsys.readouterr().err


def test_overlong_integer_in_file_exits_two(tmp_path, capsys):
    # 5,000 digits, past Python's default limit of 4,300 for int()
    doc = json.loads(dumps_scenario(reg.TELEPORT_SCENARIOS["w_pqrs_1223"]))
    doc["resource"]["params"]["p"] = "@"
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(doc).replace('"@"', "1" * 5000), encoding="utf-8")
    assert main(["teleport", "--file", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: %s: invalid JSON: an integer literal is too "
                            "long (over 4300 digits)\n" % path)


def test_missing_file_exits_two(tmp_path, capsys):
    path = str(tmp_path / "absent.json")
    assert main(["teleport", "--file", path]) == 2
    assert capsys.readouterr().err == "error: %s: No such file or directory\n" % path


@pytest.mark.parametrize("argv, path, reason", [
    (["catalog", "--state", "GHZ4", "--out", "afile"], "afile", "File exists"),
    (["catalog", "--state", "GHZ4", "--out", "afile/sub"], "afile/sub",
     "Not a directory"),
    (["teleport", "--file", "adir"], "adir", "Is a directory"),
])
def test_file_errors_name_the_path(argv, path, reason, tmp_path, monkeypatch, capsys):
    # an OSError is a usage error (exit 2), not a failed claim (exit 1)
    (tmp_path / "afile").write_text("")
    (tmp_path / "adir").mkdir()
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 2
    assert capsys.readouterr().err == "error: %s: %s\n" % (path, reason)


# --- output plumbing ----------------------------------------------------------------

def test_json_output_byte_identical(capsys):
    argv = ["teleport", "--scenario", "omega1_omegabasis"]
    _, first = _json_out(capsys, argv)
    _, second = _json_out(capsys, argv)
    assert first == second
    json.loads(first)


def test_both_format_emits_text_and_json(capsys):
    rc = main(["diagnose", "--state", "GHZ4", "--format", "both"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "genuine=True" in out
    assert '"genuine": true' in out


def test_out_dir_receives_files(tmp_path, capsys):
    rc = main(["densecode", "--state", "GHZ4", "--qubits", "0",
               "--format", "both", "--out", str(tmp_path)])
    assert rc == 0
    capsys.readouterr()
    names = sorted(os.listdir(tmp_path))
    assert names == ["densecode_GHZ4.json", "densecode_GHZ4.txt"]
    with open(tmp_path / "densecode_GHZ4.json") as fh:
        assert json.load(fh)["N"] == 4


def test_seed_and_tolerance_flags_accepted(capsys):
    rc, out = _json_out(capsys, ["teleport", "--scenario", "ghz1_ghz4basis",
                                 "--seed", "7", "--tolerance", "1e-9"])
    assert rc == 0
    assert json.loads(out)["feasible"] is True


def test_seed_may_have_spaces_around_it(capsys):
    argv = ["teleport", "--scenario", "ghz1_ghz4basis", "--seed"]
    assert _json_out(capsys, argv + [" 7 "]) == _json_out(capsys, argv + ["7"])


def _cli_env(**overrides):
    """The environment of a ``python -m quadproto`` child, with ``src`` on
    its path; an override of None unsets the variable."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    for key, value in overrides.items():
        env.pop(key, None)
        if value is not None:
            env[key] = value
    return env


def test_python_dash_m_runs_the_cli():
    # ``python -m quadproto`` is the console script: its exit code included
    env = _cli_env()
    ok = subprocess.run([sys.executable, "-m", "quadproto", "catalog", "--format", "json"],
                        env=env, capture_output=True, text=True, timeout=120)
    assert ok.returncode == 0, ok.stderr
    assert "GHZ4" in json.loads(ok.stdout)["states"]
    bad = subprocess.run([sys.executable, "-m", "quadproto", "densecode"],
                         env=env, capture_output=True, text=True, timeout=120)
    assert bad.returncode == 2
    assert bad.stderr == "error: densecode needs --state and --qubits (or --all)\n"


@pytest.mark.parametrize("argv, unbuffered", [
    (["catalog", "--dump"], "1"),             # the write in _emit fails
    (["catalog", "--state", "GHZ4"], None),   # the output sits in the buffer
])
def test_closed_output_pipe_exits_two_without_traceback(argv, unbuffered):
    # the read end is closed before the child starts, as when the reader of
    # ``quadproto ... | head`` has already exited
    read, write = os.pipe()
    os.close(read)
    try:
        proc = subprocess.run([sys.executable, "-m", "quadproto"] + argv,
                              env=_cli_env(PYTHONUNBUFFERED=unbuffered),
                              stdout=write, stderr=subprocess.PIPE, text=True,
                              timeout=120)
    finally:
        os.close(write)
    assert (proc.returncode, proc.stderr) == (
        2, "error: standard output was closed before the output was written\n")
