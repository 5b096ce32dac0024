"""Command-line interface: exit codes, output formats, determinism."""

import json
import os

import pytest

from quadproto import scenarios as reg
from quadproto.catalog import make_basis
from quadproto.cli import main
from quadproto.measure import StepSpec
from quadproto.scenario_io import dumps_scenario
from quadproto.suite import ClaimRow, SuiteReport
from quadproto.teleport import FamilySpec, TeleportScenario


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


def test_densecode_all(capsys):
    rc, out = _json_out(capsys, ["densecode", "--all"])
    assert rc == 0
    rows = json.loads(out)["capacities"]
    assert any(r["claim"] == "omega_dc2" and r["N"] == 16 for r in rows)


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
])
def test_usage_errors_exit_two(argv, capsys):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")


@pytest.mark.parametrize("value", ["-1", "nan", "inf", "0", "1", "5"])
def test_tolerance_outside_unit_interval_exits_two(value, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["teleport", "--scenario", "q4_bob4_1q", "--tolerance", value])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--tolerance: must be a finite number strictly between 0 and 1" \
        in captured.err


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


def test_missing_file_exits_two(tmp_path, capsys):
    assert main(["teleport", "--file", str(tmp_path / "absent.json")]) == 2
    capsys.readouterr()


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
