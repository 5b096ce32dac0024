"""Strict JSON interchange for teleportation scenarios."""

import json
import re
import sys
import warnings

import pytest

from quadproto import scenarios as reg
from quadproto.measure import StepSpec
from quadproto.scenario_io import (
    FORMAT_NAME,
    FORMAT_VERSION,
    ScenarioFormatError,
    dumps_scenario,
    load_scenario,
    loads_scenario,
    save_scenario,
    scenario_from_dict,
    scenario_to_dict,
)
from quadproto.teleport import FamilySpec, TeleportScenario


def _inline():
    return TeleportScenario(
        scenario_id="inline",
        resource="pair",
        family=FamilySpec("arbitrary", 1),
        steps=(StepSpec((0, 1), "bell"),),
        receiver=(2,),
        resource_kets=(("00", 1.0 + 0.0j), ("11", 0.0 + 1.0j)),
    )


def _doc(**overrides):
    doc = scenario_to_dict(_inline())
    doc.update(overrides)
    return doc


# --- round trips ----------------------------------------------------------------

def test_every_registered_scenario_round_trips():
    for sid, sc in reg.TELEPORT_SCENARIOS.items():
        assert loads_scenario(dumps_scenario(sc)) == sc, sid
    for group in reg.negative_scenarios().values():
        for sc in group:
            assert loads_scenario(dumps_scenario(sc)) == sc, sc.scenario_id


def test_inline_kets_round_trip():
    sc = _inline()
    back = loads_scenario(dumps_scenario(sc))
    assert back == sc
    assert back.resource_kets[1][1] == 1.0j


def test_file_round_trip(tmp_path):
    path = str(tmp_path / "sc.json")
    sc = reg.TELEPORT_SCENARIOS["ghz1_ghz4basis"]
    save_scenario(sc, path)
    assert load_scenario(path) == sc
    # serialized form is deterministic: sorted keys, trailing newline
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    assert text == dumps_scenario(sc)
    assert text.endswith("\n")
    assert json.loads(text)["format"] == FORMAT_NAME


def test_dict_form_is_versioned():
    doc = scenario_to_dict(_inline())
    assert doc["format"] == FORMAT_NAME
    assert doc["version"] == FORMAT_VERSION
    assert doc["resource"]["kets"][0] == {"label": "00", "re": 1.0, "im": 0.0}


# --- strictness -------------------------------------------------------------------

def test_unknown_keys_rejected_at_every_level():
    cases = [
        _doc(surprise=1),
        _doc(resource={"name": "pair", "params": {}, "color": "red"}),
        _doc(family={"kind": "arbitrary", "num_qubits": 1, "extra": 0}),
    ]
    steps_doc = _doc()
    steps_doc["steps"] = [dict(steps_doc["steps"][0], detune=0.1)]
    cases.append(steps_doc)
    kets_doc = _doc()
    kets_doc["resource"] = {"name": "pair",
                            "kets": [{"label": "00", "re": 1, "im": 0,
                                      "phase": 0}]}
    cases.append(kets_doc)
    for doc in cases:
        with pytest.raises(ScenarioFormatError, match="unknown"):
            scenario_from_dict(doc)


def test_version_and_format_enforced():
    with pytest.raises(ScenarioFormatError, match="version"):
        scenario_from_dict(_doc(version=2))
    with pytest.raises(ScenarioFormatError, match="document"):
        scenario_from_dict(_doc(format="something-else"))
    with pytest.raises(ScenarioFormatError, match="missing"):
        doc = _doc()
        del doc["receiver"]
        scenario_from_dict(doc)


def test_resource_takes_params_or_kets_not_both():
    doc = _doc()
    doc["resource"] = {"name": "pair", "params": {},
                       "kets": [{"label": "00", "re": 1, "im": 0}]}
    with pytest.raises(ScenarioFormatError, match="not both"):
        scenario_from_dict(doc)


def test_ket_validation():
    bad_label = _doc()
    bad_label["resource"] = {"name": "p",
                             "kets": [{"label": "0x1", "re": 1, "im": 0}]}
    with pytest.raises(ScenarioFormatError, match="binary"):
        scenario_from_dict(bad_label)
    dup = _doc()
    dup["resource"] = {"name": "p",
                       "kets": [{"label": "00", "re": 1, "im": 0},
                                {"label": "00", "re": 0, "im": 1}]}
    with pytest.raises(ScenarioFormatError, match="duplicate"):
        scenario_from_dict(dup)
    bool_amp = _doc()
    bool_amp["resource"] = {"name": "p",
                            "kets": [{"label": "00", "re": True, "im": 0}]}
    with pytest.raises(ScenarioFormatError, match="number"):
        scenario_from_dict(bool_amp)


@pytest.mark.parametrize("bad", ["NaN", "Infinity", "-Infinity"])
def test_non_finite_numbers_rejected(bad):
    kets = _doc()
    kets["resource"] = {"name": "p", "kets": [{"label": "00", "re": 1, "im": 0},
                                              {"label": "11", "re": 0, "im": 0}]}
    kets["resource"]["kets"][1]["re"] = "@"
    params = _doc()
    params["resource"] = {"name": "W_mn", "params": {"m": "@", "n": 1}}
    basis = _doc()
    basis["steps"][0]["basis_params"] = {"i": "@"}
    for doc, where in ((kets, r"resource\.kets\[1\]\.re"),
                       (params, r"resource\.params\[m\]"),
                       (basis, r"steps\[0\]\.basis_params\[i\]")):
        text = json.dumps(doc).replace('"@"', bad)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ScenarioFormatError, match=where + " must be finite"):
                loads_scenario(text)


def test_integers_beyond_the_float_range_rejected():
    # JSON integers parse exactly, so one past 2**1024 would overflow later
    big = "1" + "0" * 400
    kets = _doc()
    kets["resource"]["kets"][1]["re"] = "@"
    params = _doc()
    params["resource"] = {"name": "W_pqrs",
                          "params": {"p": "@", "q": 0, "r": 0, "s": "@"}}
    basis = _doc()
    basis["steps"][0]["basis_params"] = {"i": "@"}
    for doc, where in ((kets, r"resource\.kets\[1\]\.re"),
                       (params, r"resource\.params\[p\]"),
                       (basis, r"steps\[0\]\.basis_params\[i\]")):
        text = json.dumps(doc).replace('"@"', big)
        with pytest.raises(ScenarioFormatError,
                           match=where + " must be finite, got 1000"):
            loads_scenario(text)


def test_overlong_integer_literal_rejected(tmp_path):
    # Python refuses to convert an integer literal past its digit limit
    # (4,300 by default); the refusal names neither a Python call nor a field
    doc = _doc()
    doc["resource"] = {"name": "W_pqrs", "params": {"p": "@", "q": 0, "r": 0, "s": 1}}
    text = json.dumps(doc).replace('"@"', "1" * 5000)
    message = ("invalid JSON: an integer literal is too long (over %d digits)"
               % sys.get_int_max_str_digits())
    with pytest.raises(ScenarioFormatError) as info:
        loads_scenario(text)
    assert str(info.value) == message
    path = tmp_path / "huge.json"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ScenarioFormatError) as info:
        load_scenario(str(path))
    assert str(info.value) == "%s: %s" % (path, message)


def test_scalar_type_checks():
    with pytest.raises(ScenarioFormatError, match="integers"):
        scenario_from_dict(_doc(receiver=[2.0]))
    with pytest.raises(ScenarioFormatError, match="integers"):
        scenario_from_dict(_doc(receiver=[True]))
    with pytest.raises(ScenarioFormatError, match="string"):
        scenario_from_dict(_doc(note=3))
    with pytest.raises(ScenarioFormatError, match="nonempty"):
        scenario_from_dict(_doc(steps=[]))
    with pytest.raises(ScenarioFormatError, match="scenario_id"):
        scenario_from_dict(_doc(scenario_id=""))


def test_semantic_errors_become_format_errors():
    # structurally valid JSON carrying an impossible scenario
    doc = _doc()
    doc["allowed_ops"] = "clifford"
    with pytest.raises(ScenarioFormatError, match="vocabulary"):
        scenario_from_dict(doc)
    doc2 = _doc()
    doc2["family"] = {"kind": "mystery", "num_qubits": 1}
    with pytest.raises(ScenarioFormatError, match="family"):
        scenario_from_dict(doc2)
    # paulis+diag on four receiver qubits, once refused, now loads
    doc3 = _doc(allowed_ops="paulis+diag", receiver=[2, 3, 4, 5])
    doc3["family"] = {"kind": "arbitrary", "num_qubits": 4}
    sc = scenario_from_dict(doc3)
    assert (sc.allowed_ops, sc.family.num_qubits, sc.receiver) == ("paulis+diag", 4,
                                                                    (2, 3, 4, 5))
    doc4 = scenario_to_dict(reg.TELEPORT_SCENARIOS["ghz2_pi_01"])
    doc4["receiver"] = [5, 4]
    with pytest.raises(ScenarioFormatError, match="strictly ascending"):
        scenario_from_dict(doc4)


@pytest.mark.parametrize("field, value, message", [
    ("party", 3, "steps[0]: party must be a string, got 3"),
    ("basis", 5, "steps[0]: basis must be a catalog name, got 5"),
    ("qubits", [0, 0], "steps[0]: repeated measured qubit in [0, 0]"),
])
def test_step_errors_name_the_step(field, value, message):
    # StepSpec owns these checks; the qubits used to escape as a bare ValueError
    doc = _doc()
    doc["steps"][0][field] = value
    with pytest.raises(ScenarioFormatError, match="^%s$" % re.escape(message)):
        scenario_from_dict(doc)


def test_resource_name_and_dressing_checked():
    # both used to escape as AttributeError / IndexError tracebacks
    for name in (1.5, None, ""):
        doc = _doc()
        doc["resource"] = {"name": name, "params": {}}
        with pytest.raises(ScenarioFormatError, match="resource.name"):
            scenario_from_dict(doc)
    doc = _doc(receiver=[4, 5])
    doc["resource"] = {"name": "GHZ4", "params": {}}
    doc["family"] = {"kind": "ghz_diag", "num_qubits": 2, "dressing": [0, 7]}
    with pytest.raises(ScenarioFormatError, match="Pauli indices 0..3"):
        scenario_from_dict(doc)
    with pytest.raises(ValueError, match="Pauli indices 0..3"):
        FamilySpec("ghz_diag", 2, (-1, 0))


def test_invalid_json_text():
    with pytest.raises(ScenarioFormatError, match="JSON"):
        loads_scenario("{not json")
    with pytest.raises(ScenarioFormatError, match="object"):
        loads_scenario("[1, 2]")
