"""Strict JSON interchange for teleportation scenarios."""

import json
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


def test_invalid_json_text():
    with pytest.raises(ScenarioFormatError, match="JSON"):
        loads_scenario("{not json")
    with pytest.raises(ScenarioFormatError, match="object"):
        loads_scenario("[1, 2]")
