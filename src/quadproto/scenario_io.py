"""Versioned JSON interchange for teleportation scenarios.

The format is strict by design: unknown fields anywhere in the document
are rejected, the version must match exactly, and amplitudes are spelled
out as ``{"label": "0101", "re": ..., "im": ...}`` entries so files carry
no parser-dependent notation.
"""

from __future__ import annotations

import json
import sys
from typing import Any, Mapping

from .measure import StepSpec
from .teleport import FamilySpec, TeleportScenario

__all__ = ["FORMAT_NAME", "FORMAT_VERSION", "ScenarioFormatError",
           "scenario_to_dict", "scenario_from_dict",
           "dumps_scenario", "loads_scenario",
           "save_scenario", "load_scenario"]

FORMAT_NAME = "quadproto-scenario"
FORMAT_VERSION = 1


class ScenarioFormatError(ValueError):
    """Raised for any malformed, unversioned, or over-specified document."""


def _require_keys(obj: Mapping[str, Any], where: str,
                  required: tuple[str, ...], optional: tuple[str, ...] = ()):
    if not isinstance(obj, dict):
        raise ScenarioFormatError("%s must be an object" % where)
    missing = [k for k in required if k not in obj]
    if missing:
        raise ScenarioFormatError("%s missing keys: %s" % (where, ", ".join(missing)))
    unknown = [k for k in obj if k not in required and k not in optional]
    if unknown:
        raise ScenarioFormatError("%s has unknown keys: %s" % (where, ", ".join(unknown)))


def _int_tuple(value: Any, where: str) -> tuple[int, ...]:
    if (not isinstance(value, list)
            or any(not isinstance(v, int) or isinstance(v, bool) for v in value)):
        raise ScenarioFormatError("%s must be a list of integers" % where)
    return tuple(value)


def _number(value: Any, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ScenarioFormatError("%s must be a number" % where)
    if not abs(value) <= sys.float_info.max:  # NaN, inf and ints beyond floats
        raise ScenarioFormatError("%s must be finite, got %r" % (where, value))
    return value


def _params(value: Any, where: str) -> dict[str, float]:
    if value is None:
        return {}
    if not isinstance(value, dict):
        raise ScenarioFormatError("%s must be an object" % where)
    out: dict[str, float] = {}
    for key, v in value.items():
        if not isinstance(key, str):
            raise ScenarioFormatError("%s keys must be strings" % where)
        out[key] = _number(v, "%s[%s]" % (where, key))
    return out


def scenario_to_dict(sc: TeleportScenario) -> dict:
    doc: dict[str, Any] = {
        "format": FORMAT_NAME,
        "version": FORMAT_VERSION,
        "scenario_id": sc.scenario_id,
        "family": {
            "kind": sc.family.kind,
            "num_qubits": sc.family.num_qubits,
            "dressing": list(sc.family.dressing),
        },
        "steps": [
            {
                "qubits": list(s.qubits),
                "basis": s.basis,
                "basis_params": dict(s.basis_params),
                "party": s.party,
            }
            for s in sc.steps
        ],
        "receiver": list(sc.receiver),
        "allowed_ops": sc.allowed_ops,
        "aggregator": sc.aggregator,
        "receiver_party": sc.receiver_party,
        "note": sc.note,
    }
    if sc.resource_kets:
        doc["resource"] = {
            "name": sc.resource,
            "kets": [
                {"label": ket, "re": float(amp.real), "im": float(amp.imag)}
                for ket, amp in sc.resource_kets
            ],
        }
    else:
        doc["resource"] = {"name": sc.resource,
                           "params": dict(sc.resource_params)}
    return doc


def scenario_from_dict(doc: Mapping[str, Any]) -> TeleportScenario:
    _require_keys(doc, "document",
                  ("format", "version", "scenario_id", "resource", "family",
                   "steps", "receiver"),
                  ("allowed_ops", "aggregator", "receiver_party", "note"))
    if doc["format"] != FORMAT_NAME:
        raise ScenarioFormatError("not a %s document" % FORMAT_NAME)
    if doc["version"] != FORMAT_VERSION:
        raise ScenarioFormatError("unsupported version %r (expected %d)"
                                  % (doc["version"], FORMAT_VERSION))
    if not isinstance(doc["scenario_id"], str) or not doc["scenario_id"]:
        raise ScenarioFormatError("scenario_id must be a nonempty string")

    res = doc["resource"]
    _require_keys(res, "resource", ("name",), ("params", "kets"))
    if not isinstance(res["name"], str) or not res["name"]:
        raise ScenarioFormatError("resource.name must be a nonempty string")
    if "kets" in res and "params" in res:
        raise ScenarioFormatError("resource takes params or kets, not both")
    kets: tuple[tuple[str, complex], ...] = ()
    params: dict[str, float] = {}
    if "kets" in res:
        if not isinstance(res["kets"], list) or not res["kets"]:
            raise ScenarioFormatError("resource.kets must be a nonempty list")
        pairs = []
        for i, entry in enumerate(res["kets"]):
            _require_keys(entry, "resource.kets[%d]" % i, ("label", "re", "im"))
            label = entry["label"]
            if (not isinstance(label, str) or not label
                    or set(label) - {"0", "1"}):
                raise ScenarioFormatError(
                    "resource.kets[%d].label must be a binary string" % i)
            real, imag = (_number(entry[part], "resource.kets[%d].%s" % (i, part))
                          for part in ("re", "im"))
            pairs.append((label, complex(real, imag)))
        if len({k for k, _ in pairs}) != len(pairs):
            raise ScenarioFormatError("resource.kets has duplicate labels")
        kets = tuple(pairs)
    else:
        params = _params(res.get("params"), "resource.params")

    fam = doc["family"]
    _require_keys(fam, "family", ("kind", "num_qubits"), ("dressing",))
    if not isinstance(fam["kind"], str):
        raise ScenarioFormatError("family.kind must be a string")
    dressing = _int_tuple(fam.get("dressing", []), "family.dressing")

    if not isinstance(doc["steps"], list) or not doc["steps"]:
        raise ScenarioFormatError("steps must be a nonempty list")
    steps = []
    for i, s in enumerate(doc["steps"]):
        _require_keys(s, "steps[%d]" % i, ("qubits", "basis"),
                      ("basis_params", "party"))
        qubits = _int_tuple(s["qubits"], "steps[%d].qubits" % i)
        basis_params = _params(s.get("basis_params"), "steps[%d].basis_params" % i)
        try:  # StepSpec checks the basis and party types
            steps.append(StepSpec(qubits, s["basis"], basis_params, s.get("party", "Alice")))
        except ValueError as exc:
            raise ScenarioFormatError("steps[%d]: %s" % (i, exc)) from exc

    extras = {}
    for key, default in (("allowed_ops", "paulis"), ("aggregator", "Alice"),
                         ("receiver_party", "Bob"), ("note", "")):
        value = doc.get(key, default)
        if not isinstance(value, str):
            raise ScenarioFormatError("%s must be a string" % key)
        extras[key] = value

    try:
        return TeleportScenario(
            scenario_id=doc["scenario_id"],
            resource=res["name"],
            family=FamilySpec(fam["kind"], fam["num_qubits"], dressing),
            steps=tuple(steps),
            receiver=_int_tuple(doc["receiver"], "receiver"),
            resource_params=params,
            resource_kets=kets,
            **extras,
        )
    except ValueError as exc:
        raise ScenarioFormatError(str(exc)) from exc


def dumps_scenario(sc: TeleportScenario) -> str:
    return json.dumps(scenario_to_dict(sc), indent=2, sort_keys=True) + "\n"


def loads_scenario(text: str) -> TeleportScenario:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioFormatError("invalid JSON: %s" % exc) from exc
    except ValueError as exc:  # int() refuses a literal past the digit limit
        raise ScenarioFormatError(
            "invalid JSON: an integer literal is too long (over %d digits)"
            % sys.get_int_max_str_digits()) from exc
    return scenario_from_dict(doc)


def save_scenario(sc: TeleportScenario, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps_scenario(sc))


def load_scenario(path: str) -> TeleportScenario:
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        return loads_scenario(text)
    except ScenarioFormatError as exc:
        raise ScenarioFormatError("%s: %s" % (path, exc)) from exc
