"""The package namespace: its exports, and which submodules a read loads."""

import importlib
import json
import os
import subprocess
import sys

import pytest

import quadproto

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def loaded_after(code: str) -> tuple[list[str], bool]:
    """The quadproto submodules loaded, sorted, and whether numpy is, after
    ``code`` runs in a fresh interpreter importing quadproto from ``src``."""
    probe = ("import json, sys; sys.path.insert(0, %r)\n%s\n"
             "print(json.dumps([sorted(m.split('.', 1)[1] for m in sys.modules "
             "if m.startswith('quadproto.')), 'numpy' in sys.modules]))" % (SRC, code))
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                         text=True, check=True).stdout
    modules, numpy = json.loads(out)
    return modules, numpy


def test_every_export_is_its_submodules_object():
    names = [name for name in quadproto.__all__ if name != "__version__"]
    assert len(set(quadproto.__all__)) == len(quadproto.__all__)
    for module_name, exported in quadproto._EXPORTS.items():
        module = importlib.import_module("quadproto." + module_name)
        assert getattr(quadproto, module_name) is module
        for name in exported:
            assert getattr(quadproto, name) is getattr(module, name)
            assert vars(quadproto)[name] is getattr(module, name)  # kept after one read
    assert sorted(names) == sorted(n for e in quadproto._EXPORTS.values() for n in e)


def test_star_import_binds_every_export():
    namespace = {}
    exec("from quadproto import *", namespace)
    for name in quadproto.__all__:
        assert namespace[name] is getattr(quadproto, name), name


def test_unknown_names_raise_attribute_error():
    with pytest.raises(AttributeError, match="^module 'quadproto' has no attribute 'nope'$"):
        quadproto.nope
    assert not hasattr(quadproto, "nope")
    with pytest.raises(ImportError):
        exec("from quadproto import nope", {})


def test_dir_lists_every_export_and_submodule():
    listed = dir(quadproto)
    assert set(quadproto.__all__) | set(quadproto._EXPORTS) <= set(listed)
    assert listed == sorted(listed)


def test_a_bare_import_loads_no_submodule_and_no_numpy():
    assert loaded_after("import quadproto") == ([], False)


def test_a_submodule_resolves_after_a_bare_import():
    code = "import quadproto\nassert callable(quadproto.teleport.run_scenario)"
    assert loaded_after(code) == (["catalog", "measure", "states", "teleport"], True)


def test_the_teleport_registry_loads_no_dense_coding_or_locc():
    code = ("from quadproto import scenarios as reg\n"
            "assert reg.TELEPORT_SCENARIOS and reg.negative_scenarios()")
    assert loaded_after(code) == (
        ["catalog", "measure", "scenarios", "states", "teleport"], True)
