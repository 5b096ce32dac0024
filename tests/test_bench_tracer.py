"""The benchmark's traced mode wraps quadproto functions by name."""

import importlib
import importlib.util
import os
import sys

TRACER = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                      "bench", "tracer.py")


def _load_tracer(monkeypatch):
    # read the file without writing bytecode next to it
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("_bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_target_resolves(monkeypatch):
    # Tracer.install raises AttributeError on a missing name, which would
    # stop every traced benchmark run
    tracer = _load_tracer(monkeypatch)
    assert tracer.TARGETS
    for module, name in tracer.TARGETS:
        owner = importlib.import_module("quadproto." + module)
        assert callable(getattr(owner, name, None)), "%s.%s" % (module, name)
