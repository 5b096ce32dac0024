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


def test_importing_the_cli_loads_every_traced_module(monkeypatch):
    # Tracer.install imports quadproto.cli and then reads every target's
    # module from sys.modules, so cli.py must import each of them
    from test_package import loaded_after
    tracer = _load_tracer(monkeypatch)
    modules, _ = loaded_after("import quadproto.cli")
    assert {module for module, _ in tracer.TARGETS} <= set(modules)


def test_every_work_reader_reads_a_real_return_value(monkeypatch):
    # Tracer._wrap applies each WORK reader to its target's return value, so
    # a renamed result field would stop every traced run, not this file
    from quadproto import scenarios as reg
    from quadproto.catalog import make_state
    from quadproto.densecode import distinguishable_messages
    from quadproto.locc import run_discrimination
    from quadproto.measure import StepSpec, build_plan, enumerate_outcomes
    from quadproto.teleport import run_scenario
    tracer = _load_tracer(monkeypatch)
    ghz = make_state("GHZ4").state
    scenario = reg.TELEPORT_SCENARIOS[sorted(reg.TELEPORT_SCENARIOS)[0]]
    returns = {
        "measure.enumerate_outcomes": enumerate_outcomes(
            ghz.amplitudes[None], build_plan([StepSpec((0, 1), "bell")])),
        "teleport.run_scenario": run_scenario(scenario),
        "densecode.distinguishable_messages": distinguishable_messages(ghz, (0,)),
        "locc.run_discrimination": run_discrimination(
            reg.locc_candidate_sets()["omega16"], reg.locc_protocols()["ghz_bell_bell"]),
    }
    assert {target for target, _ in tracer.WORK.values()} == set(returns)
    for metric, (target, read) in tracer.WORK.items():
        count = read(returns[target])
        assert isinstance(count, int) and count >= 0, metric
