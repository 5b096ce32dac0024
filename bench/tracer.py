"""Per-layer call counts and self times, measured from outside quadproto.

``Tracer.install()`` replaces each public function in ``TARGETS`` with a
timing wrapper in every ``quadproto`` module namespace that holds it, so a
call is counted whichever module it was imported into; ``uninstall()``
puts the originals back.  ``PureState`` constructions are counted through
``PureState.__post_init__``.

Self time is a call's wall time minus the wall time of wrapped calls nested
inside it.  Four work counts are read from return values.

Only the standard library is imported here; quadproto must already be on
``sys.path`` when ``install`` runs.
"""

from __future__ import annotations

import functools
import importlib
import sys
from time import perf_counter

# (module, public name); "states.PureState" means construction
TARGETS = (
    ("states", "PureState"),
    ("states", "apply_local"),
    ("states", "tensor"),
    ("catalog", "make_state"),
    ("catalog", "make_basis"),
    ("measure", "complete_basis"),
    ("measure", "enumerate_outcomes"),
    ("teleport", "build_probes"),
    ("teleport", "run_scenario"),
    ("densecode", "encoded_states"),
    ("densecode", "distinguishable_messages"),
    ("locc", "run_discrimination"),
    ("locc", "product_terms"),
    ("locc", "check_certificate"),
    ("scenario_io", "dumps_scenario"),
    ("scenario_io", "loads_scenario"),
    ("diagnostics", "profile"),
    ("suite", "run_suite"),
    ("cli", "main"),
)

# work counts: metric name -> (traced function, reader of its return value)
WORK = {
    "measure.enumerate_outcomes.branches":
        ("measure.enumerate_outcomes", len),
    "teleport.run_scenario.probes":
        ("teleport.run_scenario", lambda res: res.num_probes),
    "densecode.distinguishable_messages.classes":
        ("densecode.distinguishable_messages", lambda res: res.num_classes),
    "locc.run_discrimination.collisions":
        ("locc.run_discrimination", lambda res: len(res.collisions)),
}


def layer_names() -> list[str]:
    return ["%s.%s" % target for target in TARGETS]


def metric_names() -> list[tuple[str, str]]:
    """(name, unit) of every counter a Tracer reports, in report order."""
    out = []
    for name in layer_names():
        out.append((name + ".calls", "count"))
        out.append((name + ".self_s", "s"))
    out.extend((name, "count") for name in WORK)
    return out


class Tracer:
    def __init__(self) -> None:
        self.calls = dict.fromkeys(layer_names(), 0)
        self.self_s = dict.fromkeys(layer_names(), 0.0)
        self.work = dict.fromkeys(WORK, 0)
        # one accumulator of nested wrapped time per open call
        self._nested = [0.0]
        self._restore = []

    def _wrap(self, name: str, fn, readers):
        nested = self._nested
        calls = self.calls
        self_s = self.self_s
        work = self.work

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            nested.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                inner = nested.pop()
                nested[-1] += elapsed
                self_s[name] += elapsed - inner
                calls[name] += 1
            for metric, read in readers:
                work[metric] += read(result)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every target in every loaded quadproto namespace."""
        importlib.import_module("quadproto.cli")  # loads every module
        modules = [m for key, m in sys.modules.items()
                   if key == "quadproto" or key.startswith("quadproto.")]
        for module_name, attr in TARGETS:
            name = "%s.%s" % (module_name, attr)
            readers = [(metric, read) for metric, (target, read) in WORK.items()
                       if target == name]
            owner = sys.modules["quadproto." + module_name]
            if attr == "PureState":
                owner, attr = owner.PureState, "__post_init__"
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original, readers)
            for module in modules + [owner]:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        self._restore.append((module, key, original))

    def uninstall(self) -> None:
        """Put back every function that ``install`` wrapped."""
        for module, key, original in self._restore:
            setattr(module, key, original)
        self._restore = []

    def snapshot(self) -> dict:
        return {"calls": dict(self.calls), "self_s": dict(self.self_s),
                "work": dict(self.work)}


def merge(snapshots) -> dict:
    """Sum snapshots from several processes."""
    total = Tracer().snapshot()
    for snap in snapshots:
        for table, values in snap.items():
            for key, value in values.items():
                total[table][key] += value
    return total


def per_pass_metrics(snapshot: dict, passes: int) -> dict:
    """Counters divided by the number of traced passes, as metric values."""
    out = {}
    for name in layer_names():
        out[name + ".calls"] = snapshot["calls"][name] / passes
        out[name + ".self_s"] = snapshot["self_s"][name] / passes
    for name in WORK:
        out[name] = snapshot["work"][name] / passes
    return out
