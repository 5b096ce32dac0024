"""Every argument that names qubits goes through ``states.check_qubits``.

Each entry point is called with a bool, a float and a numpy float where an
integer qubit belongs, with a repeated qubit, with a qubit out of range where
the register size is known, and with a bare integer in place of the list
where the list is an argument of its own.  Each call must be refused with
``ValueError`` and the same message in a fresh process and after the equal
integer query has filled the by-value memos (``measure._plan``,
``teleport.build_probes``, ``states.sender_index``), where 1.0 == 1 == True
would otherwise share an entry.
"""

import dataclasses
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from quadproto import measure, states, teleport
from quadproto import scenarios as reg
from quadproto.catalog import make_basis, make_state
from quadproto.densecode import distinguishable_messages, encoded_states
from quadproto.locc import LoccProtocol, check_certificate, product_terms, run_discrimination
from quadproto.measure import MeasurementPlan, StepSpec, enumerate_outcomes
from quadproto.states import PureState, apply_local, reduced_density
from quadproto.teleport import FamilySpec, TeleportScenario, run_scenario

from reference_inputs import ref

ST3 = PureState(ref.haar(3, np.random.default_rng(8)))
GHZ4 = make_state("GHZ4").state
GHZ8 = reg.locc_candidate_sets()["ghz8"]
BELL, PLUS_MINUS = make_basis("bell"), make_basis("plus_minus")
# teleportation of qubit 0 over a Bell pair on qubits 1 and 2: Bell
# measurement of qubits 0 and 2 leaves the state on qubit 1
PAIR = TeleportScenario("pair", "pair", FamilySpec("arbitrary", 1),
                        (StepSpec((0, 2), "bell"),), (1,),
                        resource_kets=(("00", 1.0), ("11", 1.0)))


def _locc(x):
    return run_discrimination(GHZ8, LoccProtocol("p", (
        StepSpec((0, x), "bell", party="B1"), StepSpec((2, 3), "bell", party="B2"))))


def _outcomes(*pairs):
    return enumerate_outcomes(GHZ4.amplitudes[None], MeasurementPlan(pairs))


# each entry point: a call whose slot qubit is x (the valid query has
# x = 1), the name its messages use, the repeated-qubit call and message,
# and the out-of-range call and message where the register size is known
ENTRY_POINTS = {
    "apply_local": (
        lambda x: apply_local(ST3, np.eye(4), (0, x)), "target qubit",
        0, "repeated target qubit in [0, 0]",
        3, "target qubit 3 is out of range for a 3-qubit resource"),
    "reduced_density": (
        lambda x: reduced_density(ST3, (0, x)), "kept qubit",
        0, "repeated kept qubit in [0, 0]",
        3, "kept qubit 3 is out of range for a 3-qubit resource"),
    "encoded_states": (
        lambda x: encoded_states(GHZ4, (0, x)), "sender qubit",
        0, "repeated sender qubit in [0, 0]",
        4, "sender qubit 4 is out of range for a 4-qubit resource"),
    "distinguishable_messages": (
        lambda x: distinguishable_messages(GHZ4, (0, x)), "sender qubit",
        0, "repeated sender qubit in [0, 0]",
        4, "sender qubit 4 is out of range for a 4-qubit resource"),
    "StepSpec": (
        _locc, "measured qubit", 0, "repeated measured qubit in [0, 0]", None, None),
    "one_step_plan": (
        lambda x: _outcomes(((0, x), BELL)), "measured qubit",
        0, "repeated measured qubit in [0, 0]", None, None),
    "MeasurementPlan": (
        lambda x: _outcomes(((0, 2), BELL), ((x,), PLUS_MINUS)), "measured qubit",
        0, "repeated measured qubit in [0, 2, 0]", None, None),
    "product_terms": (
        lambda x: product_terms(GHZ8[0][1], [((0, x), BELL), ((2, 3), BELL)]),
        "factor qubit", 0, "repeated factor qubit in [0, 0, 2, 3]",
        4, "factor qubit 4 is out of range for a 4-qubit resource"),
    "check_certificate": (
        lambda x: check_certificate(GHZ8, [((0, x), BELL), ((2, 3), BELL)]),
        "factor qubit", 0, "repeated factor qubit in [0, 0, 2, 3]",
        4, "factor qubit 4 is out of range for a 4-qubit resource"),
    # check_qubits runs before the strictly ascending check
    "receiver": (
        lambda x: run_scenario(dataclasses.replace(PAIR, receiver=(x,))),
        "receiver qubit", None, None, None, None),
    "num_qubits": (
        lambda x: run_scenario(dataclasses.replace(
            PAIR, family=FamilySpec("arbitrary", x))),
        "num_qubits", None, None, None, None),
}
NON_INTEGERS = {"True": True, "1.0": 1.0, "float64": np.float64(1)}
# each entry point whose qubit list is an argument of its own, called with a
# bare qubit x in its place: tuple(x) had raised "'int' object is not iterable"
BARE = {
    "apply_local": lambda x: apply_local(ST3, np.eye(2), x),
    "reduced_density": lambda x: reduced_density(ST3, x),
    "encoded_states": lambda x: encoded_states(GHZ4, x),
    "distinguishable_messages": lambda x: distinguishable_messages(GHZ4, x),
    "StepSpec": lambda x: StepSpec(x, "bell"),
    "one_step_plan": lambda x: MeasurementPlan([(x, PLUS_MINUS)]),
    "product_terms": lambda x: product_terms(GHZ8[0][1], [(x, PLUS_MINUS), ((2, 3), BELL)]),
    "check_certificate": lambda x: check_certificate(GHZ8, [((0, 2), BELL), (x, PLUS_MINUS)]),
    "receiver": lambda x: dataclasses.replace(PAIR, receiver=x),
}
# the reported cases: a LOCC round on (0.0, 2) was answered once (0, 2) had
# been asked, and a receiver of (4.0,) ran, was saved, and did not load back
EXTRA = {
    "locc_0.0": (
        lambda: run_discrimination(GHZ8, LoccProtocol("p", (
            StepSpec((0.0, 2), "bell", party="B1"),
            StepSpec((1, 3), "bell", party="B2")))),
        lambda: run_discrimination(GHZ8, LoccProtocol("p", (
            StepSpec((0, 2), "bell", party="B1"),
            StepSpec((1, 3), "bell", party="B2")))),
        "measured qubit must be an integer, got 0.0"),
    "receiver_4.0": (
        lambda: run_scenario(dataclasses.replace(
            reg.TELEPORT_SCENARIOS["ghz1_ghz4basis"], receiver=(4.0,))),
        lambda: run_scenario(reg.TELEPORT_SCENARIOS["ghz1_ghz4basis"]),
        "receiver qubit must be an integer, got 4.0"),
    "receiver_repeated": (
        lambda: dataclasses.replace(PAIR, family=FamilySpec("arbitrary", 2),
                                    receiver=(1, 1)),
        lambda: run_scenario(PAIR),
        "repeated receiver qubit in [1, 1]"),
    # sorting it for the strictly ascending check had raised a TypeError
    "receiver_mixed": (
        lambda: dataclasses.replace(reg.TELEPORT_SCENARIOS["ghz2_pi_01"],
                                    receiver=(4, "a")),
        lambda: run_scenario(reg.TELEPORT_SCENARIOS["ghz2_pi_01"]),
        "receiver qubit must be an integer, got 'a'"),
    # malformed (qubits, basis) pairs had leaked TypeError, AttributeError
    # and "too many values to unpack"
    "factor_not_a_pair": (
        lambda: product_terms(GHZ8[0][1], [BELL, ((2, 3), BELL)]),
        lambda: product_terms(GHZ8[0][1], [((0, 1), BELL), ((2, 3), BELL)]),
        "factor qubit list and basis must be a (qubits, NamedBasis) pair, "
        "got NamedBasis"),
    "step_basis_by_name": (
        lambda: MeasurementPlan([((0, 1), "bell")]),
        lambda: _outcomes(((0, 1), BELL)),
        "measured qubit list [0, 1] needs a NamedBasis, got 'bell'"),
    "step_three_items": (
        lambda: MeasurementPlan([((0, 1), BELL, 3)]),
        lambda: _outcomes(((0, 1), BELL)),
        "measured qubit list and basis must be a (qubits, NamedBasis) pair, "
        "got a 3-item tuple"),
}


def _case(entry, case):
    """(bad call, equal integer call, expected message) of one case."""
    if entry in EXTRA:
        return EXTRA[entry]
    call, what, repeat, repeated, out, out_of_range = ENTRY_POINTS[entry]
    if case in NON_INTEGERS:
        bad = NON_INTEGERS[case]
        return (lambda: call(bad), lambda: call(1),
                "%s must be an integer, got %r" % (what, bad))
    if case == "repeated":
        return lambda: call(repeat), lambda: call(1), repeated
    if case == "bare":
        return (lambda: BARE[entry](1), lambda: call(1),
                "%s list must be iterable, got 1" % what)
    return lambda: call(out), lambda: call(1), out_of_range


CASES = [(entry, case) for entry, (_, _, repeat, _, out, _) in ENTRY_POINTS.items()
         for case in list(NON_INTEGERS) + ["repeated"] * (repeat is not None)
         + ["out_of_range"] * (out is not None) + ["bare"] * (entry in BARE)]
CASES += [(name, "") for name in EXTRA]


def _refusal(call):
    """(exception type name, message) of a call, or None if it is answered."""
    try:
        call()
    except Exception as exc:   # a TypeError or AttributeError must show here
        return type(exc).__name__, str(exc)
    return None


def _clear_memos():
    measure._plan.cache_clear()
    teleport.build_probes.cache_clear()
    states._cached_sender_index.cache_clear()


def fresh_refusals():
    """Every case's refusal, in ``CASES`` order, with no query answered first."""
    return [_refusal(_case(entry, case)[0]) for entry, case in CASES]


@pytest.mark.parametrize("entry, case", CASES,
                         ids=["-".join(filter(None, c)) for c in CASES])
def test_qubit_arguments_are_refused_whatever_the_memos_hold(entry, case):
    bad, good, message = _case(entry, case)
    _clear_memos()
    assert _refusal(bad) == ("ValueError", message)
    # the equal integer query is answered and fills the memos ...
    assert _refusal(good) is None
    # ... and the refusal does not change
    assert _refusal(bad) == ("ValueError", message)


def test_qubit_arguments_are_refused_in_a_fresh_process():
    tests = os.path.dirname(os.path.abspath(__file__))
    src = os.path.join(os.path.dirname(tests), "src")
    code = ("import json, sys; sys.path[:0] = %r; import test_qubit_lists as t; "
            "print(json.dumps(t.fresh_refusals()))" % ([src, tests],))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True).stdout
    want = [["ValueError", _case(entry, case)[2]] for entry, case in CASES]
    assert json.loads(out) == want
