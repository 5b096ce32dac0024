"""Seeded fuzz matrix for the CLI and for scenario files.

Mutated argument lists and mutated scenario documents run through
``cli.main`` in-process.  Whatever the input, the exit code is 0, 1 or 2
and no traceback escapes: bad input fails closed with a message.
"""

import json
import random

import pytest

from quadproto import scenarios as reg
from quadproto.cli import main
from quadproto.measure import StepSpec
from quadproto.scenario_io import dumps_scenario
from quadproto.teleport import FamilySpec, TeleportScenario

SEED = 20261018
NUM_ARGV_CASES = 250
NUM_FILE_CASES = 250

TEMPLATES = (
    ["teleport", "--scenario", "ghz1_ghz4basis", "--format", "json"],
    ["teleport", "--scenario", "w4_plain_1q", "--format", "text"],
    ["densecode", "--state", "GHZ4", "--qubits", "0,1"],
    # refused for its 4^9 x 2^9 Pauli table; mutated qubit lists hold at
    # most four senders
    ["densecode", "--state", "GHZ:12", "--qubits", "0,1,2,3,4,5,6,7,8"],
    ["densecode", "--state", "W_mn", "--param", "m=1", "--param", "n=2",
     "--qubits", "1"],
    ["locc", "--set", "ghz8", "--protocol", "ghz_bell_bell"],
    ["locc", "--certificate", "omega16"],
    ["catalog", "--state", "W_mn", "--param", "m=1", "--param", "n=1"],
    ["catalog", "--basis", "pi_2q", "--param", "i=1", "--param", "j=2"],
    # refused before its 16 TiB vector is allocated
    ["catalog", "--state", "GHZ:40"],
    ["diagnose", "--state", "GHZ4"],
    # refused: a section named twice
    ["suite", "--sections", "bases,bases", "--format", "json"],
    ["teleport", "--list"],
)
# bad ids, repeated or out-of-range qubits, non-finite and overflowing
# numbers, malformed parameters, empty values
BAD_VALUES = ("nope", "", " ", "nan", "inf", "-inf", "1e400", "-1", "0", "2",
              "9", "1.5", "1j", "0,0", "0,,1", "3,2", "0,1,2,3", "x=1", "=",
              "m=nan", "n=1e400", "i=9", "i=-1", "j=1.5", "GHZ:x", "ghz8",
              "bell", "-", "--")
FLAGS = ("--bogus", "--tolerance", "--seed", "--format", "--state",
         "--qubits", "--param", "--set", "--protocol", "--certificate",
         "--scenario", "--basis", "--all", "--list", "--sections")
# retyped and non-finite field values for scenario documents; HUGE_INT
# stands for an integer literal past Python's 4,300-digit conversion limit,
# spliced into the text because json.dumps cannot write one
HUGE_INT = "@huge-int@"
BAD_FIELDS = (None, "x", "", 1.5, -1, 0, 7, 10 ** 6, [], {}, [0], ["x"],
              {"a": 1}, True, float("nan"), float("inf"), -float("inf"),
              "0101", "GHZ4", "bell", "paulis+cz", HUGE_INT)
FILE_SOURCES = ("ghz1_ghz4basis", "ghz2_pi_01", "w3_sigma")


@pytest.fixture
def templates(tmp_path):
    """TEMPLATES and two scenario files: one whose inline resource kets have
    40-bit labels, refused before any amplitude is allocated, then one with
    an arbitrary five-qubit family, refused for its 1,044 x 4^5 x 2^5
    correction scores."""
    wide_kets = TeleportScenario("wide_kets", "inline", FamilySpec("arbitrary", 1),
                                 (StepSpec((0, 1), "bell"),), (40,),
                                 resource_kets=(("0" * 40, 1.0), ("1" * 40, 1.0)))
    wide = TeleportScenario("arbitrary5", "GHZ:5", FamilySpec("arbitrary", 5),
                            tuple(StepSpec((q,), "computational:1") for q in range(5)),
                            tuple(range(5, 10)))
    files = []
    for sc in wide_kets, wide:
        path = tmp_path / ("%s.json" % sc.scenario_id)
        path.write_text(dumps_scenario(sc), encoding="utf-8")
        files.append(["teleport", "--file", str(path), "--format", "json"])
    return TEMPLATES + tuple(files)


def _mutate_argv(rng, argv):
    argv = list(argv)
    for _ in range(rng.randint(1, 2)):
        op = rng.randrange(4)
        if op == 0 and len(argv) > 1:
            argv[rng.randrange(1, len(argv))] = rng.choice(BAD_VALUES)
        elif op == 1 and len(argv) > 1:
            del argv[rng.randrange(1, len(argv))]
        elif op == 2:
            argv.insert(rng.randrange(1, len(argv) + 1), rng.choice(FLAGS))
        else:
            argv += [rng.choice(FLAGS), rng.choice(BAD_VALUES)]
    return argv


def _paths(doc, prefix=()):
    if prefix:
        yield prefix
    if isinstance(doc, dict):
        for key, value in doc.items():
            yield from _paths(value, prefix + (key,))
    elif isinstance(doc, list):
        for i, value in enumerate(doc):
            yield from _paths(value, prefix + (i,))


def _mutate_doc(rng, doc):
    """Delete or retype one field anywhere in the document."""
    path = rng.choice(list(_paths(doc)))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if rng.random() < 0.3:
        del parent[path[-1]]
    else:
        parent[path[-1]] = rng.choice(BAD_FIELDS)


def _run(capsys, argv):
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse usage errors and --help
        code = exc.code
    return code, capsys.readouterr().err


def _assert_fails_closed(code, err, case):
    assert code in (0, 1, 2), case
    assert "Traceback" not in err, case
    if code == 2:
        assert "error:" in err, case


def test_templates_fail_closed(capsys, templates):
    # unmutated, so a template that is refused by design is refused once
    codes = set()
    for argv in templates:
        code, err = _run(capsys, argv)
        _assert_fails_closed(code, err, argv)
        codes.add(code)
    assert codes == {0, 2}
    assert (code, err) == (2, "error: 1044 probes of a 5-qubit family need 1044 x "
                              "4^5 x 2^5 correction scores, over the limit of 2^24\n")


def test_wide_ket_labels_are_refused_by_name(capsys, templates):
    for argv in ["catalog", "--state", "GHZ:40"], templates[-2]:
        assert _run(capsys, argv) == (
            2, "error: 40 qubits exceeds the 12-qubit capacity\n"), argv


def test_mutated_arguments_fail_closed(capsys, templates):
    rng = random.Random(SEED)
    codes = set()
    for _ in range(NUM_ARGV_CASES):
        argv = _mutate_argv(rng, rng.choice(templates))
        code, err = _run(capsys, argv)
        _assert_fails_closed(code, err, argv)
        codes.add(code)
    assert {0, 2} <= codes


def test_mutated_scenario_files_fail_closed(capsys, tmp_path):
    rng = random.Random(SEED + 1)
    path = tmp_path / "scenario.json"
    codes = set()
    for _ in range(NUM_FILE_CASES):
        doc = json.loads(dumps_scenario(
            reg.TELEPORT_SCENARIOS[rng.choice(FILE_SOURCES)]))
        for _ in range(rng.randint(1, 2)):
            _mutate_doc(rng, doc)
        # writes NaN and Infinity for non-finite values
        text = json.dumps(doc).replace('"%s"' % HUGE_INT, "1" * 5000)
        path.write_text(text, encoding="utf-8")
        code, err = _run(capsys, ["teleport", "--file", str(path),
                                  "--format", "json"])
        _assert_fails_closed(code, err, text)
        codes.add(code)
    assert {0, 2} <= codes

