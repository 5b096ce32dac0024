"""Seeded fuzz matrix for the CLI and for scenario files.

Mutated argument lists and mutated scenario documents run through
``cli.main`` in-process.  Whatever the input, the exit code is 0, 1 or 2
and no traceback escapes: bad input fails closed with a message.
"""

import dataclasses
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
    # refused for the 8^9 terms of its Walsh-Hadamard transform; mutated
    # qubit lists hold at most four senders
    ["densecode", "--state", "GHZ:12", "--qubits", "0,1,2,3,4,5,6,7,8"],
    ["densecode", "--state", "W_mn", "--param", "m=1", "--param", "n=2",
     "--qubits", "1"],
    # refused at 0.6, where 32 encodings of a 16-dimensional span pass as
    # orthogonal; answered N = 16 at 0.3
    ["densecode", "--state", "Q4_11", "--qubits", "0,1,2", "--tolerance", "0.6"],
    ["densecode", "--state", "Q4_11", "--qubits", "0,1,2", "--tolerance", "0.3"],
    # refused: int() would read 0_1 as qubit 1, 1_0 as seed 10 and an
    # Arabic-Indic digit as qubit 3
    ["densecode", "--state", "W4", "--qubits", "0_1,2"],
    ["densecode", "--state", "W4", "--qubits", "0,\u0663"],
    ["teleport", "--scenario", "ghz1_ghz4basis", "--seed", "1_0"],
    # refused: int() would read GHZ:1_0 as a 10-qubit cat, the Arabic-Indic
    # GHZ:3 as a 3-qubit one and GHZ:+4 as a 4-qubit one
    ["catalog", "--state", "GHZ:1_0"],
    ["catalog", "--state", "GHZ:\u0663"],
    ["densecode", "--state", "GHZ:+4", "--qubits", "0"],
    # refused: GHZ:03 built a second 3-qubit cat, named apart from GHZ:3
    ["catalog", "--state", "GHZ:03"],
    ["densecode", "--state", "GHZ:05", "--qubits", "0"],
    # refused: complex() would read the Arabic-Indic m=5 as 5
    ["catalog", "--state", "W_mn", "--param", "m=\u0665", "--param", "n=1"],
    ["locc", "--set", "ghz8", "--protocol", "ghz_bell_bell"],
    ["locc", "--certificate", "omega16"],
    ["catalog", "--state", "W_mn", "--param", "m=1", "--param", "n=1"],
    ["catalog", "--basis", "pi_2q", "--param", "i=1", "--param", "j=2"],
    # refused: a parameter the basis does not take, and missing parameters
    ["catalog", "--basis", "bell", "--param", "x=1"],
    ["catalog", "--basis", "eta_zeta_w"],
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
# family shapes refused when the FamilySpec is built, each with the rule it
# breaks; the first four used to fail at run time or leak a traceback, and
# the fifth and sixth had their dressing silently ignored
BAD_FAMILIES = (
    ({"kind": "arbitrary", "num_qubits": 0}, "num_qubits must be at least 1, got 0"),
    ({"kind": "ghz_diag", "num_qubits": 0}, "num_qubits must be at least 1, got 0"),
    ({"kind": "w_equal3", "num_qubits": 1},
     "w_equal3 is a 3-qubit family, got num_qubits 1"),
    ({"kind": "omega_sub", "num_qubits": 1, "dressing": [0, 0]},
     "omega_sub is a 3-qubit family, got num_qubits 1"),
    ({"kind": "arbitrary", "num_qubits": 1, "dressing": [0]},
     "arbitrary takes no dressing, got [0]"),
    ({"kind": "w_equal3", "num_qubits": 3, "dressing": [1, 2, 3]},
     "w_equal3 takes no dressing, got [1, 2, 3]"),
    ({"kind": "ghz_diag", "num_qubits": 2, "dressing": [0]},
     "ghz_diag dressing needs one Pauli index per qubit"),
    ({"kind": "omega_sub", "num_qubits": 3, "dressing": [0]},
     "omega_sub dressing needs two Pauli indices"),
)


def _wide_family(k):
    """An arbitrary k-qubit family whose qubit 0 is teleported through a Bell
    pair: k + 2 qubits, four outcomes, a k-qubit receiver."""
    return TeleportScenario("arbitrary%d" % k, "pair", FamilySpec("arbitrary", k),
                            (StepSpec((0, k), "bell"),), tuple(range(1, k)) + (k + 1,),
                            resource_kets=(("00", 1.0), ("11", 1.0)))


def _family_files(tmp_path):
    """One ``teleport --file`` argument list per ``BAD_FAMILIES`` shape, on
    the document of a registered scenario."""
    out = []
    for i, (family, _) in enumerate(BAD_FAMILIES):
        doc = json.loads(dumps_scenario(reg.TELEPORT_SCENARIOS["ghz1_ghz4basis"]))
        doc["family"] = family
        path = tmp_path / ("family%d.json" % i)
        path.write_text(json.dumps(doc), encoding="utf-8")
        out.append(["teleport", "--file", str(path), "--format", "json"])
    return out


@pytest.fixture
def templates(tmp_path):
    """TEMPLATES, the ``BAD_FAMILIES`` scenario files, and three more: four
    Bell pairs teleporting an arbitrary four-qubit family under paulis+diag,
    whose 2^15 sign masks are solved, not scanned; one whose inline resource
    kets have 40-bit labels, refused before any amplitude is allocated;
    then one with an arbitrary nine-qubit family, refused for the 8^9
    terms of its Walsh-Hadamard transform."""
    bell4 = TeleportScenario("bell4_diag", "four pairs", FamilySpec("arbitrary", 4),
                             tuple(StepSpec((q, q + 4), "bell") for q in range(4)),
                             (8, 9, 10, 11), allowed_ops="paulis+diag",
                             resource_kets=tuple((format(x, "04b") * 2, 1.0)
                                                 for x in range(16)))
    wide_kets = TeleportScenario("wide_kets", "inline", FamilySpec("arbitrary", 1),
                                 (StepSpec((0, 1), "bell"),), (40,),
                                 resource_kets=(("0" * 40, 1.0), ("1" * 40, 1.0)))
    files = []
    for sc in bell4, wide_kets, _wide_family(9):
        path = tmp_path / ("%s.json" % sc.scenario_id)
        path.write_text(dumps_scenario(sc), encoding="utf-8")
        files.append(["teleport", "--file", str(path), "--format", "json"])
    return TEMPLATES + tuple(_family_files(tmp_path)) + tuple(files)


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
    assert (code, err) == (2, "error: a Walsh-Hadamard transform on 9 qubits "
                              "sums 8^9 terms, over the limit of 2^24\n")


@pytest.mark.parametrize("k", [5, 6, 7, 8, 9])
def test_wide_arbitrary_family_files_run_or_are_refused(capsys, tmp_path, k):
    # families of 5 to 8 qubits, once refused for their row scores (and
    # under paulis+diag for their sign masks), now run to a report; a
    # 9-qubit family is refused for its Walsh-Hadamard transform
    path = tmp_path / "wide.json"
    for allowed in ("paulis", "paulis+diag"):
        sc = dataclasses.replace(_wide_family(k), allowed_ops=allowed)
        path.write_text(dumps_scenario(sc), encoding="utf-8")
        code, err = _run(capsys, ["teleport", "--file", str(path), "--format", "json"])
        _assert_fails_closed(code, err, (k, allowed))
        if k < 9:
            assert code in (0, 1) and err == "", (k, allowed)
        else:
            assert (code, err) == (2, "error: a Walsh-Hadamard transform on 9 "
                                      "qubits sums 8^9 terms, over the limit of "
                                      "2^24\n"), allowed


def test_wide_ket_labels_are_refused_by_name(capsys, templates):
    for argv in ["catalog", "--state", "GHZ:40"], templates[-2]:
        assert _run(capsys, argv) == (
            2, "error: 40 qubits exceeds the 12-qubit capacity\n"), argv


def test_family_shapes_are_refused_by_rule(capsys, tmp_path):
    for argv, (_, message) in zip(_family_files(tmp_path), BAD_FAMILIES):
        assert _run(capsys, argv) == (2, "error: %s: %s\n" % (argv[2], message)), argv


def test_ghz_leading_zeros_are_refused_by_name(capsys):
    for argv, text in ((["catalog", "--state", "GHZ:03"], "03"),
                       (["densecode", "--state", "GHZ:05", "--qubits", "0"], "05")):
        assert _run(capsys, argv) == (
            2, "error: GHZ:n needs n without leading zeros, got '%s'\n" % text), argv


def test_basis_parameters_are_refused_by_name(capsys):
    assert _run(capsys, ["catalog", "--basis", "bell", "--param", "x=1"]) == (
        2, "error: basis 'bell' takes no parameters, got x\n")
    assert _run(capsys, ["catalog", "--basis", "eta_zeta_w"]) == (
        2, "error: basis 'eta_zeta_w' takes parameters p, q, r, s, got none\n")
    # the catalog name is positional only, so a parameter may share its name
    assert _run(capsys, ["catalog", "--state", "GHZ4", "--param", "name=1"]) == (
        2, "error: state 'GHZ4' takes no parameters, got name\n")


# an arbitrary family of two qubits, and a negative setup whose uniformity
# and per-outcome probabilities the random probes used to decide
@pytest.mark.parametrize("scenario", ["omega2_bellbell_cz", "q4_bob4_1q[rho_q4]"])
def test_teleport_output_does_not_depend_on_the_seed(capsys, scenario):
    outputs = set()
    for seed in ("0", "42", "2147483647", str(2 ** 80)):
        code = main(["teleport", "--scenario", scenario, "--seed", seed,
                     "--format", "json"])
        captured = capsys.readouterr()
        assert (code, captured.err) == (0, ""), seed
        outputs.add(captured.out)
    assert len(outputs) == 1
    # a malformed seed is still a usage error, for teleport and suite alike
    for argv in (["teleport", "--scenario", scenario], ["suite"]):
        for seed in ("-1", "1_0", "x"):
            code, err = _run(capsys, argv + ["--seed", seed])
            assert code == 2 and "argument --seed: must be a non-negative integer" in err


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

