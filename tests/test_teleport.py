"""Teleportation verification engine."""

import dataclasses
import functools
import itertools
import math
import tracemalloc

import numpy as np
import pytest

from quadproto import catalog
from quadproto import scenarios as reg
from quadproto import teleport
from quadproto.measure import StepSpec, build_plan, enumerate_outcomes
from quadproto.scenario_io import dumps_scenario, loads_scenario
from quadproto.states import (ASSERT_TOL, PAULI_ORDER, PERP_ALARM, SIGMA,
                              SLICE_ENTRIES, VALUE_TOL, CapacityError, PureState,
                              apply_local, pauli_table, tensor)
from quadproto.teleport import (
    FamilySpec,
    OutcomeReport,
    TeleportResult,
    TeleportScenario,
    build_probes,
    classical_cost,
    family_span,
    run_scenario,
)

TOL = 1e-10


def _run(sid, **kw):
    return run_scenario(reg.TELEPORT_SCENARIOS[sid], **kw)


# --- probe construction ------------------------------------------------------

def _reference_probes(spec, rng, num_random=teleport.NUM_RANDOM_PROBES):
    """The one-probe-at-a-time construction ``build_probes`` replaced: (label,
    state, certifying) per probe, the span members, then per pair the plus
    and phase superpositions, then the seeded random members."""
    span = [PureState(row) for row in family_span(spec)]
    probes = [("b%d" % i, v, True) for i, v in enumerate(span)]
    n = len(span)
    for i in range(n):
        for j in range(i + 1, n):
            plus = PureState((span[i].amplitudes + span[j].amplitudes) / math.sqrt(2))
            phase = PureState((span[i].amplitudes + 1j * span[j].amplitudes)
                              / math.sqrt(2))
            probes.append(("p%d%d+" % (i, j), plus, True))
            probes.append(("p%d%di" % (i, j), phase, True))
    if n > 1:
        for t in range(num_random):
            coeff = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            coeff /= np.linalg.norm(coeff)
            vec = sum(c * v.amplitudes for c, v in zip(coeff, span))
            probes.append(("r%d" % t, PureState(np.asarray(vec)), False))
    return probes


def test_probe_labels_and_flags():
    rng = np.random.default_rng(0)
    vectors, certifying = build_probes(FamilySpec("arbitrary", 2), rng, num_random=5)
    labels = [label for label, _, _ in
              _reference_probes(FamilySpec("arbitrary", 2), np.random.default_rng(0), 5)]
    # 4 basis members, C(4,2) pairs twice over (plus and phase), 5 randoms
    assert labels[:6] == ["b0", "b1", "b2", "b3", "p01+", "p01i"]
    assert labels[-6:] == ["p23i", "r0", "r1", "r2", "r3", "r4"]
    assert vectors.shape == (4 + 12 + 5, 4)
    assert certifying.tolist() == [not label.startswith("r") for label in labels]
    assert np.array_equal(vectors[:4], np.eye(4))
    assert np.allclose(vectors[4], [2 ** -0.5, 2 ** -0.5, 0, 0], atol=1e-15)
    assert np.allclose(vectors[15], [0, 0, 2 ** -0.5, 1j * 2 ** -0.5], atol=1e-15)
    assert np.allclose(np.linalg.norm(vectors, axis=1), 1.0, atol=1e-12)


def test_single_member_family_has_no_superpositions():
    w = PureState.from_kets({"001": 1, "010": 1, "100": 1, "000": 1}, normalize=True)
    assert np.array_equal(family_span(FamilySpec("w_equal3", 3)), [w.amplitudes])
    vectors, certifying = build_probes(FamilySpec("w_equal3", 3),
                                       np.random.default_rng(0))
    assert vectors.shape == (1, 8) and certifying.tolist() == [True]


@pytest.mark.parametrize("seed", [42, 7])
def test_build_probes_matches_reference(seed):
    # the registered families reach span sizes 1, 2 and 4; an arbitrary
    # three-qubit family adds 8
    specs = list(dict.fromkeys([sc.family for sc in _ALL_SCENARIOS]
                               + [FamilySpec("arbitrary", 3)]))
    assert {len(family_span(spec)) for spec in specs} == {1, 2, 4, 8}
    assert {spec.kind for spec in specs} == {"arbitrary", "ghz_diag", "omega_sub",
                                             "w_equal3"}
    for spec in specs:
        for num_random in (0, 1, 20):
            vectors, certifying = build_probes(spec, np.random.default_rng(seed),
                                               num_random)
            want = _reference_probes(spec, np.random.default_rng(seed), num_random)
            assert np.array_equal(
                vectors, np.array([state.amplitudes for _, state, _ in want])), \
                (spec, num_random)
            assert np.array_equal(certifying, [cert for _, _, cert in want]), \
                (spec, num_random)


def _reference_span(spec):
    """Dressed family members from an apply_local chain, one Pauli per qubit."""
    if spec.kind == "ghz_diag":
        kets = ({"0" * spec.num_qubits: 1.0}, {"1" * spec.num_qubits: 1.0})
        ops = list(enumerate(spec.dressing))
    else:
        kets = ({"001": 1.0, "111": 1.0}, {"000": 1.0, "110": -1.0})
        ops = [(0, spec.dressing[0]), (2, spec.dressing[1])]
    out = []
    for terms in kets:
        st = PureState.from_kets(terms, normalize=True)
        for qubit, i in ops:
            st = apply_local(st, SIGMA[PAULI_ORDER[i]], [qubit])
        out.append(st)
    return out


def test_dressed_spans_match_apply_local_chain():
    specs = [FamilySpec("ghz_diag", k, d) for k in (1, 2, 3)
             for d in itertools.product(range(4), repeat=k)]
    specs += [FamilySpec("omega_sub", 3, d)
              for d in itertools.product(range(4), repeat=2)]
    registered = [sc.family for sc in _ALL_SCENARIOS
                  if sc.family.kind in ("ghz_diag", "omega_sub")]
    assert registered
    for spec in specs + registered:
        span = family_span(spec)
        want = _reference_span(spec)
        assert len(span) == len(want) == 2
        for got, ref in zip(span, want):
            assert np.array_equal(got, ref.amplitudes), spec


def test_probes_deterministic_per_seed():
    spec = FamilySpec("arbitrary", 1)
    a, _ = build_probes(spec, np.random.default_rng(7))
    b, _ = build_probes(spec, np.random.default_rng(7))
    assert np.array_equal(a, b)


# --- seed-independent inputs, memoized by value --------------------------------

def test_round_tripped_scenario_builds_its_resource_once(monkeypatch):
    # a scenario read back from its JSON is a new object of equal value, so
    # its second run reuses the resource the catalog built for its first
    base = reg.TELEPORT_SCENARIOS["w11_etazeta"]
    sc = loads_scenario(dumps_scenario(base))
    real = catalog._w_mn
    calls = []

    def spy(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(catalog, "_w_mn", spy)
    catalog.make_state.cache_clear()
    first = run_scenario(sc, seed=3)
    second = run_scenario(sc, seed=3)
    assert repr(first) == repr(second)
    # the scenario hands out the catalog's own state, as does the original
    assert sc.resource_state() is catalog.make_state("W_mn", m=1, n=1)
    assert base.resource_state() is sc.resource_state()
    assert calls == [(1.0, 1.0)]


def test_resource_parameters_are_keyed_with_their_type():
    # m=1 and m=1.0 name the same state but are separate catalog entries
    base = reg.TELEPORT_SCENARIOS["w11_etazeta"]
    catalog.make_state.cache_clear()
    states = [dataclasses.replace(base, resource_params={"m": m, "n": 1}).resource_state()
              for m in (1, 1.0, 1)]
    info = catalog.make_state.cache_info()
    assert (info.currsize, info.hits, info.misses) == (2, 1, 2)
    assert states[0] is states[2] and states[0] is not states[1]
    assert np.array_equal(states[0].state.amplitudes, states[1].state.amplitudes)
    # a refused resource is refused again
    bad = dataclasses.replace(base, resource_params={"m": -1, "n": 1})
    for _ in range(2):
        with pytest.raises(ValueError, match="nonnegative"):
            bad.resource_state()
    # inline kets bypass the catalog
    pair = TeleportScenario("pair", "pair", FamilySpec("arbitrary", 1),
                            (StepSpec((0, 1), "bell"),), (2,),
                            resource_kets=(("00", 1.0), ("11", 1.0)))
    minus = dataclasses.replace(pair, resource_kets=(("00", 1.0), ("11", -1.0)))
    assert pair.resource_state().state.amplitudes[3] > 0
    assert minus.resource_state().state.amplitudes[3] < 0
    named = pair.resource_state()
    assert (named.name, dict(named.params), named.slocc, named.note) == \
        ("pair", {}, None, "inline resource")


def test_memoized_inputs_are_read_only():
    spec = FamilySpec("ghz_diag", 2, (1, 3))
    sc = reg.TELEPORT_SCENARIOS["w11_etazeta"]
    for arr in (family_span(spec), teleport._certifying_rows(spec),
                sc.resource_state().state.amplitudes):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 0
    assert family_span(spec) is family_span(FamilySpec("ghz_diag", 2, (1, 3)))
    # the probe stack is built per call, the caller's own
    vectors, _ = build_probes(spec, np.random.default_rng(0))
    vectors[:] = 0
    again, _ = build_probes(spec, np.random.default_rng(0))
    assert np.array_equal(again[:2], family_span(spec))
    # the catalog shares one NamedState, whose parameters are read-only
    with pytest.raises(TypeError):
        sc.resource_state().params["m"] = 99.0
    assert sc.resource_state().params["m"] == 1.0
    # exceptions are not cached: a bad family is refused on every call
    for _ in range(2):
        with pytest.raises(ValueError, match="one Pauli index per qubit"):
            family_span(FamilySpec("ghz_diag", 3, (0,)))


# --- frozen correction tables -------------------------------------------------

def test_ghz_full_basis_corrections():
    res = _run("ghz1_ghz4basis")
    assert res.feasible
    assert res.worst_fidelity >= 1.0 - TOL
    assert res.perp_probability <= TOL
    assert res.classical_cost == 2
    assert res.corrections == {
        "4GHZ1+": "s0", "4GHZ1-": "s3", "4GHZ2+": "s1", "4GHZ2-": "is2",
    }


def test_tau_corrections_use_both_arms():
    res = _run("q4_tau")
    assert res.feasible and res.classical_cost == 2
    assert res.corrections == {
        "tau1+": "s0", "tau1-": "s3", "tau2+": "s1", "tau2-": "is2",
        "tau3+": "s0", "tau3-": "s3", "tau4+": "s1", "tau4-": "is2",
    }


def test_two_qubit_bell_pair_plan_needs_cz():
    res = _run("omega2_bellbell_cz")
    assert res.feasible and res.classical_cost == 4
    assert len(res.corrections) == 16
    assert all(c.startswith("CZ(0,1);") for c in res.corrections.values())
    # identical plan restricted to bare Pauli products cannot work
    plain = dataclasses.replace(reg.TELEPORT_SCENARIOS["omega2_bellbell_cz"],
                                scenario_id="plain", allowed_ops="paulis")
    bad = run_scenario(plain)
    assert not bad.feasible
    assert bad.best_worst_fidelity < 1.0 - 1e-3
    assert bad.classical_cost is None and bad.cost_breakdown is None


def test_w3_sign_correction_collapses_to_one_bit():
    res = _run("w3_sigma")
    assert res.feasible and res.classical_cost == 1
    for key, corr in res.corrections.items():
        assert corr == ("s0*s0*s0" if key.endswith("+") else "s3*s3*s3")


def test_relay_costs_split_by_party():
    res = _run("ghz1_bellbell_3party")
    assert res.classical_cost == 3
    assert dict(res.cost_breakdown) == {"outcomes:Charlie": 1,
                                        "correction:Alice": 2}
    res4 = _run("ghz1_bell11_4party")
    assert res4.classical_cost == 4
    assert dict(res4.cost_breakdown) == {"outcomes:Charlie": 1,
                                         "outcomes:Dennis": 1,
                                         "correction:Alice": 2}


# --- determinism --------------------------------------------------------------

def test_result_reproducible_and_seed_insensitive():
    base = _run("omega1_ghzbasis", seed=42)
    again = _run("omega1_ghzbasis", seed=42)
    assert base == again
    other = _run("omega1_ghzbasis", seed=7)
    assert other.feasible == base.feasible
    assert other.corrections == base.corrections
    assert other.classical_cost == base.classical_cost
    assert other.worst_fidelity >= 1.0 - TOL


def test_uniform_outcome_flag():
    assert _run("omega1_omegabasis").uniform_nonzero


# --- infeasibility certificates -------------------------------------------------

def test_infeasible_scenarios_carry_certificates():
    for sc in reg.negative_scenarios()["q4_bob4_1q"]:
        res = run_scenario(sc)
        assert not res.feasible
        assert res.corrections == {}
        assert res.classical_cost is None
        assert res.best_worst_fidelity < 1.0 - 1e-3
        for o in res.outcomes:
            assert o.correction is None or o.min_fidelity < 1.0 - 1e-3


def test_perp_leak_sets_reason():
    res = run_scenario(reg.negative_scenarios()["q4_bob4_1q"][0])
    assert "leak" in res.reason
    assert res.perp_probability > 1e-3


def test_skewed_pair_is_neither_uniform_nor_feasible():
    sc = TeleportScenario(
        scenario_id="skewed",
        resource="lopsided pair",
        family=FamilySpec("arbitrary", 1),
        steps=(StepSpec((0, 1), "bell"),),
        receiver=(2,),
        resource_kets=(("00", 2.0), ("11", 1.0)),
    )
    res = run_scenario(sc)
    assert not res.uniform_nonzero
    assert not res.feasible
    assert 0.0 < res.best_worst_fidelity < 1.0 - 1e-3


# --- inline resources and validation -------------------------------------------

def test_inline_bell_pair_reproduces_standard_protocol():
    sc = TeleportScenario(
        scenario_id="inline_bell",
        resource="pair",
        family=FamilySpec("arbitrary", 1),
        steps=(StepSpec((0, 1), "bell"),),
        receiver=(2,),
        resource_kets=(("00", 1.0), ("11", 1.0)),
    )
    res = run_scenario(sc)
    assert res.feasible and res.classical_cost == 2
    assert res.corrections == {"phi+": "s0", "phi-": "s3",
                               "psi+": "s1", "psi-": "is2"}
    assert sc.resource_state().note == "inline resource"


def test_scenario_validation():
    with pytest.raises(ValueError):
        TeleportScenario("x", "GHZ4", FamilySpec("arbitrary", 1),
                         (StepSpec((0, 1), "bell"),), (2,),
                         allowed_ops="clifford")
    with pytest.raises(ValueError):
        TeleportScenario("x", "GHZ4", FamilySpec("arbitrary", 2),
                         (StepSpec((0, 1), "bell"),), (2,))
    with pytest.raises(ValueError):
        FamilySpec("mystery", 2)
    # 32,768 sign masks at four receiver qubits: refused, not scanned
    with pytest.raises(ValueError, match="limited to 3 receiver qubits"):
        TeleportScenario("x", "GHZ:5", FamilySpec("arbitrary", 4),
                         (StepSpec((0, 4), "bell"),), (5, 6, 7, 8),
                         allowed_ops="paulis+diag")
    # the correction names read the receiver in ascending qubit order
    for receiver in ((5, 4), (4, 4)):
        with pytest.raises(ValueError, match="strictly ascending"):
            dataclasses.replace(reg.TELEPORT_SCENARIOS["ghz2_pi_01"], receiver=receiver)


def test_receiver_mismatch_caught_at_runtime():
    sc = TeleportScenario(
        scenario_id="wrong_receiver",
        resource="pair",
        family=FamilySpec("arbitrary", 1),
        steps=(StepSpec((0, 1), "bell"),),
        receiver=(1,),
        resource_kets=(("00", 1.0), ("11", 1.0)),
    )
    with pytest.raises(ValueError, match="receiver"):
        run_scenario(sc)


def test_joint_register_above_capacity_refused(monkeypatch):
    # 1 + 12 qubits: refused from the widths, before any probe is built
    sc = TeleportScenario("too_wide", "GHZ:12", FamilySpec("arbitrary", 1),
                          (StepSpec((0, 1), "bell"),), (2,))
    monkeypatch.setattr("quadproto.teleport.build_probes", None)
    with pytest.raises(CapacityError, match="13 qubits exceeds the 12-qubit capacity"):
        run_scenario(sc)


def _no_probes(*args):
    raise AssertionError("build_probes was called")


def test_probe_stack_above_limit_refused(monkeypatch):
    # 65,556 probes of an 8-qubit family tensored with GHZ4 would take
    # 4.3 GB: refused from the family and resource sizes alone
    sc = TeleportScenario("wide_family", "GHZ4", FamilySpec("arbitrary", 8),
                          tuple(StepSpec((q,), "computational:1") for q in range(4)),
                          tuple(range(4, 12)))
    monkeypatch.setattr(teleport, "build_probes", _no_probes)
    with pytest.raises(CapacityError, match=r"65556 probes of a 12-qubit joint "
                                            r"register .* over the limit of 2\^24"):
        run_scenario(sc)


class _Reached(Exception):
    pass


def _reached(*args):
    raise _Reached


def test_probe_stack_limit_is_exact_for_registered_families(monkeypatch):
    # the row count read off the family's size is the one build_probes
    # makes: the limit admits exactly the larger of that stack and one
    # prefix's correction scores (rows x 4^k x 2^k), and refuses one entry less
    scenarios = list(reg.TELEPORT_SCENARIOS.values())
    scenarios += [sc for group in reg.negative_scenarios().values() for sc in group]
    largest = largest_scores = 0
    for sc in scenarios:
        rows = len(build_probes(sc.family, np.random.default_rng(0))[0])
        k = sc.family.num_qubits
        entries = rows * 2 ** k * sc.resource_state().state.dim
        scores = rows * 8 ** k
        largest = max(largest, entries)
        largest_scores = max(largest_scores, scores)
        monkeypatch.setattr(teleport, "build_probes", _reached)
        monkeypatch.setattr(teleport, "MAX_STACK_ENTRIES", max(entries, scores))
        with pytest.raises(_Reached):
            run_scenario(sc)
        monkeypatch.setattr(teleport, "build_probes", _no_probes)
        monkeypatch.setattr(teleport, "MAX_STACK_ENTRIES", max(entries, scores) - 1)
        with pytest.raises(CapacityError, match="over the limit"):
            run_scenario(sc)
        monkeypatch.undo()
    assert largest == 3072
    assert largest_scores == 12288


def test_correction_scores_above_limit_refused(monkeypatch):
    # ghz3_pi_000 probes 24 rows of a 7-qubit joint register (3,072
    # amplitudes) but scores 24 x 4^3 x 2^3 = 12,288 entries per prefix
    sc = reg.TELEPORT_SCENARIOS["ghz3_pi_000"]
    monkeypatch.setattr(teleport, "MAX_STACK_ENTRIES", 12288)
    monkeypatch.setattr(teleport, "build_probes", _reached)
    with pytest.raises(_Reached):
        run_scenario(sc)
    monkeypatch.setattr(teleport, "MAX_STACK_ENTRIES", 12287)
    monkeypatch.setattr(teleport, "build_probes", _no_probes)
    with pytest.raises(CapacityError, match=r"^24 probes of a 3-qubit family need "
                                            r"24 x 4\^3 x 2\^3 correction scores"):
        run_scenario(sc)
    # at the real limit: an arbitrary five-qubit family's 10-qubit probe
    # stack fits (1,044 x 2^10), its 1,044 x 4^5 x 2^5 scores do not
    wide = TeleportScenario("arbitrary5", "GHZ:5", FamilySpec("arbitrary", 5),
                            tuple(StepSpec((q,), "computational:1") for q in range(5)),
                            tuple(range(5, 10)))
    monkeypatch.undo()
    monkeypatch.setattr(teleport, "build_probes", _no_probes)
    with pytest.raises(CapacityError, match=r"1044 x 4\^5 x 2\^5 correction scores, "
                                            r"over the limit of 2\^24"):
        run_scenario(wide)


@pytest.mark.parametrize("tol", [float("nan"), float("inf"), -1.0, 0.0, 1.0, 2.0])
def test_bad_tolerance_rejected(tol):
    # tol=2.0 used to report w3_sigma feasible with fidelity 0.25
    with pytest.raises(ValueError, match="tol must be a finite number"):
        run_scenario(reg.TELEPORT_SCENARIOS["w3_sigma"], tol=tol)


# --- registry-wide sweep --------------------------------------------------------

def test_every_registered_scenario_matches_its_cost():
    for sid, sc in reg.TELEPORT_SCENARIOS.items():
        res = run_scenario(sc)
        assert res.feasible, sid
        assert res.worst_fidelity >= 1.0 - TOL, sid
        assert res.perp_probability <= TOL, sid
        assert res.classical_cost == reg.TELEPORT_COSTS[sid], sid


# --- reference scan: one dense candidate matrix at a time ------------------------

def _kron_all(mats):
    out = np.eye(1, dtype=np.complex128)
    for m in mats:
        out = np.kron(out, m)
    return out


def _cz_matrix(k, pair):
    d = 2 ** k
    diag = np.ones(d, dtype=np.complex128)
    i, j = pair
    for x in range(d):
        if (x >> (k - 1 - i)) & 1 and (x >> (k - 1 - j)) & 1:
            diag[x] = -1.0
    return np.diag(diag)


def _iter_candidates(allowed, k):
    """(descriptor, matrix) pairs, prefix outer and Pauli inner."""
    d = 2 ** k
    prefixes = [("", np.eye(d, dtype=np.complex128))]
    if allowed == "paulis+cz":
        for i in range(k):
            for j in range(i + 1, k):
                prefixes.append(("CZ(%d,%d);" % (i, j), _cz_matrix(k, (i, j))))
    elif allowed == "paulis+diag":
        for m in range(1, 2 ** (d - 1)):
            mask = np.ones(d, dtype=np.complex128)
            for b in range(1, d):
                if (m >> (b - 1)) & 1:
                    mask[b] = -1.0
            desc = "D(%s);" % "".join("+" if s > 0 else "-" for s in mask.real)
            prefixes.append((desc, np.diag(mask)))
    tuples = [()]
    for _ in range(k):
        tuples = [t + (p,) for t in tuples for p in PAULI_ORDER]
    for prefix_desc, prefix in prefixes:
        for names in tuples:
            mat = _kron_all([SIGMA[n] for n in names]) @ prefix
            yield prefix_desc + "*".join(names), mat


@functools.lru_cache(maxsize=None)
def _candidates(allowed, k):
    return tuple(_iter_candidates(allowed, k))


def _reference_find(candidates, res_mat, exp_mat, cert_rows, tol):
    chosen = None
    chosen_min = 0.0
    best = 0.0
    for desc, mat in candidates:
        corrected = res_mat @ mat.T
        fids = np.abs(np.sum(exp_mat.conj() * corrected, axis=1)) ** 2
        worst_cert = float(np.min(fids[cert_rows])) if cert_rows else float(np.min(fids))
        if worst_cert > best:
            best = worst_cert
        if worst_cert >= 1.0 - tol:
            worst_all = float(np.min(fids))
            if worst_all < 1.0 - tol:
                continue
            chosen = desc
            chosen_min = worst_all
            break
    return chosen, chosen_min, best


def _reference_run(scenario, seed=42, tol=ASSERT_TOL,
                   num_random=teleport.NUM_RANDOM_PROBES):
    """run_scenario with the correction scan done one dense matrix at a time."""
    rng = np.random.default_rng(seed)
    resource = scenario.resource_state().state
    probes = _reference_probes(scenario.family, rng, num_random)
    out = enumerate_outcomes(
        np.array([tensor(state, resource).amplitudes for _, state, _ in probes]),
        build_plan(scenario.steps))
    probs = out.probabilities
    firing = [np.flatnonzero(row) for row in probs]
    order = sorted(range(len(out)), key=lambda j: firing[j][0])
    perp = np.zeros(len(probes))
    for j in range(len(out)):
        if out.perp[j]:
            perp = perp + probs[j]
    max_perp = float(perp.max())
    lowest = np.where(probs > 0.0, probs, np.inf).min(axis=0)
    uniform = not np.any(probs.max(axis=0) - lowest > VALUE_TOL)
    rand_idx = [i for i, (_, _, cert) in enumerate(probes) if not cert]
    expected = np.array([state.amplitudes for _, state, _ in probes])

    candidates = _candidates(scenario.allowed_ops, scenario.family.num_qubits)
    reports = []
    feasible = True
    for j in order:
        fired = firing[j]
        cert_rows = [fi for fi, i in enumerate(fired) if probes[i][2]]
        chosen, chosen_min, best = _reference_find(
            candidates, out.residuals[j][fired], expected[fired], cert_rows, tol)
        gen_idx = rand_idx[-1] if rand_idx else fired[-1]
        feasible &= chosen is not None
        reports.append(OutcomeReport(out.keys[j], float(probs[j, gen_idx]), chosen,
                                     chosen_min, best, bool(out.perp[j])))

    reason = ""
    if max_perp > PERP_ALARM:
        reason = "probability %.3e leaks into auto-completed directions" % max_perp
        feasible = False
    cost = breakdown = None
    if feasible:
        cost, breakdown = classical_cost(scenario, reports)
    return TeleportResult(
        scenario_id=scenario.scenario_id,
        feasible=feasible,
        outcomes=tuple(reports),
        worst_fidelity=min((r.min_fidelity for r in reports if r.correction),
                           default=0.0),
        best_worst_fidelity=min((r.best_fidelity for r in reports), default=0.0),
        perp_probability=max_perp,
        uniform_nonzero=uniform,
        classical_cost=cost,
        cost_breakdown=breakdown,
        num_probes=len(probes),
        reason=reason,
    )


_ALL_SCENARIOS = list(reg.TELEPORT_SCENARIOS.values()) + [
    sc for group in reg.negative_scenarios().values() for sc in group]


@pytest.mark.parametrize("seed", [42, 7])
def test_block_scan_matches_reference_scan(seed):
    for sc in _ALL_SCENARIOS:
        got = run_scenario(sc, seed=seed)
        want = _reference_run(sc, seed=seed)
        assert got == want, sc.scenario_id
        assert repr(got) == repr(want), sc.scenario_id


def _reference_find_each(allowed, residuals, expected, fired, certifying, tol):
    """_reference_find per outcome of a batch, on the rows that outcome fires."""
    out = []
    for res, rows in zip(residuals, fired):
        cert_rows = np.flatnonzero(certifying[rows]).tolist()
        out.append(_reference_find(_candidates(allowed, expected.shape[1].bit_length() - 1),
                                   res[rows], expected[rows], cert_rows, tol))
    return out


def _find_each(allowed, residuals, expected, fired, certifying, tol):
    k = expected.shape[1].bit_length() - 1
    chosen, min_fid, best = teleport._find_corrections(
        teleport._prefixes(allowed, k), residuals, expected, fired, certifying, tol)
    return [(c, float(m), float(b)) for c, m, b in zip(chosen, min_fid, best)]


def test_find_correction_edge_cases():
    e0 = np.array([1.0, 0.0], dtype=np.complex128)
    r = np.array([0.6, 0.8j])
    # s0 passes the certifying row, but only s3 also returns the random row
    case1 = (np.array([[e0, [0.6, -0.8j]]]), np.array([e0, r]),
             np.array([[True, True]]), np.array([True, False]), ASSERT_TOL)
    # s0 passes a loose tolerance; the better s1 after it is not scanned
    case2 = (np.array([[[0.45 ** 0.5, 0.55 ** 0.5]]], dtype=np.complex128),
             np.array([e0]), np.array([[True]]), np.array([True]), 0.6)
    for case in (case1, case2):
        assert _find_each("paulis", *case) == _reference_find_each("paulis", *case)
    assert _find_each("paulis", *case1) == [("s3", 1.0, 1.0)]
    [(chosen, _, best)] = _find_each("paulis", *case2)
    assert chosen == "s0" and best == pytest.approx(0.45)


def test_find_corrections_resolves_a_mixed_batch(monkeypatch):
    # six outcomes over the 18 probes of an arbitrary two-qubit family
    expected, certifying = build_probes(FamilySpec("arbitrary", 2),
                                        np.random.default_rng(3), num_random=2)
    rows = len(expected)
    pauli = dict(_candidates("paulis", 2))
    cz = _cz_matrix(2, (0, 1))
    rng = np.random.default_rng(11)
    garbage = rng.standard_normal((rows, 4)) + 1j * rng.standard_normal((rows, 4))
    # a small X rotation on qubit 0 after s3*s3 and CZ(0,1): no candidate
    # works, and the best one, with fidelity at least cos(0.1)^2, is s3*s3
    # after CZ, past the identity prefix
    theta = 0.1
    tilt = np.kron(math.cos(theta) * np.eye(2) - 1j * math.sin(theta) * SIGMA["s1"],
                   np.eye(2))
    rotated = cz @ pauli["s3*s3"] @ tilt
    # P_x C r = v needs r = C P_x^dagger v, CZ being its own inverse
    maps = [pauli["s1*s3"].conj().T,        # a Pauli at the identity prefix
            cz @ pauli["is2*s1"].conj().T,   # a Pauli after CZ(0,1)
            rotated,                         # no candidate, best after CZ
            pauli["s3*s1"] @ tilt,           # no candidate, best at the identity
            pauli["s3*s0"].conj().T,         # fired by a strict subset of rows
            pauli["s0*s1"].conj().T]         # fired by random members only
    fired = np.ones((len(maps), rows), dtype=bool)
    fired[4] = np.arange(rows) % 3 != 1
    fired[5] = ~certifying
    assert fired[4, ~certifying].any() and not fired[4].all()
    residuals = np.where(fired[..., None],
                         np.einsum("mab,ib->mia", np.array(maps), expected),
                         garbage)
    got = _find_each("paulis+cz", residuals, expected, fired, certifying, ASSERT_TOL)
    assert got == _reference_find_each("paulis+cz", residuals, expected, fired,
                                       certifying, ASSERT_TOL)
    assert [c for c, _, _ in got] == ["s1*s3", "CZ(0,1);is2*s1", None, None,
                                      "s3*s0", "s0*s1"]
    for _, min_fid, best in got[2:4]:
        assert math.cos(theta) ** 2 - 1e-12 <= best < 1.0 - 1e-3
        assert min_fid == 0.0
    # the best of the first open outcome lies past the identity prefix, that
    # of the second at it: best is a maximum over every prefix
    [(_, _, first), (_, _, second)] = _find_each(
        "paulis", residuals[2:4], expected, fired[2:4], certifying, ASSERT_TOL)
    assert first < got[2][2] and second == got[3][2]
    # slices of two outcomes: three at the identity prefix, two after CZ(0,1)
    monkeypatch.setattr(teleport, "SLICE_ENTRIES", 2 * rows * 4 ** 3)
    assert _find_each("paulis+cz", residuals, expected, fired, certifying,
                      ASSERT_TOL) == got


@pytest.mark.parametrize("seed", [42, 7])
def test_sliced_scan_matches_the_unsliced_one(seed, monkeypatch):
    # 36 probes of a two-qubit family: one outcome's scores are 36 x 4^2 x
    # 2^2 entries, so a slice budget of three of them splits the 16 outcomes
    # into six slices
    sc = reg.TELEPORT_SCENARIOS["omega2_bellbell_cz"]
    want = run_scenario(sc, seed=seed)
    assert len(want.outcomes) == 16 and want.num_probes == 36
    limit = 3 * 36 * 64
    entries = []
    real = teleport.pauli_coefficients

    def spy(a):
        entries.append(a.size * a.shape[-1])  # the gathered rows x 4^k x 2^k
        return real(a)

    monkeypatch.setattr(teleport, "pauli_coefficients", spy)
    monkeypatch.setattr(teleport, "SLICE_ENTRIES", limit)
    got = run_scenario(sc, seed=seed)
    assert got == want and repr(got) == repr(want)
    assert max(entries) == limit and len(entries) > len(teleport._prefixes("paulis+cz", 2)[0])


def test_four_qubit_scan_stays_within_the_slice_budget(monkeypatch):
    # five outcomes over the 276 probes of an arbitrary four-qubit family:
    # one outcome's scores are 276 x 4^4 x 2^4 entries (18 MB), so the budget
    # scores them one at a time; slices sized by MAX_STACK_ENTRIES took all
    # five at once, and took four Bell pairs teleporting four qubits to 377 MB
    expected, certifying = build_probes(FamilySpec("arbitrary", 4),
                                        np.random.default_rng(5))
    rows = len(expected)
    rng = np.random.default_rng(6)
    residuals = (rng.standard_normal((5, rows, 16))
                 + 1j * rng.standard_normal((5, rows, 16)))
    residuals /= np.linalg.norm(residuals, axis=2, keepdims=True)
    residuals[0] = expected  # the identity corrects outcome 0
    fired = np.ones((5, rows), dtype=bool)
    entries = []
    real = teleport.pauli_coefficients

    def spy(a):
        entries.append(a.size * a.shape[-1])  # the gathered rows x 4^k x 2^k
        return real(a)

    monkeypatch.setattr(teleport, "pauli_coefficients", spy)
    prefixes = teleport._prefixes("paulis", 4)
    real(residuals[:1, :1, :, None] * expected[:1].conj())  # tables built untraced
    tracemalloc.start()
    try:
        chosen, _, _ = teleport._find_corrections(prefixes, residuals, expected,
                                                  fired, certifying, ASSERT_TOL)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert chosen == ["s0*s0*s0*s0"] + [None] * 4
    assert entries == [rows * 8 ** 4] * 5
    assert max(entries) <= SLICE_ENTRIES
    # one slice's complex scores at the full budget: 32 MiB
    assert peak < 16 * SLICE_ENTRIES


@pytest.mark.parametrize("allowed", ["paulis", "paulis+cz", "paulis+diag"])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_vocabulary_matches_dense_candidates(allowed, k):
    rows = np.arange(2 ** k)
    entries = []
    for prefix, mask in zip(*teleport._prefixes(allowed, k)):
        for names, flip, sign in zip(*pauli_table(k)):
            pauli = np.zeros((2 ** k, 2 ** k), dtype=np.complex128)
            pauli[rows, rows ^ flip] = sign
            entries.append((prefix + "*".join(names), pauli @ np.diag(mask)))
    reference = _candidates(allowed, k)
    assert [desc for desc, _ in entries] == [desc for desc, _ in reference]
    for (desc, mat), (_, want) in zip(entries, reference):
        assert np.array_equal(mat, want), desc


def test_best_fidelity_of_a_corrected_outcome_is_the_chosen_candidates_own(
        monkeypatch):
    # no candidate scanned before the chosen one certifies better than it, so
    # a corrected outcome's best_fidelity is the chosen candidate's own worst
    # certifying fidelity, bit for bit
    calls = []
    real = teleport._find_corrections

    def spy(prefixes, residuals, expected, fired, certifying, tol):
        got = real(prefixes, residuals, expected, fired, certifying, tol)
        calls.append((prefixes, residuals, expected, fired, certifying, got))
        return got

    monkeypatch.setattr(teleport, "_find_corrections", spy)
    for seed in (42, 7):
        for sc in _ALL_SCENARIOS:
            run_scenario(sc, seed=seed)
    assert len(calls) == 2 * len(_ALL_SCENARIOS)
    corrected = 0
    for (descs, masks), residuals, expected, fired, certifying, got in calls:
        table = pauli_table(expected.shape[1].bit_length() - 1)
        for res, rows, desc, best in zip(residuals, fired, got[0], got[2]):
            if desc is None:
                continue
            prefix, _, pauli = desc.rpartition(";")
            p = descs.index(prefix + ";" if prefix else "")
            t = table.names.index(tuple(pauli.split("*")))
            perm = np.arange(res.shape[1])[None] ^ table.flip[t]
            sign = table.sign[t:t + 1]
            fids = np.abs(np.sum(expected[rows].conj()[:, None, :]
                                 * ((res[rows] * masks[p])[:, perm] * sign),
                                 axis=2)) ** 2
            cert = certifying[rows]
            own = (fids[cert] if cert.any() else fids).min()
            assert best == own, desc
            corrected += 1
    assert corrected
