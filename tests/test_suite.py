"""Claim-suite orchestration."""

import json

import pytest

from quadproto.suite import SECTIONS, format_text, report_dict, run_suite


@pytest.fixture(scope="module")
def full_report():
    return run_suite()


def test_full_suite_is_green(full_report):
    assert full_report.ok
    counts = full_report.counts
    assert counts.get("FAIL", 0) == 0
    assert counts["PASS"] >= 100
    assert counts["REFUTED"] == 2
    assert counts["INFO"] >= 4


def test_known_refutations_present(full_report):
    refuted = {r.claim_id for r in full_report.rows if r.status == "REFUTED"}
    assert refuted == {"densecode/q4_dc3_distribution",
                       "densecode/wmn_dc3_124"}


def test_sections_cover_expected_kinds(full_report):
    kinds = {r.kind for r in full_report.rows}
    assert {"teleport", "teleport_negative", "densecode",
            "densecode_refutation", "locc", "locc_certificate",
            "locc_negative", "diagnostics", "basis",
            "basis_correction"} <= kinds


def test_section_filtering():
    report = run_suite(sections=("diagnostics",))
    assert report.ok
    assert all(r.kind == "diagnostics" for r in report.rows)
    assert 0 < len(report.rows) < 60


def test_unknown_section_rejected():
    with pytest.raises(ValueError, match="unknown suite sections"):
        run_suite(sections=("teleport", "nope"))


def test_repeated_sections_rejected():
    # each section once: a repeat would print its claim ids twice
    with pytest.raises(ValueError, match=r"^repeated suite sections: teleport, bases$"):
        run_suite(sections=("teleport", "bases", "teleport", "diagnostics", "bases"))


def test_text_rendering(full_report):
    text = format_text(full_report)
    lines = text.strip().splitlines()
    assert lines[-1].startswith("result: OK (")
    assert sum(1 for l in lines if l.startswith("PASS")) \
        == full_report.counts["PASS"]
    assert "[corrected]" in text


def test_report_dict_is_json_ready(full_report):
    doc = report_dict(full_report)
    dumped = json.dumps(doc, sort_keys=True)
    back = json.loads(dumped)
    assert back["ok"] is True
    assert back["seed"] == 42
    assert len(back["claims"]) == len(full_report.rows)
    assert set(back["counts"]) <= {"PASS", "FAIL", "REFUTED", "INFO"}
    assert back["counts"].get("FAIL", 0) == 0


def test_every_claim_row_is_filled(full_report):
    seen = set()
    for row in full_report.rows:
        assert row.claim_id not in seen, row.claim_id
        seen.add(row.claim_id)
        assert row.status in ("PASS", "FAIL", "REFUTED", "INFO")
        assert row.expected and row.actual


def test_section_list_is_stable():
    assert list(SECTIONS) == ["teleport", "densecode", "locc",
                              "diagnostics", "bases", "unverified"]
