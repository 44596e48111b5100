"""Reporter output: text shape, JSON golden file, baseline ledger."""

import json
from pathlib import Path

import pytest

from repro.lint import (
    all_rules,
    load_report,
    render_baseline,
    render_json,
    render_text,
    run_lint,
)

from .conftest import GOLDEN


def _golden_result(monkeypatch):
    # chdir so diagnostic paths are stable, relative ones.
    monkeypatch.chdir(GOLDEN / "tree")
    return run_lint([Path(".")])


def test_text_report_has_file_line_rule_shape(monkeypatch):
    result = _golden_result(monkeypatch)
    text = render_text(result)
    assert "analysis/formulas.py:5:11: REP106" in text
    assert "hint:" in text
    assert "2 violation(s)" in text


def test_json_report_matches_golden_file(monkeypatch):
    result = _golden_result(monkeypatch)
    rendered = json.loads(render_json(result))
    golden = json.loads((GOLDEN / "report.json").read_text())
    assert rendered == golden, (
        "JSON report schema/content drifted from tests/lint/golden/"
        "report.json — if intentional, bump SCHEMA_VERSION and regenerate"
    )


def test_json_schema_keys_are_stable(monkeypatch):
    result = _golden_result(monkeypatch)
    payload = json.loads(render_json(result))
    assert set(payload) == {
        "schema",
        "schema_version",
        "files_checked",
        "suppressed",
        "counts",
        "violations",
    }
    assert payload["schema"] == "replint-report"
    assert payload["schema_version"] == 4
    for violation in payload["violations"]:
        assert set(violation) == {
            "path",
            "line",
            "col",
            "rule",
            "severity",
            "message",
            "fix_hint",
            "family",
        }


def test_findings_carry_their_rule_family(monkeypatch):
    result = _golden_result(monkeypatch)
    payload = json.loads(render_json(result))
    families = {rule.id: rule.family for rule in all_rules()}
    assert {v["rule"]: v["family"] for v in payload["violations"]} == {
        "REP106": families["REP106"], "REP113": families["REP113"]}
    assert families["REP106"] == "numerics"
    assert families["REP113"] == "determinism"


def test_load_report_accepts_current_golden():
    payload = load_report((GOLDEN / "report.json").read_text())
    assert payload["schema_version"] == 4
    assert payload["counts"]["REP113"] == 1
    assert "REP112" not in payload["counts"]  # retired with its chains
    assert "REP114" not in payload["counts"]  # retired: run, not read


def test_load_report_rejects_v1_golden_loudly():
    v1_text = (GOLDEN / "report_v1.json").read_text()
    assert json.loads(v1_text)["schema_version"] == 1  # fixture sanity
    with pytest.raises(ValueError, match="schema_version=1"):
        load_report(v1_text)


def test_load_report_rejects_v2_golden_loudly():
    v2_text = (GOLDEN / "report_v2.json").read_text()
    payload = json.loads(v2_text)
    assert payload["schema_version"] == 2  # fixture sanity
    assert payload["counts"]["REP112"] == 1
    with pytest.raises(ValueError, match="schema_version=2"):
        load_report(v2_text)


def test_load_report_rejects_v3_golden_loudly():
    v3_text = (GOLDEN / "report_v3.json").read_text()
    payload = json.loads(v3_text)
    assert payload["schema_version"] == 3  # fixture sanity
    assert "project_rules_skipped" in payload
    with pytest.raises(ValueError, match="schema_version=3"):
        load_report(v3_text)


def test_load_report_rejects_non_reports():
    with pytest.raises(ValueError, match="schema marker"):
        load_report('{"schema": "something-else", "schema_version": 2}')


def test_json_reports_suppressed_count(monkeypatch):
    result = _golden_result(monkeypatch)
    assert result.suppressed == 1  # the disable=REP106 line in the fixture


def test_baseline_lists_every_rule_and_total(monkeypatch):
    result = _golden_result(monkeypatch)
    baseline = render_baseline(result)
    lines = [l for l in baseline.splitlines() if l and not l.startswith("#")]
    assert lines[-1] == "total 2"
    assert "REP106 1" in lines
    assert "REP113 1" in lines
    assert "REP101 0" in lines


def test_clean_text_report(tmp_path):
    (tmp_path / "ok.py").write_text("x = 1\n")
    result = run_lint([tmp_path])
    assert "clean" in render_text(result)
