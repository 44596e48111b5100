"""Reporter output: text shape, JSON golden file."""

import json
from pathlib import Path

from repro.lint import all_rules, render_json, render_text, run_lint

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


def test_json_reports_suppressed_count(monkeypatch):
    result = _golden_result(monkeypatch)
    assert result.suppressed == 1  # the disable=REP106 line in the fixture


def test_clean_text_report(tmp_path):
    (tmp_path / "ok.py").write_text("x = 1\n")
    result = run_lint([tmp_path])
    assert "clean" in render_text(result)
