"""Fixture-driven tests: one bad/good tree per REP rule.

Every rule must (a) fire on its bad fixture — and *only* that rule, so
the fixtures double as cross-rule false-positive checks — and (b) stay
silent on the good fixture.
"""

from pathlib import Path

import pytest

from repro.lint import all_rules, run_lint

from .conftest import FIXTURES, rule_ids

ALL_RULE_IDS = sorted(rule.id for rule in all_rules())


@pytest.mark.parametrize("rule_id", ALL_RULE_IDS)
def test_bad_fixture_fires_exactly_this_rule(rule_id):
    result = run_lint([FIXTURES / rule_id.lower() / "bad"])
    assert result.violations, f"{rule_id} bad fixture produced no violations"
    assert rule_ids(result) == {rule_id}, (
        f"{rule_id} bad fixture fired other rules: {result.violations}"
    )


@pytest.mark.parametrize("rule_id", ALL_RULE_IDS)
def test_good_fixture_is_clean(rule_id):
    result = run_lint([FIXTURES / rule_id.lower() / "good"])
    assert result.clean, (
        f"{rule_id} good fixture flagged: {result.violations}"
    )


@pytest.mark.parametrize("rule_id", ALL_RULE_IDS)
def test_violations_carry_rule_metadata(rule_id):
    rule = {rule.id: rule for rule in all_rules()}[rule_id]
    assert rule.severity in ("error", "warning")
    assert rule.title and rule.fix_hint
    result = run_lint([FIXTURES / rule_id.lower() / "bad"])
    for violation in result.violations:
        assert violation.severity == rule.severity
        assert violation.fix_hint == rule.fix_hint
        assert violation.line >= 1
        assert violation.path.endswith(".py")


def test_rule_ids_are_unique_and_well_formed():
    ids = [rule.id for rule in all_rules()]
    assert len(ids) == len(set(ids))
    assert all(i.startswith("REP1") and len(i) == 6 for i in ids)


def test_select_restricts_to_named_rules():
    result = run_lint([FIXTURES / "rep107" / "bad"], select=["REP101"])
    assert result.clean  # REP107's bad fixture has no REP101 violations


def test_ignore_drops_named_rules():
    result = run_lint([FIXTURES / "rep107" / "bad"], ignore=["REP107"])
    assert result.clean


def test_counts_cover_every_rule_even_when_zero():
    result = run_lint([FIXTURES / "rep101" / "good"])
    assert set(result.counts) == set(ALL_RULE_IDS) | {"REP100"}
    assert all(count == 0 for count in result.counts.values())


def test_rep101_flags_each_bad_call_site():
    result = run_lint([FIXTURES / "rep101" / "bad"])
    lines = sorted(v.line for v in result.violations)
    assert len(lines) == 4  # random.random, Random(), default_rng(), np global


def test_rep108_reports_unhandled_frame_and_codec_gap():
    result = run_lint([FIXTURES / "rep108" / "bad"])
    messages = " | ".join(v.message for v in result.violations)
    assert "ResetFrame" in messages
    assert "codec" in messages
    assert "NakOnlyReceiver" in messages
    by_file = {Path(v.path).name for v in result.violations}
    assert {"frames.py", "wire.py", "proto.py"} <= by_file


def test_rep110_names_the_stray_attribute_and_method():
    result = run_lint([FIXTURES / "rep110" / "bad"])
    messages = " | ".join(v.message for v in result.violations)
    assert "self.history" in messages and "Tracker.observe()" in messages
    assert "self.pending_size" in messages and "Window.resize()" in messages
    assert len(result.violations) == 2  # slot writes in the same methods pass
