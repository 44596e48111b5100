"""CLI entry points: ``python -m repro.lint`` and ``python -m repro lint``."""

import json
import os
import subprocess
import sys

import pytest

from repro.cli import main as repro_main
from repro.lint.cli import main as lint_main

from .conftest import FIXTURES, REPO_ROOT


def _run_module(*args, cwd=REPO_ROOT):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return subprocess.run(
        [sys.executable, "-m", "repro.lint", *args],
        capture_output=True,
        text=True,
        cwd=cwd,
        env=env,
    )


class TestModuleEntryPoint:
    def test_clean_tree_exits_zero(self):
        proc = _run_module(str(FIXTURES / "rep101" / "good"))
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "clean" in proc.stdout

    def test_bad_tree_exits_one_with_diagnostics(self):
        proc = _run_module(str(FIXTURES / "rep101" / "bad"))
        assert proc.returncode == 1
        assert "REP101" in proc.stdout
        # file:line:col prefix on every diagnostic line
        assert "sampling.py:" in proc.stdout

    def test_unknown_rule_id_exits_two(self):
        proc = _run_module("--select", "REP999", str(FIXTURES))
        assert proc.returncode == 2
        assert "unknown rule id" in proc.stderr

    def test_missing_path_exits_two(self):
        proc = _run_module("no/such/dir")
        assert proc.returncode == 2


class TestInProcess:
    def test_json_format(self, capsys):
        code = lint_main(["--format", "json", str(FIXTURES / "rep106" / "bad")])
        payload = json.loads(capsys.readouterr().out)
        assert code == 1
        assert payload["counts"]["REP106"] >= 1

    def test_select_and_ignore_combined(self, capsys):
        code = lint_main(
            [
                "--select", "REP106,REP107",
                "--ignore", "REP106",
                str(FIXTURES / "rep106" / "bad"),
            ]
        )
        assert code == 0

    def test_baseline_written(self, tmp_path, capsys):
        baseline = tmp_path / "ledger" / "baseline.txt"
        code = lint_main(
            ["--baseline", str(baseline), str(FIXTURES / "rep101" / "good")]
        )
        assert code == 0
        content = baseline.read_text()
        assert "REP101 0" in content
        assert content.endswith("total 0\n")

    def test_external_tools_missing_are_skipped(self, tmp_path, capsys, monkeypatch):
        # With an empty PATH neither ruff nor mypy resolves; the run must
        # still succeed and say why.
        monkeypatch.setenv("PATH", str(tmp_path))
        (tmp_path / "ok.py").write_text("x = 1\n")
        code = lint_main(["--external", str(tmp_path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "ruff not installed" in out
        assert "mypy not installed" in out

    def test_repro_cli_lint_subcommand(self, capsys):
        code = repro_main(["lint", str(FIXTURES / "rep102" / "bad")])
        out = capsys.readouterr().out
        assert code == 1
        assert "REP102" in out

    def test_repro_cli_lint_clean(self, capsys):
        code = repro_main(["lint", str(FIXTURES / "rep102" / "good")])
        assert code == 0

    def test_same_file_not_linted_twice_for_overlapping_roots(self, capsys):
        root = FIXTURES / "rep106" / "bad"
        code = lint_main(["--format", "json", str(root), str(root / "analysis")])
        payload = json.loads(capsys.readouterr().out)
        assert code == 1
        assert payload["counts"]["REP106"] == 2  # the two lines, once each


def _option_table(parser):
    return sorted(
        (tuple(action.option_strings), action.dest, action.default,
         tuple(action.choices or ()), action.nargs)
        for action in parser._actions
        if action.dest != "help"
    )


class TestOneDeclaration:
    def test_both_front_ends_accept_the_same_options(self):
        from repro.cli import build_parser as repro_parser
        from repro.lint.cli import build_parser as lint_parser

        subparsers = next(action for action in repro_parser()._actions
                          if action.dest == "command")
        table = _option_table(lint_parser())
        assert table == _option_table(subparsers.choices["lint"])
        assert [row[0] for row in table] == [
            (), ("--baseline",), ("--changed",), ("--external",),
            ("--format",), ("--ignore",), ("--paths",),
            ("--select",),
        ]

    def test_building_the_cli_imports_no_lint_module(self):
        # `repro serve` and friends pay nothing for the lint front end.
        code = ("import sys; from repro.cli import build_parser; "
                "build_parser().parse_args(['serve', '--once', '1']); "
                "print(sorted(m for m in sys.modules "
                "if m.startswith('repro.lint')))")
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")},
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"


BAD_RNG = "import random\n\n\ndef draw():\n    return random.random()\n"
BAD_CLOCK = "import time\n\n\ndef now():\n    return time.time()\n"


class TestSubsetSelection:
    def test_paths_pattern_limits_files(self, tmp_path, capsys):
        (tmp_path / "sim").mkdir()
        (tmp_path / "analysis").mkdir()
        (tmp_path / "sim" / "clock.py").write_text(BAD_CLOCK)
        (tmp_path / "analysis" / "rng.py").write_text(BAD_RNG)
        code = lint_main(
            ["--format", "json", "--paths", "sim/*", str(tmp_path)]
        )
        payload = json.loads(capsys.readouterr().out)
        assert code == 1
        assert payload["counts"]["REP102"] == 1
        assert payload["counts"]["REP101"] == 0  # analysis/ filtered out

    def test_a_subset_run_reports_what_a_full_run_does(self, tmp_path,
                                                       capsys):
        # Every rule reads one file: a subset proves as much as the full
        # run does about the files it covers.
        (tmp_path / "sim").mkdir()
        (tmp_path / "sim" / "clock.py").write_text(BAD_CLOCK)
        assert lint_main([str(tmp_path)]) == 1
        full = capsys.readouterr().out
        assert lint_main(["--paths", "sim/*", str(tmp_path)]) == 1
        assert capsys.readouterr().out == full

    def test_changed_outside_git_repo_exits_two(self, tmp_path):
        proc = _run_module("--changed", "HEAD", str(tmp_path), cwd=tmp_path)
        assert proc.returncode == 2

    def test_changed_lints_only_touched_python_files(self, tmp_path):
        git_env = dict(
            os.environ,
            GIT_AUTHOR_NAME="t",
            GIT_AUTHOR_EMAIL="t@t",
            GIT_COMMITTER_NAME="t",
            GIT_COMMITTER_EMAIL="t@t",
        )

        def git(*args):
            subprocess.run(
                ["git", *args],
                cwd=tmp_path,
                env=git_env,
                check=True,
                capture_output=True,
            )

        git("init", "-q")
        (tmp_path / "sim").mkdir()
        (tmp_path / "sim" / "clock.py").write_text("x = 1\n")
        (tmp_path / "legacy.py").write_text(BAD_RNG)
        (tmp_path / "notes.txt").write_text("not python\n")
        git("add", "-A")
        git("commit", "-q", "-m", "seed")
        # Touch one tracked file and add one untracked file; the legacy
        # REP101 violation must NOT appear in a --changed run.
        (tmp_path / "sim" / "clock.py").write_text(BAD_CLOCK)
        (tmp_path / "fresh.py").write_text("y = 2\n")

        proc = _run_module("--changed", "HEAD", "--format", "json",
                           str(tmp_path), cwd=tmp_path)
        payload = json.loads(proc.stdout)
        assert proc.returncode == 1
        assert payload["counts"]["REP102"] == 1
        assert payload["counts"]["REP101"] == 0
        assert payload["files_checked"] == 2  # sim/clock.py + fresh.py
