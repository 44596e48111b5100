"""The ``repro lint`` command, in a child process and in-process."""

import json
import os
import subprocess
import sys

from repro.cli import main as repro_main

from .conftest import FIXTURES, REPO_ROOT


def _run_module(*args):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return subprocess.run(
        [sys.executable, "-m", "repro", "lint", *args],
        capture_output=True,
        text=True,
        cwd=REPO_ROOT,
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
        code = repro_main(["lint", "--format", "json",
                           str(FIXTURES / "rep106" / "bad")])
        payload = json.loads(capsys.readouterr().out)
        assert code == 1
        assert payload["counts"]["REP106"] >= 1

    def test_select_and_ignore_combined(self, capsys):
        code = repro_main(
            [
                "lint",
                "--select", "REP106,REP107",
                "--ignore", "REP106",
                str(FIXTURES / "rep106" / "bad"),
            ]
        )
        assert code == 0

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
        code = repro_main(["lint", "--format", "json", str(root),
                           str(root / "analysis")])
        payload = json.loads(capsys.readouterr().out)
        assert code == 1
        assert payload["counts"]["REP106"] == 2  # the two lines, once each


class TestOneDeclaration:
    def test_lint_takes_paths_format_select_and_ignore(self):
        from repro.cli import build_parser

        subparsers = next(action for action in build_parser()._actions
                          if action.dest == "command")
        lint = subparsers.choices["lint"]
        assert sorted(tuple(action.option_strings) for action in lint._actions
                      if action.dest != "help") == [
            (), ("--format",), ("--ignore",), ("--select",)]

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
    def test_a_subset_run_reports_what_a_full_run_does(self, tmp_path,
                                                       capsys):
        # Every rule reads one file, and a file under a ``repro`` package
        # is scoped by its place in the package whatever the lint root:
        # linting one file proves as much as the full run does about it.
        package = tmp_path / "repro"
        (package / "sim").mkdir(parents=True)
        (package / "__init__.py").write_text("")
        (package / "sim" / "clock.py").write_text(BAD_CLOCK)
        (package / "rng.py").write_text(BAD_RNG)
        assert repro_main(["lint", "--format", "json", str(tmp_path)]) == 1
        full = json.loads(capsys.readouterr().out)["violations"]
        assert {v["rule"] for v in full} == {"REP101", "REP102"}
        for subset in (package / "sim", package / "sim" / "clock.py"):
            assert repro_main(["lint", "--format", "json", str(subset)]) == 1
            assert json.loads(capsys.readouterr().out)["violations"] == [
                v for v in full if v["rule"] == "REP102"]


class TestSourceEncoding:
    def test_a_coding_cookie_is_honoured(self, tmp_path, capsys):
        # Valid Python: the interpreter reads it as latin-1.
        (tmp_path / "names.py").write_bytes(
            b"# -*- coding: latin-1 -*-\nNAME = 'caf\xe9'\n"
            b"import random\nDRAW = random.random()\n")
        assert repro_main(["lint", "--format", "json", str(tmp_path)]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["files_checked"] == 1
        assert [v["rule"] for v in payload["violations"]] == ["REP101"]

    def test_an_undecodable_file_is_reported_not_raised(self, tmp_path,
                                                        capsys):
        (tmp_path / "ok.py").write_text("x = 1\n")
        (tmp_path / "stray.py").write_bytes(b"x = 1\ny = '\xff\xff'\n")
        assert repro_main(["lint", str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert "stray.py:2:0: REP100 [error] file does not parse:" in out
        assert "1 violation(s) in 2 files" in out
