"""Command-line front end shared by ``python -m repro.lint`` and
``python -m repro lint``.

Exit codes: ``0`` clean, ``1`` violations found, ``2`` usage error
(unknown rule id, missing path, bad git ref).
"""

from __future__ import annotations

import argparse
import fnmatch
import sys
from pathlib import Path
from typing import Callable, List, Optional, Sequence, Set

from ..cli import add_lint_options
from .engine import UsageError, run_lint
from .reporters import render_baseline, render_json, render_text

__all__ = ["build_parser", "lint_command", "main"]

DEFAULT_PATHS = ("src", "benchmarks")

#: External tools run by ``--external`` (optional-dependency group
#: ``lint`` in pyproject.toml) and the arguments we invoke them with.
EXTERNAL_TOOLS = (
    ("ruff", ["check", "src"]),
    ("mypy", ["src/repro"]),
)


def _split_ids(values: Optional[Sequence[str]]) -> List[str]:
    ids: List[str] = []
    for value in values or ():
        ids.extend(part for part in value.split(",") if part.strip())
    return ids


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.lint",
        description="replint: determinism & protocol-invariant linter "
        "(rule catalogue: docs/static-analysis.md)",
    )
    add_lint_options(parser)
    return parser


def _changed_files(ref: str) -> Set[Path]:
    """Resolved paths of ``.py`` files touched since ``ref`` + untracked."""
    import subprocess

    def git(*args: str) -> str:
        proc = subprocess.run(
            ["git", *args], capture_output=True, text=True
        )
        if proc.returncode != 0:
            raise UsageError(
                f"git {' '.join(args)} failed: "
                + (proc.stderr.strip() or f"exit {proc.returncode}")
            )
        return proc.stdout

    top = Path(git("rev-parse", "--show-toplevel").strip())
    names = git("diff", "--name-only", ref, "--").splitlines()
    names += git("ls-files", "--others", "--exclude-standard").splitlines()
    return {
        (top / name).resolve()
        for name in names
        if name.endswith(".py")
    }


def _build_file_filter(
    changed: Optional[str], path_patterns: Optional[str]
) -> Optional[Callable[[Path, str], bool]]:
    predicates: List[Callable[[Path, str], bool]] = []
    if changed is not None:
        changed_set = _changed_files(changed)
        predicates.append(lambda path, unit: path.resolve() in changed_set)
    if path_patterns is not None:
        patterns = [p.strip() for p in path_patterns.split(",") if p.strip()]
        if not patterns:
            raise UsageError("--paths requires at least one pattern")
        predicates.append(
            lambda path, unit: any(
                fnmatch.fnmatch(unit, pattern) for pattern in patterns
            )
        )
    if not predicates:
        return None
    return lambda path, unit: all(pred(path, unit) for pred in predicates)


def _run_external() -> int:
    """Run ruff/mypy if present; returns a nonzero code if any fail."""
    import shutil
    import subprocess

    worst = 0
    for tool, tool_args in EXTERNAL_TOOLS:
        executable = shutil.which(tool)
        if executable is None:
            print(
                f"replint: {tool} not installed — skipped "
                "(pip install .[lint])"
            )
            continue
        print(f"replint: running {tool} {' '.join(tool_args)}")
        code = subprocess.call([executable, *tool_args])
        worst = max(worst, code)
    return worst


def lint_command(args: argparse.Namespace) -> int:
    """Run the linter on parsed :func:`add_lint_options` arguments,
    print the report, and return the exit code."""
    paths = list(args.paths) or list(DEFAULT_PATHS)
    try:
        file_filter = _build_file_filter(args.changed, args.path_patterns)
        result = run_lint(
            paths,
            select=_split_ids(args.select),
            ignore=_split_ids(args.ignore),
            file_filter=file_filter,
        )
    except UsageError as exc:
        print(f"replint: error: {exc}", file=sys.stderr)
        return 2
    try:
        if args.format == "json":
            print(render_json(result))
        else:
            print(render_text(result))
    except BrokenPipeError:
        # Downstream pager/head closed the pipe; the report is partial by
        # the reader's choice, so exit on the lint verdict, not a traceback.
        sys.stderr.close()
        return 0 if result.clean else 1
    if args.baseline:
        path = Path(args.baseline)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(render_baseline(result))
        print(f"replint: baseline written to {path}")
    exit_code = 0 if result.clean else 1
    if args.external:
        exit_code = max(exit_code, _run_external())
    return exit_code


def main(argv: Optional[Sequence[str]] = None) -> int:
    return lint_command(build_parser().parse_args(argv))
