"""CI guard: the repository's own tree must stay replint-clean forever.

This is the enforcement half of the determinism contract: any PR that
introduces an unseeded RNG, a wall-clock read in simulated code, an
unpicklable pool callable, … fails tier-1 right here (or carries an
explicit, justified ``# replint: disable=`` comment).
"""

import ast

import pytest

from repro.lint import render_text, run_lint

from .conftest import REPO_ROOT

LINTED_ROOTS = [REPO_ROOT / "src", REPO_ROOT / "benchmarks"]


@pytest.fixture(scope="module")
def tree_result():
    """One lint of the whole tree, shared by every check below."""
    return run_lint(LINTED_ROOTS)


def test_source_tree_is_replint_clean(tree_result):
    assert tree_result.clean, (
        "replint violations in the tree — fix them or add a justified "
        "'# replint: disable=' comment:\n" + render_text(tree_result)
    )


def test_whole_tree_was_scanned(tree_result):
    # Sanity-check the guard has teeth: the tree is ~120 files; a broken
    # file-discovery walk silently passing would defeat the test above.
    assert tree_result.files_checked >= 60


def _imported_modules(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module or ""


def test_no_src_module_imports_benchmarks():
    # REP101 exempts benchmarks/ from the seeded-RNG rules.  Nothing in
    # src/repro may import from there, so no seeded layer can reach a
    # global-RNG draw through it (REP113 used to walk the call graph
    # for exactly that chain).
    offenders = [
        f"{path.relative_to(REPO_ROOT)}: import {module}"
        for path in sorted((REPO_ROOT / "src" / "repro").rglob("*.py"))
        for module in _imported_modules(ast.parse(path.read_text()))
        if module == "benchmarks" or module.startswith("benchmarks.")
    ]
    assert offenders == []
