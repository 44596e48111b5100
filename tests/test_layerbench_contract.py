"""The frozen benchmark's contract with ``src/``.

layerbench reads a probe target that no longer resolves as a ``null``
ledger row and never fails (its own
``test_deleted_target_reads_null_and_never_fails``), so deleting a
function from ``src/`` can empty a row silently.  This reads layerbench's
source -- never edits it -- and resolves every name it takes from
``repro``.
"""

import ast
import importlib
import re
from pathlib import Path

import pytest

LAYERBENCH = Path(__file__).parents[1] / "layerbench"
SOURCES = [path.read_text() for path in sorted(LAYERBENCH.glob("*.py"))]

#: ``"repro.module:Class.attr"`` strings of the probe tables.
TARGETS = sorted({target for source in SOURCES
                  for target in re.findall(r'"(repro\.[\w.]+:[\w.]+)"', source)})

#: ``from repro... import name`` pairs.  The environment fingerprint
#: catches the ImportError of these two by design.
OPTIONAL = {"HAS_RECVMMSG", "HAS_SENDMMSG"}
IMPORTS = sorted({
    (node.module, alias.name)
    for source in SOURCES for node in ast.walk(ast.parse(source))
    if isinstance(node, ast.ImportFrom) and node.level == 0
    and (node.module or "").split(".")[0] == "repro"
    for alias in node.names if alias.name not in OPTIONAL})


def test_the_probe_table_is_the_one_this_was_written_against():
    assert len(TARGETS) == 22 and IMPORTS


@pytest.mark.parametrize("target", TARGETS)
def test_probe_target_resolves(target):
    module, _, path = target.partition(":")
    found = importlib.import_module(module)
    for part in path.split("."):
        found = getattr(found, part)
    assert callable(found)


@pytest.mark.parametrize("module, name", IMPORTS)
def test_imported_name_resolves(module, name):
    assert hasattr(importlib.import_module(module), name)
