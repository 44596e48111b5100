"""Two source-tree guards: no frozen fork, one pull-request builder.

The hot paths are proved by recordings (``test_fastpath_equivalence.py``)
and timed by layerbench (``docs/performance.md``); these guards keep a
second copy of either path from creeping back into ``src/``.
"""

import ast
import re
from pathlib import Path

REPO_ROOT = Path(__file__).parents[2]


def test_no_frozen_fork_in_source_tree():
    # layerbench times live code only; the one reference engine kept
    # as an oracle lives under tests/ (tests/service/reference_engine.py).
    fork = re.compile(r"^\s*class Legacy|\.legacy\b|\bimport legacy\b",
                      re.MULTILINE)
    offenders = [
        str(path.relative_to(REPO_ROOT))
        for path in sorted((REPO_ROOT / "src" / "repro").rglob("*.py"))
        if fork.search(path.read_text())
    ]
    assert offenders == []


def test_pull_request_is_built_in_one_module():
    # The client side of the pull protocol exists once: only
    # service/pullclient.py may write the {"op": "pull", ...} request.
    def builds_pull(tree):
        return any(
            isinstance(node, ast.Dict) and any(
                isinstance(k, ast.Constant) and k.value == "op"
                and isinstance(v, ast.Constant) and v.value == "pull"
                for k, v in zip(node.keys, node.values))
            for node in ast.walk(tree))

    builders = [
        str(path.relative_to(REPO_ROOT))
        for path in sorted((REPO_ROOT / "src" / "repro").rglob("*.py"))
        if builds_pull(ast.parse(path.read_text()))
    ]
    assert builders == ["src/repro/service/pullclient.py"]


