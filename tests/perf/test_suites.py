"""The structure ledger of the perf package.

Suite names, canonical workload sizes and determinism digests are a
contract, pinned here against the golden ledger; nothing in the package
is timed (``docs/performance.md``: timings are layerbench's).
"""

import ast
import re
from pathlib import Path

import pytest

from repro.perf.structure import SUITES, render_ledger, structure_rows

REPO_ROOT = Path(__file__).parents[2]
GOLDEN_LEDGER = REPO_ROOT / "benchmarks" / "results" / "perf_structure.txt"


@pytest.fixture(scope="module")
def results():
    return structure_rows()


def test_suite_registry_is_stable():
    assert list(SUITES) == [
        "des_events",
        "des_process",
        "codec_encode",
        "codec_decode",
        "conformance_cell",
        "service_run",
        "service_udp_throughput",
        "service_udp_clients",
        "cluster_udp_goodput",
        "service_sched_scale",
    ]


def test_structure_ledger_matches_golden(results):
    assert render_ledger(results) == GOLDEN_LEDGER.read_text()


def test_no_frozen_fork_in_source_tree():
    # `repro perf` times live code only; the one reference engine kept
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


