"""Structure ledger and bench-report schema of the perf subsystem.

The timings a perf run reports are machine facts and never asserted;
everything else — suite registry, canonical workload sizes, determinism
digests, the JSON schema of ``BENCH_fastpath.json``, and the golden
structure ledger — is a contract and is pinned here.
"""

import ast
import re
from pathlib import Path

import pytest

from repro.perf.report import (
    BENCH_SCHEMA,
    BENCH_SCHEMA_VERSION,
    bench_payload,
    check_ledger,
    render_ledger,
    render_table,
)
from repro.perf.suites import SuiteResult, run_suites, suite_names

REPO_ROOT = Path(__file__).parents[2]
GOLDEN_LEDGER = REPO_ROOT / "benchmarks" / "results" / "perf_structure.txt"


@pytest.fixture(scope="module")
def results():
    # One smoke pass with a single repeat: fast enough for CI, and the
    # structure rows it produces are identical to a full run's.
    return run_suites(smoke=True, repeats=1)


def test_suite_registry_is_stable():
    assert suite_names() == [
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


def test_check_ledger_accepts_suite_subsets(results):
    assert check_ledger(results[:2], str(GOLDEN_LEDGER)) is None


def test_check_ledger_reports_drift(results, tmp_path):
    drifted = tmp_path / "ledger.txt"
    drifted.write_text(
        GOLDEN_LEDGER.read_text().replace("digest=", "digest=f00d", 1)
    )
    report = check_ledger(results, str(drifted))
    assert report is not None and "digest=f00d" in report
    # A full run also answers for rows no suite produced: a golden row
    # left behind by a renamed or dropped suite is drift, not a match.
    stale_row = f"retired_suite canonical_ops=1 digest={'0' * 64}\n"
    drifted.write_text(
        GOLDEN_LEDGER.read_text().replace("total_suites", stale_row + "total_suites")
    )
    report = check_ledger(results, str(drifted))
    assert report is not None and "retired_suite" in report
    assert check_ledger(results[:2], str(drifted)) is None


def test_bench_payload_schema(results):
    payload = bench_payload(results, mode="smoke")
    assert payload["schema"] == BENCH_SCHEMA
    assert payload["schema_version"] == BENCH_SCHEMA_VERSION == 2
    assert payload["mode"] == "smoke"
    assert set(payload["suites"]) == set(suite_names())
    for entry in payload["suites"].values():
        assert entry["iterations"] > 0
        assert entry["best_s"] > 0
        assert entry["ops_per_s"] > 0
        assert len(entry["digest"]) == 64
        assert not any("baseline" in key or "speedup" in key for key in entry)


def test_clients_suite_exports_goodput_extras(results):
    payload = bench_payload(results, mode="smoke")
    extras = payload["suites"]["service_udp_clients"]["extras"]
    cells = extras["per_client_goodput"]
    assert [cell["clients"] for cell in cells] == [4, 8, 16]
    for cell in cells:
        assert cell["ok"] == cell["clients"]
        assert cell["per_client_goodput_bytes_per_s"] > 0
    # extras are machine facts: bench JSON only, never the ledger.
    assert "extras" not in render_ledger(results)


def test_sched_suite_exports_scale_extras(results):
    payload = bench_payload(results, mode="smoke")
    cells = payload["suites"]["service_sched_scale"]["extras"]["sched_scale"]
    assert [cell["streams"] for cell in cells] == [256]
    for cell in cells:
        assert cell["seconds"] > 0
        assert not any("legacy" in key or "speedup" in key for key in cell)
    assert "extras" not in render_ledger(results)


def test_render_table_lists_every_suite(results):
    table = render_table(results)
    for name in suite_names():
        assert name in table


def test_ledger_line_carries_no_timings():
    result = SuiteResult(
        name="demo",
        iterations=123,
        repeats=3,
        best_s=0.5,
        ops_per_s=246.0,
        digest="d" * 64,
        canonical_ops=42,
    )
    assert result.ledger_line() == f"demo canonical_ops=42 digest={'d' * 64}"


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


def test_unknown_suite_name_is_rejected():
    with pytest.raises(ValueError, match="unknown suite"):
        run_suites(names=["no_such_suite"])


def test_repeats_must_be_positive():
    with pytest.raises(ValueError, match="repeats"):
        run_suites(names=["codec_encode"], repeats=0)
