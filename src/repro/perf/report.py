"""Perf reporting: ``BENCH_fastpath.json`` and the structure ledger.

Two artifacts with two contracts:

- ``BENCH_fastpath.json`` holds *timings* — machine-dependent by
  nature, so it is recorded (committed for the trajectory, uploaded
  from CI) but never diffed byte-for-byte.
- The **structure ledger** holds everything that must *not* vary:
  suite names, canonical workload sizes, and determinism digests.  It
  is goldened in ``benchmarks/results/perf_structure.txt``; any drift
  there means the hot path changed behaviour, not just speed.
"""

from __future__ import annotations

import json
from difflib import unified_diff
from typing import List, Optional, Sequence

from .suites import SuiteResult, suite_names

__all__ = [
    "BENCH_SCHEMA",
    "BENCH_SCHEMA_VERSION",
    "bench_payload",
    "write_bench",
    "render_ledger",
    "render_table",
    "check_ledger",
]

BENCH_SCHEMA = "repro-perf-bench"
BENCH_SCHEMA_VERSION = 2

LEDGER_HEADER = (
    "# repro perf structure ledger — suite names, canonical workload sizes,\n"
    "# determinism digests.  Byte-stable across machines, modes and --jobs.\n"
    "# regenerate: PYTHONPATH=src python -m repro perf --smoke"
    " --ledger benchmarks/results/perf_structure.txt\n"
)


def bench_payload(results: Sequence[SuiteResult], mode: str) -> dict:
    """The ``BENCH_fastpath.json`` document for one run."""
    suites = {}
    for result in results:
        entry = {
            "iterations": result.iterations,
            "repeats": result.repeats,
            "best_s": result.best_s,
            "ops_per_s": result.ops_per_s,
            "canonical_ops": result.canonical_ops,
            "digest": result.digest,
        }
        if result.extras is not None:
            entry["extras"] = result.extras
        suites[result.name] = entry
    return {
        "schema": BENCH_SCHEMA,
        "schema_version": BENCH_SCHEMA_VERSION,
        "mode": mode,
        "suites": suites,
    }


def write_bench(
    results: Sequence[SuiteResult], path: str, mode: str = "full"
) -> str:
    """Write ``BENCH_fastpath.json`` to ``path``; return the JSON text."""
    text = json.dumps(bench_payload(results, mode), indent=2, sort_keys=True) + "\n"
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)
    return text


def render_ledger(results: Sequence[SuiteResult]) -> str:
    """The byte-stable structure ledger for ``results``."""
    lines: List[str] = [LEDGER_HEADER.rstrip("\n")]
    for result in results:
        lines.append(result.ledger_line())
    lines.append(f"total_suites {len(results)}")
    return "\n".join(lines) + "\n"


def render_table(results: Sequence[SuiteResult]) -> str:
    """Human-readable summary printed by ``repro perf``."""
    header = f"{'suite':<18} {'ops':>9} {'best':>10} {'ops/s':>12}"
    rows = [header, "-" * len(header)]
    for result in results:
        rows.append(
            f"{result.name:<18} {result.iterations:>9,} "
            f"{result.best_s * 1e3:>8.1f}ms {result.ops_per_s:>12,.0f}"
        )
    return "\n".join(rows)


def check_ledger(results: Sequence[SuiteResult], golden_path: str) -> Optional[str]:
    """Compare the ledger for ``results`` against a golden file.

    Returns ``None`` on a match, else a short diff summary.  A run of
    every registered suite must reproduce the golden file byte-for-byte
    — header, rows, ``total_suites`` — so a golden row whose suite was
    renamed or dropped is drift.  A ``--suite`` subset is matched by
    name and checks only its own rows.
    """
    with open(golden_path, "r", encoding="utf-8") as handle:
        golden = handle.read()
    if [result.name for result in results] == suite_names():
        actual = render_ledger(results)
        if actual == golden:
            return None
        return "".join(unified_diff(
            golden.splitlines(keepends=True), actual.splitlines(keepends=True),
            fromfile=golden_path, tofile="this run",
        ))
    golden_rows = {
        line.split(" ", 1)[0]: line
        for line in golden.splitlines()
        if line and not line.startswith("#")
    }
    problems: List[str] = []
    for result in results:
        expected = golden_rows.get(result.name)
        actual = result.ledger_line()
        if expected is None:
            problems.append(f"suite {result.name!r} missing from {golden_path}")
        elif expected != actual:
            problems.append(
                f"suite {result.name!r} drifted:\n  golden: {expected}\n"
                f"  actual: {actual}"
            )
    return "\n".join(problems) if problems else None
