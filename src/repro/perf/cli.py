"""Implementation of the ``repro perf`` subcommand."""

from __future__ import annotations

from typing import List, Optional

from .report import check_ledger, render_ledger, render_table, write_bench
from .suites import run_suites, suite_names

__all__ = ["perf_command"]


def perf_command(
    suites: Optional[str] = None,
    smoke: bool = False,
    repeats: int = 3,
    out: Optional[str] = None,
    ledger: Optional[str] = None,
    check: Optional[str] = None,
    list_suites: bool = False,
) -> int:
    """Run perf suites; returns a process exit code.

    ``out`` writes ``BENCH_fastpath.json``; ``ledger`` writes the
    byte-stable structure ledger; ``check`` diffs the run's structure
    ledger (the whole file for a full run, its own rows for a
    ``suites`` subset) against a golden ledger and fails (exit 1) on
    drift.
    """
    if list_suites:
        for name in suite_names():
            print(name)
        return 0

    names: Optional[List[str]] = None
    if suites:
        names = [name.strip() for name in suites.split(",") if name.strip()]
    results = run_suites(names=names, smoke=smoke, repeats=repeats)
    print(render_table(results))

    mode = "smoke" if smoke else "full"
    if out:
        write_bench(results, out, mode=mode)
        print(f"wrote {out}")
    if ledger:
        with open(ledger, "w", encoding="utf-8") as handle:
            handle.write(render_ledger(results))
        print(f"wrote {ledger}")
    if check:
        drift = check_ledger(results, check)
        if drift is not None:
            print(f"structure ledger drift against {check}:")
            print(drift)
            return 1
        print(f"structure ledger matches {check}")
    return 0
