"""replint — AST-based determinism & protocol-invariant linter.

Enforces, at analysis time, the contracts the experiments rely on at
run time (see ``docs/static-analysis.md`` for the full catalogue):

========  ==========================================================
REP101    unseeded RNG construction / global-RNG calls
REP102    wall-clock reads inside simulated-time code
REP103    hash-ordered iteration in event/frame hot paths
REP104    lambdas/closures shipped across the process-pool boundary
REP105    ``os.environ`` reads outside the configuration boundary
REP106    float ``==``/``!=`` in analysis formulas
REP107    mutable default arguments and bare ``except:``
REP108    frame types declared but not handled by the protocol layer
REP109    blocking calls inside service event-loop code
REP110    attribute creation outside ``__init__`` in slotted classes
REP111    raw datagram socket I/O outside the batch layer
REP112    blocking calls *reachable* from a service event-loop entry
REP113    RNG seeds that do not flow from caller-provided data
REP114    protocol-FSM exhaustiveness / terminal-absorption check
REP115    recv-ring ``memoryview`` escaping its batch iteration
REP116    unjoined / non-spawn-safe worker processes in ``cluster/``
========  ==========================================================

REP101–REP107, REP109–REP111, REP115 and REP116 are single-file rules;
REP108 and REP112–REP114 are whole-program rules built on the
:mod:`.callgraph` cross-module call graph (and, for REP114, the
:mod:`.fsm` state-machine extractor).

Usage::

    PYTHONPATH=src python -m repro.lint src benchmarks
    python -m repro lint --format json --select REP101,REP104
    python -m repro lint --changed HEAD~1        # pre-commit subset
    python -m repro lint --paths 'service/*'     # pattern subset
    python -m repro lint --fsm-matrix benchmarks/results/fsm_matrix.txt

Suppress inline with ``# replint: disable=REP104`` (flagged line) or
``# replint: disable-file=REP104`` (whole file).
"""

from .engine import (
    FileContext,
    LintResult,
    UsageError,
    Violation,
    run_lint,
)
from .reporters import (
    load_report,
    render_baseline,
    render_json,
    render_text,
)
from .rules import Rule, all_rules

__all__ = [
    "FileContext",
    "LintResult",
    "Rule",
    "UsageError",
    "Violation",
    "all_rules",
    "load_report",
    "render_baseline",
    "render_json",
    "render_text",
    "run_lint",
]
