"""replint — AST-based determinism & protocol-invariant linter.

Enforces, at analysis time, the contracts the experiments rely on at
run time (see ``docs/static-analysis.md`` for the full catalogue):

========  ==========================================================
REP101    unseeded RNG construction / global-RNG calls
REP102    wall-clock reads inside simulated-time code
REP103    hash-ordered iteration in event/frame hot paths
REP104    lambdas/closures shipped across the process boundary
          (pool methods and ``Process(target=...)``)
REP105    ``os.environ`` reads outside the configuration boundary
REP106    float ``==``/``!=`` in analysis formulas
REP107    mutable default arguments and bare ``except:``
REP111    raw datagram socket I/O outside the batch layer
REP113    RNG seeds that do not flow from caller-provided data
========  ==========================================================

Every rule reads one file.  REP108-REP110, REP112 and REP114-REP117
are retired (see ``docs/static-analysis.md``): what they guarded is
checked on live objects by tier-1 tests instead — protocol totality,
loops that never block, ``__slots__`` classes without a ``__dict__``,
receive-ring views that never outlive their batch, and cluster workers
that are always joined.

Usage::

    PYTHONPATH=src python -m repro lint                # src and benchmarks
    python -m repro lint --format json --select REP101,REP104

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
from .reporters import render_json, render_text
from .rules import Rule, all_rules

__all__ = [
    "FileContext",
    "LintResult",
    "Rule",
    "UsageError",
    "Violation",
    "all_rules",
    "render_json",
    "render_text",
    "run_lint",
]
