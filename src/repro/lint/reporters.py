"""Text, JSON and baseline reporters for replint results.

The JSON schema is versioned and covered by a golden-file test — treat
any key change as a schema bump (``SCHEMA_VERSION``), because CI
tooling downstream parses it.

Schema history:

- **v1** — path/line/col/rule/severity/message/fix_hint per violation.
- **v2** — adds ``family`` (rule family) and ``chain`` (call-chain
  witness for transitive REP112 findings) per violation, plus a
  top-level flag saying a subset run skipped the whole-program rules.
- **v3** — drops ``chain``: REP112 and the call graph that produced
  the witnesses are retired, and no finding has a chain.
- **v4** — drops that flag: REP114, the one whole-program rule, is
  retired, so a subset run skips nothing.

:func:`load_report` reads the current version only and rejects any
other loudly instead of mis-parsing it.
"""

from __future__ import annotations

import json

from .engine import LintResult

__all__ = [
    "SCHEMA_VERSION",
    "load_report",
    "render_text",
    "render_json",
    "render_baseline",
]

SCHEMA_VERSION = 4


def render_text(result: LintResult, verbose_hints: bool = True) -> str:
    """Classic ``path:line:col: RULE message`` diagnostics plus a summary."""
    lines = []
    for violation in result.violations:
        lines.append(
            f"{violation.path}:{violation.line}:{violation.col}: "
            f"{violation.rule} [{violation.severity}] {violation.message}"
        )
        if verbose_hints and violation.fix_hint:
            lines.append(f"    hint: {violation.fix_hint}")
    if result.clean:
        lines.append(
            f"replint: clean — 0 violations in {result.files_checked} files"
            + (f" ({result.suppressed} suppressed)" if result.suppressed else "")
        )
    else:
        lines.append(
            f"replint: {len(result.violations)} violation(s) in "
            f"{result.files_checked} files"
            + (f" ({result.suppressed} suppressed)" if result.suppressed else "")
        )
    return "\n".join(lines)


def render_json(result: LintResult) -> str:
    """Stable machine-readable report (see the golden-file test)."""
    payload = {
        "schema": "replint-report",
        "schema_version": SCHEMA_VERSION,
        "files_checked": result.files_checked,
        "suppressed": result.suppressed,
        "counts": result.counts,
        "violations": [
            {
                "path": v.path,
                "line": v.line,
                "col": v.col,
                "rule": v.rule,
                "severity": v.severity,
                "message": v.message,
                "fix_hint": v.fix_hint,
                "family": v.family,
            }
            for v in result.violations
        ],
    }
    return json.dumps(payload, indent=2, sort_keys=True)


def load_report(text: str) -> dict:
    """Parse a replint JSON report, rejecting schema mismatches loudly.

    Downstream tooling must never mis-parse an old report as a new one:
    a v1 report has no ``family`` field, a v2 report names rule REP112
    and carries ``chain`` witnesses no current rule produces, a v3
    report counts rule REP114 and says whether a subset run skipped it.
    Anything but the current ``SCHEMA_VERSION`` raises
    :class:`ValueError`.
    """
    payload = json.loads(text)
    if not isinstance(payload, dict) or payload.get("schema") != "replint-report":
        raise ValueError("not a replint report (missing schema marker)")
    version = payload.get("schema_version")
    if version != SCHEMA_VERSION:
        raise ValueError(
            f"unsupported replint report schema_version={version!r}: this "
            f"reader requires v{SCHEMA_VERSION} — regenerate the report "
            "with the current linter"
        )
    return payload


def render_baseline(result: LintResult) -> str:
    """Rule-by-rule count ledger (``benchmarks/results/lint_baseline.txt``)."""
    lines = [
        "# replint baseline — violations per rule",
        "# regenerate: PYTHONPATH=src python -m repro.lint "
        "--baseline benchmarks/results/lint_baseline.txt src benchmarks",
    ]
    for rule_id in sorted(result.counts):
        lines.append(f"{rule_id} {result.counts[rule_id]}")
    lines.append(f"total {len(result.violations)}")
    return "\n".join(lines) + "\n"
