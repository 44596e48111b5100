"""Text and JSON reporters for replint results.

The JSON schema is versioned and covered by a golden-file test — treat
any key change as a schema bump (``SCHEMA_VERSION``).  Version 4 has
path/line/col/rule/severity/message/fix_hint/family per violation.
"""

from __future__ import annotations

import json

from .engine import LintResult

__all__ = ["SCHEMA_VERSION", "render_text", "render_json"]

SCHEMA_VERSION = 4


def render_text(result: LintResult) -> str:
    """Classic ``path:line:col: RULE message`` diagnostics plus a summary."""
    lines = []
    for violation in result.violations:
        lines.append(
            f"{violation.path}:{violation.line}:{violation.col}: "
            f"{violation.rule} [{violation.severity}] {violation.message}"
        )
        if violation.fix_hint:
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
