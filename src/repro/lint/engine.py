"""replint engine: file discovery, suppression handling, rule driving.

The engine is deliberately stdlib-only (``ast`` + ``tokenize``): it must
run in CI before any optional tooling is installed.  A lint run is

1. collect ``*.py`` files under the given roots,
2. parse each into a :class:`FileContext` (AST + suppression comments),
3. run every rule on every context (each rule reads one file),
4. drop violations the source suppressed inline, and
5. hand the sorted remainder to a reporter.

Suppression syntax (checked against the rule registry — unknown ids are
themselves reported as ``REP100``):

- ``# replint: disable=REP104`` on the flagged line, or
- ``# replint: disable-file=REP104`` anywhere in the file, or
- ``disable=all`` to silence every rule.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

__all__ = [
    "META_RULE_ID",
    "FileContext",
    "LintResult",
    "Suppressions",
    "UsageError",
    "Violation",
    "run_lint",
]

#: Rule id reserved for the linter's own diagnostics (unparseable file,
#: unknown rule id named in a suppression comment).
META_RULE_ID = "REP100"

#: Directory names never descended into during file discovery.
SKIP_DIRS = {"__pycache__", ".git", ".venv", "node_modules"}

_SUPPRESS_RE = re.compile(
    r"#\s*replint:\s*(disable-file|disable)\s*=\s*([A-Za-z0-9_,\s]+)"
)


class UsageError(ValueError):
    """Bad invocation (unknown rule id in ``--select``/``--ignore``)."""


@dataclass(frozen=True)
class Violation:
    """One diagnostic, addressable as ``path:line:col``."""

    path: str
    line: int
    col: int
    rule: str
    severity: str
    message: str
    fix_hint: str = ""
    #: Rule family (meta/determinism/parallelism/numerics/robustness/
    #: performance) — surfaced in the JSON report.
    family: str = ""

    def sort_key(self) -> Tuple[str, int, int, str]:
        return (self.path, self.line, self.col, self.rule)


@dataclass
class Suppressions:
    """Inline ``# replint:`` directives of one file."""

    file_level: Set[str] = field(default_factory=set)
    by_line: Dict[int, Set[str]] = field(default_factory=dict)

    def hides(self, violation: Violation) -> bool:
        if violation.rule == META_RULE_ID:
            return False  # the linter's own diagnostics are not silenceable
        for ids in (self.file_level, self.by_line.get(violation.line, ())):
            if "ALL" in ids or violation.rule in ids:
                return True
        return False


class FileContext:
    """One parsed source file plus everything rules need to scope it."""

    def __init__(self, path: Path, root: Path, text: str, tree: ast.Module):
        self.path = path
        self.text = text
        self.tree = tree
        self.display = _display_path(path)
        self.unit = _unit_path(root, path)
        self.suppressions = Suppressions()

    def in_dir(self, name: str) -> bool:
        """True when the file lives under package directory ``name``."""
        return self.unit.startswith(name + "/")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<FileContext {self.unit}>"


@dataclass(frozen=True)
class LintResult:
    """Outcome of one lint run."""

    violations: Tuple[Violation, ...]
    files_checked: int
    suppressed: int
    counts: Dict[str, int]

    @property
    def clean(self) -> bool:
        return not self.violations


def _display_path(path: Path) -> str:
    """Path as printed in diagnostics: cwd-relative when possible."""
    try:
        return path.resolve().relative_to(Path.cwd()).as_posix()
    except ValueError:
        return path.as_posix()


def _unit_path(root: Path, path: Path) -> str:
    """Package-relative path used for rule scoping.

    ``src/repro/sim/events.py`` → ``sim/events.py`` whatever the lint
    root was (``.``, ``src``, ``src/repro/sim`` or the file itself);
    ``benchmarks/foo.py`` keeps its ``benchmarks/`` prefix even when the
    root *is* the benchmarks directory.  Anything else is root-relative,
    which is what the test fixtures rely on.
    """
    for package in path.resolve().parents:
        if package.name == "repro" and (package / "__init__.py").is_file():
            return path.resolve().relative_to(package).as_posix()
    rel = path.relative_to(root)
    parts = rel.parts
    if root.name == "benchmarks":
        return "benchmarks/" + rel.as_posix()
    if "benchmarks" in parts:
        return "/".join(parts[parts.index("benchmarks") :])
    return rel.as_posix()


def iter_python_files(roots: Sequence[Path]) -> List[Tuple[Path, Path]]:
    """Yield ``(root, file)`` pairs for every ``.py`` file under ``roots``."""
    found: List[Tuple[Path, Path]] = []
    seen: Set[Path] = set()
    for root in roots:
        root = Path(root)
        if root.is_file():
            resolved = root.resolve()
            if resolved not in seen:
                seen.add(resolved)
                found.append((root.parent, root))
            continue
        if not root.is_dir():
            raise UsageError(f"no such file or directory: {root}")
        for path in sorted(root.rglob("*.py")):
            if any(
                part in SKIP_DIRS or part.startswith(".")
                for part in path.relative_to(root).parts[:-1]
            ):
                continue
            resolved = path.resolve()
            if resolved in seen:
                continue
            seen.add(resolved)
            found.append((root, path))
    return found


def _scan_suppressions(
    ctx: FileContext, known_ids: Set[str]
) -> List[Violation]:
    """Populate ``ctx.suppressions``; return REP100s for unknown ids."""
    problems: List[Violation] = []
    try:
        tokens = list(tokenize.generate_tokens(io.StringIO(ctx.text).readline))
    except (tokenize.TokenError, IndentationError):  # pragma: no cover
        return problems
    for token in tokens:
        if token.type != tokenize.COMMENT:
            continue
        match = _SUPPRESS_RE.search(token.string)
        if match is None:
            continue
        directive, id_list = match.groups()
        target = (
            ctx.suppressions.file_level
            if directive == "disable-file"
            else ctx.suppressions.by_line.setdefault(token.start[0], set())
        )
        for raw in id_list.split(","):
            rule_id = raw.strip().upper()
            if not rule_id:
                continue
            if rule_id != "ALL" and rule_id not in known_ids:
                problems.append(
                    Violation(
                        path=ctx.display,
                        line=token.start[0],
                        col=token.start[1],
                        rule=META_RULE_ID,
                        severity="error",
                        message=(
                            f"unknown rule id {rule_id!r} in replint "
                            "suppression comment"
                        ),
                        fix_hint="valid ids are "
                        + ", ".join(sorted(known_ids)),
                        family="meta",
                    )
                )
                continue
            target.add(rule_id)
    return problems


def _select_rules(rules, select, ignore, known_ids: Set[str]):
    def _validate(which: str, ids: Optional[Iterable[str]]) -> Set[str]:
        wanted = {i.strip().upper() for i in ids or () if i.strip()}
        unknown = wanted - known_ids
        if unknown:
            raise UsageError(
                f"unknown rule id(s) in --{which}: "
                + ", ".join(sorted(unknown))
                + "; valid ids are "
                + ", ".join(sorted(known_ids))
            )
        return wanted

    selected = _validate("select", select)
    ignored = _validate("ignore", ignore)
    active = []
    for rule in rules:
        if selected and rule.id not in selected:
            continue
        if rule.id in ignored:
            continue
        active.append(rule)
    return active


def _unparseable(path: Path, line: int, col: int, why: str) -> Violation:
    return Violation(
        path=_display_path(path),
        line=line,
        col=col,
        rule=META_RULE_ID,
        severity="error",
        message=f"file does not parse: {why}",
        fix_hint="fix the syntax error; unparseable files cannot be analysed",
        family="meta",
    )


def run_lint(
    paths: Sequence,
    select: Optional[Iterable[str]] = None,
    ignore: Optional[Iterable[str]] = None,
) -> LintResult:
    """Lint every python file under ``paths`` and return the result.

    ``select``/``ignore`` are iterables of rule ids; naming an unknown id
    raises :class:`UsageError` (the CLI maps that to exit code 2).  A
    file is decoded as Python decodes it (a PEP 263 coding cookie, a
    UTF-8 BOM, else UTF-8); one that cannot be decoded or parsed is a
    ``REP100`` finding, not a crash.
    """
    from .rules import all_rules

    rules = all_rules()
    known_ids = {rule.id for rule in rules} | {META_RULE_ID}
    active = _select_rules(rules, select, ignore, known_ids)

    by_display: Dict[str, Suppressions] = {}
    violations: List[Violation] = []
    files_checked = 0
    for root, path in iter_python_files([Path(p) for p in paths]):
        source = path.read_bytes()
        files_checked += 1
        try:
            encoding, _ = tokenize.detect_encoding(io.BytesIO(source).readline)
            text = source.decode(encoding)
            tree = ast.parse(text, filename=str(path))
        except UnicodeDecodeError as exc:
            line = source.count(b"\n", 0, exc.start) + 1
            violations.append(_unparseable(path, line, 0, str(exc)))
            continue
        except SyntaxError as exc:
            violations.append(_unparseable(
                path, exc.lineno or 1, (exc.offset or 1) - 1, exc.msg))
            continue
        ctx = FileContext(path, Path(root), text, tree)
        violations.extend(_scan_suppressions(ctx, known_ids))
        for rule in active:
            violations.extend(rule.check_file(ctx))
        by_display[ctx.display] = ctx.suppressions

    kept: List[Violation] = []
    suppressed = 0
    for violation in violations:
        suppressions = by_display.get(violation.path)
        if suppressions is not None and suppressions.hides(violation):
            suppressed += 1
        else:
            kept.append(violation)
    kept.sort(key=Violation.sort_key)

    counts = {rule_id: 0 for rule_id in sorted(known_ids)}
    for violation in kept:
        counts[violation.rule] += 1
    return LintResult(
        violations=tuple(kept),
        files_checked=files_checked,
        suppressed=suppressed,
        counts=counts,
    )
