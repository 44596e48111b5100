"""Static protocol state-machine extraction and model checking (REP114).

The paper's protocols are frame-driven state machines: a sender or
receiver sits in a loop, dispatches on the kind of the next frame, and
flips terminal flags (``done``/``failed``) when the transfer resolves.
This module recovers those machines from the AST — every class in
``service/machines.py`` and ``service/pullclient.py`` plus every
public protocol driver under ``udpnet/`` that speaks the frame
vocabulary — and model-checks each one against the frame-kind
inventory of ``core/frames.py``.  A machine's base chain is found by
class name among those same units, which hold every machine base.

1. **Exhaustiveness** — every :class:`FrameKind` member must be
   *dispatched* (an ``isinstance(frame, XFrame)`` check anywhere in the
   class or its base chain), *spoken* (the class or a base constructs
   or references the frame class), or *explicitly ignored* via a
   declared class attribute::

       FSM_IGNORES = (FrameKind.CONTROL,)   # not part of this machine

2. **Coherence** — a kind listed in ``FSM_IGNORES`` that the class's
   own body nevertheless dispatches on is a contradiction.

3. **Terminal absorption** — when a machine owns plain boolean
   terminal flags (``done``/``failed`` assigned in ``__init__``), some
   reachable statement must set the flag truthy (otherwise the terminal
   state is unreachable), and no method outside the constructor may
   reset it to ``False`` (a terminal state must be absorbing).
   Machines whose ``done`` is a property derive termination; they are
   exempt from the flag checks and marked ``derived`` in the matrix.

4. **Reply coherence** — a machine that speaks NAK, or that sends
   ``wants_reply=True`` data, must also handle or speak ACK: a negative
   path without the positive one cannot terminate.

and checks the vocabulary as a whole:

5. **Dispatch coverage** — every ``FrameKind`` is dispatched on by at
   least one machine (a kind nobody dispatches is dead protocol
   surface);
6. **Codec completeness** — ``core/wire.py`` names every frame class
   and every ``FrameKind`` member (a frame that cannot cross the wire
   breaks the UDP transports the moment someone sends it).

The extracted machines render as a byte-stable matrix artifact
(machines × frame kinds), goldened under ``benchmarks/results/`` the
same way as the conformance ledger — see ``--fsm-matrix`` on the CLI.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from .engine import FileContext, Violation, iter_python_files
from .rules import Rule

__all__ = [
    "FsmExhaustivenessRule",
    "FsmReport",
    "MachineModel",
    "analyze_fsm",
    "render_fsm_matrix",
    "matrix_for_paths",
]

#: Where the frame vocabulary and its codec live.
FRAMES_UNIT = "core/frames.py"
WIRE_UNIT = "core/wire.py"

#: Units whose classes are candidate machines.
MACHINE_UNITS = ("service/machines.py", "service/pullclient.py")
MACHINE_DIRS = ("udpnet",)

#: The declared-ignore class attribute and the terminal-flag vocabulary.
IGNORE_ATTR = "FSM_IGNORES"
TERMINAL_FLAGS = ("done", "failed")

_CTOR_METHODS = frozenset(("__init__", "__post_init__", "__new__"))


@dataclass
class ClassDef:
    """One top-level class of a machine unit."""

    qname: str
    ctx: FileContext
    node: ast.ClassDef


@dataclass
class MachineModel:
    """One extracted protocol machine and its per-kind coverage."""

    qname: str
    handled: Set[str] = field(default_factory=set)
    spoken: Set[str] = field(default_factory=set)
    ignored: Set[str] = field(default_factory=set)
    terminal: str = "-"

    def cell(self, kind: str) -> str:
        """Matrix cell: ``h`` > ``s`` > ``i`` > ``.`` precedence."""
        if kind in self.handled:
            return "h"
        if kind in self.spoken:
            return "s"
        if kind in self.ignored:
            return "i"
        return "."


@dataclass
class FsmReport:
    """Everything :func:`analyze_fsm` extracts from one context set."""

    kinds: Tuple[str, ...]
    machines: List[MachineModel]
    #: ``(ctx, node, message)`` triples for the REP114 rule to wrap.
    problems: List[Tuple[FileContext, ast.AST, str]]


def _frame_inventory(
    ctxs: Sequence[FileContext],
) -> Optional[Tuple[FileContext, Dict[str, ast.AST], Dict[str, str]]]:
    """``(frames unit, kind name → its FrameKind statement, frame-class
    name → kind name)`` in declaration order, or None."""
    frames_ctx = next((c for c in ctxs if c.unit == FRAMES_UNIT), None)
    if frames_ctx is None:
        return None
    kinds: Dict[str, ast.AST] = {}
    for stmt in frames_ctx.tree.body:
        if isinstance(stmt, ast.ClassDef) and stmt.name == "FrameKind":
            for sub in stmt.body:
                targets: List[ast.expr] = []
                if isinstance(sub, ast.Assign):
                    targets = sub.targets
                elif isinstance(sub, ast.AnnAssign):
                    targets = [sub.target]
                for target in targets:
                    if isinstance(target, ast.Name) and not target.id.startswith("_"):
                        kinds[target.id] = sub
    if not kinds:
        return None
    class_to_kind: Dict[str, str] = {}
    for stmt in frames_ctx.tree.body:
        if not (isinstance(stmt, ast.ClassDef) and stmt.name.endswith("Frame")):
            continue
        kind = _declared_kind(stmt)
        if kind is None:
            kind = stmt.name[: -len("Frame")].upper()
        if kind in kinds:
            class_to_kind[stmt.name] = kind
    return frames_ctx, kinds, class_to_kind


def _declared_kind(classdef: ast.ClassDef) -> Optional[str]:
    """The ``FrameKind.X`` a class's ``kind`` property returns, if any."""
    for stmt in classdef.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                and stmt.name == "kind":
            for node in ast.walk(stmt):
                if (
                    isinstance(node, ast.Return)
                    and isinstance(node.value, ast.Attribute)
                    and isinstance(node.value.value, ast.Name)
                    and node.value.value.id == "FrameKind"
                ):
                    return node.value.attr
    return None


def _isinstance_frame_names(body: ast.AST, frame_names: Set[str]) -> Set[str]:
    """Frame classes dispatched on via ``isinstance`` in ``body``."""
    out: Set[str] = set()
    for node in ast.walk(body):
        if not (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "isinstance"
            and len(node.args) == 2
        ):
            continue
        spec = node.args[1]
        names = spec.elts if isinstance(spec, ast.Tuple) else [spec]
        for name in names:
            if isinstance(name, ast.Name) and name.id in frame_names:
                out.add(name.id)
    return out


def _referenced_frame_names(body: ast.AST, frame_names: Set[str]) -> Set[str]:
    return {
        node.id
        for node in ast.walk(body)
        if isinstance(node, ast.Name) and node.id in frame_names
    }


def _declared_ignores(
    classdef: ast.ClassDef,
) -> List[Tuple[ast.AST, Optional[str]]]:
    """``(node, kind-member-or-None)`` for each FSM_IGNORES element.

    ``None`` marks an element that is not of the ``FrameKind.X`` form.
    """
    out: List[Tuple[ast.AST, Optional[str]]] = []
    for stmt in classdef.body:
        targets: List[ast.expr] = []
        value: Optional[ast.expr] = None
        if isinstance(stmt, ast.Assign):
            targets, value = stmt.targets, stmt.value
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            targets, value = [stmt.target], stmt.value
        if value is None or not any(
            isinstance(t, ast.Name) and t.id == IGNORE_ATTR for t in targets
        ):
            continue
        elements = value.elts if isinstance(value, (ast.Tuple, ast.List)) else [value]
        for element in elements:
            if (
                isinstance(element, ast.Attribute)
                and isinstance(element.value, ast.Name)
                and element.value.id == "FrameKind"
            ):
                out.append((element, element.attr))
            else:
                out.append((element, None))
    return out


def _is_machine_unit(unit: str) -> bool:
    return unit in MACHINE_UNITS or any(
        unit.startswith(d + "/") for d in MACHINE_DIRS
    )


def _machine_classes(ctxs: Sequence[FileContext]) -> Dict[str, ClassDef]:
    """``unit::Name`` → class, for every top-level class of the machine
    units, sorted by that key."""
    classes: Dict[str, ClassDef] = {}
    for ctx in ctxs:
        if _is_machine_unit(ctx.unit):
            for stmt in ctx.tree.body:
                if isinstance(stmt, ast.ClassDef):
                    qname = f"{ctx.unit}::{stmt.name}"
                    classes.setdefault(qname, ClassDef(qname, ctx, stmt))
    return dict(sorted(classes.items()))


def _class_chain(
    cls: ClassDef, by_name: Dict[str, List[ClassDef]]
) -> List[ClassDef]:
    """``cls`` and its bases, depth first and left to right.  A base is
    looked up by its (last) name, in its own unit first; bases outside
    the machine units are left out."""
    chain: List[ClassDef] = []

    def visit(link: ClassDef) -> None:
        if link in chain:
            return
        chain.append(link)
        for base in link.node.bases:
            name = (base.id if isinstance(base, ast.Name)
                    else base.attr if isinstance(base, ast.Attribute)
                    else None)
            found = by_name.get(name, [])
            same_unit = [c for c in found if c.ctx is link.ctx]
            for target in (same_unit or found)[:1]:
                visit(target)

    visit(cls)
    return chain


def _flag_assignments(
    bodies: Sequence[ClassDef], flag: str
) -> List[Tuple[ast.AST, str, bool]]:
    """``(node, method_name, value_is_false)`` for ``self.<flag> = ...``."""
    out: List[Tuple[ast.AST, str, bool]] = []
    for cls in bodies:
        for stmt in cls.node.body:
            if not isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            args = stmt.args.posonlyargs + stmt.args.args
            if not args:
                continue
            self_name = args[0].arg
            for node in ast.walk(stmt):
                if not isinstance(node, ast.Assign):
                    continue
                for target in node.targets:
                    if (
                        isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == self_name
                        and target.attr == flag
                    ):
                        is_false = (
                            isinstance(node.value, ast.Constant)
                            and node.value.value is False
                        )
                        out.append((target, stmt.name, is_false))
    return out


def _requests_replies(bodies: Sequence[ClassDef]) -> bool:
    """True if the chain sends data with ``wants_reply=True``."""
    return any(
        keyword.arg == "wants_reply"
        and isinstance(keyword.value, ast.Constant)
        and keyword.value.value is True
        for cls in bodies
        for node in ast.walk(cls.node)
        if isinstance(node, ast.Call)
        for keyword in node.keywords
    )


def _flag_is_property(bodies: Sequence[ClassDef], flag: str) -> bool:
    for cls in bodies:
        for stmt in cls.node.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                    and stmt.name == flag:
                return True
    return False


def analyze_fsm(ctxs: Sequence[FileContext]) -> Optional[FsmReport]:
    """Extract and model-check every machine; None without a frame unit."""
    inventory = _frame_inventory(ctxs)
    if inventory is None:
        return None
    frames_ctx, kind_nodes, class_to_kind = inventory
    kinds = tuple(kind_nodes)
    frame_names = set(class_to_kind)
    classes = _machine_classes(ctxs)
    by_name: Dict[str, List[ClassDef]] = {}
    for cls in classes.values():
        by_name.setdefault(cls.node.name, []).append(cls)

    machines: List[MachineModel] = []
    problems: List[Tuple[FileContext, ast.AST, str]] = []

    for qname, cls in classes.items():
        name = cls.node.name
        if name.startswith("_"):
            continue
        chain = _class_chain(cls, by_name)
        if not any(
            _referenced_frame_names(c.node, frame_names)
            or any(isinstance(s, (ast.FunctionDef, ast.AsyncFunctionDef))
                   and s.name == "on_frame" for s in c.node.body)
            for c in chain
        ):
            continue

        machine = MachineModel(qname=qname)
        for link in chain:
            for frame_name in _isinstance_frame_names(link.node, frame_names):
                machine.handled.add(class_to_kind[frame_name])
            for frame_name in _referenced_frame_names(link.node, frame_names):
                machine.spoken.add(class_to_kind[frame_name])
        own_handled = {class_to_kind[frame_name] for frame_name
                       in _isinstance_frame_names(cls.node, frame_names)}

        ignored_own: Set[str] = set()
        for link in chain:
            for node, member in _declared_ignores(link.node):
                if member is None or member not in kinds:
                    if link is cls:
                        problems.append((
                            cls.ctx, node,
                            f"{name}.{IGNORE_ATTR} entry is not a known "
                            f"FrameKind member (expected one of: "
                            f"{', '.join(kinds)})",
                        ))
                    continue
                machine.ignored.add(member)
                if link is cls:
                    ignored_own.add(member)

        for member in sorted(ignored_own & own_handled):
            problems.append((
                cls.ctx, cls.node,
                f"machine {name} declares FrameKind.{member} in "
                f"{IGNORE_ATTR} but its own body dispatches on it — "
                "drop the ignore or the handler",
            ))
        missing = [
            kind for kind in kinds
            if machine.cell(kind) == "."
        ]
        if missing:
            problems.append((
                cls.ctx, cls.node,
                f"machine {name} neither handles, speaks, nor "
                f"explicitly ignores FrameKind {', '.join(missing)} — "
                f"handle the frame or declare it in {IGNORE_ATTR}",
            ))
        covered = machine.handled | machine.spoken
        if "ACK" in kinds and "ACK" not in covered:
            if "NAK" in covered:
                problems.append((
                    cls.ctx, cls.node,
                    f"machine {name} speaks NAK but never ACK — the "
                    "negative path cannot terminate positively",
                ))
            if _requests_replies(chain):
                problems.append((
                    cls.ctx, cls.node,
                    f"machine {name} requests replies (wants_reply) "
                    "but never handles ACK",
                ))

        flags_used: List[str] = []
        derived = False
        for flag in TERMINAL_FLAGS:
            if _flag_is_property(chain, flag):
                derived = True
                continue
            assignments = _flag_assignments(chain, flag)
            if not assignments:
                continue
            flags_used.append(flag)
            if not any(not is_false for _n, _m, is_false in assignments):
                problems.append((
                    cls.ctx, cls.node,
                    f"machine {name} can never reach its terminal "
                    f"state: self.{flag} is only ever assigned False",
                ))
            for node, method, is_false in assignments:
                if is_false and method not in _CTOR_METHODS:
                    problems.append((
                        cls.ctx, node,
                        f"machine {name}.{method}() resets terminal "
                        f"flag self.{flag} to False — terminal states "
                        "must be absorbing",
                    ))
        if flags_used:
            machine.terminal = ",".join(flags_used)
        elif derived:
            machine.terminal = "derived"
        machines.append(machine)

    for kind, node in kind_nodes.items():
        if not any(kind in machine.handled for machine in machines):
            problems.append((
                frames_ctx, node,
                f"FrameKind.{kind} is declared here but no machine "
                "dispatches on it",
            ))
    wire_ctx = next((c for c in ctxs if c.unit == WIRE_UNIT), None)
    if wire_ctx is not None:
        named = {
            node.id if isinstance(node, ast.Name) else node.attr
            for node in ast.walk(wire_ctx.tree)
            if isinstance(node, (ast.Name, ast.Attribute))
        }
        anchor = wire_ctx.tree.body[0] if wire_ctx.tree.body else wire_ctx.tree
        for name in sorted(frame_names - named):
            problems.append((
                wire_ctx, anchor,
                f"codec does not mention frame type {name}; it cannot "
                "cross the wire",
            ))
        for kind in kinds:
            if kind not in named:
                problems.append((
                    wire_ctx, anchor,
                    f"codec does not dispatch on FrameKind.{kind}",
                ))
    return FsmReport(kinds=kinds, machines=machines, problems=problems)


class FsmExhaustivenessRule(Rule):
    """REP114 — FSM exhaustiveness / terminal-absorption model check."""

    id = "REP114"
    severity = "error"
    family = "protocol"
    project = True
    title = "protocol machine fails the FSM exhaustiveness model check"
    fix_hint = (
        "handle the frame kind in on_frame/the receive loop, or declare "
        "FSM_IGNORES = (FrameKind.X, ...) on the machine; keep terminal "
        "done/failed flags absorbing (never reset outside __init__); "
        "teach core/wire.py every frame kind"
    )

    def check_project(self, ctxs: Sequence[FileContext]) -> Iterator[Violation]:
        report = analyze_fsm(ctxs)
        if report is None:
            return
        for ctx, node, message in report.problems:
            yield self.violation(ctx, node, message)


def render_fsm_matrix(report: Optional[FsmReport]) -> str:
    """Byte-stable machines × frame-kinds coverage table."""
    header = [
        "# replint FSM matrix — protocol machines × frame kinds (REP114)",
        "# regenerate: PYTHONPATH=src python -m repro.lint "
        "--fsm-matrix benchmarks/results/fsm_matrix.txt src benchmarks",
        "# cells: h=dispatches on it  s=constructs/speaks it  "
        "i=explicitly ignored (FSM_IGNORES)  .=uncovered (REP114 fires)",
        "# terminal: plain done/failed flags (absorption-checked), "
        "'derived' when termination is a property, '-' when stateless",
    ]
    if report is None:
        return "\n".join(header + ["# no core/frames.py in lint scope"]) + "\n"
    rows = [("machine", *report.kinds, "terminal")]
    uncovered = 0
    for machine in sorted(report.machines, key=lambda m: m.qname):
        cells = [machine.cell(kind) for kind in report.kinds]
        uncovered += cells.count(".")
        rows.append((machine.qname, *cells, machine.terminal))
    widths = [
        max(len(row[col]) for row in rows) for col in range(len(rows[0]))
    ]
    lines = list(header)
    for row in rows:
        lines.append(
            "  ".join(cell.ljust(width) for cell, width in zip(row, widths)).rstrip()
        )
    lines.append(
        f"# machines={len(report.machines)} kinds={len(report.kinds)} "
        f"uncovered={uncovered}"
    )
    return "\n".join(lines) + "\n"


def matrix_for_paths(paths: Sequence) -> str:
    """Discover, parse and render the FSM matrix for ``paths``."""
    ctxs: List[FileContext] = []
    for root, path in iter_python_files([Path(p) for p in paths]):
        try:
            tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        except SyntaxError:
            continue
        ctxs.append(FileContext(path, Path(root), path.read_text(encoding="utf-8"), tree))
    return render_fsm_matrix(analyze_fsm(ctxs))
