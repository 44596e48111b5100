"""REP108 — protocol exhaustiveness over the frame vocabulary.

The frame vocabulary lives in ``core/frames.py``.  The machines of
``service/machines.py`` decide every protocol question in it; their
drivers — the simulated transfer (``core/base.py``), the socket
endpoints (``udpnet/``), the concurrent service (``service/``) — carry
the frames, and ``core/wire.py`` is the codec between real machines.
Adding a frame kind without teaching the rest of the system about it is
exactly the kind of silent protocol drift the paper's controlled
comparisons cannot tolerate, so this rule checks, by class-body
inspection:

1. **coverage** — every frame class declared in ``core/frames.py`` is
   referenced by at least one protocol class (a declared-but-unhandled
   frame is dead protocol surface);
2. **codec completeness** — ``core/wire.py`` mentions every frame class
   and every ``FrameKind`` member (a frame that cannot cross the wire
   breaks the UDP transports the moment someone sends it);
3. **per-class coherence** — a protocol class that speaks ``NakFrame``
   must also speak ``AckFrame`` (a NAK path without the positive-ack
   path cannot terminate), and a class that requests replies
   (``wants_reply=True``) must handle ``AckFrame``.

"Protocol class" means: a public, top-level class in ``core/``,
``service/`` or ``udpnet/`` (excluding ``frames.py`` and ``wire.py``
themselves) whose body references at least one frame class.  Private
helper classes are exempt.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Sequence, Set, Tuple

from .engine import FileContext, Violation
from .rules import Rule

__all__ = ["ProtocolExhaustivenessRule"]

FRAMES_UNIT = "core/frames.py"
WIRE_UNIT = "core/wire.py"
PROTOCOL_SCOPES = ("core", "service", "udpnet")


def _top_level_classes(tree: ast.Module) -> List[ast.ClassDef]:
    return [node for node in tree.body if isinstance(node, ast.ClassDef)]


def _names_in(node) -> Set[str]:
    """Every identifier mentioned in a subtree (Name ids + Attribute attrs)."""
    found: Set[str] = set()
    for child in ast.walk(node):
        if isinstance(child, ast.Name):
            found.add(child.id)
        elif isinstance(child, ast.Attribute):
            found.add(child.attr)
    return found


def _requests_replies(node) -> bool:
    """True if the class body elicits replies (so it must await an ACK)."""
    for child in ast.walk(node):
        if isinstance(child, ast.Call):
            for keyword in child.keywords:
                if (
                    keyword.arg == "wants_reply"
                    and isinstance(keyword.value, ast.Constant)
                    and keyword.value.value is True
                ):
                    return True
    return False


class ProtocolExhaustivenessRule(Rule):
    id = "REP108"
    severity = "error"
    family = "protocol"
    project = True
    title = "frame type declared but not handled by the protocol layer"
    fix_hint = (
        "handle the frame type in every layer that can see it (protocol "
        "classes in core/, service/, udpnet/; codec in core/wire.py), or "
        "remove it from core/frames.py"
    )

    def check_project(self, ctxs: Sequence[FileContext]) -> Iterator[Violation]:
        frames_ctx = next((c for c in ctxs if c.unit == FRAMES_UNIT), None)
        if frames_ctx is None:
            return
        frame_classes: Dict[str, ast.ClassDef] = {
            cls.name: cls
            for cls in _top_level_classes(frames_ctx.tree)
            if cls.name.endswith("Frame") and not cls.name.startswith("_")
        }
        if not frame_classes:
            return
        kind_members = self._frame_kind_members(frames_ctx.tree)

        protocol_classes = self._protocol_classes(ctxs, set(frame_classes))

        # 1. coverage: every declared frame is handled somewhere.
        handled: Set[str] = set()
        for _, _, refs in protocol_classes:
            handled |= refs
        for name, cls in sorted(frame_classes.items()):
            if name not in handled:
                yield self.violation(
                    frames_ctx,
                    cls,
                    f"frame type {name} is declared here but no protocol "
                    "class in core/, service/ or udpnet/ handles it",
                )

        # 2. codec completeness.
        wire_ctx = next((c for c in ctxs if c.unit == WIRE_UNIT), None)
        if wire_ctx is not None:
            wire_names = _names_in(wire_ctx.tree)
            for name, cls in sorted(frame_classes.items()):
                if name not in wire_names:
                    yield self.violation(
                        wire_ctx,
                        wire_ctx.tree.body[0] if wire_ctx.tree.body else wire_ctx.tree,
                        f"codec does not mention frame type {name}; it "
                        "cannot cross the wire",
                    )
            for member in sorted(kind_members):
                if member not in wire_names:
                    yield self.violation(
                        wire_ctx,
                        wire_ctx.tree.body[0] if wire_ctx.tree.body else wire_ctx.tree,
                        f"codec does not dispatch on FrameKind.{member}",
                    )

        # 3. per-class coherence.
        for ctx, cls, refs in protocol_classes:
            if "NakFrame" in refs and "AckFrame" not in refs:
                yield self.violation(
                    ctx,
                    cls,
                    f"class {cls.name} handles NakFrame but never AckFrame "
                    "— the negative path cannot terminate positively",
                )
            if (
                "AckFrame" in frame_classes
                and "AckFrame" not in refs
                and _requests_replies(cls)
            ):
                yield self.violation(
                    ctx,
                    cls,
                    f"class {cls.name} requests replies (wants_reply) but "
                    "never handles AckFrame",
                )

    @staticmethod
    def _frame_kind_members(tree: ast.Module) -> Set[str]:
        for cls in _top_level_classes(tree):
            if cls.name == "FrameKind":
                members: Set[str] = set()
                for stmt in cls.body:
                    if isinstance(stmt, ast.Assign):
                        for target in stmt.targets:
                            if isinstance(target, ast.Name):
                                members.add(target.id)
                return members
        return set()

    @staticmethod
    def _protocol_classes(
        ctxs: Sequence[FileContext], frame_names: Set[str]
    ) -> List[Tuple[FileContext, ast.ClassDef, Set[str]]]:
        found: List[Tuple[FileContext, ast.ClassDef, Set[str]]] = []
        for ctx in ctxs:
            if ctx.unit in (FRAMES_UNIT, WIRE_UNIT):
                continue
            if not any(ctx.in_dir(scope) for scope in PROTOCOL_SCOPES):
                continue
            for cls in _top_level_classes(ctx.tree):
                if cls.name.startswith("_"):
                    continue
                refs = _names_in(cls) & frame_names
                if refs:
                    found.append((ctx, cls, refs))
        return found
