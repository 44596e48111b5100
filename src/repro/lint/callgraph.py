"""Conservative project-wide call graph over parsed :class:`FileContext`\\ s.

This is the cross-module backbone of the whole-program rules (REP112
transitive blocking calls, REP113 seed provenance, REP114 FSM model
checking): a *witness-producing* approximation of "who can call whom",
built purely from the ASTs the engine already parsed.

Soundness stance (documented in ``docs/static-analysis.md``):

- **Resolved**: absolute and relative project imports (including
  aliased imports and chained re-exports), module-level functions,
  class construction (edges into ``__init__`` through the MRO),
  ``self.method()`` / ``cls.method()`` through a cross-module MRO,
  nested ``def``\\ s (qualified ``outer.<locals>.inner``), and dotted
  external calls (``time.sleep`` → an *external* call site).
- **Not resolved**: calls through arbitrary attribute chains
  (``self.io.recv_batch()``), first-class function values, and
  ``getattr``.  These become *attr* call sites carrying just the
  attribute name, so rules can still pattern-match conservative sinks
  (a ``.recv()`` on *anything* is suspicious inside ``service/``).

Function nodes are keyed by a stable qualified name::

    service/engine.py::ServiceCore.poll
    core/base.py::reassemble
    service/udpservice.py::serve.<locals>.flush

:func:`CallGraph.find_chains` runs a breadth-first reachability walk
from an entry point and returns the *shortest* call-chain witness per
distinct sink — the chains REP112/REP113 publish in the JSON report.
"""

from __future__ import annotations

import ast
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .engine import FileContext

__all__ = [
    "CallGraph",
    "CallSite",
    "ClassInfo",
    "FunctionInfo",
    "build_call_graph",
    "module_name",
]

#: The project package whose name is stripped from absolute imports so
#: they land in the same unit space as relative ones.
_PACKAGE = "repro"


def module_name(unit: str) -> str:
    """Dotted module for a unit path: ``service/engine.py`` →
    ``service.engine``; a package ``__init__.py`` names the package."""
    parts = unit[:-3].split("/") if unit.endswith(".py") else unit.split("/")
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


def _strip_package(dotted: str) -> str:
    if dotted == _PACKAGE:
        return ""
    if dotted.startswith(_PACKAGE + "."):
        return dotted[len(_PACKAGE) + 1 :]
    return dotted


@dataclass
class CallSite:
    """One call expression, classified by how far resolution got.

    ``kind`` is ``"project"`` (a resolved project function — ``target``
    is its qname), ``"construct"`` (a resolved project class —
    ``target`` is the class qname), ``"external"`` (a dotted call
    outside the project — ``target`` like ``time.sleep``), or
    ``"attr"`` (an unresolvable method call — ``target`` is the bare
    attribute name).
    """

    kind: str
    target: str
    node: ast.Call

    def label(self) -> str:
        """Human-readable chain element for witness output."""
        if self.kind == "attr":
            return f".{self.target}()"
        return self.target


@dataclass
class FunctionInfo:
    """One function/method definition in the project."""

    qname: str
    unit: str
    ctx: FileContext
    name: str
    qual: str
    cls: Optional[str]  # owning class qname, if a method
    node: ast.AST
    calls: List[CallSite] = field(default_factory=list)


@dataclass
class ClassInfo:
    """One class definition plus its resolved project bases."""

    qname: str
    unit: str
    ctx: FileContext
    name: str
    node: ast.ClassDef
    base_qnames: List[Optional[str]] = field(default_factory=list)
    methods: Dict[str, FunctionInfo] = field(default_factory=dict)


def _own_nodes(root: ast.AST):
    """Walk ``root`` without descending into nested defs/classes."""
    stack = list(ast.iter_child_nodes(root))
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        yield node
        stack.extend(ast.iter_child_nodes(node))


class CallGraph:
    """Project call graph; build via :func:`build_call_graph`."""

    def __init__(self) -> None:
        self.functions: Dict[str, FunctionInfo] = {}
        self.classes: Dict[str, ClassInfo] = {}
        self.modules: Dict[str, FileContext] = {}
        self._symbols: Dict[str, Dict[str, Tuple[str, str]]] = {}
        self._imports: Dict[str, Dict[str, str]] = {}
        self._mro_cache: Dict[str, Tuple[ClassInfo, ...]] = {}

    # -- construction ------------------------------------------------------
    def _build(self, ctxs: Sequence[FileContext]) -> None:
        for ctx in ctxs:
            mod = module_name(ctx.unit)
            if mod not in self.modules:
                self.modules[mod] = ctx
        for ctx in ctxs:
            mod = module_name(ctx.unit)
            if self.modules.get(mod) is not ctx:
                continue
            self._imports[mod] = self._import_table(ctx)
            self._index_module(ctx, mod)
        for info in self.classes.values():
            self._resolve_bases(info)
        for ctx in ctxs:
            mod = module_name(ctx.unit)
            if self.modules.get(mod) is not ctx:
                continue
            self._resolve_module_calls(ctx, mod)

    def _import_table(self, ctx: FileContext) -> Dict[str, str]:
        """Local name → dotted path in unit space (``repro.`` stripped)."""
        parts = ctx.unit[:-3].split("/")
        is_pkg = parts[-1] == "__init__"
        mod_parts = parts[:-1] if is_pkg else parts
        pkg = mod_parts if is_pkg else mod_parts[:-1]
        table: Dict[str, str] = {}
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.asname:
                        table[alias.asname] = _strip_package(alias.name)
                    else:
                        head = alias.name.split(".")[0]
                        table[head] = _strip_package(head)
            elif isinstance(node, ast.ImportFrom):
                if node.level == 0:
                    base = _strip_package(node.module or "")
                else:
                    hops = node.level - 1
                    if hops > len(pkg):
                        continue  # escapes the lint root; unresolvable
                    anchor = pkg[: len(pkg) - hops] if hops else list(pkg)
                    tail = node.module.split(".") if node.module else []
                    base = ".".join(anchor + tail)
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    local = alias.asname or alias.name
                    table[local] = f"{base}.{alias.name}" if base else alias.name
        return table

    def _index_module(self, ctx: FileContext, mod: str) -> None:
        symbols: Dict[str, Tuple[str, str]] = {}
        self._symbols[mod] = symbols
        for stmt in ctx.tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                info = self._register_function(ctx, stmt, stmt.name, None)
                symbols[stmt.name] = ("func", info.qname)
                self._register_nested(ctx, stmt, stmt.name, None)
            elif isinstance(stmt, ast.ClassDef):
                qname = f"{ctx.unit}::{stmt.name}"
                cls = ClassInfo(
                    qname=qname, unit=ctx.unit, ctx=ctx,
                    name=stmt.name, node=stmt,
                )
                self.classes[qname] = cls
                symbols[stmt.name] = ("class", qname)
                for sub in stmt.body:
                    if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        qual = f"{stmt.name}.{sub.name}"
                        info = self._register_function(ctx, sub, qual, qname)
                        cls.methods[sub.name] = info
                        self._register_nested(ctx, sub, qual, qname)

    def _register_function(
        self, ctx: FileContext, node, qual: str, cls: Optional[str]
    ) -> FunctionInfo:
        qname = f"{ctx.unit}::{qual}"
        info = FunctionInfo(
            qname=qname, unit=ctx.unit, ctx=ctx,
            name=qual.rsplit(".", 1)[-1], qual=qual, cls=cls, node=node,
        )
        self.functions[qname] = info
        return info

    def _register_nested(self, ctx, parent, parent_qual: str, cls) -> None:
        for child in self._direct_defs(parent):
            qual = f"{parent_qual}.<locals>.{child.name}"
            self._register_function(ctx, child, qual, cls)
            self._register_nested(ctx, child, qual, cls)

    @staticmethod
    def _direct_defs(root) -> List[ast.AST]:
        """Function defs belonging to ``root``'s own body (not deeper)."""
        out = []
        stack = list(ast.iter_child_nodes(root))
        while stack:
            node = stack.pop()
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                out.append(node)
                continue
            if isinstance(node, ast.ClassDef):
                continue
            stack.extend(ast.iter_child_nodes(node))
        out.sort(key=lambda n: (n.lineno, n.col_offset))
        return out

    def _resolve_bases(self, info: ClassInfo) -> None:
        mod = module_name(info.unit)
        for base in info.node.bases:
            resolved = self._resolve_expr(base, mod)
            if resolved is not None and resolved[0] == "class":
                info.base_qnames.append(resolved[1])
            else:
                info.base_qnames.append(None)

    # -- name resolution ---------------------------------------------------
    def _resolve_dotted(self, dotted: str, depth: int = 0) -> Tuple[str, str]:
        """Classify a dotted path: project func/class, module, or external."""
        if depth > 10 or not dotted:
            return ("external", dotted)
        if dotted in self.modules:
            return ("module", dotted)
        if "." not in dotted:
            return ("external", dotted)
        head, tail = dotted.rsplit(".", 1)
        kind, resolved = self._resolve_dotted(head, depth + 1)
        if kind == "module":
            symbol = self._symbols.get(resolved, {}).get(tail)
            if symbol is not None:
                return symbol
            reexport = self._imports.get(resolved, {}).get(tail)
            if reexport is not None:
                return self._resolve_dotted(reexport, depth + 1)
            return ("external", dotted)
        if kind == "class":
            method = self.resolve_method(resolved, tail)
            if method is not None:
                return ("func", method.qname)
        return ("external", dotted)

    def _resolve_expr(self, node, mod: str) -> Optional[Tuple[str, str]]:
        """Resolve a Name/Attribute expression in module ``mod``."""
        if isinstance(node, ast.Name):
            symbol = self._symbols.get(mod, {}).get(node.id)
            if symbol is not None:
                return symbol
            dotted = self._imports.get(mod, {}).get(node.id)
            if dotted is not None:
                return self._resolve_dotted(dotted)
            return None
        if isinstance(node, ast.Attribute):
            parts = []
            probe = node
            while isinstance(probe, ast.Attribute):
                parts.append(probe.attr)
                probe = probe.value
            if not isinstance(probe, ast.Name):
                return None
            head = self._imports.get(mod, {}).get(probe.id)
            if head is None:
                symbol = self._symbols.get(mod, {}).get(probe.id)
                if symbol is not None and symbol[0] == "class" and len(parts) == 1:
                    method = self.resolve_method(symbol[1], parts[0])
                    if method is not None:
                        return ("func", method.qname)
                return None
            dotted = ".".join([head] + list(reversed(parts))) if head else ".".join(reversed(parts))
            return self._resolve_dotted(dotted)
        return None

    # -- call extraction ---------------------------------------------------
    def _resolve_module_calls(self, ctx: FileContext, mod: str) -> None:
        for stmt in ctx.tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._extract_calls(ctx, mod, stmt, stmt.name, [])
            elif isinstance(stmt, ast.ClassDef):
                for sub in stmt.body:
                    if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        self._extract_calls(
                            ctx, mod, sub, f"{stmt.name}.{sub.name}", []
                        )

    def _extract_calls(self, ctx, mod, node, qual, scopes) -> None:
        info = self.functions[f"{ctx.unit}::{qual}"]
        local = {
            child.name: f"{ctx.unit}::{qual}.<locals>.{child.name}"
            for child in self._direct_defs(node)
        }
        frame = scopes + [local]
        calls = [
            n for n in _own_nodes(node) if isinstance(n, ast.Call)
        ]
        calls.sort(key=lambda n: (n.lineno, n.col_offset))
        for call in calls:
            site = self._classify_call(call, mod, info, frame)
            if site is not None:
                info.calls.append(site)
                if site.kind == "construct":
                    init = self.resolve_method(site.target, "__init__")
                    if init is not None:
                        info.calls.append(
                            CallSite("project", init.qname, call)
                        )
        for child in self._direct_defs(node):
            self._extract_calls(
                ctx, mod, child, f"{qual}.<locals>.{child.name}", frame
            )

    def _classify_call(self, call, mod, info, scopes) -> Optional[CallSite]:
        func = call.func
        if isinstance(func, ast.Name):
            for scope in reversed(scopes):
                if func.id in scope:
                    return CallSite("project", scope[func.id], call)
            resolved = self._resolve_expr(func, mod)
            if resolved is None:
                return None  # builtin or unknown local value
            kind, target = resolved
            if kind == "func":
                return CallSite("project", target, call)
            if kind == "class":
                return CallSite("construct", target, call)
            if kind == "external":
                return CallSite("external", target, call)
            return None
        if isinstance(func, ast.Attribute):
            if isinstance(func.value, ast.Name) and func.value.id in ("self", "cls"):
                if info.cls is not None:
                    method = self.resolve_method(info.cls, func.attr)
                    if method is not None:
                        return CallSite("project", method.qname, call)
                return CallSite("attr", func.attr, call)
            resolved = self._resolve_expr(func, mod)
            if resolved is not None:
                kind, target = resolved
                if kind == "func":
                    return CallSite("project", target, call)
                if kind == "class":
                    return CallSite("construct", target, call)
                if kind == "external":
                    return CallSite("external", target, call)
                return None
            return CallSite("attr", func.attr, call)
        return None

    # -- queries -----------------------------------------------------------
    def mro(self, qname: str) -> Tuple[ClassInfo, ...]:
        """Depth-first left-to-right linearization (cycle-safe)."""
        cached = self._mro_cache.get(qname)
        if cached is not None:
            return cached
        out: List[ClassInfo] = []
        seen: set = set()

        def visit(q: str) -> None:
            if q in seen:
                return
            seen.add(q)
            cls = self.classes.get(q)
            if cls is None:
                return
            out.append(cls)
            for base in cls.base_qnames:
                if base is not None:
                    visit(base)

        visit(qname)
        result = tuple(out)
        self._mro_cache[qname] = result
        return result

    def resolve_method(self, class_qname: str, name: str) -> Optional[FunctionInfo]:
        for cls in self.mro(class_qname):
            method = cls.methods.get(name)
            if method is not None:
                return method
        return None

    def reachable(self, entries: Sequence[str]) -> Dict[str, Optional[str]]:
        """BFS over project edges; returns ``qname → parent`` (entry → None)."""
        parents: Dict[str, Optional[str]] = {}
        queue: deque = deque()
        for entry in entries:
            if entry in self.functions and entry not in parents:
                parents[entry] = None
                queue.append(entry)
        while queue:
            qname = queue.popleft()
            for site in self.functions[qname].calls:
                target = None
                if site.kind == "project":
                    target = site.target
                if target is not None and target in self.functions \
                        and target not in parents:
                    parents[target] = qname
                    queue.append(target)
        return parents

    def find_chains(
        self,
        entry: str,
        sink_pred: Callable[[CallSite, FunctionInfo], bool],
    ) -> List[Tuple[Tuple[str, ...], CallSite]]:
        """Shortest call-chain witness from ``entry`` to each distinct sink.

        ``sink_pred(site, owner)`` decides whether a call site counts.
        Each returned chain is ``(entry_qname, ..., sink_label)``; one
        chain per distinct sink label, breadth-first (shortest) order.
        """
        if entry not in self.functions:
            return []
        parents: Dict[str, Optional[str]] = {entry: None}
        queue: deque = deque([entry])
        results: List[Tuple[Tuple[str, ...], CallSite]] = []
        seen_sinks: set = set()
        while queue:
            qname = queue.popleft()
            for site in self.functions[qname].calls:
                if sink_pred(site, self.functions[qname]):
                    label = site.label()
                    if label not in seen_sinks:
                        seen_sinks.add(label)
                        chain: List[str] = []
                        probe: Optional[str] = qname
                        while probe is not None:
                            chain.append(probe)
                            probe = parents[probe]
                        chain.reverse()
                        chain.append(label)
                        results.append((tuple(chain), site))
                if site.kind == "project" and site.target in self.functions \
                        and site.target not in parents:
                    parents[site.target] = qname
                    queue.append(site.target)
        return results


def build_call_graph(ctxs: Sequence[FileContext]) -> CallGraph:
    """Build (or reuse) the call graph for one lint run's contexts.

    The graph is memoized on the first context object, keyed by the
    identity of the whole context list, so the project rules that all
    need it (REP112/REP113/REP114) share one build per run.
    """
    key = tuple(id(ctx) for ctx in ctxs)
    anchor = ctxs[0] if ctxs else None
    if anchor is not None:
        cached = getattr(anchor, "_replint_callgraph", None)
        if cached is not None and cached[0] == key:
            return cached[1]
    graph = CallGraph()
    graph._build(list(ctxs))
    if anchor is not None:
        anchor._replint_callgraph = (key, graph)
    return graph
