"""replint rules REP101–REP116.

Every rule is a pluggable class with an ``id``, ``severity``,
``fix_hint`` and a one-line ``title``; :func:`all_rules` returns one
instance of each.  Every rule reads one file: its
``check_file(ctx)`` yields the file's violations.

The determinism contract these rules enforce is the one PR 1's parallel
engine documents: experiment output must be byte-identical for any
worker count, any platform, and any ``PYTHONHASHSEED`` — so RNGs are
always seeded, simulated code never reads the wall clock, hot paths
never iterate hash-ordered collections, and work shipped to worker
processes must pickle by reference.  REP110 guards the perf contract
instead: ``__slots__`` classes on the kernel hot path must not grow
ad-hoc attributes outside ``__init__``.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional

from .engine import FileContext, Violation

__all__ = ["Rule", "all_rules"]


class Rule:
    """Base class for replint rules."""

    id: str = ""
    severity: str = "error"
    title: str = ""
    fix_hint: str = ""
    #: Rule family, surfaced in the JSON report: meta, determinism,
    #: parallelism, numerics, robustness, event-loop, performance.
    family: str = ""

    def violation(self, ctx: FileContext, node, message: str) -> Violation:
        return Violation(
            path=ctx.display,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            rule=self.id,
            severity=self.severity,
            message=message,
            fix_hint=self.fix_hint,
            family=self.family,
        )


class ImportMap:
    """Maps local names to dotted import paths for one module.

    ``import numpy as np`` → ``np`` resolves to ``numpy``;
    ``from datetime import datetime`` → ``datetime`` resolves to
    ``datetime.datetime``, so ``datetime.now`` resolves to
    ``datetime.datetime.now``.  Relative imports are ignored — the
    banned modules are all absolute stdlib/numpy imports.
    """

    def __init__(self, tree: ast.Module):
        self.names: Dict[str, str] = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    local = alias.asname or alias.name.split(".")[0]
                    dotted = alias.name if alias.asname else alias.name.split(".")[0]
                    self.names[local] = dotted
            elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    local = alias.asname or alias.name
                    self.names[local] = f"{node.module}.{alias.name}"

    def resolve(self, node) -> Optional[str]:
        """Dotted path of a Name/Attribute chain, or None."""
        parts: List[str] = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return None
        head = self.names.get(node.id)
        if head is None:
            return None
        parts.append(head)
        return ".".join(reversed(parts))


# ---------------------------------------------------------------------------
# REP101 — unseeded / global RNG
# ---------------------------------------------------------------------------

class UnseededRandomRule(Rule):
    id = "REP101"
    severity = "error"
    family = "determinism"
    title = "unseeded RNG construction or global-RNG call"
    fix_hint = (
        "seed every RNG explicitly (random.Random(seed)); derive child "
        "seeds with repro.parallel.mix_seed"
    )

    _NUMPY_CONSTRUCTORS = {"default_rng", "RandomState", "Generator", "SeedSequence"}

    def check_file(self, ctx: FileContext) -> Iterator[Violation]:
        if ctx.in_dir("benchmarks"):
            return
        imports = ImportMap(ctx.tree)
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            resolved = imports.resolve(node.func)
            if resolved is None:
                continue
            if resolved in ("random.Random", "numpy.random.RandomState"):
                if not node.args and not node.keywords:
                    yield self.violation(
                        ctx, node, f"unseeded {resolved}() — pass an explicit seed"
                    )
            elif resolved == "numpy.random.default_rng":
                if not node.args and not node.keywords:
                    yield self.violation(
                        ctx,
                        node,
                        "numpy.random.default_rng() without a seed is "
                        "entropy-seeded and irreproducible",
                    )
            elif resolved == "random.SystemRandom":
                yield self.violation(
                    ctx, node, "random.SystemRandom is nondeterministic by design"
                )
            elif resolved.startswith("random."):
                yield self.violation(
                    ctx,
                    node,
                    f"{resolved}() draws from the process-global RNG; "
                    "results depend on unrelated code",
                )
            elif resolved.startswith("numpy.random.") and (
                resolved.rsplit(".", 1)[1] not in self._NUMPY_CONSTRUCTORS
            ):
                yield self.violation(
                    ctx,
                    node,
                    f"{resolved}() draws from numpy's global RNG; "
                    "construct a seeded Generator instead",
                )


# ---------------------------------------------------------------------------
# REP102 — wall-clock reads in simulated code
# ---------------------------------------------------------------------------

class WallClockRule(Rule):
    id = "REP102"
    severity = "error"
    family = "determinism"
    title = "wall-clock read inside simulated-time code"
    fix_hint = (
        "use the simulation clock (env.now / env.timeout); wall-clock "
        "reads belong in udpnet/ and benchmarks only"
    )

    _SCOPES = ("sim", "simnet", "core", "analysis", "congestion")
    _BANNED = {
        "time.time",
        "time.time_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "time.process_time",
        "time.process_time_ns",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
    }

    def check_file(self, ctx: FileContext) -> Iterator[Violation]:
        if not any(ctx.in_dir(scope) for scope in self._SCOPES):
            return
        imports = ImportMap(ctx.tree)
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            resolved = imports.resolve(node.func)
            if resolved in self._BANNED:
                yield self.violation(
                    ctx,
                    node,
                    f"{resolved}() reads the wall clock inside "
                    f"{ctx.unit.split('/', 1)[0]}/ (simulated time only)",
                )


# ---------------------------------------------------------------------------
# REP103 — hash-ordered iteration in hot paths
# ---------------------------------------------------------------------------

def _is_set_expr(node, env: Dict[str, str]) -> bool:
    if isinstance(node, ast.Set):
        return True
    if (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in ("set", "frozenset")
    ):
        return True
    if isinstance(node, ast.Name):
        return env.get(node.id) == "set"
    if isinstance(node, ast.BinOp) and isinstance(
        node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
    ):
        return _is_set_expr(node.left, env)
    return False


def _is_udict_view(node, env: Dict[str, str]) -> bool:
    """``d.values()`` / ``d.keys()`` / ``d.items()`` on a set-keyed dict."""
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in ("values", "keys", "items")
        and isinstance(node.func.value, ast.Name)
        and env.get(node.func.value.id) == "udict"
    )


def _infer_kind(value, env: Dict[str, str]) -> Optional[str]:
    if _is_set_expr(value, env):
        return "set"
    if isinstance(value, ast.DictComp) and value.generators and _is_set_expr(
        value.generators[0].iter, env
    ):
        return "udict"
    if (
        isinstance(value, ast.Call)
        and isinstance(value.func, ast.Attribute)
        and value.func.attr == "fromkeys"
        and isinstance(value.func.value, ast.Name)
        and value.func.value.id == "dict"
        and value.args
        and _is_set_expr(value.args[0], env)
    ):
        return "udict"
    return None


class UnorderedIterationRule(Rule):
    id = "REP103"
    severity = "warning"
    family = "determinism"
    title = "order-sensitive iteration over a hash-ordered collection"
    fix_hint = (
        "wrap the collection in sorted(...) before iterating, or use an "
        "insertion-ordered structure (list/dict)"
    )

    _SCOPES = ("sim", "core")
    _MATERIALIZERS = ("list", "tuple", "enumerate", "sum")

    def check_file(self, ctx: FileContext) -> Iterator[Violation]:
        if not any(ctx.in_dir(scope) for scope in self._SCOPES):
            return
        yield from self._scan_scope(ctx, ctx.tree.body, {})

    def _scan_scope(
        self, ctx: FileContext, body, inherited: Dict[str, str]
    ) -> Iterator[Violation]:
        env = dict(inherited)
        for stmt in body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from self._scan_scope(ctx, stmt.body, env)
                continue
            if isinstance(stmt, ast.ClassDef):
                yield from self._scan_scope(ctx, stmt.body, env)
                continue
            yield from self._scan_statement(ctx, stmt, env)
            self._record_assignments(stmt, env)

    def _record_assignments(self, stmt, env: Dict[str, str]) -> None:
        targets: List[ast.expr] = []
        value = None
        if isinstance(stmt, ast.Assign):
            targets, value = stmt.targets, stmt.value
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            targets, value = [stmt.target], stmt.value
        if value is None:
            return
        kind = _infer_kind(value, env)
        for target in targets:
            if isinstance(target, ast.Name):
                if kind is None:
                    env.pop(target.id, None)
                else:
                    env[target.id] = kind

    def _scan_statement(self, ctx, stmt, env) -> Iterator[Violation]:
        for node in ast.walk(stmt):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue  # handled by _scan_scope with its own env
            if isinstance(node, (ast.For, ast.AsyncFor)):
                yield from self._check_iterable(ctx, node.iter, env, "for loop")
            elif isinstance(node, (ast.ListComp, ast.GeneratorExp)):
                for gen in node.generators:
                    yield from self._check_iterable(
                        ctx, gen.iter, env, "comprehension"
                    )
            elif isinstance(node, ast.Call):
                target = None
                if (
                    isinstance(node.func, ast.Name)
                    and node.func.id in self._MATERIALIZERS
                    and node.args
                ):
                    target = node.args[0]
                elif (
                    isinstance(node.func, ast.Attribute)
                    and node.func.attr == "join"
                    and node.args
                ):
                    target = node.args[0]
                if target is not None:
                    yield from self._check_iterable(
                        ctx, target, env, "order-materializing call"
                    )

    def _check_iterable(self, ctx, node, env, where: str) -> Iterator[Violation]:
        if _is_set_expr(node, env):
            yield self.violation(
                ctx,
                node,
                f"{where} iterates a set in hash order — output depends "
                "on PYTHONHASHSEED",
            )
        elif _is_udict_view(node, env):
            yield self.violation(
                ctx,
                node,
                f"{where} iterates a dict view whose keys came from a set "
                "— insertion order is hash order",
            )


# ---------------------------------------------------------------------------
# REP104 — unpicklable callables crossing the pool boundary
# ---------------------------------------------------------------------------

class PickleBoundaryRule(Rule):
    """Pool methods and ``Process(...)`` (spawn start method) ship their
    callables to another process, which only works by reference."""

    id = "REP104"
    severity = "error"
    family = "parallelism"
    title = "lambda/closure shipped across the process-pool boundary"
    fix_hint = (
        "move the callable to module level so it pickles by reference "
        "(see the shard workers beside each map_shards call)"
    )

    _BOUNDARY_METHODS = {
        "map_shards",
        "submit",
        "map",
        "imap",
        "imap_unordered",
        "apply_async",
        "starmap",
        "Process",
    }

    def check_file(self, ctx: FileContext) -> Iterator[Violation]:
        yield from self._scan(ctx, ctx.tree.body, set(), set())

    def _scan(self, ctx, body, local_defs, lambda_vars) -> Iterator[Violation]:
        defs = set(local_defs)
        lambdas = set(lambda_vars)
        for stmt in body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                # Functions nested inside functions only pickle by value.
                nested = ast.walk(stmt)
                inner_defs = {
                    n.name
                    for n in nested
                    if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and n is not stmt
                }
                yield from self._scan(
                    ctx, stmt.body, defs | inner_defs, lambdas
                )
                continue
            if isinstance(stmt, ast.ClassDef):
                yield from self._scan(ctx, stmt.body, defs, lambdas)
                continue
            if isinstance(stmt, ast.Assign) and isinstance(stmt.value, ast.Lambda):
                for target in stmt.targets:
                    if isinstance(target, ast.Name):
                        lambdas.add(target.id)
            for node in ast.walk(stmt):
                if isinstance(node, ast.Call):
                    yield from self._check_call(ctx, node, defs, lambdas)

    def _check_call(self, ctx, node, local_defs, lambda_vars) -> Iterator[Violation]:
        func = node.func
        if isinstance(func, ast.Attribute) and func.attr in self._BOUNDARY_METHODS:
            method = func.attr
        elif isinstance(func, ast.Name) and func.id == "Process":
            method = func.id  # ``from multiprocessing import Process``
        else:
            return
        candidates = list(node.args) + [kw.value for kw in node.keywords]
        for arg in candidates:
            if isinstance(arg, ast.Lambda):
                yield self.violation(
                    ctx,
                    arg,
                    f"lambda passed to .{method}() cannot be pickled to a "
                    "worker process",
                )
            elif isinstance(arg, ast.Name) and (
                arg.id in local_defs or arg.id in lambda_vars
            ):
                what = "locally-defined function" if arg.id in local_defs else "lambda"
                yield self.violation(
                    ctx,
                    arg,
                    f"{what} {arg.id!r} passed to .{method}() cannot be "
                    "pickled to a worker process",
                )


# ---------------------------------------------------------------------------
# REP105 — environment reads outside the allowlist
# ---------------------------------------------------------------------------

class EnvReadRule(Rule):
    id = "REP105"
    severity = "warning"
    family = "determinism"
    title = "os.environ read outside the configuration boundary"
    fix_hint = (
        "thread configuration through explicit parameters; os.environ is "
        "allowed only in cli.py"
    )

    _ALLOWED_UNITS = {"cli.py"}

    def check_file(self, ctx: FileContext) -> Iterator[Violation]:
        if ctx.unit in self._ALLOWED_UNITS:
            return
        imports = ImportMap(ctx.tree)
        for node in ast.walk(ctx.tree):
            if isinstance(node, (ast.Attribute, ast.Name)):
                if imports.resolve(node) == "os.environ":
                    yield self.violation(
                        ctx,
                        node,
                        "os.environ read — experiment behaviour must flow "
                        "through explicit params, not ambient state",
                    )
            elif isinstance(node, ast.Call):
                if imports.resolve(node.func) == "os.getenv":
                    yield self.violation(
                        ctx,
                        node,
                        "os.getenv() read — experiment behaviour must flow "
                        "through explicit params, not ambient state",
                    )


# ---------------------------------------------------------------------------
# REP106 — float equality in analysis formulas
# ---------------------------------------------------------------------------

class FloatEqualityRule(Rule):
    id = "REP106"
    severity = "warning"
    family = "numerics"
    title = "float ==/!= comparison in an analysis formula"
    fix_hint = (
        "use math.isclose(), an inequality guard (<=/>=), or integer "
        "arithmetic"
    )

    def check_file(self, ctx: FileContext) -> Iterator[Violation]:
        if not ctx.in_dir("analysis"):
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Compare):
                continue
            if not any(isinstance(op, (ast.Eq, ast.NotEq)) for op in node.ops):
                continue
            operands = [node.left] + list(node.comparators)
            if any(
                isinstance(operand, ast.Constant)
                and isinstance(operand.value, float)
                for operand in operands
            ):
                yield self.violation(
                    ctx,
                    node,
                    "exact ==/!= against a float literal is rounding-"
                    "fragile in closed-form formulas",
                )


# ---------------------------------------------------------------------------
# REP107 — mutable defaults and bare except
# ---------------------------------------------------------------------------

class DefensiveDefaultsRule(Rule):
    id = "REP107"
    severity = "warning"
    family = "robustness"
    title = "mutable default argument or bare except"
    fix_hint = (
        "default to None and build the container inside the function; "
        "catch a specific exception class instead of bare except"
    )

    def check_file(self, ctx: FileContext) -> Iterator[Violation]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                defaults = list(node.args.defaults) + [
                    d for d in node.args.kw_defaults if d is not None
                ]
                for default in defaults:
                    if self._is_mutable(default):
                        yield self.violation(
                            ctx,
                            default,
                            "mutable default argument is shared across "
                            "calls (and across retries)",
                        )
            elif isinstance(node, ast.ExceptHandler) and node.type is None:
                yield self.violation(
                    ctx,
                    node,
                    "bare except swallows KeyboardInterrupt/SystemExit and "
                    "hides real failures in retry paths",
                )

    @staticmethod
    def _is_mutable(node) -> bool:
        if isinstance(node, (ast.List, ast.Dict, ast.Set)):
            return True
        return (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in ("list", "dict", "set", "bytearray")
            and not node.args
            and not node.keywords
        )


# ---------------------------------------------------------------------------
# REP110 — attribute creation outside __init__ in __slots__ classes
# ---------------------------------------------------------------------------

def _literal_slot_names(value) -> Optional[frozenset]:
    """Statically evaluate a ``__slots__`` assignment; None if dynamic."""
    if isinstance(value, ast.Constant) and isinstance(value.value, str):
        return frozenset((value.value,))
    if isinstance(value, (ast.Tuple, ast.List, ast.Set)):
        names = []
        for element in value.elts:
            if not (
                isinstance(element, ast.Constant)
                and isinstance(element.value, str)
            ):
                return None
            names.append(element.value)
        return frozenset(names)
    return None


def _is_dataclass_slots(classdef: ast.ClassDef) -> bool:
    """True for ``@dataclass(..., slots=True)`` (Name or dotted form)."""
    for decorator in classdef.decorator_list:
        if not isinstance(decorator, ast.Call):
            continue
        func = decorator.func
        name = (
            func.id if isinstance(func, ast.Name)
            else func.attr if isinstance(func, ast.Attribute)
            else None
        )
        if name != "dataclass":
            continue
        for keyword in decorator.keywords:
            if (
                keyword.arg == "slots"
                and isinstance(keyword.value, ast.Constant)
                and keyword.value.value is True
            ):
                return True
    return False


class _SlottedClass:
    """What REP110 knows about one class definition."""

    def __init__(self, classdef: ast.ClassDef):
        self.node = classdef
        self.slots: Optional[frozenset] = None
        self.ctor_attrs: set = set()
        self.bases: List[Optional[str]] = [
            base.id if isinstance(base, ast.Name) else None
            for base in classdef.bases
        ]
        for stmt in classdef.body:
            if isinstance(stmt, ast.Assign):
                targets = stmt.targets
            elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
                targets = [stmt.target]
            else:
                continue
            for target in targets:
                if isinstance(target, ast.Name) and target.id == "__slots__":
                    self.slots = _literal_slot_names(stmt.value)
        if self.slots is None and _is_dataclass_slots(classdef):
            # ``@dataclass(slots=True)``: the annotated fields become the
            # slots the decorator synthesises.
            self.slots = frozenset(
                stmt.target.id
                for stmt in classdef.body
                if isinstance(stmt, ast.AnnAssign)
                and isinstance(stmt.target, ast.Name)
            )


class SlotsDisciplineRule(Rule):
    """The kernel's hot classes declare ``__slots__``; creating an
    attribute that is not a declared slot raises ``AttributeError`` at
    runtime, and doing it outside ``__init__`` means only some code path
    hits the crash.  A class opts back into ad-hoc attributes by listing
    ``"__dict__"`` in its slots (the Environment does, for substrate
    registries).  Classes whose base chain leaves this file — or has any
    un-slotted link — are skipped: their instances may own a ``__dict__``
    the analysis cannot see.
    """

    id = "REP110"
    severity = "error"
    family = "performance"
    title = "attribute created outside __init__ in a __slots__ class"
    fix_hint = (
        "declare the attribute in __slots__ and assign it in __init__ "
        "(or add \"__dict__\" to __slots__ to opt into ad-hoc attributes)"
    )

    _SCOPES = ("sim", "core")
    _CTOR_METHODS = frozenset(("__init__", "__post_init__", "__new__"))

    def check_file(self, ctx: FileContext) -> Iterator[Violation]:
        if not any(ctx.in_dir(scope) for scope in self._SCOPES):
            return
        classes = {
            stmt.name: _SlottedClass(stmt)
            for stmt in ctx.tree.body
            if isinstance(stmt, ast.ClassDef)
        }
        for record in classes.values():
            self._collect_ctor_attrs(record)
        for name, record in classes.items():
            allowed = self._resolve_allowed(name, classes, set())
            if allowed is None:
                continue
            yield from self._check_class(ctx, record, allowed)

    def _collect_ctor_attrs(self, record: _SlottedClass) -> None:
        """Names assigned on ``self`` inside the class's constructors."""
        for stmt in record.node.body:
            if (
                isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
                and stmt.name in self._CTOR_METHODS
            ):
                record.ctor_attrs.update(self._self_assignments(stmt))

    def _resolve_allowed(
        self, name: str, classes: Dict[str, _SlottedClass], seen: set
    ) -> Optional[frozenset]:
        """Slot + constructor-assigned names over the in-file base chain.

        Returns None — meaning "do not check this class" — when any link
        of the chain is unresolvable, un-slotted, or declares
        ``__dict__``.
        """
        if name in seen:  # inheritance cycle: only in broken code
            return None
        seen.add(name)
        record = classes.get(name)
        if record is None or record.slots is None or "__dict__" in record.slots:
            return None
        allowed = set(record.slots) | record.ctor_attrs
        for base in record.bases:
            if base == "object":
                continue
            if base is None:
                return None
            inherited = self._resolve_allowed(base, classes, seen)
            if inherited is None:
                return None
            allowed |= inherited
        return frozenset(allowed)

    def _check_class(
        self, ctx: FileContext, record: _SlottedClass, allowed: frozenset
    ) -> Iterator[Violation]:
        for stmt in record.node.body:
            if not isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if stmt.name in self._CTOR_METHODS:
                continue
            if any(
                isinstance(decorator, ast.Name)
                and decorator.id in ("staticmethod", "classmethod")
                for decorator in stmt.decorator_list
            ):
                continue
            for node, attr in self._self_assignment_nodes(stmt):
                if attr not in allowed:
                    yield self.violation(
                        ctx,
                        node,
                        f"self.{attr} created in "
                        f"{record.node.name}.{stmt.name}() is not in "
                        "__slots__ and is never assigned in __init__",
                    )

    @classmethod
    def _self_assignments(cls, method) -> set:
        return {attr for _node, attr in cls._self_assignment_nodes(method)}

    @staticmethod
    def _self_assignment_nodes(method):
        """``(node, name)`` for every ``self.name = ...`` in ``method``."""
        args = method.args.posonlyargs + method.args.args
        if not args:
            return
        self_name = args[0].arg
        for node in ast.walk(method):
            if isinstance(node, ast.Assign):
                targets = []
                for target in node.targets:
                    targets.extend(
                        target.elts
                        if isinstance(target, (ast.Tuple, ast.List))
                        else [target]
                    )
            elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
                targets = [node.target]
            else:
                continue
            for target in targets:
                if (
                    isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == self_name
                ):
                    yield target, target.attr


# ---------------------------------------------------------------------------
# REP111 — direct datagram I/O outside the batch layer
# ---------------------------------------------------------------------------

class DirectSocketIORule(Rule):
    """Every datagram the service or a ``udpnet`` endpoint sends or
    receives must flow through :mod:`repro.service.iobatch` — that
    module owns the preallocated zero-copy buffers, the kernel-queue
    backpressure policy, and the fault-plan hooks (``recv_ready_into``
    and held-datagram release).  A raw ``sock.sendto``/``sock.recvfrom*``
    anywhere else in ``service/`` or ``udpnet/`` silently bypasses all
    three: that datagram skips the fault plan, so the conformance
    ledgers no longer describe what the transports do.
    """

    id = "REP111"
    severity = "error"
    family = "performance"
    title = "direct datagram socket I/O outside the batch layer"
    fix_hint = (
        "route datagrams through service/iobatch.py's DatagramBatchIO "
        "(send_frame/send_datagram/recv_batch) so zero-copy buffers and "
        "fault-plan hooks stay on every socket path"
    )

    _EXEMPT_UNIT = "service/iobatch.py"
    _DIRECT_METHODS = (
        "sendto",
        "recvfrom",
        "recvfrom_into",
        "recvmsg",
        "recvmsg_into",
        "sendmsg",
    )

    def check_file(self, ctx: FileContext) -> Iterator[Violation]:
        if (not (ctx.in_dir("service") or ctx.in_dir("udpnet"))
                or ctx.unit == self._EXEMPT_UNIT):
            return
        for node in ast.walk(ctx.tree):
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in self._DIRECT_METHODS):
                yield self.violation(
                    ctx,
                    node,
                    f".{node.func.attr}() bypasses the batch I/O layer's "
                    "buffers and fault hooks; go through DatagramBatchIO",
                )


# ---------------------------------------------------------------------------
# REP113 — RNG seed provenance in stochastic subsystems
# ---------------------------------------------------------------------------

class SeedProvenanceRule(Rule):
    """REP101 catches a *global* RNG draw in the file where it happens;
    it cannot see a constant-seeded ``random.Random(1234)`` (every run
    identical, but immune to ``--seed``) or a module object passed
    around as if it were an RNG instance.  Stochastic subsystems
    (``sim/``, ``simnet/``, ``faults/``, ``workloads/``, ``parallel/``,
    ``congestion/``) must draw every bit of randomness from a seeded
    ``random.Random`` whose seed *flows in* as data.  (Randomness
    laundered through the REP101-exempt ``benchmarks/`` tree cannot
    happen: no ``src/repro`` module imports it, which
    ``tests/lint/test_self_clean.py`` pins.)
    """

    id = "REP113"
    severity = "error"
    family = "determinism"
    title = "RNG whose seed does not flow from caller-provided data"
    fix_hint = (
        "accept a seed (or rng) parameter and build random.Random(seed) "
        "from it — derive child seeds with repro.parallel.mix_seed; "
        "never hard-code a seed or pass the random module itself"
    )

    _SCOPES = ("sim", "simnet", "faults", "workloads", "parallel",
               "congestion")
    _RNG_MODULES = ("random", "numpy.random")

    def check_file(self, ctx: FileContext) -> Iterator[Violation]:
        if not any(ctx.in_dir(scope) for scope in self._SCOPES):
            return
        imports = ImportMap(ctx.tree)
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            resolved = imports.resolve(node.func)
            if resolved == "random.Random" and (node.args or node.keywords):
                feeds = list(node.args) + [kw.value for kw in node.keywords]
                if not any(self._carries_data(arg) for arg in feeds):
                    yield self.violation(
                        ctx,
                        node,
                        "random.Random seeded with a hard-coded constant — "
                        "the seed must flow in from the caller",
                    )
            for arg in list(node.args) + [kw.value for kw in node.keywords]:
                if isinstance(arg, ast.Name) and \
                        imports.resolve(arg) in self._RNG_MODULES:
                    yield self.violation(
                        ctx,
                        arg,
                        f"the {imports.resolve(arg)} module itself is passed "
                        "as an RNG — pass a seeded random.Random instance",
                    )

    @staticmethod
    def _carries_data(node) -> bool:
        """True when the seed expression references any variable."""
        return any(
            isinstance(sub, (ast.Name, ast.Attribute))
            for sub in ast.walk(node)
        )


# ---------------------------------------------------------------------------
# REP115 — recv-ring buffer escape in service code
# ---------------------------------------------------------------------------

class BufferEscapeRule(Rule):
    """``DatagramBatchIO.recv_batch`` yields ``memoryview``\\ s into a
    preallocated ring that is *recycled on the next drain*: a view that
    outlives the loop iteration silently aliases future datagrams.  Any
    ring view stored on ``self``, appended to a container, or returned
    must first be materialised — ``bytes(view)`` or ``decode(view)``
    both copy.  The taint analysis is per-function and treats every
    call as laundering (a copy), so the sanctioned patterns stay quiet.
    """

    id = "REP115"
    severity = "error"
    family = "performance"
    title = "recv-ring memoryview escapes its batch iteration"
    fix_hint = (
        "materialise before storing: bytes(view) or decode(view) copy "
        "the datagram out of the recycled ring slot"
    )

    _EXEMPT_UNIT = "service/iobatch.py"
    _SINK_METHODS = frozenset((
        "append",
        "add",
        "insert",
        "extend",
        "appendleft",
        "put",
        "put_nowait",
    ))

    def check_file(self, ctx: FileContext) -> Iterator[Violation]:
        if not ctx.in_dir("service") or ctx.unit == self._EXEMPT_UNIT:
            return
        for node in ast.walk(ctx.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from self._check_function(ctx, node)

    def _check_function(self, ctx, func) -> Iterator[Violation]:
        tainted: set = set()
        yield from self._scan_block(ctx, func.body, tainted)

    def _scan_block(self, ctx, body, tainted) -> Iterator[Violation]:
        for stmt in body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue  # nested defs get their own pass
            yield from self._scan_statement(ctx, stmt, tainted)

    def _scan_statement(self, ctx, stmt, tainted) -> Iterator[Violation]:
        if isinstance(stmt, ast.Assign):
            value_tainted = self._tainted_value(stmt.value, tainted)
            for target in stmt.targets:
                if isinstance(target, ast.Name):
                    if value_tainted:
                        tainted.add(target.id)
                    else:
                        tainted.discard(target.id)
                elif isinstance(target, (ast.Attribute, ast.Subscript)) \
                        and value_tainted:
                    yield self.violation(
                        ctx,
                        target,
                        "ring-slot memoryview stored beyond the batch "
                        "iteration — the slot is recycled on the next "
                        "recv_batch()",
                    )
        elif isinstance(stmt, ast.AugAssign):
            if isinstance(stmt.target, (ast.Attribute, ast.Subscript)) \
                    and self._tainted_value(stmt.value, tainted):
                yield self.violation(
                    ctx,
                    stmt.target,
                    "ring-slot memoryview accumulated into long-lived "
                    "state — copy with bytes(view) first",
                )
        elif isinstance(stmt, ast.Return) and stmt.value is not None:
            if self._tainted_value(stmt.value, tainted):
                yield self.violation(
                    ctx,
                    stmt.value,
                    "ring-slot memoryview returned to the caller — it "
                    "aliases a buffer recycled on the next recv_batch()",
                )
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            if self._is_batch_source(stmt.iter, tainted):
                self._taint_loop_target(stmt.target, tainted)
            yield from self._scan_block(ctx, stmt.body, tainted)
            yield from self._scan_block(ctx, stmt.orelse, tainted)
        elif isinstance(stmt, (ast.While, ast.If)):
            yield from self._scan_block(ctx, stmt.body, tainted)
            yield from self._scan_block(ctx, stmt.orelse, tainted)
        elif isinstance(stmt, ast.With):
            yield from self._scan_block(ctx, stmt.body, tainted)
        elif isinstance(stmt, ast.Try):
            for block in (stmt.body, stmt.orelse, stmt.finalbody):
                yield from self._scan_block(ctx, block, tainted)
            for handler in stmt.handlers:
                yield from self._scan_block(ctx, handler.body, tainted)
        elif isinstance(stmt, ast.Expr):
            yield from self._check_sink_call(ctx, stmt.value, tainted)

    def _check_sink_call(self, ctx, node, tainted) -> Iterator[Violation]:
        if not (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in self._SINK_METHODS
        ):
            return
        for arg in list(node.args) + [kw.value for kw in node.keywords]:
            if self._expr_tainted(arg, tainted):
                yield self.violation(
                    ctx,
                    arg,
                    f".{node.func.attr}() keeps a ring-slot memoryview "
                    "alive past the batch iteration — copy it first",
                )

    # -- taint helpers -----------------------------------------------------
    @staticmethod
    def _is_recv_batch_call(node) -> bool:
        return (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "recv_batch"
        )

    def _is_batch_source(self, node, tainted) -> bool:
        if self._is_recv_batch_call(node):
            return True
        return isinstance(node, ast.Name) and node.id in tainted

    @staticmethod
    def _taint_loop_target(target, tainted) -> None:
        """The ring view is the first element of each yielded pair."""
        if isinstance(target, ast.Name):
            tainted.add(target.id)
        elif isinstance(target, (ast.Tuple, ast.List)) and target.elts:
            first = target.elts[0]
            if isinstance(first, ast.Name):
                tainted.add(first.id)

    def _tainted_value(self, node, tainted) -> bool:
        if self._is_recv_batch_call(node):
            return True
        if isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp)):
            gen = node.generators[0]
            if self._is_batch_source(gen.iter, tainted):
                loop_vars = {
                    n.id
                    for n in ast.walk(gen.target)
                    if isinstance(n, ast.Name)
                }
                return self._expr_tainted(node.elt, tainted | loop_vars)
            return False
        return self._expr_tainted(node, tainted)

    @staticmethod
    def _expr_tainted(node, tainted) -> bool:
        """Does the expression carry taint?  Calls launder (they copy)."""
        stack = [node]
        while stack:
            sub = stack.pop()
            if isinstance(sub, ast.Call):
                continue
            if isinstance(sub, ast.Name) and sub.id in tainted:
                return True
            stack.extend(ast.iter_child_nodes(sub))
        return False


# ---------------------------------------------------------------------------
# REP116 — worker-process hygiene in cluster/
# ---------------------------------------------------------------------------

class ClusterProcessHygieneRule(Rule):
    """Process objects in ``cluster/`` must be joined.

    A ``multiprocessing.Process`` / ``subprocess.Popen`` constructed and
    then forgotten (never ``join()``/``wait()``ed, never stored anywhere
    that outlives the scope) leaks a child and hides its exit code from
    the failure detector.  Whether a ``Process(target=...)`` pickles
    under the ``spawn`` start method is REP104's pickling boundary.
    """

    id = "REP116"
    severity = "error"
    family = "parallelism"
    title = "unjoined worker process in cluster/"
    fix_hint = (
        "join()/wait() every spawned process, or hand it to a handle "
        "that is joined"
    )

    _PROC_CALLS = {"Process", "Popen"}
    _JOIN_METHODS = {"join", "wait"}

    def check_file(self, ctx: FileContext) -> Iterator[Violation]:
        if not ctx.in_dir("cluster"):
            return
        yield from self._scan_scope(ctx, ctx.tree.body)

    def _scan_scope(self, ctx, body) -> Iterator[Violation]:
        yield from self._check_scope(ctx, body)
        for stmt in body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                yield from self._scan_scope(ctx, stmt.body)

    def _check_scope(self, ctx, body) -> Iterator[Violation]:
        spawned: Dict[str, ast.AST] = {}
        joined: set = set()
        escaped: set = set()
        for node in self._scope_nodes(body):
            if isinstance(node, ast.Expr) and (
                discarded := self._discarded_proc(node.value)
            ) is not None:
                yield self.violation(
                    ctx,
                    node,
                    f"{self._call_name(discarded)} object constructed and "
                    "discarded — it is never joined and its exit code is "
                    "lost",
                )
            elif isinstance(node, ast.Assign):
                if self._is_proc_call(node.value):
                    for target in node.targets:
                        if isinstance(target, ast.Name):
                            spawned[target.id] = node.value
                        else:
                            escaped |= self._names_in(node.value)
                elif any(isinstance(t, (ast.Attribute, ast.Subscript,
                                        ast.Tuple, ast.List))
                         for t in node.targets):
                    escaped |= self._names_in(node.value)
            elif isinstance(node, (ast.Return, ast.Yield, ast.YieldFrom)):
                if node.value is not None:
                    escaped |= self._names_in(node.value)
            elif isinstance(node, ast.Call):
                if (isinstance(node.func, ast.Attribute)
                        and node.func.attr in self._JOIN_METHODS
                        and isinstance(node.func.value, ast.Name)):
                    joined.add(node.func.value.id)
                for arg in node.args:
                    if isinstance(arg, ast.Name):
                        escaped.add(arg.id)
                for keyword in node.keywords:
                    if isinstance(keyword.value, ast.Name):
                        escaped.add(keyword.value.id)
            elif isinstance(node, (ast.List, ast.Tuple, ast.Set)):
                for elt in node.elts:
                    if isinstance(elt, ast.Name):
                        escaped.add(elt.id)
            elif isinstance(node, ast.Dict):
                for value in list(node.keys) + list(node.values):
                    if isinstance(value, ast.Name):
                        escaped.add(value.id)
        for name, call in spawned.items():
            if name not in joined and name not in escaped:
                yield self.violation(
                    ctx,
                    call,
                    f"{self._call_name(call)} object {name!r} is never "
                    "join()/wait()ed and never escapes this scope",
                )

    # -- helpers -----------------------------------------------------------
    def _discarded_proc(self, node) -> Optional[ast.Call]:
        """The proc Call discarded by an expression statement, if any.

        Covers the bare ``Process(...)`` and the fire-and-forget
        ``Process(...).start()`` chain — joining is impossible in both
        because no reference survives the statement.
        """
        if self._is_proc_call(node):
            return node
        if (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr not in self._JOIN_METHODS
                and self._is_proc_call(node.func.value)):
            return node.func.value
        return None

    def _is_proc_call(self, node) -> bool:
        if not isinstance(node, ast.Call):
            return False
        func = node.func
        if isinstance(func, ast.Attribute):
            return func.attr in self._PROC_CALLS
        return isinstance(func, ast.Name) and func.id in self._PROC_CALLS

    @staticmethod
    def _call_name(node) -> str:
        func = node.func
        return func.attr if isinstance(func, ast.Attribute) else func.id

    @staticmethod
    def _scope_nodes(body) -> Iterator[ast.AST]:
        """Every node in this scope, stopping at nested scope boundaries."""
        stack = list(body)
        while stack:
            node = stack.pop()
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef, ast.Lambda)):
                continue
            yield node
            stack.extend(ast.iter_child_nodes(node))

    @staticmethod
    def _names_in(node) -> set:
        return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}


def all_rules() -> List[Rule]:
    """One instance of every replint rule, REP101..REP116 in order."""
    return [
        UnseededRandomRule(),
        WallClockRule(),
        UnorderedIterationRule(),
        PickleBoundaryRule(),
        EnvReadRule(),
        FloatEqualityRule(),
        DefensiveDefaultsRule(),
        SlotsDisciplineRule(),
        DirectSocketIORule(),
        SeedProvenanceRule(),
        BufferEscapeRule(),
        ClusterProcessHygieneRule(),
    ]
