"""replint rules REP101–REP113.

Every rule is a pluggable class with an ``id``, ``severity``,
``fix_hint`` and a one-line ``title``; :func:`all_rules` returns one
instance of each.  Every rule reads one file: its
``check_file(ctx)`` yields the file's violations.

The determinism contract these rules enforce is the one PR 1's parallel
engine documents: experiment output must be byte-identical for any
worker count, any platform, and any ``PYTHONHASHSEED`` — so RNGs are
always seeded, simulated code never reads the wall clock, hot paths
never iterate hash-ordered collections, and work shipped to worker
processes must pickle by reference.
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
    #: parallelism, numerics, robustness, performance.
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


def all_rules() -> List[Rule]:
    """One instance of every replint rule, REP101..REP113 in order."""
    return [
        UnseededRandomRule(),
        WallClockRule(),
        UnorderedIterationRule(),
        PickleBoundaryRule(),
        EnvReadRule(),
        FloatEqualityRule(),
        DefensiveDefaultsRule(),
        DirectSocketIORule(),
        SeedProvenanceRule(),
    ]
