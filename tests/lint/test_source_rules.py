"""Nine source rules, each a plain ``ast`` check over one file.

Every table and figure of the paper is regenerated from seeds alone, and
the parallel engine promises the same bytes for any ``--jobs``.  These
checks hold the source to what that needs: seeded RNGs whose seeds flow
in from the caller, no wall clock in simulated time, no hash-ordered
iteration in the event and frame paths, nothing unpicklable shipped to a
worker process, no ambient environment, no float equality in the closed
forms, no mutable defaults or bare ``except``, and every datagram through
the batch I/O layer.

A check is scoped by the file's *unit*: its path inside the ``repro``
package (``sim/environment.py``), or ``benchmarks/...``.  Under
``tests/lint/fixtures/<rule>/{bad,good}`` the unit is the path below
``bad`` or ``good``.  A bad fixture must trip its own check and no other;
a good fixture must trip none.  ``docs/architecture.md`` ("Source rules")
lists each rule with its scope and fixture, and the retired rules with
where their checks live now.
"""

import ast
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]
FIXTURES = Path(__file__).parent / "fixtures"


# -- names: ``np.random.normal`` -> ``numpy.random.normal`` -----------------

def import_map(tree):
    """Local name -> dotted module path, for the absolute imports of a file."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                head = alias.name.split(".")[0]
                names[alias.asname or head] = (
                    alias.name if alias.asname else head)
        elif isinstance(node, ast.ImportFrom) and node.level == 0 \
                and node.module:
            for alias in node.names:
                if alias.name != "*":
                    names[alias.asname or alias.name] = \
                        f"{node.module}.{alias.name}"
    return names


def resolve(imports, node):
    """Dotted path of a Name/Attribute chain, or None."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name) or node.id not in imports:
        return None
    return ".".join([imports[node.id], *reversed(parts)])


def calls(tree):
    return (node for node in ast.walk(tree) if isinstance(node, ast.Call))


def arguments(call):
    return [*call.args, *(keyword.value for keyword in call.keywords)]


# -- the checks: each yields (node, message) --------------------------------

_NUMPY_CONSTRUCTORS = {"default_rng", "RandomState", "Generator",
                       "SeedSequence"}


def unseeded_rng(tree, imports):
    """REP101: an RNG built without a seed, or a draw from a global one."""
    for call in calls(tree):
        name = resolve(imports, call.func)
        if name is None:
            continue
        if name in ("random.Random", "numpy.random.RandomState",
                    "numpy.random.default_rng"):
            if not arguments(call):
                yield call, f"unseeded {name}()"
        elif name == "random.SystemRandom":
            yield call, "random.SystemRandom is nondeterministic by design"
        elif name.startswith("random.") or (
                name.startswith("numpy.random.")
                and name.rsplit(".", 1)[1] not in _NUMPY_CONSTRUCTORS):
            yield call, f"{name}() draws from a process-global RNG"


_WALL_CLOCK = {
    *(f"time.{name}{ns}" for name in ("time", "monotonic", "perf_counter",
                                      "process_time") for ns in ("", "_ns")),
    "datetime.datetime.now", "datetime.datetime.utcnow",
    "datetime.datetime.today", "datetime.date.today",
}


def wall_clock(tree, imports):
    """REP102: a wall-clock read in code that runs in simulated time."""
    for call in calls(tree):
        name = resolve(imports, call.func)
        if name in _WALL_CLOCK:
            yield call, f"{name}() reads the wall clock in simulated time"


def _is_set(node, kinds):
    if isinstance(node, ast.Set):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id in ("set", "frozenset")
    if isinstance(node, ast.Name):
        return kinds.get(node.id) == "set"
    return isinstance(node, ast.BinOp) and isinstance(
        node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)) \
        and _is_set(node.left, kinds)


def _is_set_keyed_view(node, kinds):
    """``d.values()`` / ``keys()`` / ``items()`` of a dict built from a set."""
    return (isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in ("values", "keys", "items")
            and isinstance(node.func.value, ast.Name)
            and kinds.get(node.func.value.id) == "set-keyed dict")


def _kind(value, kinds):
    if _is_set(value, kinds):
        return "set"
    if isinstance(value, ast.DictComp) and _is_set(
            value.generators[0].iter, kinds):
        return "set-keyed dict"
    if (isinstance(value, ast.Call) and isinstance(value.func, ast.Attribute)
            and value.func.attr == "fromkeys"
            and isinstance(value.func.value, ast.Name)
            and value.func.value.id == "dict"
            and value.args and _is_set(value.args[0], kinds)):
        return "set-keyed dict"
    return None


def _ordered_uses(stmt):
    """The iterables whose order a statement makes visible."""
    for node in ast.walk(stmt):
        if isinstance(node, (ast.For, ast.AsyncFor)):
            yield node.iter
        elif isinstance(node, (ast.ListComp, ast.GeneratorExp)):
            yield from (generator.iter for generator in node.generators)
        elif isinstance(node, ast.Call) and node.args and (
                isinstance(node.func, ast.Name) and node.func.id in (
                    "list", "tuple", "enumerate", "sum")
                or isinstance(node.func, ast.Attribute)
                and node.func.attr == "join"):
            yield node.args[0]


def hash_ordered_iteration(tree, imports, body=None, inherited=None):
    """REP103: a set, or a dict keyed from one, consumed in iteration
    order (which is ``PYTHONHASHSEED`` order).  Names are typed by their
    assignments in order, scope by scope."""
    kinds = dict(inherited or {})
    for stmt in tree.body if body is None else body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            yield from hash_ordered_iteration(tree, imports, stmt.body, kinds)
            continue
        for node in _ordered_uses(stmt):
            if _is_set(node, kinds):
                yield node, "iterates a set in hash order"
            elif _is_set_keyed_view(node, kinds):
                yield node, "iterates a dict whose keys came from a set"
        if isinstance(stmt, ast.Assign):
            targets, value = stmt.targets, stmt.value
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            targets, value = [stmt.target], stmt.value
        else:
            continue
        kind = _kind(value, kinds)
        for target in targets:
            if isinstance(target, ast.Name):
                if kind is None:
                    kinds.pop(target.id, None)
                else:
                    kinds[target.id] = kind


_BOUNDARY = {"map_shards", "submit", "map", "imap", "imap_unordered",
             "apply_async", "starmap", "Process"}


def process_boundary_closures(tree, imports, body=None, local_defs=(),
                              lambdas=()):
    """REP104: a lambda or nested function handed to a pool method or to
    ``Process(...)``; only module-level callables pickle by reference."""
    local_defs, lambdas = set(local_defs), set(lambdas)
    for stmt in tree.body if body is None else body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            nested = {node.name for node in ast.walk(stmt)
                      if isinstance(node, (ast.FunctionDef,
                                           ast.AsyncFunctionDef))
                      and node is not stmt}
            yield from process_boundary_closures(
                tree, imports, stmt.body, local_defs | nested, lambdas)
            continue
        if isinstance(stmt, ast.ClassDef):
            yield from process_boundary_closures(
                tree, imports, stmt.body, local_defs, lambdas)
            continue
        if isinstance(stmt, ast.Assign) and isinstance(stmt.value, ast.Lambda):
            lambdas |= {target.id for target in stmt.targets
                        if isinstance(target, ast.Name)}
        for call in calls(stmt):
            method = getattr(call.func, "attr", None)
            if method not in _BOUNDARY:
                method = getattr(call.func, "id", None)
                if method != "Process":
                    continue
            for arg in arguments(call):
                if isinstance(arg, ast.Lambda):
                    yield arg, f"lambda passed to .{method}()"
                elif isinstance(arg, ast.Name) and arg.id in local_defs:
                    yield arg, (f"locally-defined function {arg.id!r} "
                                f"passed to .{method}()")
                elif isinstance(arg, ast.Name) and arg.id in lambdas:
                    yield arg, f"lambda {arg.id!r} passed to .{method}()"


def environment_reads(tree, imports):
    """REP105: ``os.environ`` or ``os.getenv`` outside ``cli.py``."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.Attribute, ast.Name)) \
                and resolve(imports, node) == "os.environ":
            yield node, "os.environ read"
        elif isinstance(node, ast.Call) \
                and resolve(imports, node.func) == "os.getenv":
            yield node, "os.getenv() read"


def float_equality(tree, imports):
    """REP106: ``==`` / ``!=`` against a float literal."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Compare) and any(
                isinstance(op, (ast.Eq, ast.NotEq)) for op in node.ops) \
                and any(isinstance(operand, ast.Constant)
                        and isinstance(operand.value, float)
                        for operand in [node.left, *node.comparators]):
            yield node, "exact ==/!= against a float literal"


def _mutable(node):
    if isinstance(node, (ast.List, ast.Dict, ast.Set)):
        return True
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id in ("list", "dict", "set", "bytearray")
            and not arguments(node))


def mutable_defaults_and_bare_except(tree, imports):
    """REP107: a default shared across calls, or an ``except:`` that
    swallows ``KeyboardInterrupt`` and real failures alike."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda)):
            for default in [*node.args.defaults, *node.args.kw_defaults]:
                if default is not None and _mutable(default):
                    yield default, "mutable default argument"
        elif isinstance(node, ast.ExceptHandler) and node.type is None:
            yield node, "bare except"


_RAW_DATAGRAM_CALLS = {"sendto", "recvfrom", "recvfrom_into", "recvmsg",
                       "recvmsg_into", "sendmsg"}


def raw_datagram_io(tree, imports):
    """REP111: a datagram sent or received around ``DatagramBatchIO``,
    which owns the zero-copy buffers and the fault-plan hooks."""
    for call in calls(tree):
        method = getattr(call.func, "attr", None)
        if method in _RAW_DATAGRAM_CALLS:
            yield call, f".{method}() bypasses the batch I/O layer"


def constant_seeds(tree, imports):
    """REP113: ``random.Random(<constant>)``, or the ``random`` module
    itself passed where an RNG instance goes."""
    for call in calls(tree):
        feeds = arguments(call)
        if resolve(imports, call.func) == "random.Random" and feeds \
                and not any(isinstance(sub, (ast.Name, ast.Attribute))
                            for arg in feeds for sub in ast.walk(arg)):
            yield call, "random.Random seeded with a constant"
        for arg in feeds:
            module = resolve(imports, arg) if isinstance(arg, ast.Name) \
                else None
            if module in ("random", "numpy.random"):
                yield arg, f"the {module} module passed as an RNG"


def _under(*packages):
    return lambda unit: unit.split("/", 1)[0] in packages and "/" in unit


#: rule -> (which units it reads, check).
RULES = {
    "REP101": (lambda unit: not unit.startswith("benchmarks/"),
               unseeded_rng),
    "REP102": (_under("sim", "simnet", "core", "analysis", "congestion"),
               wall_clock),
    "REP103": (_under("sim", "core"), hash_ordered_iteration),
    "REP104": (lambda unit: True, process_boundary_closures),
    "REP105": (lambda unit: unit != "cli.py", environment_reads),
    "REP106": (_under("analysis"), float_equality),
    "REP107": (lambda unit: True, mutable_defaults_and_bare_except),
    "REP111": (lambda unit: _under("service", "udpnet")(unit)
               and unit != "service/iobatch.py", raw_datagram_io),
    "REP113": (_under("sim", "simnet", "faults", "workloads", "parallel",
                      "congestion"), constant_seeds),
}


def parse(root, prefix=""):
    """``{path: (unit, tree)}`` for every ``.py`` file under ``root``.
    ``ast.parse`` of the raw bytes decodes as Python does (PEP 263)."""
    return {path: (prefix + path.relative_to(root).as_posix(),
                   ast.parse(path.read_bytes(), filename=str(path)))
            for path in sorted(root.rglob("*.py"))}


def findings(sources):
    """``(path, rule, line, message)`` for what the rules find."""
    found = []
    for path, (unit, tree) in sources.items():
        imports = import_map(tree)
        found += [(path, rule, node.lineno, message)
                  for rule, (reads, check) in RULES.items() if reads(unit)
                  for node, message in check(tree, imports)]
    return found


# -- the tree ---------------------------------------------------------------

@pytest.fixture(scope="module")
def sources():
    return {**parse(REPO_ROOT / "src" / "repro"),
            **parse(REPO_ROOT / "benchmarks", "benchmarks/")}


def test_the_tree_keeps_every_rule(sources):
    assert [f"{path.relative_to(REPO_ROOT)}:{line}: {rule} {message}"
            for path, rule, line, message in findings(sources)] == []


def test_every_source_file_was_scanned(sources):
    # A discovery walk that finds nothing would pass the test above;
    # src/repro and benchmarks hold well over 100 files.
    assert len(sources) >= 110


def _imported_modules(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module or ""


def test_no_src_module_imports_benchmarks(sources):
    # REP101 exempts benchmarks/.  Nothing in src/repro may import from
    # there, so no seeded layer can reach a global-RNG draw through it.
    offenders = [
        f"{path.relative_to(REPO_ROOT)}: import {module}"
        for path, (unit, tree) in sources.items()
        if not unit.startswith("benchmarks/")
        for module in _imported_modules(tree)
        if module == "benchmarks" or module.startswith("benchmarks.")
    ]
    assert offenders == []


# -- the fixtures -----------------------------------------------------------

def fixture_findings(rule, which):
    return [row[1:] for row in findings(
        parse(FIXTURES / rule.lower() / which))]


@pytest.mark.parametrize("rule", RULES)
def test_bad_fixture_trips_only_its_own_rule(rule):
    found = fixture_findings(rule, "bad")
    assert found
    assert {row[0] for row in found} == {rule}, found


@pytest.mark.parametrize("rule", RULES)
def test_good_fixture_trips_no_rule(rule):
    assert fixture_findings(rule, "good") == []


def test_rep101_flags_each_bad_call_site():
    # random.random(), Random(), default_rng() and np.random.normal().
    assert [line for _, line, _ in fixture_findings("REP101", "bad")] == [
        9, 13, 17, 21]


def test_rep104_reports_lambda_and_nested_process_targets():
    assert [message for _, _, _, message in findings(
        parse(FIXTURES / "rep104" / "bad" / "cluster", "cluster/"))] == [
        "lambda passed to .Process()",
        "locally-defined function 'entry' passed to .Process()",
    ]


def test_a_coding_cookie_is_honoured(tmp_path):
    # Valid Python, which the interpreter reads as latin-1.
    (tmp_path / "names.py").write_bytes(
        b"# -*- coding: latin-1 -*-\nNAME = 'caf\xe9'\n"
        b"import random\nDRAW = random.random()\n")
    assert [row[1:] for row in findings(parse(tmp_path))] == [
        ("REP101", 4, "random.random() draws from a process-global RNG")]
