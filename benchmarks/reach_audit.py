"""Reachability audit: which functions and options of ``src/repro`` does anything need?

    PYTHONPATH=src python benchmarks/reach_audit.py   # ~7 min; rewrites results/reach_audit.txt

Runs tier-1 and ``benchmarks`` under ``sys.setprofile``, then the CLI and the examples in this
process, and lists every function reached by nothing, or only by the unit tests of its own package
(``tests/<pkg>/`` for ``src/repro/<pkg>/``).  Child processes are not followed.  A second section
scans the source: every optional ``__init__`` parameter and defaulted dataclass field of a public
``src/repro`` class that no call outside the tests passes (``tests-only``) or no call passes at all
(``unset``) -- an option only one value ever reaches.  A call counts when it names the class (or
``cls`` inside it, or ``super().__init__`` in a subclass), and a keyword counts wherever a ``**``
forwarder, ``dict``, ``update``, ``replace`` or ``partial`` carries it.  The committed ledger is
also the keep list: a row's ``keep:`` reason is written by hand and carried over.  Exit 1 when a
function outside that list is reached by nothing, or an option row is not in it; own-tests-only
function rows are reported, never gated (a path hit only when a socket timer fires must not fail a
build).
"""
import ast
import os
import runpy
import sys
import tempfile
import threading
from contextlib import redirect_stdout, suppress
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = str(ROOT / "src" / "repro") + os.sep
LEDGER = ROOT / "benchmarks" / "results" / "reach_audit.txt"
CALLERS = ("src", "benchmarks", "layerbench", "examples", "tests")
FORWARDERS = {"dict", "update", "replace", "partial"}
CLI = """compare --size 8K --error-p 0.01 --runs 4|table 1|table 2|table 3|figure 3|figure 4
figure 5|figure 6|timeline --protocol blast --packets 3|regen --out {tmp}/regen|congestion
moveto --size 8K --error-p 1e-4
faults --substrate des --plans drop-replies,dup-burst|loadgen --mode udp --clients 2
loadgen --clients 4 --congestion auto --sizes page-cluster|cluster --mode des --flows 256,512
cluster --workers 2 --clients 4""".replace("\n", "|")

reached, context = {}, ["import"]  # (file, first line) -> {contexts}


def _profile(frame, event, _arg):
    code = frame.f_code
    if event == "call" and code.co_filename.startswith(SRC):
        reached.setdefault((code.co_filename, code.co_firstlineno), set()).add(context[0])


def pytest_runtest_logstart(nodeid, location):  # this module is its own pytest plugin
    parts = nodeid.split("/")  # tests/<pkg>/test_x.py::name -> "tests/<pkg>"
    context[0] = "/".join(parts[:2]) if len(parts) > 2 else parts[0]


def functions():
    """Every def under src/repro: (label, package, code key, lines)."""
    for path in sorted(Path(SRC).rglob("*.py")):
        rel, stack = path.relative_to(SRC), [("", ast.parse(path.read_text()))]
        while stack:
            prefix, node = stack.pop()
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    stack.append((f"{prefix}{child.name}.", child))
                    if not isinstance(child, ast.ClassDef):
                        first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                        yield (f"{rel}::{prefix}{child.name}", rel.parts[0],
                               (str(path), first), child.end_lineno - child.lineno + 1)
                else:
                    stack.append((prefix, child))


def _name(node):
    node = node.func if isinstance(node, ast.Call) else node
    return getattr(node, "id", None) or getattr(node, "attr", None)


def _classes():
    """Class name -> (file, parameter names in positional order or None, optional ones, bases)."""
    classes = {}
    for path in sorted(Path(SRC).rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.ClassDef):
                continue
            init = next((n for n in node.body if isinstance(n, ast.FunctionDef) and n.name == "__init__"), None)
            names = optional = None
            if init is not None:
                a = init.args
                names = [x.arg for x in a.posonlyargs + a.args][1:]
                optional = names[len(names) - len(a.defaults):] + [
                    x.arg for x, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]
            elif any(_name(d) == "dataclass" for d in node.decorator_list):
                fields = [(n.target.id, n.value) for n in node.body if isinstance(n, ast.AnnAssign)
                          and "ClassVar" not in ast.unparse(n.annotation)]
                names = [f for f, _ in fields]
                # A field(default_factory=...) is state filled in later, not an option.
                optional = [f for f, d in fields if d is not None and _name(d) != "field"]
            classes[node.name] = (path.relative_to(SRC), names, optional, [_name(b) for b in node.bases])
    return classes


def _calls():
    """(from a test, callee name, call) for every call in the repository's Python."""
    for top in CALLERS:
        for path in sorted((ROOT / top).rglob("*.py")):
            test, tree = "tests" in path.relative_to(ROOT).parts, ast.parse(path.read_text())
            for cls in (n for n in ast.walk(tree) if isinstance(n, ast.ClassDef)):
                for call in (n for n in ast.walk(cls) if isinstance(n, ast.Call)):
                    if _name(call) == "cls":
                        yield test, cls.name, call
                    elif (_name(call) == "__init__" and isinstance(call.func.value, ast.Call)
                          and _name(call.func.value) == "super" and cls.bases):
                        yield test, _name(cls.bases[0]), call
            for call in (n for n in ast.walk(tree) if isinstance(n, ast.Call)):
                yield test, _name(call), call


def option_rows():
    """("tests-only" | "unset", "file::Class(param)") for each option one value reaches."""
    classes = _classes()
    forwarders = FORWARDERS | {n.name for p in Path(SRC).rglob("*.py") for n in ast.walk(ast.parse(
        p.read_text())) if isinstance(n, ast.FunctionDef) and n.args.kwarg and n.name != "__init__"}

    def owner(name):  # the class whose __init__ a call to ``name`` runs
        while name in classes and classes[name][1] is None:
            name = next(iter(classes[name][3]), None)
        return name if name in classes else None

    passed = {}  # (class, param) or param -> {from a test}
    for test, callee, call in _calls():
        keywords = {k.arg for k in call.keywords if k.arg}
        if callee in forwarders:
            for keyword in keywords:
                passed.setdefault(keyword, set()).add(test)
        cls = owner(callee)
        if cls is not None:
            n_args = sum(not isinstance(a, ast.Starred) for a in call.args)
            for param in set(classes[cls][1][:n_args]) | keywords:
                passed.setdefault((cls, param), set()).add(test)
    rows = []
    for cls, (rel, _, optional, _) in classes.items():
        if cls.startswith("_"):
            continue  # a private record, built in one place
        for param in optional or ():
            by = passed.get((cls, param), set()) | passed.get(param, set())
            if False not in by:
                rows.append(("tests-only" if by else "unset", f"{rel}::{cls}({param})"))
    return sorted(rows)


def main() -> int:
    import pytest
    os.chdir(ROOT)
    threading.setprofile(_profile)
    sys.setprofile(_profile)
    # pytest-benchmark pauses sys.setprofile around what it times: run each bench once, untimed.
    pytest.main(["--benchmark-disable", "tests", "benchmarks"], plugins=[sys.modules[__name__]])
    from repro.cli import main as cli_main
    with tempfile.TemporaryDirectory() as tmp, open(os.devnull, "w") as quiet:
        runs = [("cli", line) for line in CLI.format(tmp=tmp).split("|")]
        runs += [("examples", str(p)) for p in sorted((ROOT / "examples").glob("*.py"))]
        for context[0], line in runs:
            with redirect_stdout(quiet), suppress(SystemExit):
                if context[0] == "cli":
                    cli_main(line.split())
                else:
                    runpy.run_path(line, run_name="__main__")
    sys.setprofile(None)
    old = LEDGER.read_text().splitlines() if LEDGER.exists() else []
    keep = {row.split()[1]: row.split("  keep: ", 1)[1] for row in old if "  keep: " in row}
    found, rows = list(functions()), []
    for label, package, key, lines in found:
        by = reached.get(key, set())
        if not by or by == {f"tests/{package}"}:
            rows.append(("own-tests" if by else "unreached", label, lines))
    sizes = {k: [n for kind, _, n in rows if kind == k] for k in ("unreached", "own-tests")}
    header = f"# {len(found)} functions, {sum(f[3] for f in found)} lines in src/repro" + "".join(
        f"; {kind} {len(lines)} ({sum(lines)} lines)" for kind, lines in sizes.items())
    options = option_rows()
    option_header = f"# {len(options)} options one value reaches" + "".join(
        f"; {kind} {sum(k == kind for k, _ in options)}" for kind in ("tests-only", "unset"))
    LEDGER.write_text(
        "# reachability audit -- regenerate: PYTHONPATH=src python benchmarks/reach_audit.py\n"
        + header + "\n" + "".join(f"{kind:<9} {label} {lines}  keep: {keep.get(label, '?')}\n"
                                  for kind, label, lines in sorted(rows))
        + option_header + "\n" + "".join(f"{kind:<10} {label}  keep: {keep.get(label, '?')}\n"
                                         for kind, label in options))
    new = [label for kind, label, _ in rows if kind == "unreached" and label not in keep]
    unlisted = [label for _, label in options if label not in keep]
    print(header, *(f"reached by nothing, not in the committed list: {x}" for x in new),
          option_header, *(f"option one value reaches, not in the committed list: {x}"
                           for x in unlisted), sep="\n")
    return 1 if new or unlisted else 0


if __name__ == "__main__":
    sys.exit(main())
