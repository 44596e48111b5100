"""Reachability audit: which functions of ``src/repro`` does anything need?

    PYTHONPATH=src python benchmarks/reach_audit.py   # ~7 min; rewrites results/reach_audit.txt

Runs tier-1 and ``benchmarks`` under ``sys.setprofile``, then the CLI and the examples in this
process, and lists every function reached by nothing, or only by the unit tests of its own package
(``tests/<pkg>/`` for ``src/repro/<pkg>/``).  Child processes are not followed.  The committed
ledger is also the keep list: a row's ``keep:`` reason is written by hand and carried over.  Exit 1
when a function outside that list is reached by nothing; own-tests-only rows are reported, never
gated (a path hit only when a socket timer fires must not fail a build).
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
CLI = """compare --size 8K --error-p 0.01 --runs 4|table 1|table 2|table 3|figure 3|figure 4
figure 5|figure 6|timeline --protocol blast --packets 3|regen --out {tmp}/regen|lint|congestion
moveto --size 8K --error-p 1e-4|lint --changed HEAD|lint --fsm-matrix {tmp}/fsm.txt
faults --substrate des --plans drop-replies,dup-burst|loadgen --mode udp --clients 2
loadgen --clients 4 --policy auto --sizes page-cluster|cluster --mode des --flows 256,512
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
    LEDGER.write_text(
        "# reachability audit -- regenerate: PYTHONPATH=src python benchmarks/reach_audit.py\n"
        + header + "\n" + "".join(f"{kind:<9} {label} {lines}  keep: {keep.get(label, '?')}\n"
                                  for kind, label, lines in sorted(rows)))
    new = [label for kind, label, _ in rows if kind == "unreached" and label not in keep]
    print(header, *(f"reached by nothing, not in the committed list: {x}" for x in new), sep="\n")
    return 1 if new else 0


if __name__ == "__main__":
    sys.exit(main())
