"""Command line.

``python -m layerbench --workload W --seed N --seconds S --trace 0|1``
is the driver's contract: one run of one workload, the metrics table,
then one JSON object as the last line of stdout.

Without ``--trace`` it is the suite: every workload (or the one named)
end to end with tracing off, then its traced per-layer run.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import signal
import sys
from typing import Dict, List, Optional

from .child import REPO_ROOT
from .spec import (END_TO_END, RUN_SECONDS, SETUP_REPEATS, WORKLOADS,
                   manifest, workload)

SMOKE_CELLS = 2


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="python -m layerbench",
                                     description=__doc__)
    parser.add_argument("--workload", choices=[w.name for w in WORKLOADS])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS,
                        help="measuring time of one run")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=None,
                        help="contract mode: one run, JSON last line")
    parser.add_argument("--smoke", action="store_true",
                        help=f"{SMOKE_CELLS} cells per workload, one set-up")
    parser.add_argument("--traced", action="store_true",
                        help="suite: only the traced per-layer runs")
    parser.add_argument("--repeat-check", action="store_true",
                        help="two end-to-end sets back to back; fail if a "
                             "metric moves by more than its bound")
    parser.add_argument("--spans-out", metavar="FILE",
                        help="write the raw spans of the traced runs here")
    parser.add_argument("--write-manifest", action="store_true",
                        help="write BENCHMARK.json from layerbench/spec.py")
    return parser


def _program_present() -> bool:
    """Make ``repro`` importable from the checkout's ``src``; False in a
    directory that holds the benchmark but not the program."""
    src = os.path.join(REPO_ROOT, "src")
    if os.path.isdir(src) and src not in sys.path:
        sys.path.insert(0, src)
    return importlib.util.find_spec("repro") is not None


def _terminate(signum, frame):
    # Unwind through the Child context managers so no server is orphaned.
    sys.exit(128 + signum)


def _contract(args, pinning) -> int:
    from .report import contract_line, print_result
    from .run import run_end_to_end, run_traced

    if args.workload is None:
        print("layerbench: --trace needs --workload", file=sys.stderr)
        return 2
    run = run_traced if args.trace else run_end_to_end
    result = run(workload(args.workload), args.seed, args.seconds, pinning)
    print_result(result)
    _write_spans(args.spans_out, {args.workload: result})
    print(contract_line(result), flush=True)
    return 0 if result.correct else 1


def _write_spans(path: Optional[str], traced_results: Dict[str, object]):
    if not path:
        return
    spans = {
        name: {"child": (result.phase.trace or {}).get("raw_spans", []),
               "pump": (result.phase.pump_trace or {}).get("raw_spans", [])}
        for name, result in traced_results.items() if result.traced
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(spans, handle)


def _end_to_end_set(chosen, args, pinning) -> Dict[str, object]:
    from .report import print_result
    from .run import run_end_to_end

    results = {}
    for spec in chosen:
        results[spec.name] = run_end_to_end(
            spec, args.seed, args.seconds, pinning,
            setup_repeats=1 if args.smoke else SETUP_REPEATS,
            max_cells=SMOKE_CELLS if args.smoke else None)
        print_result(results[spec.name])
    return results


def _repeat_check(first, second) -> List[str]:
    """Metrics that moved between two sets by more than their bound."""
    moved = []
    for name in first:
        for metric in END_TO_END:
            a = first[name].metrics[metric.name]
            b = second[name].metrics[metric.name]
            change = abs(b - a) / abs(a)
            verdict = "ok" if change <= metric.bound else "MOVED"
            print(f"  {name:<18} {metric.name:<24} {a:>12.6g} {b:>12.6g} "
                  f"{change:>7.1%}  bound {metric.bound:.0%}  {verdict}")
            if change > metric.bound:
                moved.append(f"{name}.{metric.name}")
    return moved


def _suite(args, pinning, facts) -> int:
    from .report import print_result, result_json
    from .run import run_traced

    chosen = [workload(args.workload)] if args.workload else list(WORKLOADS)
    out = {"claim": None, "fingerprint": facts, "sets": [], "per_layer": {}}
    sets = []
    if not args.traced:
        sets.append(_end_to_end_set(chosen, args, pinning))
        if args.repeat_check:
            sets.append(_end_to_end_set(chosen, args, pinning))
    traced = {}
    if not args.repeat_check:
        for spec in chosen:
            reference = sets[0][spec.name].phase if sets else None
            traced[spec.name] = run_traced(
                spec, args.seed, args.seconds, pinning, reference=reference,
                max_cells=SMOKE_CELLS if args.smoke else None)
            print_result(traced[spec.name])
        _write_spans(args.spans_out, traced)
    moved: List[str] = []
    if args.repeat_check:
        print("\n== repeat check: set 1 vs set 2 ==")
        moved = _repeat_check(*sets)
    every = [r for group in sets + [traced] for r in group.values()]
    out["sets"] = [{n: result_json(r) for n, r in group.items()}
                   for group in sets]
    out["per_layer"] = {n: result_json(r) for n, r in traced.items()}
    out["moved"] = moved
    out["correct"] = all(r.correct for r in every)
    print(json.dumps(out), flush=True)
    for result in every:
        if not result.correct:
            print(f"layerbench: FAILED: {result.workload}: {result.failed} of "
                  f"{result.attempted} failed; {result.problems}",
                  file=sys.stderr)
    if moved:
        print(f"layerbench: repeat check failed: {moved}", file=sys.stderr)
    return 0 if out["correct"] and not moved else 1


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.write_manifest:
        path = os.path.join(REPO_ROOT, "BENCHMARK.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(manifest(), handle, indent=2)
            handle.write("\n")
        print(f"wrote {path}")
        return 0
    if not _program_present():
        print("layerbench: no src/repro beside layerbench/: nothing to "
              "measure", file=sys.stderr)
        return 2
    from .env import fingerprint, pinned
    from .report import print_fingerprint

    signal.signal(signal.SIGTERM, _terminate)
    with pinned() as pinning:
        facts = fingerprint(pinning, args.seed, args.seconds)
        print_fingerprint(facts)
        if args.trace is not None:
            return _contract(args, pinning)
        return _suite(args, pinning, facts)
