"""Append a parent-vs-change record to BENCH_history.jsonl: the BENCHMARK.json command
in both checkouts, alternating order, one seed per pair; [median, q1, q3] and pairs won;
``calibration_ms`` before each run says whether the box or the code moved between records."""
import argparse
import json
import statistics
import subprocess
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())


def sh(cwd, *argv, check=True):
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True,
                          check=check).stdout.strip()


def sha(checkout):
    dirty = sh(checkout, "git", "status", "--porcelain", "--untracked-files=no")
    return sh(checkout, "git", "rev-parse", "--short", "HEAD") + "+worktree" * bool(dirty)


def calibration_ms():
    """Box speed right now: a fixed pure-Python loop (~3 ms here), best of five."""
    best = float("inf")
    for _ in range(5):
        start, total = time.perf_counter(), 0
        for i in range(100_000):
            total += i & 7
        best = min(best, time.perf_counter() - start)
    return round(best * 1e3, 3)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("--label", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=100)
    args = parser.parse_args()
    checkouts = {"parent": args.parent, "change": ROOT}
    record = {"label": args.label, "pairs": args.pairs, "workloads": {},
              **{side: sha(path) for side, path in checkouts.items()}}
    for workload in (w["name"] for w in CONTRACT["workloads"]):
        runs = {"parent": [], "change": []}
        calibrations = {"parent": [], "change": []}
        for pair in range(args.pairs):
            for side in ("parent", "change")[::-1 if pair % 2 else 1]:
                calibrations[side].append(calibration_ms())
                # Exit 1 = a failed operation: recorded below, not fatal here.
                lines = sh(checkouts[side], *CONTRACT["command"], "--workload",
                           workload, "--seed", str(args.seed + pair), "--seconds",
                           str(CONTRACT["run_seconds"]), "--trace", "0",
                           check=False).splitlines()
                record["fingerprint"] = lines[0].split("; ")[-1].split(" seed=")[0]
                runs[side].append(json.loads(lines[-1]))
        row = record["workloads"][workload] = {"wins": {}, **{
            side: {"calibration_ms": calibrations[side],
                   **{key: sum(r[key] for r in results) for key in ("failed", "attempted")}}
            for side, results in runs.items()}}
        for metric in CONTRACT["end_to_end"]:
            name, sign = metric["name"], 1 if metric["better"] == "higher" else -1
            for side, results in runs.items():
                values = [r["metrics"][name]["value"] for r in results]
                q1, median, q3 = statistics.quantiles(values, n=4)
                row[side][name] = [round(v, 4) for v in (median, q1, q3)]
            row["wins"][name] = sum(
                sign * (c["metrics"][name]["value"] - p["metrics"][name]["value"]) > 0
                for p, c in zip(runs["parent"], runs["change"]))
        print(workload, json.dumps(row), flush=True)  # progress: a record takes ~1 h
    with open(ROOT / "BENCH_history.jsonl", "a") as history:
        history.write(json.dumps(record, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
