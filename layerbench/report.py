"""Printing: every metric by name with its unit, and the one-line JSON
objects machines read."""

from __future__ import annotations

import json
from typing import Dict, Optional

from .run import RunResult
from .spec import END_TO_END, PER_LAYER

__all__ = ["print_fingerprint", "print_result", "contract_line",
           "result_json"]

def print_fingerprint(facts: dict) -> None:
    pairs = " ".join(f"{key}={value}" for key, value in facts.items())
    print(f"layerbench: traffic crosses the host loopback interface only; "
          f"{pairs}")


def _format(value: Optional[float]) -> str:
    return "null" if value is None else f"{value:.6g}"


def print_result(result: RunResult) -> None:
    table = PER_LAYER if result.traced else END_TO_END
    kind = "per-layer (traced run)" if result.traced else \
        "end-to-end (tracing off)"
    print(f"\n== {result.workload}: {kind}; {result.cells} measured cells, "
          f"{result.attempted} attempted, {result.failed} failed ==")
    for metric in table:
        line = (f"  {metric.name:<40} {_format(result.metrics[metric.name]):>12}"
                f" {metric.unit}")
        stats = result.detail.get(metric.name)
        if stats:
            line += (f"   [cells: median {stats['median']:.4g}  "
                     f"q1 {stats['q1']:.4g}  q3 {stats['q3']:.4g}  "
                     f"n={stats['n']}]")
        elif metric.name == "setup_s":
            line += "   [set-ups: " + " ".join(
                f"{s:.3f}" for s in result.setups_s) + "]"
        print(line)
    pooled = result.detail.get("completion_ms")
    if pooled:
        print(f"  pooled stream completions: median {pooled['median']:.4g} ms"
              f"  q1 {pooled['q1']:.4g}  q3 {pooled['q3']:.4g}  "
              f"n={pooled['n']}")
    for problem in result.problems:
        print(f"  PROBLEM: {problem}")


def contract_line(result: RunResult) -> str:
    """The driver's last line.  It wants a number for every metric, so a
    dead probe (null in :func:`print_result`) is written as 0."""
    table = PER_LAYER if result.traced else END_TO_END
    return json.dumps({
        "correct": result.correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {
            m.name: {"value": result.metrics[m.name] or 0.0, "unit": m.unit}
            for m in table
        },
    })


def result_json(result: RunResult) -> Dict[str, object]:
    return {
        "metrics": result.metrics, "cells": result.cells,
        "attempted": result.attempted, "failed": result.failed,
        "problems": result.problems, "detail": result.detail,
        "setups_s": result.setups_s,
    }
