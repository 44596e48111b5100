"""The two simulator workloads, parent side: spawn the pinned worker,
hand it cells until the time is up, collect what it measured."""

from __future__ import annotations

import json
import time
from typing import List, Optional

from .child import Child
from .env import Pinning
from .phase import Cell, Phase, measure_cells
from .spec import WARMUP_CELLS, Workload
from .stats import percentile

__all__ = ["run_phase"]

CELL_TIMEOUT_S = 60.0
WORKER_SLACK_S = 120.0


def _ask_cell(child: Child, index: int) -> dict:
    child.send_line(f"cell {index}")
    return json.loads(child.read_line(CELL_TIMEOUT_S))


def _to_cell(answer: dict) -> Cell:
    return Cell(
        busy_s=answer["wall_s"],
        payload_bytes=answer["payload_bytes"],
        attempted=answer["attempted"],
        failed=answer["failed"],
        completions_ms=answer["completions_ms"],
        cpu_s=answer["cpu_s"],
        frames=answer["frames"],
        parts=answer["parts"],
    )


def run_phase(workload: Workload, seed: int, seconds: float,
              pinning: Pinning, traced: bool = False,
              max_cells: Optional[int] = None) -> Phase:
    """Spawn a worker, warm up, measure cells (see
    :func:`~layerbench.phase.measure_cells`), stop it.

    The warm-up runs cell 0 twice: same seed, so the two canonical
    report digests must be equal, which is the determinism gate.
    """
    args = ["-m", "layerbench.des_worker", "--workload", workload.name,
            "--seed", str(seed)] + (["--traced"] if traced else [])
    with Child(args, cpu=pinning.child_cpu,
               hard_timeout_s=seconds + WORKER_SLACK_S) as child:
        json.loads(child.read_line(30.0))       # {"ready": true}
        ready_at = time.monotonic()
        answers: List[dict] = [_ask_cell(child, 0)
                               for _ in range(WARMUP_CELLS)]
        phase = Phase(setup_s=time.monotonic() - child.spawned_at)
        measure_cells(answers, lambda: _ask_cell(child, len(answers) - 1),
                      seconds, max_cells, phase, child.peak_rss_now_mib)
        child.send_line("quit")
        farewell = json.loads(child.finish(lines=1)[0])
        phase.child_wall_s = time.monotonic() - ready_at
    measured = answers[WARMUP_CELLS:]
    phase.cells = [_to_cell(answer) for answer in measured]
    phase.cells_served = len(answers)
    # The worker is single-threaded and pinned: its process_time is all
    # user+sys CPU.  The split is not needed for the DES rows.
    phase.child_cpu_s = (sum(a["cpu_s"] for a in measured), 0.0)
    phase.peak_rss_mib = phase.peak_rss_mib or child.peak_rss_mib
    phase.attempted = sum(a["attempted"] for a in answers)
    phase.failed = sum(a["failed"] for a in answers)
    if child.exit_code != 0:
        phase.problems.append(f"worker exited with code {child.exit_code}")
    if len({a["digest"] for a in answers[:WARMUP_CELLS]}) != 1:
        phase.problems.append("cell 0 re-run with the same seed gave a "
                              "different canonical report digest")
    reports = [a["report"] for a in answers if a["report"]]
    if reports:
        waits = [w for r in reports for w in r["queue_waits_ms"]]
        rounds = [n for r in reports for n in r["rounds"]]
        frames = sum(a["frames"] for a in answers)
        phase.report = {
            "queue_wait_p50_ms": percentile(waits, 0.5),
            "max_queue_depth": max(r["max_queue_depth"] for r in reports),
            "retransmit_share": (sum(r["retransmits"] for r in reports)
                                 / frames if frames else 0.0),
            "rounds_mean": sum(rounds) / len(rounds) if rounds else 0.0,
        }
    phase.trace = farewell["trace"]
    phase.probes = farewell["probes"]
    return phase
