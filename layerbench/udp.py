"""The three loopback-UDP workloads: one pinned ``repro serve`` child,
one ``UdpClientPump`` in this process, cells back to back.

Touches only: the ``repro serve`` flags below, its ``serving on`` line,
SIGTERM -> JSON report (``summary.{ok,transfers,data_frames,retransmits,
max_queue_depth}``, per-transfer ``queue_wait_s``, ``rounds``,
``data_frames``), ``UdpClientPump(...)``, ``.run()``,
``.stats.{elapsed_s,payload_bytes}`` and result ``.ok`` / ``.elapsed_s``.
"""

from __future__ import annotations

import json
import time
from typing import List, Optional, Tuple

from repro.service.clientpump import UdpClientPump

from .child import Child, ChildError
from .env import Pinning
from .phase import Cell, Phase, measure_cells
from .spec import WARMUP_CELLS, Workload
from .stats import percentile
from .tracing import PUMP_PROBES, Tracer

__all__ = ["run_phase"]

#: A cell that has not finished by now counts all its streams as failed.
CELL_TIMEOUT_S = 30.0
#: Server ``--duration`` beyond the measuring time: a lost parent cannot
#: leave a server behind for longer than this.
SERVER_SLACK_S = 120.0


def _serve_args(workload: Workload, seed: int, duration_s: float) -> List[str]:
    p = workload.params
    return [
        "serve", "--port", "0",
        "--protocol", str(p["protocol"]), "--policy", str(p["policy"]),
        "--max-active", str(p["max_active"]),
        "--max-queue", str(p["max_queue"]),
        "--window", str(p["window"]), "--seed", str(seed),
        "--duration", f"{duration_s:.0f}", "--report", "json",
    ]


def _parse_address(line: str) -> Tuple[str, int]:
    # "serving on 127.0.0.1:40123 (blast, policy=rr, congestion=fixed)"
    if not line.startswith("serving on "):
        raise ChildError(f"unexpected ready line: {line!r}")
    host, _, port = line.split()[2].rpartition(":")
    return host, int(port)


def _run_cell(child: Child, address, workload: Workload,
              index: int) -> Cell:
    p = workload.params
    streams = int(p["streams"])
    pump = UdpClientPump(
        address, [int(p["size"])] * streams, protocol=str(p["protocol"]),
        first_stream=1 + index * streams, linger_s=0.1, slot_bytes=8192,
        recv_timeout_s=CELL_TIMEOUT_S,
    )
    cpu_before, pump_before = child.cpu_fine_seconds(), time.process_time()
    results = pump.run(overall_timeout_s=CELL_TIMEOUT_S)
    pump_cpu_s = time.process_time() - pump_before
    cpu_s = child.cpu_fine_seconds() - cpu_before
    ok = [result for result in results.values() if result.ok]
    return Cell(
        busy_s=pump.stats.elapsed_s,
        payload_bytes=pump.stats.payload_bytes,
        attempted=streams,
        failed=streams - len(ok),
        completions_ms=[result.elapsed_s * 1e3 for result in ok],
        cpu_s=cpu_s,
        pump_cpu_s=pump_cpu_s,
    )


def _digest_report(phase: Phase, report: dict, cells: List[Cell],
                   streams: int) -> None:
    """Cross-check the server's report against what the pump verified
    and keep the per-layer facts only the program knows."""
    summary = report["summary"]
    phase.attempted = len(cells) * streams
    client_failed = sum(cell.failed for cell in cells)
    phase.failed = max(client_failed, phase.attempted - summary["ok"])
    if summary["ok"] != phase.attempted - client_failed:
        phase.problems.append(
            f"server reports {summary['ok']} ok of {summary['transfers']} "
            f"transfers, the pump verified "
            f"{phase.attempted - client_failed} of {phase.attempted}")
    rows = {row["stream"]: row for row in report["transfers"]}
    for index, cell in enumerate(cells):
        first = 1 + index * streams
        cell.frames = sum(rows[s]["data_frames"]
                          for s in range(first, first + streams) if s in rows)
    waits = [row["queue_wait_s"] * 1e3 for row in rows.values()
             if row["queue_wait_s"] is not None]
    rounds = [row["rounds"] for row in rows.values()]
    phase.report = {
        "queue_wait_p50_ms": percentile(waits, 0.5),
        "max_queue_depth": summary["max_queue_depth"],
        "retransmit_share": (summary["retransmits"] / summary["data_frames"]
                             if summary["data_frames"] else 0.0),
        "rounds_mean": sum(rounds) / len(rounds) if rounds else 0.0,
    }


def run_phase(workload: Workload, seed: int, seconds: float,
              pinning: Pinning, traced: bool = False,
              max_cells: Optional[int] = None) -> Phase:
    """Spawn a server, warm up, measure cells (see
    :func:`~layerbench.phase.measure_cells`), stop it."""
    module = (["-m", "layerbench.traced_server"] if traced
              else ["-m", "repro"])
    args = module + _serve_args(workload, seed, seconds + SERVER_SLACK_S)
    streams = int(workload.params["streams"])
    pump_tracer: Optional[Tracer] = None
    with Child(args, cpu=pinning.child_cpu,
               hard_timeout_s=seconds + SERVER_SLACK_S) as child:
        address = _parse_address(child.read_line(30.0))
        ready_at = time.monotonic()
        if traced:
            pump_tracer = Tracer()
            pump_tracer.install(PUMP_PROBES)
        try:
            cells = [_run_cell(child, address, workload, index)
                     for index in range(WARMUP_CELLS)]
            phase = Phase(setup_s=time.monotonic() - child.spawned_at)
            cpu_before = child.cpu_seconds()
            measure_cells(
                cells,
                lambda: _run_cell(child, address, workload, len(cells)),
                seconds, max_cells, phase, child.peak_rss_now_mib)
            cpu_after = child.cpu_seconds()
        finally:
            if pump_tracer is not None:
                pump_tracer.uninstall()
        farewell = child.stop(lines=2 if traced else 1)
        phase.child_wall_s = time.monotonic() - ready_at
    phase.cells = cells[WARMUP_CELLS:]
    phase.cells_served = len(cells)
    phase.child_cpu_s = (cpu_after[0] - cpu_before[0],
                         cpu_after[1] - cpu_before[1])
    phase.peak_rss_mib = phase.peak_rss_mib or child.peak_rss_mib
    if child.exit_code != 0:
        phase.problems.append(f"server exited with code {child.exit_code}")
    _digest_report(phase, json.loads(farewell[0]), cells, streams)
    if traced:
        phase.trace = json.loads(farewell[1])
        phase.pump_trace = pump_tracer.dump()
    return phase
