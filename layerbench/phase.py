"""What one child lifetime measured, in the same shape for every
workload kind, so the metric arithmetic is written once."""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from .spec import RSS_CELLS, WARMUP_CELLS

__all__ = ["Cell", "Phase", "measure_cells"]


@dataclass
class Cell:
    """One closed-loop unit of work: all its streams start at t=0 and
    the next cell starts only when this one's last payload is verified."""

    busy_s: float                 # udp: makespan to last payload; des: wall
    payload_bytes: int            # verified bytes only
    attempted: int
    failed: int
    completions_ms: List[float]
    cpu_s: float = 0.0            # user+sys CPU of the child for this cell
    pump_cpu_s: float = 0.0       # CPU of the load generator for this cell
    frames: int = 0               # data frames sent / simulated
    #: des_transfer only: protocol family -> (wall s, data frames).
    parts: Dict[str, Tuple[float, float]] = field(default_factory=dict)


@dataclass
class Phase:
    """One child, from spawn to reap.  ``cells`` holds measured cells
    only; the warm-up cells are inside ``setup_s``."""

    setup_s: float
    cells: List[Cell] = field(default_factory=list)
    child_cpu_s: Tuple[float, float] = (0.0, 0.0)   # (user, sys), measured
    peak_rss_mib: float = 0.0
    #: ready line -> farewell, as the parent saw it (for accounted_share).
    child_wall_s: float = 0.0
    cells_served: int = 0         # warm-up + measured, for per-cell ratios
    failed: int = 0               # over every cell the child served
    attempted: int = 0
    problems: List[str] = field(default_factory=list)
    #: From the program's own report: queue waits, rounds, retransmits...
    report: Dict[str, float] = field(default_factory=dict)
    trace: Optional[dict] = None        # the traced child's Tracer.dump()
    pump_trace: Optional[dict] = None   # the parent-side Tracer.dump()
    probes: Dict[str, Optional[float]] = field(default_factory=dict)

    @property
    def busy_s(self) -> float:
        return sum(cell.busy_s for cell in self.cells)

    @property
    def pump_cpu_s(self) -> float:
        return sum(cell.pump_cpu_s for cell in self.cells)

    @property
    def payload_mib(self) -> float:
        return sum(cell.payload_bytes for cell in self.cells) / (1024 * 1024)


def measure_cells(served: list, run_next: Callable[[], object],
                  seconds: float, max_cells: Optional[int],
                  phase: Phase, peak_rss_now_mib: Callable[[], float]) -> None:
    """Append cells to ``served`` (which already holds the warm-up) until
    ``seconds`` have passed or ``max_cells`` are measured, and read the
    child's peak RSS at the fixed cell count.  ``seconds=0`` measures
    nothing: the phase is then a set-up sample only."""
    limit = WARMUP_CELLS + (max_cells or sys.maxsize)
    until = time.monotonic() + seconds
    while (seconds > 0 and len(served) < limit
           and time.monotonic() < until):
        served.append(run_next())
        if len(served) == WARMUP_CELLS + RSS_CELLS:
            phase.peak_rss_mib = peak_rss_now_mib()
