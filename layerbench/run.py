"""One run of one workload: the unit both the driver's contract command
and the full suite are made of."""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from . import des, udp
from .env import Pinning
from .ledger import detail, end_to_end, per_layer
from .phase import Phase
from .spec import REFERENCE_SHARE, SETUP_REPEATS, Workload

__all__ = ["RunResult", "run_end_to_end", "run_traced"]

_RUNNERS = {"udp": udp.run_phase, "des": des.run_phase}


@dataclass
class RunResult:
    """What one run reports; ``metrics`` holds None for a dead probe."""

    workload: str
    traced: bool
    metrics: Dict[str, Optional[float]]
    attempted: int
    failed: int
    problems: List[str]
    #: The measured phase, so a suite can reuse an untraced run as the
    #: traced run's reference and write out the raw spans.
    phase: Phase
    detail: Dict[str, Dict[str, float]] = field(default_factory=dict)
    setups_s: List[float] = field(default_factory=list)

    @property
    def cells(self) -> int:
        return len(self.phase.cells)

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.problems


def _tally(phases: List[Phase]):
    return (sum(p.attempted for p in phases), sum(p.failed for p in phases),
            [problem for p in phases for problem in p.problems])


def run_end_to_end(workload: Workload, seed: int, seconds: float,
                   pinning: Pinning, setup_repeats: int = SETUP_REPEATS,
                   max_cells: Optional[int] = None) -> RunResult:
    """Tracing off.  Sets up ``setup_repeats`` times: the measured child
    plus spare set-ups (spawn, warm-up cells, stop) placed half before
    and half after it, so that one disturbed moment of the machine
    cannot reach every sample setup_s is taken from."""
    run_phase = _RUNNERS[workload.kind]

    def spare_setups(count: int) -> List[Phase]:
        return [run_phase(workload, seed, 0, pinning) for _ in range(count)]

    spares = spare_setups((setup_repeats - 1) // 2)
    phase = run_phase(workload, seed, seconds, pinning, max_cells=max_cells)
    spares += spare_setups(setup_repeats - 1 - len(spares))
    setups = [p.setup_s for p in spares] + [phase.setup_s]
    attempted, failed, problems = _tally(spares + [phase])
    return RunResult(workload.name, False, end_to_end(phase, setups),
                     attempted, failed, problems, phase,
                     detail(phase), setups)


def run_traced(workload: Workload, seed: int, seconds: float,
               pinning: Pinning, reference: Optional[Phase] = None,
               max_cells: Optional[int] = None) -> RunResult:
    """The per-layer ledger: an untraced reference phase (a short one of
    its own unless the caller already has one), then the traced phase on
    a fresh child."""
    run_phase = _RUNNERS[workload.kind]
    phases = []
    if reference is None:
        reference = run_phase(workload, seed, seconds * REFERENCE_SHARE,
                              pinning, max_cells=max_cells)
        phases.append(reference)
    traced = run_phase(workload, seed, seconds * (1 - REFERENCE_SHARE),
                       pinning, traced=True, max_cells=max_cells)
    phases.append(traced)
    for dump in (traced.trace, traced.pump_trace):
        for target in (dump or {}).get("missing", ()):
            print(f"layerbench: WARNING: probe target {target} not found; "
                  f"metrics built on it read null", file=sys.stderr)
    attempted, failed, problems = _tally(phases)
    return RunResult(workload.name, True,
                     per_layer(workload, traced, reference),
                     attempted, failed, problems, traced)
