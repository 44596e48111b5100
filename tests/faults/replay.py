"""Fault plans as test fixtures: wire drops and arrival orders.

``drops(*indices)`` is the scripted loss of the DES tests: a one-rule
plan with no kinds and direction ``both`` counts every frame on the
simulated wire, so index *i* is the *i*-th frame the medium carries.

``arrival_order`` replays a plan over a pure item sequence (no
substrate), the adversarial-order generator of the tracker and
multi-blast property tests: item *i* nominally arrives at
``i * spacing_s``; a dropped (or detectably corrupted) item vanishes, a
duplicate arrives right after its original, a reordered item with depth
*d* arrives after the next *d* items, and a delayed item ``delay_s``
later.  Integer items are also matched against rule ``seqs``.
"""

from typing import List, Optional, Sequence, Tuple

from repro.faults.plan import FaultPlan, FaultRule, PlanExecutor
from repro.faults.scripted import ScriptedErrors


def drops(*indices: int) -> ScriptedErrors:
    """Lose exactly the wire frames at these 0-based positions."""
    rules = (FaultRule("drop", indices=indices),)
    return ScriptedErrors(FaultPlan(name="drops", rules=rules))


def arrival_order(
    plan: FaultPlan,
    items: Sequence[object],
    seed: Optional[int] = None,
    spacing_s: float = 1.0,
) -> List[object]:
    """The order ``items`` arrive in under ``plan``; deterministic for a
    given ``(plan, seed)``."""
    executor = PlanExecutor(plan, seed=seed)
    events: List[Tuple[float, int, object]] = []
    for i, item in enumerate(items):
        seq = item if isinstance(item, int) else None
        decision = executor.decide("data", "send", seq=seq)
        if decision.drop or (decision.corrupt and not decision.silent):
            continue
        emit = i * spacing_s + decision.delay_s
        if decision.reorder_depth:
            emit += (decision.reorder_depth + 0.5) * spacing_s
        for _ in range(1 + decision.duplicates):
            events.append((emit, len(events), item))
    events.sort(key=lambda event: (event[0], event[1]))
    return [item for _, _, item in events]
