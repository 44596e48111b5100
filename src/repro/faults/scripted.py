"""DES adapter: replay a :class:`FaultPlan` as a simnet ``ErrorModel``.

The :class:`~repro.simnet.medium.Medium` asks its error model once per
frame, in wire order, through ``fate()``, which consults up to four
hooks (``drops``, ``corrupts``, ``duplicates``, ``delay_s``).
:class:`ScriptedErrors` evaluates the plan exactly once per frame —
inside :meth:`drops`, which ``fate()`` always calls first — caches the
resulting :class:`~repro.faults.plan.FaultDecision`, and serves the
remaining hooks from that cache.  This keeps every stochastic rule's RNG stream
advancing one draw per matched frame, the invariant that makes a seeded
plan replay identically across substrates.

Direction mapping on the shared wire: the medium sees every frame of
both parties once, so frames are classified by *role* — data/control
frames are the transfer's ``send`` stream, ack/nak frames its ``recv``
stream (see :func:`repro.faults.plan.frame_stream_key`).  A reorder
decision has no native DES primitive; it degrades to an extra delay of
``reorder_depth ×`` :data:`REORDER_UNIT_S`, which on a serialised wire
achieves the same overtaking effect.
"""

from __future__ import annotations

from typing import Optional

from ..simnet.errors import ErrorModel
from .plan import NO_FAULT, FaultDecision, FaultPlan, PlanExecutor, frame_stream_key

__all__ = ["REORDER_UNIT_S", "ScriptedErrors"]

#: Seconds of extra wire delay per unit of reorder depth: longer than
#: one data frame's transmission plus propagation on the paper's LAN,
#: so a reordered frame is overtaken by ``depth`` later ones.
REORDER_UNIT_S = 0.002


class ScriptedErrors(ErrorModel):
    """Interpret a :class:`FaultPlan` on the simulated wire.

    Parameters
    ----------
    plan:
        The fault plan to replay.
    seed:
        Root seed for the plan's stochastic rules (default: the plan's
        own seed).
    """

    def __init__(self, plan: FaultPlan, seed: Optional[int] = None):
        self.plan = plan
        self.executor = PlanExecutor(plan, seed=seed)
        self._pending: FaultDecision = NO_FAULT
        self.frames_seen = 0

    @property
    def faults_fired(self) -> int:
        """Total plan-rule firings so far."""
        return self.executor.faults_fired

    def drops(self, frame: object) -> bool:
        """Evaluate the plan for ``frame``; True if it never arrives.

        Detectable corruption (``silent=False``) is reported here too:
        at protocol level a frame the link CRC rejects *is* a loss, and
        reporting it as one keeps the medium's drop counters honest.
        """
        self.frames_seen += 1
        kind, direction, seq = frame_stream_key(frame)
        self._pending = self.executor.decide(kind, direction, seq=seq)
        if self._pending.drop:
            return True
        return self._pending.corrupt and not self._pending.silent

    def corrupts(self, frame: object) -> bool:
        """True only for *silent* (CRC-evading) corruption."""
        return self._pending.corrupt and self._pending.silent

    def duplicates(self, frame: object) -> int:
        return self._pending.duplicates

    def delay_s(self, frame: object) -> float:
        extra = self._pending.delay_s
        if self._pending.reorder_depth:
            extra += self._pending.reorder_depth * REORDER_UNIT_S
        return extra
