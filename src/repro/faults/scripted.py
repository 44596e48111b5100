"""DES adapter: replay a :class:`FaultPlan` as a simnet ``ErrorModel``.

The :class:`~repro.simnet.medium.Medium` consults its error model once
per frame, in wire order, through up to four hooks (``drops``,
``corrupts``, ``duplicates``, ``delay_s``).  :class:`ScriptedErrors`
evaluates the plan exactly once per frame — inside :meth:`drops`, which
the medium is guaranteed to call first — caches the resulting
:class:`~repro.faults.plan.FaultDecision`, and serves the remaining
hooks from that cache.  This keeps every stochastic rule's RNG stream
advancing one draw per matched frame, the invariant that makes a seeded
plan replay identically across substrates.

Direction mapping on the shared wire: the medium sees every frame of
both parties once, so frames are classified by *role* — data/control
frames are the transfer's ``send`` stream, ack/nak frames its ``recv``
stream (see :func:`repro.faults.plan.frame_stream_key`).  A reorder
decision has no native DES primitive; it degrades to an extra delay of
``reorder_depth × reorder_unit_s``, which on a serialised wire achieves
the same overtaking effect.
"""

from __future__ import annotations

from typing import Callable, Optional

from ..simnet.errors import ErrorModel
from .plan import NO_FAULT, FaultDecision, FaultPlan, PlanExecutor, frame_stream_key

__all__ = ["ScriptedErrors"]


class ScriptedErrors(ErrorModel):
    """Interpret a :class:`FaultPlan` on the simulated wire.

    Parameters
    ----------
    plan:
        The fault plan to replay.
    seed:
        Root seed for the plan's stochastic rules (default: the plan's
        own seed).
    clock:
        Zero-argument callable returning the current simulated time,
        e.g. ``lambda: env.now``; required only for ``window_s`` rules.
    reorder_unit_s:
        Seconds of extra delay per unit of reorder depth (should exceed
        one frame's transmission+propagation time so the reordered frame
        is genuinely overtaken).
    """

    def __init__(
        self,
        plan: FaultPlan,
        seed: Optional[int] = None,
        clock: Optional[Callable[[], float]] = None,
        reorder_unit_s: float = 0.002,
    ):
        if reorder_unit_s <= 0:
            raise ValueError("reorder_unit_s must be > 0")
        self.plan = plan
        self.reorder_unit_s = reorder_unit_s
        self.executor = PlanExecutor(plan, seed=seed, clock=clock)
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
            extra += self._pending.reorder_depth * self.reorder_unit_s
        return extra
