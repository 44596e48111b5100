"""V-kernel adapter: fault-inject the interkernel IPC path.

The V-kernel's Send/Receive/Reply rendezvous already implements the
at-least-once machinery (request retransmission, duplicate suppression,
reply replay) that the paper's kernel RPC relies on — but nothing in the
repo could *exercise* it adversarially.  :class:`IpcFaultHook` plugs a
:class:`~repro.faults.plan.FaultPlan` into
:meth:`repro.vkernel.kernel.VKernel._transmit`: remote IPC frames are
classified as ``control`` traffic (requests travel ``send``, replies
``recv``, ``seq`` is the message id) and can be dropped, duplicated, or
delayed before they reach the peer kernel's host.

Corruption has no byte-level meaning for in-simulator message tuples,
so a detectable-corrupt decision degrades to a drop (exactly what a
CRC-rejecting receiver produces) and reordering degrades to a delay of
``depth × reorder_unit_s`` — the same conventions
:class:`~repro.faults.scripted.ScriptedErrors` uses on the DES wire.

``MoveTo``/``MoveFrom`` bulk data runs the blast engine over the
simulated LAN, so it is faulted the normal way: build the LAN's
:class:`~repro.simnet.medium.Medium` with a
:class:`~repro.faults.scripted.ScriptedErrors` model.  This module only
covers the rendezvous control plane the blast path does not traverse.
"""

from __future__ import annotations

from typing import Optional

from ..sim import Environment
from .plan import FaultDecision, FaultPlan, PlanExecutor

__all__ = ["IpcFaultHook"]


class IpcFaultHook:
    """Interpret a fault plan over a kernel's outgoing remote IPC frames.

    Parameters
    ----------
    plan:
        The plan to replay.  Rules matching kind ``control`` (or with no
        kind filter) apply; ``seqs`` matches message ids.
    seed:
        Root seed for stochastic rules (default: the plan's own).
    env:
        Simulation environment; supplies the clock for ``window_s``
        rules.
    reorder_unit_s:
        Seconds of delay per unit of reorder depth.
    """

    def __init__(
        self,
        plan: FaultPlan,
        seed: Optional[int] = None,
        env: Optional[Environment] = None,
        reorder_unit_s: float = 0.002,
    ):
        if reorder_unit_s <= 0:
            raise ValueError("reorder_unit_s must be > 0")
        self.plan = plan
        self.reorder_unit_s = reorder_unit_s
        clock = (lambda: env.now) if env is not None else None
        self.executor = PlanExecutor(plan, seed=seed, clock=clock)
        self.frames_seen = 0
        self.frames_dropped = 0
        self.frames_duplicated = 0

    def decide(self, frame: object) -> FaultDecision:
        """Plan decision for one outgoing remote :class:`MessageFrame`.

        Requests (``MessageKind.SEND``) are the kernel's ``send``
        stream, replies its ``recv`` stream, mirroring the wire-level
        convention that payload-bearing traffic is outbound and
        responses inbound.
        """
        from ..vkernel.messages import MessageKind

        self.frames_seen += 1
        kind_attr = getattr(frame, "kind", None)
        direction = "recv" if kind_attr is MessageKind.REPLY else "send"
        seq = getattr(frame, "msg_id", None)
        decision = self.executor.decide("control", direction, seq=seq)
        if decision.corrupt and not decision.silent:
            # A corrupted in-simulator message is rejected on arrival:
            # indistinguishable from a loss.
            decision = FaultDecision(
                drop=True,
                duplicates=decision.duplicates,
                delay_s=decision.delay_s,
                reorder_depth=decision.reorder_depth,
            )
        if decision.drop:
            self.frames_dropped += 1
        self.frames_duplicated += decision.duplicates
        return decision

    def extra_delay_s(self, decision: FaultDecision) -> float:
        """Total injected latency: explicit delay + degraded reorder."""
        return decision.delay_s + decision.reorder_depth * self.reorder_unit_s
