"""The pluggable congestion-controller seam.

Every sender machine in :mod:`repro.service.machines` (and so every
transfer path, simulated or on sockets) consults one of these objects
for two numbers — the current window (packets allowed in flight / burst
depth) and the current retransmission timeout — and feeds it the five
events congestion control cares about: a new ack, a duplicate ack,
explicit loss evidence (a NAK report), a timer expiry, and a clean RTT
sample.

:class:`FixedController` is the paper's behaviour and the default
everywhere: an effectively unbounded window and a constant RTO, with
every event a no-op.  Because the callers route *all* window and
timeout arithmetic through the controller, plugging in ``fixed``
reproduces the pre-congestion behaviour byte-for-byte — the golden
ledgers (conformance matrix, service scaling, perf structure) pin
this.
"""

from __future__ import annotations

from typing import Optional

__all__ = [
    "CONTROLLER_NAMES",
    "CongestionController",
    "FixedController",
    "make_controller",
]

#: Controller names accepted by :func:`make_controller` and the CLI.
#: ``auto`` is resolved per transfer by the tuner, which always lands on
#: one of the other two.
CONTROLLER_NAMES = ("fixed", "reno", "auto")

#: Window returned by :class:`FixedController` — larger than any real
#: transfer's packet count, so ``min(window, controller.window())`` is
#: the caller's own limit.
UNBOUNDED_WINDOW = 2 ** 30


class CongestionController:
    """Window + RTO decisions for one transfer, fed by transfer events.

    Controllers are substrate-free: they never read a clock — callers
    pass ``now`` (used only for bookkeeping/timelines) — and never do
    I/O, so one implementation serves the DES simulator and real UDP
    sockets alike.
    """

    #: Name echoed into snapshots and reports.
    name = "abstract"

    def window(self) -> int:
        """Packets the sender may have in flight (or burst back to back)."""
        raise NotImplementedError

    def rto(self) -> float:
        """Seconds to arm the retransmission timer with, right now."""
        raise NotImplementedError

    def on_ack(self, newly_acked: int = 1, now: float = 0.0) -> None:
        """``newly_acked`` previously-unacknowledged packets confirmed."""

    def on_dup_ack(self, now: float = 0.0) -> bool:
        """A duplicate/stale acknowledgement arrived.

        Returns True when the controller wants the lowest outstanding
        packet retransmitted *immediately* (fast retransmit) — exactly
        once per loss event.
        """
        return False

    def on_loss(self, now: float = 0.0) -> None:
        """Explicit loss evidence (a NAK report) short of a timer expiry."""

    def on_timeout(self, now: float = 0.0) -> None:
        """The retransmission timer expired with no progress."""

    def on_rtt_sample(self, rtt_s: float) -> None:
        """One Karn-clean round-trip measurement (no retransmission
        was involved in the exchange)."""

    def snapshot(self) -> Optional[dict]:
        """Counters + timeline for the metrics report; None when the
        controller has nothing to say (keeps fixed-controller reports
        byte-identical to the pre-congestion format)."""
        return None


class FixedController(CongestionController):
    """The paper's discipline: window never closes, T_r never adapts."""

    name = "fixed"

    def __init__(self, timeout_s: float):
        if timeout_s <= 0:
            raise ValueError(f"timeout_s must be > 0, got {timeout_s}")
        self.timeout_s = timeout_s

    def window(self) -> int:
        return UNBOUNDED_WINDOW

    def rto(self) -> float:
        return self.timeout_s


def make_controller(name: str, timeout_s: float) -> CongestionController:
    """Factory keyed by the CLI/config names (``auto`` resolves to the
    tuner's choice before a controller is built, so it is not valid
    here)."""
    if name == "fixed":
        return FixedController(timeout_s)
    if name == "reno":
        from .reno import RenoController

        return RenoController(timeout_s)
    raise ValueError(
        f"unknown congestion controller {name!r}; "
        "choose from ['fixed', 'reno']"
    )
