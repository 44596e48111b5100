"""Blast retransmission strategies (the paper's §3.2 menu).

A strategy is pure decision logic, shared verbatim by the discrete-event
engines and the UDP transport.  It answers two questions:

1. *How does the sender detect failure?* (``mode``)

   - ``TIMER_ONLY``: the receiver stays silent unless the transfer is
     complete; the sender's timer is the only failure signal (§3.2.1).
   - ``NAK_ON_LAST``: the receiver replies ACK-or-NAK when it sees the
     last packet of the sequence; the timer remains as a backstop
     (§3.2.2).
   - ``LAST_PACKET_RELIABLE``: all but the last packet are sent
     unreliably and the last packet is retransmitted periodically until
     *some* reply arrives; the reply carries a reception report
     (§3.2.3 — the partial/selective scheme).

2. *What is resent after a failure?* (:meth:`next_working_set`)

   full retransmission resends everything; go-back-n resends from the
   first missing packet; selective resends exactly the missing set.
"""

from __future__ import annotations

from enum import Enum
from typing import ClassVar, Dict, List, Optional, Type

from .tracker import ReceptionReport

__all__ = [
    "FailureDetection",
    "RetransmissionStrategy",
    "FullRetransmission",
    "FullRetransmissionWithNak",
    "GoBackN",
    "SelectiveRepeat",
    "STRATEGY_REGISTRY",
    "get_strategy",
]


class FailureDetection(Enum):
    """How the sender learns an attempt failed."""

    TIMER_ONLY = "timer_only"
    NAK_ON_LAST = "nak_on_last"
    LAST_PACKET_RELIABLE = "last_packet_reliable"


class RetransmissionStrategy:
    """Base class; concrete strategies override :meth:`next_working_set`."""

    name: ClassVar[str] = ""
    mode: ClassVar[FailureDetection] = FailureDetection.TIMER_ONLY

    def next_working_set(
        self, total: int, report: Optional[ReceptionReport]
    ) -> List[int]:
        """Sequence numbers to send in the next round.

        ``report`` is ``None`` when the failure was detected by timer
        (no reception information available); strategies that depend on a
        report must fall back to full retransmission in that case.
        """
        raise NotImplementedError

    @property
    def uses_nak(self) -> bool:
        """True if the receiver ever sends negative acknowledgements."""
        return self.mode is not FailureDetection.TIMER_ONLY


class FullRetransmission(RetransmissionStrategy):
    """§3.2.1 — resend everything; no NAK; timer-only detection."""

    name = "full_no_nak"
    mode = FailureDetection.TIMER_ONLY

    def next_working_set(self, total, report):
        return list(range(total))


class FullRetransmissionWithNak(RetransmissionStrategy):
    """§3.2.2 — resend everything, but a NAK after the last packet makes
    failure detection fast (the timer only covers a lost last packet)."""

    name = "full_nak"
    mode = FailureDetection.NAK_ON_LAST

    def next_working_set(self, total, report):
        return list(range(total))


class GoBackN(RetransmissionStrategy):
    """§3.2.3 "partial" — resend from the first packet not received.

    The paper's strategy of choice: trivial to implement given the NAK
    and "not significantly worse than more complicated strategies".
    """

    name = "gobackn"
    mode = FailureDetection.LAST_PACKET_RELIABLE

    def next_working_set(self, total, report):
        if report is None or report.first_missing is None:
            return list(range(total))
        return list(range(report.first_missing, total))


class SelectiveRepeat(RetransmissionStrategy):
    """§3.2.3 — resend exactly the packets the report names as missing."""

    name = "selective"
    mode = FailureDetection.LAST_PACKET_RELIABLE

    def next_working_set(self, total, report):
        if report is None or not report.missing:
            return list(range(total))
        return list(report.missing)


STRATEGY_REGISTRY: Dict[str, Type[RetransmissionStrategy]] = {
    cls.name: cls
    for cls in (
        FullRetransmission,
        FullRetransmissionWithNak,
        GoBackN,
        SelectiveRepeat,
    )
}


def get_strategy(name) -> RetransmissionStrategy:
    """A strategy by its registry name (a strategy is returned as it is)."""
    if isinstance(name, RetransmissionStrategy):
        return name
    try:
        return STRATEGY_REGISTRY[name]()
    except KeyError:
        raise ValueError(
            f"unknown strategy {name!r}; choose from {sorted(STRATEGY_REGISTRY)}"
        ) from None
